"""Functional ops built on the autograd tape.

Besides the usual NN nonlinearities, this module provides the gather /
scatter / segment primitives that GNN message passing needs: they are
the numpy equivalents of the sparse kernels the paper offloads to the
GPU (``ScatterToEdge`` and ``GatherByDst`` in Section 4.1 are expressed
with :func:`index_select` and :func:`segment_sum`).

Every scatter-add here (``SegmentSum`` forward, ``IndexSelect`` and
``FusedGatherScatter`` backward) runs through :func:`scatter_add`.  It
takes an optional :class:`SegmentPlan`: a precomputed, reusable
schedule that adds into each target in exactly the order ``np.add.at``
does, so the result is bit-identical while most rows move in
vectorised, conflict-free passes.  Without a plan (small inputs, or a
caller that has none) it is plain ``np.add.at``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.tensor.tensor import Function, Tensor


# ----------------------------------------------------------------------
# Segment plans: bit-identical scatter-add schedules
# ----------------------------------------------------------------------
# Below this many rows a plan costs more to build than np.add.at takes,
# so :func:`segment_plan` returns None and callers use np.add.at.
PLAN_MIN_ROWS = 1024
# Once fewer than this many targets still have rows left, the remaining
# rows go to one trailing np.add.at instead of one pass per rank.
PLAN_TAIL_WIDTH = 32


class SegmentPlan:
    """A reusable schedule for ``out[index[i]] += rows[i]`` over all ``i``.

    ``np.add.at`` adds the rows of each target in increasing ``i``.  The
    plan keeps that order per target, so its sums are bit-identical
    (signed zeros included), but moves the rows in vectorised passes:

    * targets are ranked by row count, descending, so the targets that
      still have a row at rank ``r`` (their ``r``-th row, counting in
      ``i`` order) are a prefix of that ranking;
    * pass ``r`` adds every such row into a permuted buffer with one
      contiguous ``+=`` -- no target appears twice in a pass;
    * once fewer than :data:`PLAN_TAIL_WIDTH` targets remain, their
      remaining rows go to one ``np.add.at``, ordered by (target, rank);
    * the buffer is finally scattered to the targets' rows.

    The plan depends only on ``index`` and ``num_segments``; blocks
    build it once and reuse it every epoch.
    """

    def __init__(self, index: np.ndarray, num_segments: int):
        index = np.asarray(index, dtype=np.int64)
        if len(index) and (index.min() < 0 or index.max() >= num_segments):
            raise IndexError(
                f"segment index out of range [0, {num_segments})"
            )
        self.num_segments = int(num_segments)
        self.num_rows = len(index)
        counts = np.bincount(index, minlength=self.num_segments)
        # Stable sort: each target's rows in increasing i.
        order = np.argsort(index, kind="stable")
        starts = np.cumsum(counts) - counts
        # Non-empty targets by count descending (ties by id).
        targets = np.argsort(-counts, kind="stable")
        targets = targets[: np.count_nonzero(counts)]
        target_counts = counts[targets]
        target_starts = starts[targets]
        # widths[r] = number of targets with more than r rows.
        max_count = int(target_counts[0]) if len(targets) else 0
        widths = np.cumsum(
            np.bincount(target_counts, minlength=max_count + 1)[::-1]
        )[::-1][1:]
        num_passes = int(np.count_nonzero(widths >= PLAN_TAIL_WIDTH))
        pass_widths = widths[:num_passes]
        # Pass r reads row order[target_starts[k] + r] for k < widths[r].
        self.bounds = np.concatenate(([0], np.cumsum(pass_widths)))
        k = np.arange(int(self.bounds[-1]), dtype=np.int64) - np.repeat(
            self.bounds[:-1], pass_widths
        )
        rank = np.repeat(np.arange(num_passes, dtype=np.int64), pass_widths)
        self.pass_rows = order[target_starts[k] + rank]
        # Tail: every row of rank >= num_passes, by (target, rank).
        tail_width = int(widths[num_passes]) if num_passes < max_count else 0
        tail_lens = target_counts[:tail_width] - num_passes
        self.tail_pos = np.repeat(
            np.arange(tail_width, dtype=np.int64), tail_lens
        )
        tail_offsets = np.cumsum(tail_lens) - tail_lens
        tail_rank = num_passes + (
            np.arange(len(self.tail_pos), dtype=np.int64)
            - np.repeat(tail_offsets, tail_lens)
        )
        self.tail_rows = order[target_starts[self.tail_pos] + tail_rank]
        self.targets = targets

    def scatter_add(self, rows: np.ndarray) -> np.ndarray:
        """``out = zeros; np.add.at(out, index, rows)``, bit for bit."""
        if len(rows) != self.num_rows:
            raise ValueError(
                f"plan covers {self.num_rows} rows, got {len(rows)}"
            )
        row_shape = rows.shape[1:]
        buf = np.zeros((len(self.targets),) + row_shape, dtype=rows.dtype)
        bounds = self.bounds
        for r in range(len(bounds) - 1):
            lo, hi = bounds[r], bounds[r + 1]
            buf[: hi - lo] += rows[self.pass_rows[lo:hi]]
        if len(self.tail_pos):
            np.add.at(buf, self.tail_pos, rows[self.tail_rows])
        out = np.zeros((self.num_segments,) + row_shape, dtype=rows.dtype)
        out[self.targets] = buf
        return out


def segment_plan(index: np.ndarray, num_segments: int) -> Optional[SegmentPlan]:
    """A :class:`SegmentPlan` for ``index``, or None below
    :data:`PLAN_MIN_ROWS` rows (where plain ``np.add.at`` is faster)."""
    if len(index) < PLAN_MIN_ROWS:
        return None
    return SegmentPlan(index, num_segments)


def scatter_add(
    rows: np.ndarray,
    index: np.ndarray,
    num_segments: int,
    plan: Optional[SegmentPlan] = None,
) -> np.ndarray:
    """``out[index[i]] += rows[i]`` into fresh zeros of ``rows.dtype``.

    Uses ``plan`` (built for this ``index``) when given, else
    ``np.add.at``; both give the same bits.
    """
    if plan is not None:
        return plan.scatter_add(rows)
    out = np.zeros((num_segments,) + rows.shape[1:], dtype=rows.dtype)
    np.add.at(out, index, rows)
    return out


# A zero-argument callable returning the plan (or None), so that a plan
# needed only by backward is built only when backward runs.
PlanSource = Callable[[], Optional[SegmentPlan]]


# ----------------------------------------------------------------------
# Gather / scatter primitives
# ----------------------------------------------------------------------
class IndexSelect(Function):
    """``out[i] = x[indices[i]]`` along axis 0 (edge scatter / row gather)."""

    def __init__(
        self, *inputs, indices: np.ndarray, plan: Optional[PlanSource] = None
    ):
        super().__init__(*inputs)
        self.indices = indices
        self.plan = plan

    def forward(self, x):
        self.save_for_backward(x.shape)
        return x[self.indices]

    def backward(self, grad):
        (shape,) = self.saved
        plan = self.plan() if self.plan is not None else None
        return (scatter_add(grad, self.indices, shape[0], plan),)


class SegmentSum(Function):
    """``out[s] = sum_{i: seg[i]==s} x[i]`` (dst-grouped aggregation)."""

    def __init__(
        self,
        *inputs,
        segments: np.ndarray,
        num_segments: int,
        plan: Optional[SegmentPlan] = None,
    ):
        super().__init__(*inputs)
        self.segments = segments
        self.num_segments = num_segments
        self.plan = plan

    def forward(self, x):
        return scatter_add(x, self.segments, self.num_segments, self.plan)

    def backward(self, grad):
        return (grad[self.segments],)


def index_select(
    x: Tensor, indices: np.ndarray, plan: Optional[PlanSource] = None
) -> Tensor:
    """Gather rows of ``x`` by integer ``indices`` (differentiable).

    ``plan``, if given, returns the :class:`SegmentPlan` of ``indices``
    over ``len(x)`` rows; it is called only if backward runs.
    """
    indices = np.asarray(indices, dtype=np.int64)
    return IndexSelect.apply(x, indices=indices, plan=plan)


def segment_sum(
    x: Tensor,
    segments: np.ndarray,
    num_segments: int,
    plan: Optional[SegmentPlan] = None,
) -> Tensor:
    """Sum rows of ``x`` grouped by ``segments`` into ``num_segments`` rows.

    ``plan``, if given, is the :class:`SegmentPlan` of ``segments``.
    """
    segments = np.asarray(segments, dtype=np.int64)
    if len(segments) != len(x):
        raise ValueError(
            f"segments has {len(segments)} entries for {len(x)} rows"
        )
    return SegmentSum.apply(
        x, segments=segments, num_segments=num_segments, plan=plan
    )


class FusedGatherScatter(Function):
    """Gather-by-src + (optional weight) + segment-sum as one kernel.

    The fused form of ``IndexSelect -> Mul -> SegmentSum`` (and the
    trailing count division for ``"mean"``): forward and backward
    replay the unfused chain's numpy operations in the same order, and
    scatter-add through the same plans, so the result -- value and
    gradient -- is bit-identical to the op chain while skipping the
    intermediate ``Function`` nodes and the per-edge tape tensor.
    """

    def __init__(
        self,
        *inputs,
        src_pos: np.ndarray,
        segments: np.ndarray,
        num_segments: int,
        weights: Optional[np.ndarray],
        reducer: str,
        dst_plan: Optional[SegmentPlan] = None,
        src_plan: Optional[PlanSource] = None,
    ):
        super().__init__(*inputs)
        self.src_pos = src_pos
        self.segments = segments
        self.num_segments = num_segments
        self.weights = weights
        self.reducer = reducer
        self.dst_plan = dst_plan
        self.src_plan = src_plan

    def _counts(self, ndim: int, dtype) -> np.ndarray:
        # Exactly segment_mean's divisor: bincount, clamp, broadcast.
        counts = np.bincount(
            self.segments, minlength=self.num_segments
        ).astype(dtype)
        return np.maximum(counts, 1.0).reshape(
            (self.num_segments,) + (1,) * (ndim - 1)
        )

    def forward(self, x):
        messages = x[self.src_pos]
        if self.weights is not None:
            messages = messages * self.weights.reshape(-1, 1)
        # Allocation dtype follows the *message* rows (matching what
        # SegmentSum sees in the unfused chain, weight promotion
        # included), not the raw input.
        self.save_for_backward(x.shape, messages.dtype)
        out = scatter_add(
            messages, self.segments, self.num_segments, self.dst_plan
        )
        if self.reducer == "mean":
            out = out / self._counts(messages.ndim, messages.dtype)
        return out

    def backward(self, grad):
        shape, dtype = self.saved
        if self.reducer == "mean":
            grad = grad / self._counts(len(shape), dtype)
        per_edge = grad[self.segments]
        if self.weights is not None:
            per_edge = per_edge * self.weights.reshape(-1, 1)
        plan = self.src_plan() if self.src_plan is not None else None
        return (scatter_add(per_edge, self.src_pos, shape[0], plan),)


def fused_gather_scatter(
    x: Tensor,
    src_pos: np.ndarray,
    segments: np.ndarray,
    num_segments: int,
    weights: Optional[np.ndarray] = None,
    reducer: str = "sum",
    dst_plan: Optional[SegmentPlan] = None,
    src_plan: Optional[PlanSource] = None,
) -> Tensor:
    """One-kernel ``x[src_pos] (* weights)`` summed (or meaned) by
    ``segments`` -- the fused Scatter/Edge/Gather step.

    ``dst_plan`` is the :class:`SegmentPlan` of ``segments``;
    ``src_plan`` returns that of ``src_pos`` and is called only if
    backward runs.
    """
    if reducer not in ("sum", "weighted_sum", "mean"):
        raise ValueError(f"unsupported fused reducer {reducer!r}")
    if reducer == "weighted_sum" and weights is None:
        raise ValueError("weighted_sum fusion needs edge weights")
    return FusedGatherScatter.apply(
        x,
        src_pos=np.asarray(src_pos, dtype=np.int64),
        segments=np.asarray(segments, dtype=np.int64),
        num_segments=num_segments,
        weights=weights if reducer == "weighted_sum" else None,
        reducer=reducer,
        dst_plan=dst_plan,
        src_plan=src_plan,
    )


def segment_mean(
    x: Tensor,
    segments: np.ndarray,
    num_segments: int,
    plan: Optional[SegmentPlan] = None,
) -> Tensor:
    """Mean of rows grouped by ``segments``; empty segments yield zeros."""
    segments = np.asarray(segments, dtype=np.int64)
    totals = segment_sum(x, segments, num_segments, plan)
    counts = np.bincount(segments, minlength=num_segments).astype(x.dtype)
    counts = np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (x.ndim - 1))
    return totals / counts


def segment_softmax(
    scores: Tensor,
    segments: np.ndarray,
    num_segments: int,
    plan: Optional[SegmentPlan] = None,
) -> Tensor:
    """Softmax over rows sharing a segment id (GAT attention normalisation).

    The per-segment max shift is detached (a constant under the softmax),
    matching the standard numerically-stable formulation.  ``plan``, if
    given, is the :class:`SegmentPlan` of ``segments``.
    """
    segments = np.asarray(segments, dtype=np.int64)
    shift = np.full((num_segments,) + scores.shape[1:], -np.inf, dtype=scores.dtype)
    np.maximum.at(shift, segments, scores.data)
    shift = np.where(np.isinf(shift), 0.0, shift)
    shifted = scores - Tensor(shift[segments])
    exp = shifted.exp()
    denom = segment_sum(exp, segments, num_segments, plan)
    denom_per_row = index_select(denom, segments, plan=lambda: plan)
    return exp / (denom_per_row + 1e-16)


# ----------------------------------------------------------------------
# Nonlinearities and classifiers
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    return x.relu()


class LeakyRelu(Function):
    def __init__(self, *inputs, negative_slope: float):
        super().__init__(*inputs)
        self.negative_slope = negative_slope

    def forward(self, a):
        self.save_for_backward(a)
        return np.where(a > 0, a, self.negative_slope * a)

    def backward(self, grad):
        (a,) = self.saved
        return (np.where(a > 0, grad, self.negative_slope * grad),)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    return LeakyRelu.apply(x, negative_slope=negative_slope)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


class Dropout(Function):
    def __init__(self, *inputs, p: float, rng: np.random.Generator):
        super().__init__(*inputs)
        self.p = p
        self.rng = rng

    def forward(self, a):
        keep = 1.0 - self.p
        mask = (self.rng.random(a.shape) < keep).astype(a.dtype) / keep
        self.save_for_backward(mask)
        return a * mask

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


def dropout(
    x: Tensor,
    p: float = 0.5,
    training: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout; identity when ``training`` is False or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None:
        rng = np.random.default_rng()
    return Dropout.apply(x, p=p, rng=rng)


class Concat(Function):
    def __init__(self, *inputs, axis: int):
        super().__init__(*inputs)
        self.axis = axis

    def forward(self, *arrays):
        self.save_for_backward([a.shape[self.axis] for a in arrays])
        return np.concatenate(arrays, axis=self.axis)

    def backward(self, grad):
        sizes = self.saved[0]
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(grad, splits, axis=self.axis))


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    return Concat.apply(*tensors, axis=axis)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log likelihood over integer ``targets`` (mean-reduced)."""
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.shape[0]
    if n == 0:
        raise ValueError("nll_loss on an empty batch")
    picked = log_probs[(np.arange(n), targets)]
    return -picked.sum() / float(n)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy with integer targets."""
    return nll_loss(log_softmax(logits, axis=-1), targets)
