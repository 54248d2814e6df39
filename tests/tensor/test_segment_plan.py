"""Property tests pinning :class:`SegmentPlan` to ``np.add.at`` bit for bit.

A plan reorders *which rows move together*, never the order in which
one target receives its rows, so every sum must have the exact bits
``np.add.at`` produces.  Results are compared through an unsigned
integer view, so ``-0.0`` vs ``+0.0`` and any last-place rounding
difference count as failures.  Row magnitudes span several decades so
that a sum taken in any other order would round differently.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import functional as F
from repro.tensor.functional import (
    PLAN_MIN_ROWS,
    PLAN_TAIL_WIDTH,
    SegmentPlan,
    scatter_add,
    segment_plan,
)
from repro.tensor.tensor import Tensor

_UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def _reference(index, num_segments, rows):
    out = np.zeros((num_segments,) + rows.shape[1:], dtype=rows.dtype)
    np.add.at(out, index, rows)
    return out


def _assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    view = _UINT[want.dtype]
    assert np.array_equal(got.view(view), want.view(view))


def _rows(rng, num_rows, cols, dtype):
    shape = (num_rows,) if cols is None else (num_rows, cols)
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, size=shape)
    rows[rng.random(shape) < 0.05] = -0.0
    return rows.astype(dtype)


def _index(rng, layout, num_rows, num_segments):
    if layout == "uniform":
        index = rng.integers(0, num_segments, size=num_rows)
    elif layout == "skewed":  # power-law segment sizes, like hub graphs
        index = (rng.zipf(1.6, size=num_rows) - 1) % num_segments
    elif layout == "hub":  # one segment takes most rows
        index = np.where(
            rng.random(num_rows) < 0.9,
            rng.integers(0, num_segments),
            rng.integers(0, num_segments, size=num_rows),
        )
    else:  # "single": every row in one segment
        index = np.full(num_rows, rng.integers(0, num_segments))
    return index.astype(np.int64)


# Row counts straddling both thresholds: a handful of rows (every target
# narrower than the tail width), around the tail width, and around the
# minimum planned size.
_SIZES = st.one_of(
    st.integers(0, 3 * PLAN_TAIL_WIDTH),
    st.integers(PLAN_MIN_ROWS - 40, PLAN_MIN_ROWS + 40),
    st.integers(0, 3000),
)


@settings(max_examples=120, deadline=None)
@given(
    num_rows=_SIZES,
    num_segments=st.integers(1, 400),
    layout=st.sampled_from(["uniform", "skewed", "hub", "single"]),
    sort=st.booleans(),
    cols=st.sampled_from([None, 1, 64]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_scatter_add_matches_add_at(
    num_rows, num_segments, layout, sort, cols, dtype, seed
):
    rng = np.random.default_rng(seed)
    index = _index(rng, layout, num_rows, num_segments)
    if sort:
        index = np.sort(index)
    rows = _rows(rng, num_rows, cols, dtype)
    plan = SegmentPlan(index, num_segments)
    want = _reference(index, num_segments, rows)
    _assert_bits_equal(plan.scatter_add(rows), want)
    # Reusing the plan on fresh rows is exact too.
    rows2 = _rows(rng, num_rows, cols, dtype)
    _assert_bits_equal(
        plan.scatter_add(rows2), _reference(index, num_segments, rows2)
    )
    # The dispatching helper agrees whether or not a plan is built.
    _assert_bits_equal(
        scatter_add(rows, index, num_segments, segment_plan(index, num_segments)),
        want,
    )


@pytest.mark.parametrize("width", [PLAN_TAIL_WIDTH - 1, PLAN_TAIL_WIDTH, PLAN_TAIL_WIDTH + 1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tail_width_boundary(width, dtype):
    """``width`` targets of 40 rows each plus a long-row tail, so the
    rank passes stop exactly at (or one off) the tail width."""
    rng = np.random.default_rng(width)
    index = np.concatenate([
        np.repeat(np.arange(width), 40),
        np.repeat(np.arange(width, width + 100), 3),
    ])
    rng.shuffle(index)
    num_segments = width + 150  # the last 50 segments stay empty
    plan = SegmentPlan(index, num_segments)
    assert (len(plan.bounds) - 1 >= 40) == (width >= PLAN_TAIL_WIDTH)
    rows = _rows(rng, len(index), 8, dtype)
    _assert_bits_equal(
        plan.scatter_add(rows), _reference(index, num_segments, rows)
    )


def test_empty_index():
    plan = SegmentPlan(np.empty(0, dtype=np.int64), 5)
    out = plan.scatter_add(np.empty((0, 3), dtype=np.float32))
    _assert_bits_equal(out, np.zeros((5, 3), dtype=np.float32))


def test_min_rows_decides_whether_a_plan_is_built():
    index = np.zeros(PLAN_MIN_ROWS, dtype=np.int64)
    assert segment_plan(index[:-1], 1) is None
    assert isinstance(segment_plan(index, 1), SegmentPlan)


def test_plan_is_reused_by_segment_sum_and_index_select_backward():
    rng = np.random.default_rng(0)
    index = _index(rng, "skewed", 2000, 300)
    plan = SegmentPlan(index, 300)
    x = Tensor(_rows(rng, 2000, 4, np.float32), requires_grad=True)
    out = F.segment_sum(x, index, 300, plan)
    _assert_bits_equal(out.data, _reference(index, 300, x.data))

    h = Tensor(_rows(rng, 300, 4, np.float32), requires_grad=True)
    calls = []
    gathered = F.index_select(h, index, plan=lambda: calls.append(1) or plan)
    assert not calls  # built lazily: forward never asks for the plan
    grad = _rows(rng, 2000, 4, np.float32)
    gathered.backward(grad)
    assert calls == [1]
    _assert_bits_equal(h.grad, _reference(index, 300, grad))


def test_out_of_range_index_raises():
    with pytest.raises(IndexError):
        SegmentPlan(np.array([0, 3]), 3)
    with pytest.raises(IndexError):
        SegmentPlan(np.array([-1, 0]), 3)


def test_row_count_mismatch_raises():
    plan = SegmentPlan(np.array([0, 1, 1]), 2)
    with pytest.raises(ValueError):
        plan.scatter_add(np.ones((2, 1)))
