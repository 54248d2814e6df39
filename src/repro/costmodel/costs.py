"""Per-dependency costs: Eq. 1 (redundant compute) and Eq. 2 (comm).

``t_r^l(u)`` walks the dependency subtree rooted at ``u`` down to the
features, counting only vertices/edges not already available locally
(owned, or previously cached in ``V_rep``); ``t_c^l(u)`` is the flat
per-vertex communication cost of layer ``l``.  Both are per-epoch
(forward + backward) modeled seconds.  :meth:`DependencyCostModel.score`
walks a whole batch of candidates at once, which is how Algorithm 4
measures them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.costmodel.probe import _BACKWARD_COMM, ProbeResult
from repro.graph.graph import Graph


@dataclass
class SubtreeMeasurement:
    """One evaluation of Eq. 1 for a dependency ``u`` at layer ``l``."""

    cost_s: float
    new_edge_count: int
    memory_bytes: int


@dataclass
class SubtreeScores:
    """Eq. 1 for a batch of candidates, one array entry per candidate."""

    cost_s: np.ndarray
    edge_count: np.ndarray
    memory_bytes: np.ndarray
    # Per level k = l-1 .. 0: (candidate index, vertex) of every h^k the
    # candidate adds to ``V_rep`` when committed.
    fresh: List[Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class TensorParallelCostInputs:
    """Per-worker quantities that price the tensor-parallel option.

    Flipping a layer to tensor parallelism replaces this worker's
    per-dependency traffic with two dense slice transposes (NeutronTP):
    the worker ships ``(m-1)/m`` of its owned rows out and receives a
    ``1/m`` slice of everyone else's, then aggregates its slice over
    the *full* edge set -- so the compute side trades the worker's own
    edges for an even ``1/m`` share of all edges.

    ``cost_scale`` scales the modeled TP cost; ``inf`` disables the
    option entirely (the four-way greedy degenerates to three-way),
    which the property tests use to pin bit-identical fallback.
    """

    num_workers: int
    num_vertices: int
    num_owned: int
    total_edges: int
    owned_in_edges: int
    cost_scale: float = 1.0


class DependencyCostModel:
    """Evaluates t_r / t_c for one worker's dependency decisions.

    Parameters
    ----------
    graph:
        The (normalised) training graph.
    dims:
        ``[d^(0), ..., d^(L)]`` layer dimensions.
    constants:
        Probed :class:`ProbeResult`.
    owned_mask:
        Boolean mask of the worker's own vertices (``V_i``): never
        counted as redundant.
    mu:
        Eq. 3's trimming factor for overlapped multi-hop dependencies.
    """

    def __init__(
        self,
        graph: Graph,
        dims: List[int],
        constants: ProbeResult,
        owned_mask: np.ndarray,
        mu: float = 1.0,
        tp: "TensorParallelCostInputs" = None,
    ):
        if not 0 < mu <= 1:
            raise ValueError("mu must be in (0, 1]")
        self.graph = graph
        self.dims = dims
        self.constants = constants
        self.owned_mask = owned_mask
        self.mu = mu
        self.tp = tp
        # V_rep: vertices whose h^k is already locally (re)computed, per
        # level k.  Level 0 entries mean "feature already cached".
        self.replicated: List[np.ndarray] = [
            np.zeros(graph.num_vertices, dtype=bool) for _ in range(len(dims))
        ]

    # ------------------------------------------------------------------
    def t_c(self, layer: int) -> float:
        """Eq. 2: communication cost of one dependency at ``layer``."""
        return self.constants.comm_cost(layer)

    def t_cached(self, layer: int, tau: float) -> float:
        """Amortized comm cost of a staleness-bounded cached dependency.

        A cached entry is re-fetched once every ``tau`` epochs, so its
        per-epoch cost is ``t_c(layer) / tau`` -- the communication-
        amortizing third option between Eq. 1 and Eq. 2.  ``tau <= 1``
        buys no amortization (the entry expires before it is ever served
        stale), so the cost degenerates to the full ``t_c``;
        ``tau = inf`` is a one-time fetch (zero steady-state cost).
        """
        if tau < 0:
            raise ValueError(f"tau must be non-negative, got {tau}")
        t_c = self.t_c(layer)
        if tau <= 1:
            return t_c
        if math.isinf(tau):
            return 0.0
        return t_c / float(tau)

    def cache_entry_bytes(self, layer: int) -> int:
        """Resident bytes of one cached ``h^{l-1}`` row at ``layer``."""
        return self.dims[layer - 1] * 4

    def t_tp(self, layer: int) -> float:
        """Modeled per-epoch cost of running ``layer`` tensor-parallel.

        Communication is the two slice transposes (slice before the
        layer, unslice after): this worker sends ``n_own * (m-1)/m``
        rows and receives ``(n - n_own) / m`` row-equivalents of width
        ``d^{l-1}``, each direction once forward and once backward
        (``_BACKWARD_COMM``), priced at the bulk per-byte rate plus one
        message latency per peer.  Compute is the *delta* against the
        hybrid plan: TP aggregates an even ``1/m`` share of all edges
        instead of the worker's own in-edges, so hub-heavy workers get
        a negative (beneficial) term and the deltas sum to zero across
        workers.  Returns ``inf`` when the TP option is unavailable.
        """
        tp = self.tp
        if tp is None or tp.num_workers < 2 or math.isinf(tp.cost_scale):
            return math.inf
        m = tp.num_workers
        d = self.dims[layer - 1]
        rows = (
            tp.num_owned * (m - 1) / m
            + (tp.num_vertices - tp.num_owned) / m
        )
        comm = _BACKWARD_COMM * (
            rows * d * 4 * self.constants.t_c_byte
            + 2 * (m - 1) * self.constants.t_msg
        )
        compute = (
            tp.total_edges / m - tp.owned_in_edges
        ) * self.constants.edge_cost(layer)
        return tp.cost_scale * (comm + compute)

    def score(
        self, candidates: np.ndarray, layer: int, in_order: bool = False
    ) -> SubtreeScores:
        """Eq. 1 for every candidate at once, one walk per level.

        Each level ``k`` (the layer whose representation must be
        recomputed) holds (candidate, vertex) pairs; a vertex counts for
        a candidate unless it is owned or already in ``V_rep``, weighted
        by the per-layer probed costs.  Level 0 contributes memory
        (cached features) but no per-epoch compute.

        By default every candidate is scored against ``V_rep`` alone.
        With ``in_order`` each is scored as if every earlier candidate
        had been committed: a vertex counts at a level only for the
        first candidate in the order that reaches it there.
        """
        n = len(candidates)
        csc = self.graph.csc
        cost = np.zeros(n)
        edges = np.zeros(n, dtype=np.int64)
        memory = np.zeros(n, dtype=np.int64)
        fresh: List[Tuple[np.ndarray, np.ndarray]] = []
        owner = np.arange(n, dtype=np.int64)
        verts = np.asarray(candidates, dtype=np.int64)
        for k in range(layer - 1, -1, -1):
            # Sorting by (vertex, candidate) puts each vertex's first
            # candidate ahead of the rest, so one adjacent-pair scan
            # dedups per candidate, or per vertex in order.
            verts, owner = np.divmod(np.sort(verts * n + owner), n)
            keep = np.ones(len(verts), dtype=bool)
            keep[1:] = verts[1:] != verts[:-1]
            if not in_order:
                keep[1:] |= owner[1:] != owner[:-1]
            keep &= ~self.owned_mask[verts] & ~self.replicated[k][verts]
            verts, owner = verts[keep], owner[keep]
            fresh.append((owner, verts))
            count = np.bincount(owner, minlength=n)
            if k == 0:
                memory += count * self.dims[0] * 4
                break
            degree = csc.indptr[verts + 1] - csc.indptr[verts]
            _, sources, _ = csc.select(verts)
            owner = np.repeat(owner, degree)
            verts = sources.astype(np.int64, copy=False)
            edge_count = np.bincount(owner, minlength=n)
            cost += self.mu * (
                count * self.constants.vertex_cost(k)
                + edge_count * self.constants.edge_cost(k)
            )
            edges += edge_count
            memory += count * self.dims[k] * 4 + edge_count * 12
        return SubtreeScores(cost, edges, memory, fresh)

    def commit_prefix(self, scores: SubtreeScores, count: int) -> None:
        """Add the first ``count`` scored candidates' subtrees to ``V_rep``."""
        for k, (owner, verts) in zip(range(len(scores.fresh) - 1, -1, -1), scores.fresh):
            self.replicated[k][verts[owner < count]] = True

    def t_r(self, u: int, layer: int) -> SubtreeMeasurement:
        """Eq. 1: redundant-computation cost of caching ``u`` at ``layer``."""
        scores = self.score(np.asarray([u]), layer)
        return SubtreeMeasurement(
            cost_s=float(scores.cost_s[0]),
            new_edge_count=int(scores.edge_count[0]),
            memory_bytes=int(scores.memory_bytes[0]),
        )
