"""Batched Algorithm 4 against the per-candidate greedy it replaced.

``reference_partition_dependencies`` is the heap loop frozen as it was
before the batched scorer: one ``t_r`` walk per candidate, one commit
per cached candidate.  Every :class:`DependencyPartition` field and the
memory tracker's peak must match it exactly -- floats and dicts with
``==``, not a tolerance, since the batched greedy keeps the arithmetic
and its order.
"""

import contextlib
import dataclasses
import heapq
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache.budget import CacheBudget, CacheConfig
from repro.cluster.memory import MemoryTracker
from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.costmodel import partitioner
from repro.costmodel.costs import DependencyCostModel, TensorParallelCostInputs
from repro.costmodel.partitioner import (
    _OVERLAP_DISCOUNT,
    _SECONDS_PER_EDGE_VISIT,
    _SECONDS_PER_EVALUATION,
    CLOSURE_MEMORY_LABEL,
    DependencyPartition,
    _select_stale_cached,
    partition_dependencies,
)
from repro.costmodel.probe import _BACKWARD_COMM, probe_constants
from repro.graph import generators
from repro.graph.khop import dependency_layers
from repro.partition.chunk import chunk_partition
from repro.partition.hashing import hash_partition

# ---------------------------------------------------------------------------
# Frozen per-candidate reference.
# ---------------------------------------------------------------------------


def _t_r_ref(cm, u, layer):
    """Eq. 1 for one candidate: (cost, new vertices per level, edges, bytes)."""
    csc = cm.graph.csc
    cost = 0.0
    new_edge_count = 0
    memory = 0
    new_vertices = []
    frontier = np.asarray([u], dtype=np.int64)
    for k in range(layer - 1, 0, -1):
        rep = cm.replicated[k]
        fresh = frontier[~cm.owned_mask[frontier] & ~rep[frontier]]
        new_vertices.append(fresh)
        if len(fresh):
            _, sources, eids = csc.select(fresh)
            edge_count = len(eids)
            cost += cm.mu * (
                len(fresh) * cm.constants.vertex_cost(k)
                + edge_count * cm.constants.edge_cost(k)
            )
            new_edge_count += edge_count
            memory += len(fresh) * cm.dims[k] * 4 + edge_count * 12
            frontier = np.unique(sources)
        else:
            frontier = np.empty(0, dtype=np.int64)
        if len(frontier) == 0:
            break
    rep0 = cm.replicated[0]
    fresh0 = (
        frontier[~cm.owned_mask[frontier] & ~rep0[frontier]]
        if len(frontier)
        else frontier
    )
    new_vertices.append(fresh0)
    memory += len(fresh0) * cm.dims[0] * 4
    return cost, new_vertices, new_edge_count, memory


def _commit_ref(cm, layer, new_vertices):
    levels = list(range(layer - 1, 0, -1)) + [0]
    for k, fresh in zip(levels, new_vertices):
        if len(fresh):
            cm.replicated[k][fresh] = True


def reference_partition_dependencies(
    graph, partitioning, worker, dims, constants, memory_limit_bytes=None,
    mu=0.8, force_cache_fraction=None, cache=None, warm_start=None, tp=None,
):
    num_layers = len(dims) - 1
    owned = partitioning.part(worker)
    owned_mask = np.zeros(graph.num_vertices, dtype=bool)
    owned_mask[owned] = True
    deps = dependency_layers(graph, owned, num_layers)
    cost_model = DependencyCostModel(graph, dims, constants, owned_mask, mu=mu, tp=tp)
    cached, communicated, stale_cached, initial_costs = [], [], [], []
    tp_layers, tp_cost_s, three_way_cost_s = [], [], []
    tracker = (
        MemoryTracker(worker, max(1, memory_limit_bytes))
        if memory_limit_bytes is not None
        else None
    )
    cache_budget = (
        CacheBudget.for_config(cache, tracker=tracker) if cache is not None else None
    )
    modeled_seconds = 0.0
    evaluations = 0
    budget_exhausted = False
    if force_cache_fraction is not None:
        total_deps = sum(len(d) for d in deps)
        quota_remaining = int(round(force_cache_fraction * total_deps))
    else:
        quota_remaining = None
    tp_enabled = tp is not None and quota_remaining is None
    tp_below = False

    for l in range(1, num_layers + 1):
        layer_deps = deps[l - 1]
        t_c = cost_model.t_c(l)
        warm_costs = None
        if warm_start is not None and l - 1 < len(warm_start.initial_costs):
            warm_costs = warm_start.initial_costs[l - 1]
        layer_costs = {}
        layer_cached_cost = 0.0
        snapshot = None
        if tp_enabled:
            snapshot = (
                [rep.copy() for rep in cost_model.replicated],
                tracker.snapshot() if tracker is not None else None,
                cache_budget.snapshot() if cache_budget is not None else None,
                budget_exhausted,
            )
        if budget_exhausted or len(layer_deps) == 0 or tp_below:
            cached.append(np.empty(0, dtype=np.int64))
        else:
            heap = []
            for u in layer_deps:
                u = int(u)
                if warm_costs is not None and u in warm_costs:
                    cost = warm_costs[u]
                else:
                    cost, _, edges, _ = _t_r_ref(cost_model, u, l)
                    evaluations += 1
                    modeled_seconds += (
                        _SECONDS_PER_EVALUATION + edges * _SECONDS_PER_EDGE_VISIT
                    )
                layer_costs[u] = cost
                heapq.heappush(heap, (cost, u))
            layer_cached = []
            while heap:
                _, u = heapq.heappop(heap)
                cost, new_vertices, edges, memory = _t_r_ref(cost_model, u, l)
                evaluations += 1
                modeled_seconds += (
                    _SECONDS_PER_EVALUATION + edges * _SECONDS_PER_EDGE_VISIT
                )
                if quota_remaining is not None:
                    if not quota_remaining > 0:
                        break
                elif not cost < t_c:
                    break
                if tracker is not None and not tracker.try_allocate(
                    memory, CLOSURE_MEMORY_LABEL
                ):
                    budget_exhausted = True
                    break
                layer_cached.append(u)
                layer_cached_cost += cost
                if quota_remaining is not None:
                    quota_remaining -= 1
                _commit_ref(cost_model, l, new_vertices)
            cached.append(np.asarray(sorted(layer_cached), dtype=np.int64))
        initial_costs.append(layer_costs)
        remaining = np.setdiff1d(layer_deps, cached[-1])
        if cache_budget is not None:
            stale = _select_stale_cached(
                remaining, l, cost_model, cache, cache_budget,
                graph, partitioning, worker,
            )
        else:
            stale = np.empty(0, dtype=np.int64)
        stale_cached.append(stale)
        communicated.append(np.setdiff1d(remaining, stale))
        tp_cost = cost_model.t_tp(l) if tp_enabled else math.inf
        stale_cost = (
            len(stale) * cost_model.t_cached(l, cache.tau) if cache is not None else 0.0
        )
        comm_rows = len(communicated[-1])
        bulk_comm = 0.0
        if comm_rows:
            bulk_comm = _BACKWARD_COMM * (
                comm_rows * dims[l - 1] * 4 * constants.t_c_byte
                + (partitioning.num_parts - 1) * constants.t_msg
            )
        three_way = layer_cached_cost + stale_cost + _OVERLAP_DISCOUNT * bulk_comm
        tp_cost_s.append(tp_cost)
        three_way_cost_s.append(three_way)
        flip = tp_enabled and len(layer_deps) > 0 and tp_cost < three_way
        tp_layers.append(flip)
        if flip:
            reps, tracker_state, cache_state, prior_exhausted = snapshot
            cost_model.replicated = reps
            if tracker is not None and tracker_state is not None:
                tracker.restore(tracker_state)
            if cache_budget is not None and cache_state is not None:
                cache_budget.restore(cache_state)
            budget_exhausted = prior_exhausted
            cached[-1] = np.empty(0, dtype=np.int64)
            stale_cached[-1] = np.empty(0, dtype=np.int64)
            communicated[-1] = np.sort(np.asarray(layer_deps, dtype=np.int64))
            tp_below = True

    closure_bytes = 0
    cache_bytes = 0
    if tracker is not None:
        closure_bytes = tracker.breakdown().get(CLOSURE_MEMORY_LABEL, 0)
    if cache_budget is not None:
        cache_bytes = cache_budget.bytes
    return DependencyPartition(
        worker=worker, cached=cached, communicated=communicated,
        memory_bytes=closure_bytes, modeled_seconds=modeled_seconds,
        measured_evaluations=evaluations, stale_cached=stale_cached,
        cache_bytes=cache_bytes, initial_costs=initial_costs,
        tp_layers=tp_layers, tp_cost_s=tp_cost_s,
        three_way_cost_s=three_way_cost_s,
    )


# ---------------------------------------------------------------------------
# Harness.
# ---------------------------------------------------------------------------

_CONSTANTS = {}


def _constants(num_layers, comm_scale):
    if num_layers not in _CONSTANTS:
        model = GNNModel.gcn(8, 4, 2, num_layers=num_layers)
        _CONSTANTS[num_layers] = (model.dims(), probe_constants(ClusterSpec.ecs(4), model))
    dims, base = _CONSTANTS[num_layers]
    return dims, dataclasses.replace(
        base,
        t_c=base.t_c * comm_scale,
        t_c_layer=[t * comm_scale for t in base.t_c_layer],
    )


@contextlib.contextmanager
def _trackers():
    """Collect every MemoryTracker built inside the block."""
    made = []
    original = MemoryTracker.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    with mock.patch.object(MemoryTracker, "__init__", init):
        yield made


def _run(fn, *args, **kwargs):
    with _trackers() as made:
        result = fn(*args, **kwargs)
    return result, [t.peak_bytes for t in made]


def assert_identical(got, want):
    for f in dataclasses.fields(DependencyPartition):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name in ("cached", "communicated", "stale_cached"):
            assert len(a) == len(b), f.name
            for x, y in zip(a, b):
                assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert a == b, f.name


def assert_matches_reference(*args, **kwargs):
    got, got_peaks = _run(partition_dependencies, *args, **kwargs)
    want, want_peaks = _run(reference_partition_dependencies, *args, **kwargs)
    assert_identical(got, want)
    assert got_peaks == want_peaks
    return want


def _graph(kind, n, seed):
    if kind == "erdos_renyi":
        return generators.erdos_renyi(n, n * 3, seed=seed)
    return generators.scaled_social(n, avg_degree=4.0, num_communities=4, seed=seed)


@st.composite
def settings_(draw):
    n = draw(st.integers(12, 70))
    graph = _graph(draw(st.sampled_from(["erdos_renyi", "social"])), n,
                   draw(st.integers(0, 10_000)))
    m = draw(st.integers(2, 4))
    split = draw(st.sampled_from([chunk_partition, hash_partition]))
    partitioning = split(graph, m)
    worker = draw(st.integers(0, m - 1))
    num_layers = draw(st.sampled_from([1, 2, 3]))
    # Log-uniform comm prices move the t_r < t_c cut across a layer.
    comm_scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    dims, constants = _constants(num_layers, comm_scale)
    return graph, partitioning, worker, dims, constants


def _tp_inputs(graph, partitioning, worker, cost_scale):
    owned = partitioning.part(worker)
    return TensorParallelCostInputs(
        num_workers=partitioning.num_parts,
        num_vertices=graph.num_vertices,
        num_owned=len(owned),
        total_edges=graph.num_edges,
        owned_in_edges=int((partitioning.assignment[graph.dst] == worker).sum()),
        cost_scale=cost_scale,
    )


# ---------------------------------------------------------------------------
# Tests.
# ---------------------------------------------------------------------------


class TestMatchesPerCandidateGreedy:
    @settings(max_examples=80, deadline=None)
    @given(
        settings_(),
        st.sampled_from([None, None, 0.0, 0.3, 1.0]),
        st.sampled_from([None, "one-byte", 0.1, 0.5, 0.9]),
        st.sampled_from([1.0, 0.8, 0.37]),
        st.sampled_from([None, 0.0, 1.0, 4.0, math.inf]),
        st.sampled_from([None, None, 1e-4, 1e-3, 1e-2, 1.0, math.inf]),
    )
    def test_every_field_identical(self, setting, force, budget, mu, tau, tp_scale):
        graph, partitioning, worker, dims, constants = setting
        if budget == "one-byte":
            budget = 1
        elif budget is not None:
            # A fraction of the unbounded closure bytes runs out mid-way.
            unbounded = reference_partition_dependencies(
                graph, partitioning, worker, dims, constants,
                memory_limit_bytes=10**12, mu=mu,
            )
            budget = int(budget * unbounded.memory_bytes)
        assert_matches_reference(
            graph, partitioning, worker, dims, constants,
            memory_limit_bytes=budget, mu=mu, force_cache_fraction=force,
            cache=None if tau is None else CacheConfig(tau=tau),
            tp=None if tp_scale is None
            else _tp_inputs(graph, partitioning, worker, tp_scale),
        )

    @settings(max_examples=30, deadline=None)
    @given(settings_(), st.booleans(), st.sampled_from([0.5, 1.0, 2.0]))
    def test_warm_start_identical(self, setting, changed_deps, rescale):
        graph, partitioning, worker, dims, constants = setting
        if changed_deps:
            # A prior run on another split: some dependencies lack costs.
            prior = reference_partition_dependencies(
                graph, chunk_partition(graph, partitioning.num_parts + 1),
                worker, dims, constants,
            )
        else:
            prior = reference_partition_dependencies(
                graph, partitioning, worker, dims, constants
            )
        scaled = dataclasses.replace(
            constants,
            t_v_layer=[t * rescale for t in constants.t_v_layer],
            t_e_layer=[t * rescale for t in constants.t_e_layer],
        )
        assert_matches_reference(
            graph, partitioning, worker, dims, scaled,
            memory_limit_bytes=prior.memory_bytes // 2 or None,
            warm_start=prior,
        )


    def test_tp_rollback_after_caching(self):
        # Layer 2 caches under the budget, then flips to TP and rolls the
        # replication and the allocations back; only the peak remembers.
        graph = generators.erdos_renyi(50, 150, seed=1)
        partitioning = chunk_partition(graph, 3)
        dims, constants = _constants(2, 30.0)
        args = (graph, partitioning, 0, dims, constants)
        kwargs = dict(
            memory_limit_bytes=10**9,
            tp=_tp_inputs(graph, partitioning, 0, 1e-3),
        )
        want = assert_matches_reference(*args, **kwargs)
        assert want.tp_layers == [False, True]
        _, peaks = _run(partition_dependencies, *args, **kwargs)
        assert peaks[0] > want.memory_bytes


class TestChunking:
    def _setting(self):
        graph = generators.erdos_renyi(300, 1500, seed=3)
        partitioning = chunk_partition(graph, 4)
        dims, constants = _constants(3, 3.0)
        return graph, partitioning, 0, dims, constants

    def test_chunk_boundary_mid_layer_matches_one_chunk(self):
        setting = self._setting()
        kwargs = dict(force_cache_fraction=0.4, memory_limit_bytes=10**9)
        whole = partition_dependencies(*setting, **kwargs)
        # The quota cut lands well past the first boundary of layer 1.
        assert len(whole.cached[0]) > 7
        with mock.patch.object(partitioner, "_SCORE_CHUNK", 3):
            chunked = partition_dependencies(*setting, **kwargs)
        assert_identical(chunked, whole)

    def test_small_chunks_match_reference(self):
        setting = self._setting()
        with mock.patch.object(partitioner, "_SCORE_CHUNK", 5):
            want = assert_matches_reference(*setting, memory_limit_bytes=60_000)
        assert 0 < sum(len(c) for c in want.cached)
