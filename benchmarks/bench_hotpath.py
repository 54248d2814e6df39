"""Hot-path wall-clock trajectory: vectorized sparse path vs the seed.

Unlike the ``bench_fig*`` modules (which report *modeled* cluster
seconds), this one measures **real host wall-clock** of the two hot
loops the vectorization PR rewrote:

- ``epoch_s``: one sampled-training ``charge_epoch`` -- sampling,
  closure reuse, block building, compile, and accounting for every
  mini-batch round (the data-management epoch);
- ``compile_s``: one full-graph hybrid plan compile -- Algorithm 4,
  k-hop closures, block building, and program construction.

The before/after comparison is built in: ``reference_mode()``
reinstalls the pre-vectorization implementations (per-vertex slice
loops, ``searchsorted`` lookups, ``np.unique`` unions,
full-candidate sampler ranking, ``intersect1d``/``setdiff1d`` set
algebra, and Algorithm 4 as one heap pop, ``t_r`` walk and commit per
candidate), kept verbatim from the seed revision, and every measurement
runs once per mode on the same graph and seeds.  The headline assert:
the vectorized epoch is at least ``--min-speedup`` (default 5x) faster
than the reference on the largest generator in the ladder.

Run ``python benchmarks/bench_hotpath.py --json BENCH_hotpath.json``
for the full ladder up to ``social-large``, or ``--smoke`` for the CI
configuration (small graphs, 2x floor).
"""

import argparse
import contextlib
import gc
import heapq
import math
import time

import numpy as np

from common import host_metadata, wallclock, write_json
from repro.cluster.spec import ClusterSpec
from repro.core import blocks as B
from repro.costmodel import costs as CO
from repro.costmodel import partitioner as P
from repro.core.model import GNNModel
from repro.engines import HybridEngine
from repro.engines import hybrid as EH
from repro.graph.adjacency import Adjacency
from repro.graph.datasets import load_dataset
from repro.sampling import closure as CL
from repro.sampling import compile as C
from repro.sampling import samplers as S
from repro.sampling.engine import SampledTrainingEngine
from repro.training.prep import prepare_graph
from repro.utils.rng import hashed_uniforms

DATASETS = ["cora", "reddit", "social-flat", "social-skewed", "social-large"]
SMOKE_DATASETS = ["cora", "social-flat"]


# ---------------------------------------------------------------------------
# Pre-vectorization reference implementations, verbatim from the seed
# revision.  ``reference_mode()`` swaps them in so "before" numbers are
# measured by this same script on the same graphs and seeds.
# ---------------------------------------------------------------------------

def _select_ref(self, vertices):
    vertices = np.asarray(vertices, dtype=np.int64)
    if len(vertices) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    spans = [(self.indptr[v], self.indptr[v + 1]) for v in vertices]
    return (
        np.concatenate([self.key[lo:hi] for lo, hi in spans]),
        np.concatenate([self.other[lo:hi] for lo, hi in spans]),
        np.concatenate([self.edge_ids[lo:hi] for lo, hi in spans]),
    )


class _LookupRef:
    def __init__(self, sorted_ids):
        self.sorted_ids = sorted_ids

    def __getitem__(self, ids):
        pos = np.searchsorted(self.sorted_ids, ids)
        if len(ids) and (
            pos.max(initial=0) >= len(self.sorted_ids)
            or not np.array_equal(self.sorted_ids[pos], ids)
        ):
            raise KeyError("id not present in block space")
        return pos.astype(np.int64)


def _position_lookup_ref(sorted_ids):
    return _LookupRef(sorted_ids)


def _mask_union_ref(num_vertices, *pieces):
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(pieces))


def _space_ref(num_vertices, *pieces):
    ids = _mask_union_ref(num_vertices, *pieces)
    mask = np.zeros(num_vertices, dtype=bool)
    mask[ids] = True
    return ids, mask, _LookupRef(ids)


def _sample_layer_ref(self, graph, frontier, fanout, layer, *,
                      epoch, batch, num_seeds, legacy_rng=None):
    if legacy_rng is not None:
        return self._sample_layer_legacy(graph, frontier, fanout, legacy_rng)
    dst, src, eids = self._candidates(graph, frontier)
    if len(dst) == 0:
        return S._EMPTY_LAYER
    # Ranks EVERY candidate edge, not just the over-fanout groups.
    r = hashed_uniforms(self.seed, "uniform", epoch, batch, layer, ids=eids)
    keep = S._rank_within_group(dst, r) < fanout
    return src[keep], dst[keep], eids[keep], None


def _bottom_fetch_ref(engine, closure):
    w = closure.worker
    inputs = closure.blocks[0].input_vertices
    remote = inputs[engine.assignment[inputs] != w]
    covered = (
        np.intersect1d(remote, closure.reused_srcs)
        if len(closure.reused_srcs)
        else C._EMPTY
    )
    rest = np.setdiff1d(remote, covered)
    if engine.feature_cache is not None:
        pinned = np.intersect1d(rest, engine.feature_cache.pinned_for(w))
        fetch = np.setdiff1d(rest, pinned)
    else:
        pinned = C._EMPTY
        fetch = rest
    counts = {"remote": len(remote), "reused": len(covered),
              "pinned": len(pinned), "fetch": len(fetch)}
    return fetch, counts


def _worker_spec_ref(engine, block, l, w, fetch, exchange):
    m = engine.cluster.num_workers
    w_layer = engine.model.layer(l)
    chunk_edges = np.zeros(m, dtype=np.int64)
    chunk_vertices = np.zeros(m, dtype=np.int64)
    local_edges = 0
    sparse_flops = 0.0
    if block.num_edges:
        sparse_flops = float(w_layer.sparse_flops(block))
        if l == 1 and len(fetch):
            received = np.isin(block.edge_src_global, fetch)
            owners = engine.assignment[block.edge_src_global]
            for j in range(m):
                sel = received & (owners == j)
                chunk_edges[j] = int(sel.sum())
                chunk_vertices[j] = len(exchange.recv_ids.get((j, w), ()))
            local_edges = int((~received).sum())
        else:
            local_edges = block.num_edges
    return C.ComputeSpec(
        sparse_flops=sparse_flops,
        dense_flops=float(w_layer.dense_flops(block)),
        num_edges=block.num_edges,
        d_in=engine.dims[l - 1],
        chunk_edges=chunk_edges,
        chunk_vertices=chunk_vertices,
        local_edges=local_edges,
    )


def _replace_ref(self, src, dst, eids, scales):
    order = np.argsort(dst, kind="stable")
    dst_sorted = dst[order]
    self.vertex_ids, counts = np.unique(dst_sorted, return_counts=True)
    self.indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    self.srcs = src[order]
    self.eids = eids[order]
    self.scales = None if scales is None else scales[order]


def _t_r_ref(self, u, layer):
    """Eq. 1 for one candidate: (cost, new vertices per level, edges, bytes)."""
    graph = self.graph
    csc = graph.csc
    cost = 0.0
    new_edge_count = 0
    memory = 0
    new_vertices = []
    frontier = np.asarray([u], dtype=np.int64)
    for k in range(layer - 1, 0, -1):
        rep = self.replicated[k]
        fresh = frontier[~self.owned_mask[frontier] & ~rep[frontier]]
        new_vertices.append(fresh)
        if len(fresh):
            _, sources, eids = csc.select(fresh)
            edge_count = len(eids)
            cost += self.mu * (
                len(fresh) * self.constants.vertex_cost(k)
                + edge_count * self.constants.edge_cost(k)
            )
            new_edge_count += edge_count
            memory += len(fresh) * self.dims[k] * 4 + edge_count * 12
            frontier = np.unique(sources)
        else:
            frontier = np.empty(0, dtype=np.int64)
        if len(frontier) == 0:
            break
    rep0 = self.replicated[0]
    fresh0 = (
        frontier[~self.owned_mask[frontier] & ~rep0[frontier]]
        if len(frontier)
        else frontier
    )
    new_vertices.append(fresh0)
    memory += len(fresh0) * self.dims[0] * 4
    return cost, new_vertices, new_edge_count, memory


def _partition_dependencies_ref(
    graph, partitioning, worker, dims, constants, memory_limit_bytes=None,
    mu=0.8, force_cache_fraction=None, cache=None, warm_start=None, tp=None,
):
    """Algorithm 4 as one heap pop, ``t_r`` walk and commit per candidate."""
    num_layers = len(dims) - 1
    owned = partitioning.part(worker)
    owned_mask = np.zeros(graph.num_vertices, dtype=bool)
    owned_mask[owned] = True
    deps = P.dependency_layers(graph, owned, num_layers)
    cost_model = CO.DependencyCostModel(
        graph, dims, constants, owned_mask, mu=mu, tp=tp
    )
    cached, communicated, stale_cached, initial_costs = [], [], [], []
    tp_layers, tp_cost_s, three_way_cost_s = [], [], []
    tracker = (
        P.MemoryTracker(worker, max(1, memory_limit_bytes))
        if memory_limit_bytes is not None
        else None
    )
    cache_budget = (
        P.CacheBudget.for_config(cache, tracker=tracker)
        if cache is not None else None
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
                        P._SECONDS_PER_EVALUATION
                        + edges * P._SECONDS_PER_EDGE_VISIT
                    )
                layer_costs[u] = cost
                heapq.heappush(heap, (cost, u))
            layer_cached = []
            while heap:
                _, u = heapq.heappop(heap)
                cost, new_vertices, edges, memory = _t_r_ref(cost_model, u, l)
                evaluations += 1
                modeled_seconds += (
                    P._SECONDS_PER_EVALUATION + edges * P._SECONDS_PER_EDGE_VISIT
                )
                if quota_remaining is not None:
                    if not quota_remaining > 0:
                        break
                elif not cost < t_c:
                    break
                if tracker is not None and not tracker.try_allocate(
                    memory, P.CLOSURE_MEMORY_LABEL
                ):
                    budget_exhausted = True
                    break
                layer_cached.append(u)
                layer_cached_cost += cost
                if quota_remaining is not None:
                    quota_remaining -= 1
                levels = list(range(l - 1, 0, -1)) + [0]
                for k, fresh in zip(levels, new_vertices):
                    if len(fresh):
                        cost_model.replicated[k][fresh] = True
            cached.append(np.asarray(sorted(layer_cached), dtype=np.int64))
        initial_costs.append(layer_costs)
        remaining = np.setdiff1d(layer_deps, cached[-1])
        if cache_budget is not None:
            stale = P._select_stale_cached(
                remaining, l, cost_model, cache, cache_budget,
                graph, partitioning, worker,
            )
        else:
            stale = np.empty(0, dtype=np.int64)
        stale_cached.append(stale)
        communicated.append(np.setdiff1d(remaining, stale))
        tp_cost = cost_model.t_tp(l) if tp_enabled else math.inf
        stale_cost = (
            len(stale) * cost_model.t_cached(l, cache.tau)
            if cache is not None else 0.0
        )
        comm_rows = len(communicated[-1])
        bulk_comm = 0.0
        if comm_rows:
            bulk_comm = P._BACKWARD_COMM * (
                comm_rows * dims[l - 1] * 4 * constants.t_c_byte
                + (partitioning.num_parts - 1) * constants.t_msg
            )
        three_way = (
            layer_cached_cost + stale_cost + P._OVERLAP_DISCOUNT * bulk_comm
        )
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
        closure_bytes = tracker.breakdown().get(P.CLOSURE_MEMORY_LABEL, 0)
    if cache_budget is not None:
        cache_bytes = cache_budget.bytes
    return P.DependencyPartition(
        worker=worker, cached=cached, communicated=communicated,
        memory_bytes=closure_bytes, modeled_seconds=modeled_seconds,
        measured_evaluations=evaluations, stale_cached=stale_cached,
        cache_bytes=cache_bytes, initial_costs=initial_costs,
        tp_layers=tp_layers, tp_cost_s=tp_cost_s,
        three_way_cost_s=three_way_cost_s,
    )


_PATCHES = [
    (Adjacency, "select", _select_ref),
    (B, "_position_lookup", _position_lookup_ref),
    (B, "_mask_union", _mask_union_ref),
    (B, "_space", _space_ref),
    (S.UniformFanoutSampler, "_sample_layer", _sample_layer_ref),
    (C, "_bottom_fetch", _bottom_fetch_ref),
    (C, "_worker_spec", _worker_spec_ref),
    (CL.ReuseState, "replace", _replace_ref),
    (EH, "partition_dependencies", _partition_dependencies_ref),
]


@contextlib.contextmanager
def reference_mode():
    """Swap in the seed-revision hot-path implementations."""
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in _PATCHES]
    for obj, name, ref in _PATCHES:
        setattr(obj, name, ref)
    try:
        yield
    finally:
        for obj, name, orig in saved:
            setattr(obj, name, orig)


# ---------------------------------------------------------------------------
# Measurements.
# ---------------------------------------------------------------------------

def _graph(dataset):
    return prepare_graph(load_dataset(dataset), "gcn")


def _model(graph):
    return GNNModel.gcn(graph.feature_dim, 64, graph.num_classes, seed=1)


def measure_epoch(graph, repeats):
    """Wall-clock of one sampled data-management epoch (``epoch_s``)."""
    engine = SampledTrainingEngine(
        graph, _model(graph), ClusterSpec.ecs(8), seed=0
    )
    return wallclock(engine.charge_epoch, repeats=repeats)


def _timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _stats(runs):
    runs = sorted(runs)
    return {"min_s": runs[0], "median_s": runs[len(runs) // 2], "runs": runs}


def measure_epoch_pair(graph, repeats):
    """Paired vectorized/reference epoch timings, interleaved run by run
    so slow machine drift cancels out of the min-vs-min ratio."""
    current = SampledTrainingEngine(
        graph, _model(graph), ClusterSpec.ecs(8), seed=0
    )
    with reference_mode():
        reference = SampledTrainingEngine(
            graph, _model(graph), ClusterSpec.ecs(8), seed=0
        )
        reference.charge_epoch()
    current.charge_epoch()
    cur_runs, ref_runs = [], []
    for _ in range(repeats):
        cur_runs.append(_timed(current.charge_epoch))
        with reference_mode():
            ref_runs.append(_timed(reference.charge_epoch))
    return _stats(cur_runs), _stats(ref_runs)


def _compile_once(graph):
    # Fresh engine and cold block cache: plan() memoises on both.
    graph.__dict__.pop("_block_cache", None)
    HybridEngine(graph, _model(graph), ClusterSpec.ecs(8)).plan()


def measure_compile_pair(graph, repeats):
    """Paired vectorized/reference hybrid plan-compile timings."""
    cur_runs, ref_runs = [], []
    for _ in range(repeats):
        cur_runs.append(_timed(lambda: _compile_once(graph)))
        with reference_mode():
            ref_runs.append(_timed(lambda: _compile_once(graph)))
        graph.__dict__.pop("_block_cache", None)
    return _stats(cur_runs), _stats(ref_runs)


def run_experiment(datasets=None, repeats=5, compile_repeats=1,
                   min_speedup=5.0):
    datasets = list(datasets or DATASETS)
    rows = []
    for name in datasets:
        graph = _graph(name)
        epoch, epoch_ref = measure_epoch_pair(graph, repeats)
        compile_, compile_ref = measure_compile_pair(graph, compile_repeats)
        row = {
            "dataset": name,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "epoch_s": epoch,
            "epoch_s_reference": epoch_ref,
            "epoch_speedup": epoch_ref["min_s"] / epoch["min_s"],
            "compile_s": compile_,
            "compile_s_reference": compile_ref,
            "compile_speedup": compile_ref["min_s"] / compile_["min_s"],
        }
        rows.append(row)
        print(
            f"{name:>14}: epoch {epoch['min_s']*1e3:8.1f} ms "
            f"(ref {epoch_ref['min_s']*1e3:8.1f} ms, "
            f"{row['epoch_speedup']:.2f}x) | "
            f"compile {compile_['min_s']*1e3:8.1f} ms "
            f"(ref {compile_ref['min_s']*1e3:8.1f} ms, "
            f"{row['compile_speedup']:.2f}x)"
        )
    largest = rows[-1]
    print(
        f"largest ({largest['dataset']}): "
        f"{largest['epoch_speedup']:.2f}x epoch wall-clock "
        f"(floor {min_speedup:.1f}x)"
    )
    assert largest["epoch_speedup"] >= min_speedup, (
        f"epoch speedup {largest['epoch_speedup']:.2f}x on "
        f"{largest['dataset']} is below the {min_speedup:.1f}x floor"
    )
    return {
        "datasets": rows,
        "largest": largest["dataset"],
        "epoch_speedup_largest": largest["epoch_speedup"],
        "min_speedup_floor": min_speedup,
        "repeats": repeats,
        "compile_repeats": compile_repeats,
        "host": host_metadata(),
    }


def test_hotpath_smoke(benchmark):
    result = run_experiment(
        SMOKE_DATASETS, repeats=2, compile_repeats=1, min_speedup=2.0
    )
    assert result["epoch_speedup_largest"] >= 2.0
    graph = _graph("cora")
    benchmark(lambda: measure_epoch(graph, repeats=1))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="hot-path wall-clock before/after trajectory"
    )
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result dictionary to PATH as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="CI ladder: small graphs, 2x floor")
    parser.add_argument("--repeats", type=int, default=5,
                        help="epoch timing repeats (default 5)")
    parser.add_argument("--compile-repeats", type=int, default=1,
                        help="compile timing repeats (default 1)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="epoch wall-clock floor on the largest "
                             "dataset (default 5.0, or 2.0 with --smoke)")
    args = parser.parse_args()
    floor = args.min_speedup if args.min_speedup is not None else (
        2.0 if args.smoke else 5.0
    )
    result = run_experiment(
        SMOKE_DATASETS if args.smoke else DATASETS,
        repeats=args.repeats,
        compile_repeats=args.compile_repeats,
        min_speedup=floor,
    )
    write_json(args.json, result)
