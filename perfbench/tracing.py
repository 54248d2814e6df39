"""The traced run: spans around calls into each module's public functions.

:func:`instrument` wraps every entry point in :data:`PROBES` *where it
is looked up* -- the importing module's namespace for functions
imported by name (``partition_dependencies`` in ``engines.hybrid``),
the defining class for methods -- and restores the originals on exit.
Nothing under ``src/`` changes.

A span records ``[name, parent, start, end, gnn_layer]``; its system
layer is the first dotted part of its name (``graph``, ``costmodel``,
``core``, ``tensor``, ``execution``, ``comm``, ``sampling``,
``serving``, and ``bench`` for the benchmark's own phases).  Spans and
counters stay in memory; :meth:`Tracer.write_chrome` writes them once,
when the run ends.

GNN-layer attribution: ``GNNModel.layer(l)`` records which layer object
is layer ``l``; that layer's ``forward`` sets the current GNN layer,
``Function.apply`` stamps it on every autograd node created meanwhile,
and each ``Function.backward`` span carries its node's stamp.  This
works for every engine, including the sampled one, whose rounds run
all numerics before the accountant charges any layer.
"""

from __future__ import annotations

import collections
import contextlib
import json
import re
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core import ops as core_ops
from repro.core.layers import GNNLayer
from repro.core.model import GNNModel
from repro.costmodel.costs import DependencyCostModel
from repro.engines import base as engines_base
from repro.engines import hybrid as engines_hybrid
from repro.execution import accountant as execution_accountant
from repro.execution import executor as execution_executor
from repro.execution import plan as execution_plan
from repro.execution import tp as execution_tp
from repro.execution.accountant import LayerAccountant
from repro.execution.executor import LayerExecutor
from repro.costmodel import probe as costmodel_probe
from repro.sampling import compile as sampling_compile
from repro.sampling import engine as sampling_engine
from repro.sampling import samplers as sampling_samplers
from repro.sampling.engine import SampledTrainingEngine
from repro.sampling.samplers import NeighborSampler
from repro.serving import planner as serving_planner
from repro.serving import server as serving_server
from repro.serving.batcher import MicroBatcher
from repro.serving.planner import RequestPlanner
from repro.serving.server import InferenceServer
from repro.tensor import functional as tensor_functional
from repro.tensor.optim import Optimizer
from repro.tensor.tensor import Function, Tensor

SYSTEM_LAYERS = (
    "graph", "costmodel", "core", "tensor", "execution", "comm",
    "sampling", "serving",
)


class Tracer:
    """In-memory spans with parent links, plus counters."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = collections.Counter()
        self.gnn_layer: Optional[int] = None
        self.layer_of: Dict[int, int] = {}  # id(GNN layer object) -> l
        self.missing = set()  # entry points not found where expected

    def call(self, name: str, fn, args, kwargs, gnn_layer=None):
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, gnn_layer]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def write_chrome(self, path) -> None:
        """Chrome trace-event JSON (chrome://tracing, Perfetto)."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        events = [
            {
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "pid": 0, "tid": 0,
                "args": {"id": i, "parent": parent, "gnn_layer": gl},
            }
            for i, (name, parent, start, end, gl) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"traceEvents": events}))


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Probe:
    """One entry point: ``owner.attr`` becomes a span named ``name``.

    ``count`` names a counter bumped per call; ``on_result`` folds the
    return value into the counters.  ``span=False`` counts only (for
    entry points called hundreds of thousands of times).
    """

    owner: object
    attr: str
    name: str
    count: Optional[str] = None
    on_result: Optional[Callable[[Dict[str, float], object], None]] = None
    span: bool = True


def _sampled_edges(counts, closure):
    counts["sampling.sampled_edges"] += closure.num_sampled_edges


def _round_traffic(counts, result):
    traffic = result[2]
    counts["sampling.reused_rows"] += traffic.reused_rows
    counts["sampling.remote_rows"] += traffic.remote_rows


def _exchange_bytes(counts, stats):
    counts["comm.modeled_bytes"] += stats.total_bytes


def _micro_batches(counts, batches):
    counts["serving.batches"] += len(batches)


PROBES = [
    # graph
    Probe(serving_server, "khop_closure", "graph.khop", count="graph.khop_calls"),
    Probe(serving_planner, "khop_closure", "graph.khop", count="graph.khop_calls"),
    # costmodel
    *[Probe(m, "probe_constants", "costmodel.probe")
      for m in (engines_base, engines_hybrid, sampling_engine, serving_server)],
    Probe(engines_hybrid, "partition_dependencies", "costmodel.algorithm4"),
    Probe(engines_hybrid, "vote_tp_layers", "costmodel.tp_vote"),
    Probe(DependencyCostModel, "t_r", "costmodel.t_r",
          count="costmodel.t_r_calls", span=False),
    # core
    *[Probe(m, "build_block", "core.blocks.build", count="core.blocks.build_calls")
      for m in (execution_executor, execution_plan, costmodel_probe)],
    *[Probe(m, "build_block_from_edges", "core.blocks.build",
            count="core.blocks.build_calls")
      for m in (sampling_samplers, sampling_compile)],
    *[Probe(core_ops, op, f"core.ops.{op}.fwd")
      for op in ("scatter_to_edge", "edge_forward", "gather_by_dst",
                 "vertex_forward", "fused_scatter_gather")],
    # tensor
    Probe(Tensor, "backward", "tensor.backward", count="tensor.backward_calls"),
    *[Probe(cls, "step", "tensor.optimizer.step", count="tensor.optimizer.steps")
      for cls in Optimizer.__subclasses__() if "step" in vars(cls)],
    # execution
    Probe(engines_base, "build_engine_plan", "execution.build_plan"),
    Probe(engines_base, "compile_program", "execution.compile"),
    Probe(engines_base, "run_passes", "execution.compile"),
    Probe(sampling_engine, "run_passes", "execution.compile"),
    Probe(LayerExecutor, "run_epoch", "execution.run_epoch"),
    Probe(LayerExecutor, "forward", "execution.forward"),
    Probe(LayerExecutor, "backward", "execution.backward"),
    Probe(LayerExecutor, "gather_inputs", "execution.gather_inputs"),
    Probe(LayerExecutor, "route_input_grads", "execution.route_grads"),
    Probe(LayerExecutor, "compute_loss", "execution.loss"),
    Probe(tensor_functional, "cross_entropy", "execution.loss"),
    *[Probe(LayerAccountant, m, "execution.accountant")
      for m in ("charge_forward_layer", "charge_backward_layer",
                "charge_loss", "charge_allreduce", "charge_epoch")],
    Probe(execution_tp, "tp_charge_forward_layer", "execution.tp.charge",
          count="execution.tp.layers"),
    Probe(execution_tp, "tp_charge_backward_layer", "execution.tp.charge"),
    # comm
    *[Probe(m, "run_exchange", "comm.exchange", count="comm.exchange_calls",
            on_result=_exchange_bytes)
      for m in (execution_accountant, execution_tp, serving_server)],
    # sampling
    Probe(SampledTrainingEngine, "run_epoch", "sampling.run_epoch"),
    Probe(NeighborSampler, "sample_batch", "sampling.sample",
          on_result=_sampled_edges),
    Probe(sampling_engine, "compile_round", "sampling.compile_round",
          on_result=_round_traffic),
    # serving
    Probe(InferenceServer, "serve", "serving.serve"),
    Probe(MicroBatcher, "batches", "serving.batcher", on_result=_micro_batches),
    Probe(RequestPlanner, "choose_batch", "serving.planner"),
    Probe(serving_server, "run_closure_forward", "serving.forward"),
]


def _snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def _wrap_probe(tracer: Tracer, probe: Probe, original):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        if probe.count:
            counts[probe.count] += 1
        if probe.span:
            result = tracer.call(probe.name, original, args, kwargs,
                                 tracer.gnn_layer)
        else:
            result = original(*args, **kwargs)
        if probe.on_result is not None:
            probe.on_result(counts, result)
        return result

    return wrapper


def _wrap_layer_forward(tracer: Tracer, original):
    def forward(self, *args, **kwargs):
        previous = tracer.gnn_layer
        tracer.gnn_layer = tracer.layer_of.get(id(self))
        try:
            return tracer.call("core.layer.fwd", original, (self,) + args,
                               kwargs, tracer.gnn_layer)
        finally:
            tracer.gnn_layer = previous

    return forward


def _wrap_model_layer(tracer: Tracer, original):
    def layer(self, l):
        obj = original(self, l)
        tracer.layer_of[id(obj)] = l
        return obj

    return layer


def _wrap_apply(tracer: Tracer, original):
    func = original.__func__

    def apply(cls, *inputs, **kwargs):
        out = func(cls, *inputs, **kwargs)
        if tracer.gnn_layer is not None and out._ctx is not None:
            out._ctx._perf_gnn_layer = tracer.gnn_layer
        return out

    return classmethod(apply)


def _wrap_backward(tracer: Tracer, name: str, original):
    def backward(self, grad):
        return tracer.call(name, original, (self, grad), {},
                           getattr(self, "_perf_gnn_layer", None))

    return backward


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install every wrapper; restore the originals on exit."""
    saved = []

    def patch(owner, attr, make):
        if attr not in vars(owner):  # moved or renamed: its metrics read 0
            tracer.missing.add(f"{owner.__name__}.{attr}")
            return
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    try:
        for probe in PROBES:
            patch(probe.owner, probe.attr,
                  lambda orig, p=probe: _wrap_probe(tracer, p, orig))
        patch(GNNModel, "layer", lambda orig: _wrap_model_layer(tracer, orig))
        for cls in _all_subclasses(GNNLayer):
            for attr in ("forward", "forward_fused"):
                if attr in vars(cls):
                    patch(cls, attr, lambda orig: _wrap_layer_forward(tracer, orig))
        patch(Function, "apply", lambda orig: _wrap_apply(tracer, orig))
        for cls in _all_subclasses(Function):
            if "backward" in vars(cls):
                name = f"tensor.{_snake(cls.__name__)}.bwd"
                patch(cls, "backward",
                      lambda orig, n=name: _wrap_backward(tracer, n, orig))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Metric -> span names whose inclusive time it sums.
TIME_METRICS = {
    "graph.load_s": ("graph.load",),
    "graph.khop_s": ("graph.khop",),
    "costmodel.probe_s": ("costmodel.probe",),
    "costmodel.algorithm4_s": ("costmodel.algorithm4",),
    "costmodel.tp_vote_s": ("costmodel.tp_vote",),
    "core.blocks.build_s": ("core.blocks.build",),
    **{f"core.ops.{op}.fwd_s": (f"core.ops.{op}.fwd",)
       for op in ("scatter_to_edge", "edge_forward", "gather_by_dst",
                  "vertex_forward", "fused_scatter_gather")},
    "tensor.index_select.bwd_s": ("tensor.index_select.bwd",),
    "tensor.segment_sum.bwd_s": ("tensor.segment_sum.bwd",),
    "tensor.optimizer.step_s": ("tensor.optimizer.step",),
    "execution.compile_s": ("execution.compile",),
    "execution.gather_inputs_s": ("execution.gather_inputs",),
    "execution.route_grads_s": ("execution.route_grads",),
    "execution.loss_s": ("execution.loss",),
    "execution.accountant_s": ("execution.accountant",),
    "execution.tp.charge_s": ("execution.tp.charge",),
    "sampling.sample_s": ("sampling.sample",),
    "sampling.compile_round_s": ("sampling.compile_round",),
    "serving.batcher_s": ("serving.batcher",),
    "serving.planner_s": ("serving.planner",),
    "serving.forward_s": ("serving.forward",),
}
COUNT_METRICS = (
    "graph.khop_calls", "costmodel.t_r_calls", "core.blocks.build_calls",
    "tensor.backward_calls", "tensor.optimizer.steps", "execution.tp.layers",
    "comm.exchange_calls", "comm.modeled_bytes", "sampling.sampled_edges",
    "serving.batches",
)
GNN_LAYERS = (1, 2)


def summarize(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced window.

    Named ``*_s`` metrics are inclusive time in that entry point (an
    outer call only, when one nests in another of the same name);
    ``<layer>.self_s`` is the layer's self time: span time not covered
    by a child span.  ``other_s`` is the benchmark's own self time --
    the part of the window that no layer span covers.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: Dict[str, float] = collections.Counter()
    self_time: Dict[str, float] = collections.Counter()
    layer_fwd: Dict[int, float] = collections.Counter()
    layer_bwd: Dict[int, float] = collections.Counter()
    window = 0.0
    for i, (name, parent, start, end, gl) in enumerate(spans):
        duration = end - start
        self_time[name.split(".")[0]] += duration - child_time[i]
        if parent < 0:
            window += duration
        if not _nested_in_same(spans, i):
            inclusive[name] += duration
        if name == "core.layer.fwd":
            layer_fwd[gl] += duration
        elif name.startswith("tensor.") and name.endswith(".bwd"):
            layer_bwd[gl] += duration
    metrics: Dict[str, float] = {
        metric: sum(inclusive[n] for n in names)
        for metric, names in TIME_METRICS.items()
    }
    for l in GNN_LAYERS:
        metrics[f"core.layer{l}.fwd_s"] = layer_fwd[l]
        metrics[f"core.layer{l}.bwd_s"] = layer_bwd[l]
    for key in COUNT_METRICS:
        metrics[key] = float(tracer.counts[key])
    remote = tracer.counts["sampling.remote_rows"]
    metrics["sampling.reuse_ratio"] = (
        tracer.counts["sampling.reused_rows"] / remote if remote else 0.0
    )
    for layer in SYSTEM_LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    metrics["other_s"] = self_time["bench"]
    metrics["trace.window_s"] = window
    return metrics


def _nested_in_same(spans, i: int) -> bool:
    name, parent = spans[i][0], spans[i][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False
