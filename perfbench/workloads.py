"""The four benchmark workloads: set-up, the measured loop, and output checks.

Every input is derived from the workload seed (:func:`derive`): the
graph, the model's initial weights, the sampler and the request stream.
The repository's code only ever receives the generated inputs.

Host wall-clock (``time.perf_counter``) is the only clock measured here.
The modeled cluster seconds the engines report are the subject of the
reproduction and never a speed metric.
"""

from __future__ import annotations

import contextlib
import gc
import json
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import Timeline
from repro.core.blocks import build_block
from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.execution.executor import run_closure_forward
from repro.graph import datasets
from repro.partition.chunk import chunk_partition
from repro.serving import (
    InferenceServer,
    ServingConfig,
    WorkloadConfig,
    generate_workload,
)
from repro.serving.batcher import MicroBatcher
from repro.serving.slo import LatencyLedger
from repro.tensor import functional as F
from repro.tensor import optim
from repro.tensor.tensor import Tensor
from repro.training.prep import prepare_graph

HIDDEN = 64
NUM_WORKERS = 8
LR = 0.01
# Set-up is repeated and its median reported, so that work moved into
# set-up shows against a steady number.
SETUP_REPEATS = 5
# Timed operations per run (epochs, or passes over the request stream)
# after the warm-up: at least the first number, then more until
# --seconds has passed, up to the second.  The cap bounds the loss
# trajectory a run needs checked, so pinned trajectories can cover it.
OP_LIMITS = {
    "train-fullbatch": (3, 12),
    "train-sampled": (3, 12),
    "serve-zipf": (2, 12),
    "train-fourway": (3, 24),
}
# Micro-batches per calibrated interval of a serving pass (hostspeed):
# about 0.5 s of host time, so the reference samples that bracket each
# interval see the speed the host ran it at.
SERVE_CHUNK = 100
# "To rounding": the distributed loss sums per-worker float32 partial
# losses in another order than the single-worker reference.
LOSS_RTOL = 1e-5

PINNED_LOSSES = Path(__file__).with_name("pinned_losses.json")


def derive(seed: int, stream: str) -> int:
    """Independent, reproducible sub-seed of the workload seed."""
    return zlib.crc32(f"{stream}:{seed}".encode()) & 0x7FFFFFFF


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    engine: Optional[str]  # None: the serving workload
    why: str
    # Vertex-count multiplier of the catalog graph.  The training
    # workloads on social-large run a quarter of it (10,240 V / 174,080
    # E), so one epoch is about 1.6 s and a run holds several, each
    # bracketed by host-speed samples (hostspeed).
    scale: float = 1.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "train-fullbatch", "social-large", "hybrid",
            "full-batch hybrid epoch; Algorithm 4 dominates set-up and "
            "np.add.at scatter-adds dominate the epoch",
            scale=0.25,
        ),
        Workload(
            "train-sampled", "social-large", "sampled",
            "sampled mini-batch epoch: mini-batches that each sample, "
            "rebuild blocks, compile and step; Algorithm 4 is skipped",
            scale=0.25,
        ),
        Workload(
            "serve-zipf", "social-large", None,
            "Zipf 1.0 request stream: forward-only closures, micro-batching "
            "and the historical cache; no backward, no Algorithm 4",
        ),
        Workload(
            "train-fourway", "social-skewed", "hybrid4",
            "hub-skewed graph where the four-way vote runs layer 2 "
            "tensor-parallel; the only workload that runs execution/tp.py",
        ),
    ]
}

SAMPLED_KWARGS = dict(
    fanouts=(10, 25), batch_size=128, sampler="uniform", kappa=0.5
)
SERVING_CONFIG = ServingConfig(tau_s=0.05, mode="auto")
NUM_REQUESTS = 4000
REQUEST_RATE_RPS = 2000.0
ZIPF_EXPONENT = 1.0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def make_graph(workload: Workload, seed: int, tracer=None):
    """Generate and prepare the workload's graph (no memo: set-up pays it)."""
    span = tracer.span("graph.load") if tracer else contextlib.nullcontext()
    with span:
        # load_dataset memoises per (name, scale, seed); set-up time must
        # include generation, so every set-up starts from an empty memo.
        datasets._build.cache_clear()
        raw = datasets.load_dataset(
            workload.dataset, scale=workload.scale, seed=derive(seed, "graph")
        )
        return prepare_graph(raw, "gcn")


def make_model(graph, seed: int) -> GNNModel:
    return GNNModel.gcn(
        graph.feature_dim, HIDDEN, graph.num_classes, seed=derive(seed, "model")
    )


# ---------------------------------------------------------------------------
# Sessions: one workload's state, driven the same way by timed and traced runs
# ---------------------------------------------------------------------------

class TrainingSession:
    """``setup`` -> ``warmup`` epoch -> timed ``op`` epochs -> ``check``."""

    op_size = 1  # operations per op: one epoch

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.engine = None
        self.optimizer = None
        self.losses: List[float] = []
        self.reference: Dict[str, object] = {}
        self.notes: List[str] = []

    def setup(self, tracer=None) -> None:
        """Dataset + engine + cold ``plan()``: what a user waits for."""
        graph = make_graph(self.workload, self.seed, tracer)
        model = make_model(graph, self.seed)
        kwargs = {}
        if self.workload.engine == "sampled":
            kwargs = dict(SAMPLED_KWARGS, seed=derive(self.seed, "sampler"))
        engine = make_engine(
            self.workload.engine, graph, model, ClusterSpec.ecs(NUM_WORKERS),
            **kwargs,
        )
        engine.plan()
        self.engine = engine
        self.optimizer = optim.Adam(model.parameters(), lr=LR)

    def warmup(self) -> None:
        self.op()

    def op(self) -> float:
        """One ``run_epoch`` with the optimizer step; host seconds."""
        gc.collect()
        t0 = time.perf_counter()
        report = self.engine.run_epoch(optimizer=self.optimizer)
        elapsed = time.perf_counter() - t0
        self.losses.append(float(report.loss))
        return elapsed

    def timed_op(self, clock):
        """One epoch as one calibrated interval: ``(host_s, reference_s)``."""
        return clock.measure(self.op)

    def release(self) -> None:
        """Drop the engine and its graph (before a new set-up is timed)."""
        self.engine = self.optimizer = None

    def check(self) -> int:
        """Epochs whose loss disagrees with the reference trajectory."""
        self.release()
        self.reference = loss_reference(
            self.workload, self.seed, len(self.losses)
        )
        return sum(
            1 for got, want in zip(self.losses, self.reference["losses"])
            if not np.isclose(got, want, rtol=LOSS_RTOL, atol=0.0)
        )

    def outputs(self):
        return list(self.losses)

    def shown_metrics(self, op_s: List[float]) -> Dict[str, float]:
        return {}

    def details(self) -> Dict[str, object]:
        return {"losses": self.losses, "reference": self.reference}


class ServingSession:
    """``setup`` -> whole-stream ``warmup`` call -> timed segmented passes.

    Each pass feeds ``serve()`` one micro-batch at a time through its
    segment arguments and times every batch.  The first pass must
    reproduce the whole-stream call's ledger and predictions; every
    answer must equal the argmax of one whole-graph forward.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.server: Optional[InferenceServer] = None
        self.requests = []
        self.batches = []
        self.whole = None
        self.passes: List[Dict[int, int]] = []
        self.batch_s: List[float] = []
        self.cache_hit_ratio = 0.0
        self.notes: List[str] = []

    @property
    def op_size(self) -> int:  # operations per op: every request
        return len(self.requests)

    def setup(self, tracer=None) -> None:
        """Dataset + partitioning + server (probe included)."""
        graph = make_graph(self.workload, self.seed, tracer)
        self.server = InferenceServer(
            graph, make_model(graph, self.seed), ClusterSpec.ecs(NUM_WORKERS),
            chunk_partition(graph, NUM_WORKERS), config=SERVING_CONFIG,
        )

    def _fresh_server(self) -> InferenceServer:
        # Empty historical cache, planner memo and block memo: every
        # pass does the same work.
        s = self.server
        s.graph.__dict__.pop("_block_cache", None)
        return InferenceServer(
            s.graph, s.model, s.cluster, s.partitioning,
            config=s.config, constants=s.constants,
        )

    def warmup(self) -> None:
        self.requests = generate_workload(
            WorkloadConfig(
                num_requests=NUM_REQUESTS,
                rate_rps=REQUEST_RATE_RPS,
                zipf_exponent=ZIPF_EXPONENT,
                seed=derive(self.seed, "requests"),
            ),
            self.server.graph.num_vertices,
        )
        cfg = self.server.config
        self.batches = MicroBatcher(cfg.batch_window_s, cfg.max_batch).batches(
            self.requests
        )
        self.whole = self._fresh_server().serve(self.requests)

    def op(self) -> float:
        """One pass over the stream; host seconds."""
        segment = self._start_pass()
        gc.collect()
        elapsed = self._serve(segment, self.batches)
        self._finish_pass(segment)
        return elapsed

    def timed_op(self, clock):
        """One pass, calibrated per ``SERVE_CHUNK`` micro-batches.

        Returns ``(host_s, reference_s)`` summed over the pass.
        """
        segment = self._start_pass()
        gc.collect()
        clock.resync()
        host = ref = 0.0
        for i in range(0, len(self.batches), SERVE_CHUNK):
            chunk = self.batches[i:i + SERVE_CHUNK]
            h, r = clock.measure(lambda: self._serve(segment, chunk))
            host += h
            ref += r
        self._finish_pass(segment)
        return host, ref

    def _start_pass(self):
        server = self._fresh_server()
        timeline = Timeline(server.cluster.num_workers,
                            record=server.record_timeline)
        return server, dict(timeline=timeline, ledger=LatencyLedger(),
                            predictions={}, inflight=[])

    def _serve(self, segment, batches) -> float:
        """Feed ``batches`` one at a time; host seconds, each batch timed."""
        server, state = segment
        t_start = time.perf_counter()
        for batch in batches:
            t0 = time.perf_counter()
            server.serve(batch.requests, **state)
            self.batch_s.append(time.perf_counter() - t0)
        return time.perf_counter() - t_start

    def _finish_pass(self, segment) -> None:
        server, state = segment
        ledger, predictions = state["ledger"], state["predictions"]
        if not self.passes and (
            ledger.records != self.whole.ledger.records
            or predictions != self.whole.predictions
        ):
            self.notes.append("segmented serve() disagrees with the whole-stream call")
            predictions = {}  # every request of this pass fails the check
        self.passes.append(_answered(ledger, predictions))
        self.cache_hit_ratio = server.cache.counters.hit_rate()

    def release(self) -> None:
        """Drop the server and its graph (before a new set-up is timed)."""
        self.server = None

    def check(self) -> int:
        """Failed requests over the whole-stream call and every pass."""
        everything = np.arange(self.server.graph.num_vertices, dtype=np.int64)
        layers = [everything] * (self.server.model.num_layers + 1)
        reference = run_closure_forward(
            self.server.model, self.server.graph, layers
        ).argmax(axis=1)
        answers = [_answered(self.whole.ledger, self.whole.predictions)]
        answers += self.passes
        return sum(
            1 for predictions in answers for r in self.requests
            if predictions.get(r.req_id) != int(reference[r.vertex])
        )

    def outputs(self):
        return [self.whole.predictions] + self.passes

    def shown_metrics(self, op_s: List[float]) -> Dict[str, float]:
        """Serving throughput and per-micro-batch latency (not gated)."""
        batch_ms = np.asarray(self.batch_s) * 1e3
        if not op_s or not len(batch_ms):
            return {}
        return {
            "serve_rps": self.op_size * len(op_s) / sum(op_s),
            "batch_ms_p50": float(np.percentile(batch_ms, 50)),
            "batch_ms_p95": float(np.percentile(batch_ms, 95)),
        }

    def details(self) -> Dict[str, object]:
        return {"batch_ms": (np.asarray(self.batch_s) * 1e3).tolist(),
                "cache_hit_ratio": self.cache_hit_ratio}


def _answered(ledger, predictions) -> Dict[int, int]:
    """Predictions of the requests that were not shed."""
    shed = {r.req_id for r in ledger.records if r.shed}
    return {k: v for k, v in predictions.items() if k not in shed}


def make_session(workload: Workload, seed: int):
    if workload.engine is None:
        return ServingSession(workload, seed)
    return TrainingSession(workload, seed)


# ---------------------------------------------------------------------------
# Loss references
# ---------------------------------------------------------------------------

def single_worker_losses(graph, seed: int, epochs: int) -> Dict[str, object]:
    """Plain single-worker full-batch GCN training: the loss reference.

    One block per layer over the whole graph, the same initial weights
    and optimizer, no engine, partitioning or accountant.  Its host
    epoch time is reported as the single-worker baseline.
    """
    model = make_model(graph, seed)
    opt = optim.Adam(model.parameters(), lr=LR)
    everything = np.arange(graph.num_vertices, dtype=np.int64)
    blocks = [
        build_block(graph, everything, l)
        for l in range(1, model.num_layers + 1)
    ]
    train = np.flatnonzero(graph.train_mask)
    targets = (np.arange(len(train)), graph.labels[train])
    losses, times = [], []
    for _ in range(epochs):
        t0 = time.perf_counter()
        h = Tensor(graph.features[blocks[0].input_vertices])
        for l, block in enumerate(blocks, start=1):
            h = model.layer(l).forward(block, h)
        log_probs = F.log_softmax(h[train], axis=-1)
        loss = -log_probs[targets].sum() / float(len(train))
        loss.backward()
        opt.step()
        opt.zero_grad()
        times.append(time.perf_counter() - t0)
        losses.append(float(loss.data))
    return {"losses": losses, "epoch_s": times}


def computed_reference(workload: Workload, seed: int, epochs: int):
    """The reference trajectory, computed in this process.

    Full-batch workloads: the plain single-worker run.  The sampled
    workload has no single-worker equivalent (its mini-batches depend
    on the partition), so a fresh engine recomputes it, which checks
    only that the run reproduces.
    """
    if workload.engine != "sampled":
        graph = make_graph(workload, seed)
        return dict(single_worker_losses(graph, seed, epochs),
                    source="single-worker")
    session = TrainingSession(workload, seed)
    session.setup()
    for _ in range(epochs):
        session.op()
    return {"losses": session.losses, "source": "sampled run"}


def loss_reference(workload: Workload, seed: int, epochs: int):
    """The seed's pinned trajectory when it covers ``epochs``.

    For a seed that is not pinned, only the warm-up epoch's reference is
    computed here: the whole trajectory would cost as much as the run
    itself (a sampled rerun, or single-worker epochs on social-large).
    """
    pinned = json.loads(PINNED_LOSSES.read_text())[workload.name]
    losses = pinned["losses"].get(str(seed), [])
    if len(losses) >= epochs:
        ref = {"losses": losses[:epochs], "source": f"pinned {pinned['source']}"}
        if str(seed) in pinned.get("epoch_s", {}):
            ref["pinned_epoch_s"] = pinned["epoch_s"][str(seed)]
        return ref
    ref = computed_reference(workload, seed, min(epochs, 1))
    ref["source"] += " (seed not pinned: warm-up epoch only)"
    return ref
