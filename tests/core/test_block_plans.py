"""Blocks' scatter-add plans: when they are built, reuse, and parity.

Plans cost a sort per block.  Training reuses its blocks every epoch,
so it pays once; serving builds a fresh closure per request batch, runs
forward only, and must not pay for the backward's source plan or for
plans on blocks too small to benefit.  Whatever the plans do, training
must stay bit-identical to plain ``np.add.at`` -- on blocks large
enough that plans are actually used (the goldens' graphs are not).
"""

import sys

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.blocks import build_block
from repro.core.model import GNNModel
from repro.engines import HybridEngine
from repro.execution.executor import run_closure_forward
from repro.graph import generators
from repro.sampling.engine import SampledTrainingEngine
from repro.tensor import functional as F
from repro.tensor.functional import PLAN_MIN_ROWS, SegmentPlan
from repro.tensor.optim import Adam
from repro.training.prep import prepare_graph


@pytest.fixture
def built(monkeypatch):
    """Records the index array of every SegmentPlan constructed."""
    indices = []

    class Counting(SegmentPlan):
        def __init__(self, index, num_segments):
            indices.append(index)
            super().__init__(index, num_segments)

    monkeypatch.setattr(F, "SegmentPlan", Counting)
    return indices


def _model(graph):
    return GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=1)


def _whole_graph_layers(graph, num_layers):
    everything = np.arange(graph.num_vertices, dtype=np.int64)
    return [everything] * (num_layers + 1)


def test_closure_forward_builds_no_source_plan(medium_graph, built):
    graph = prepare_graph(medium_graph, "gcn")
    model = _model(graph)
    run_closure_forward(model, graph, _whole_graph_layers(graph, 2))
    blocks = [build_block(graph, np.arange(graph.num_vertices), l) for l in (1, 2)]
    assert all(b.num_edges >= PLAN_MIN_ROWS for b in blocks)
    # Exactly one plan per block, and it is the destination plan.
    assert len(built) == len(blocks)
    for index, block in zip(built, blocks):
        assert index is block.edge_dst_pos


def test_small_blocks_build_no_plan(small_graph, built):
    graph = prepare_graph(small_graph, "gcn")
    assert graph.num_edges < PLAN_MIN_ROWS
    model = _model(graph)
    run_closure_forward(model, graph, _whole_graph_layers(graph, 2))
    assert built == []
    # Training on the same small blocks runs plain np.add.at too.
    block = build_block(graph, np.arange(graph.num_vertices), 1)
    assert block.dst_plan is None and block.src_plan is None
    assert built == []


def test_training_builds_plans_once(medium_graph, built):
    graph = prepare_graph(medium_graph, "gcn")
    model = _model(graph)
    engine = HybridEngine(graph, model, ClusterSpec.ecs(1))
    opt = Adam(model.parameters(), lr=0.01)
    engine.run_epoch(opt)
    first = len(built)
    assert first > 0
    engine.run_epoch(opt)
    assert len(built) == first


def _train(arch, passes=None, cls=HybridEngine, **kwargs):
    """Losses and final parameters of a seeded 2-worker run whose blocks
    have thousands of edges."""
    g = generators.community(600, 4, avg_degree=8.0, seed=3)
    generators.attach_features(g, 16, 4, seed=4, class_signal=2.0)
    graph = prepare_graph(g, arch)
    model = getattr(GNNModel, arch)(graph.feature_dim, 8, graph.num_classes, seed=2)
    engine = cls(graph, model, ClusterSpec.ecs(2), program_passes=passes, **kwargs)
    opt = Adam(model.parameters(), lr=0.01)
    losses = [engine.run_epoch(opt).loss for _ in range(3)]
    return losses, [p.data.tobytes() for p in model.parameters()]


def _assert_same_as_add_at(monkeypatch, built, **kwargs):
    planned = _train(**kwargs)
    assert built, "no block was large enough to use a plan"
    count = len(built)
    monkeypatch.setattr(F, "PLAN_MIN_ROWS", sys.maxsize)  # np.add.at only
    assert _train(**kwargs) == planned
    assert len(built) == count


@pytest.mark.parametrize(
    "arch, passes",
    [("gcn", None), ("gin", None), ("sage", None), ("gat", None),
     ("gcn", ("fuse-scatter-gather",)), ("sage", ("fuse-scatter-gather",))],
)
def test_planned_training_bit_identical_to_add_at(arch, passes, built, monkeypatch):
    _assert_same_as_add_at(monkeypatch, built, arch=arch, passes=passes)


def test_planned_sampled_training_bit_identical_to_add_at(built, monkeypatch):
    _assert_same_as_add_at(
        monkeypatch, built, arch="sage",
        cls=SampledTrainingEngine, batch_size=256, seed=5,
    )
