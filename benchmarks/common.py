"""Shared helpers for the per-table/per-figure benchmark harnesses.

Every ``bench_*.py`` module regenerates one table or figure of the
paper's evaluation section: it prints the same rows/series the paper
reports and asserts the headline *shape* (who wins, by roughly what
factor).  Each module is runnable directly (``python
benchmarks/bench_fig10_overall.py``) and through
``pytest benchmarks/ --benchmark-only``.

Modules that support it accept ``--json PATH`` when run directly and
write their result dictionary to ``PATH`` (OOM entries serialise as
the string ``"OOM"``, since JSON has no NaN).
"""

from __future__ import annotations

import argparse
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.cluster.memory import OutOfMemoryError
from repro.cluster.spec import ClusterSpec
from repro.comm.scheduler import CommOptions
from repro.core.model import GNNModel
from repro.engines import SharedMemoryEngine, make_engine
from repro.graph.datasets import load_dataset, spec_of
from repro.training.prep import prepare_graph
from repro.utils import render_table
from repro.utils.jsonio import jsonable as _jsonable  # noqa: F401 (re-export)
from repro.utils.jsonio import write_json  # noqa: F401 (re-export)

OOM = float("nan")


def build_engine(
    engine_name: str,
    dataset: str,
    arch: str = "gcn",
    cluster: Optional[ClusterSpec] = None,
    comm: CommOptions = CommOptions.all(),
    hidden: Optional[int] = None,
    scale: float = 1.0,
    seed: int = 1,
    **kwargs,
):
    """Construct an engine on a prepared catalog dataset."""
    graph = prepare_graph(load_dataset(dataset, scale=scale), arch)
    spec = spec_of(dataset)
    model = GNNModel.build(
        arch, graph.feature_dim, hidden or spec.hidden_dim,
        graph.num_classes, seed=seed,
    )
    cluster = cluster or ClusterSpec.ecs(16)
    if engine_name in SharedMemoryEngine.VARIANTS:
        kwargs.setdefault("paper_num_vertices", spec.paper_num_vertices)
        return SharedMemoryEngine(
            graph, model, cluster=cluster, variant=engine_name, **kwargs
        )
    return make_engine(engine_name, graph, model, cluster, comm=comm, **kwargs)


def epoch_time(engine_name: str, dataset: str, **kwargs) -> float:
    """Modeled per-epoch seconds, or NaN on out-of-memory."""
    try:
        engine = build_engine(engine_name, dataset, **kwargs)
        return engine.charge_epoch()
    except OutOfMemoryError:
        return OOM


def is_oom(value: float) -> bool:
    return value != value  # NaN


def wallclock(fn: Callable[[], object], repeats: int = 3,
              warmup: int = 1) -> dict:
    """Real (``time.perf_counter``) seconds of ``fn``, best-of-N.

    Convention for wall-clock benchmark JSON: ``compile_s`` is the
    seconds to build an engine's plan/program, ``epoch_s`` the seconds
    of one charged epoch -- both *measured host* time, unlike the
    modeled cluster seconds :func:`epoch_time` reports.  Returns
    ``{"min_s", "median_s", "runs"}``; ``min_s`` is the headline number
    (least scheduler noise), ``runs`` keeps the raw samples honest.
    """
    for _ in range(warmup):
        fn()
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
    runs.sort()
    return {
        "min_s": runs[0],
        "median_s": runs[len(runs) // 2],
        "runs": runs,
    }


def host_metadata() -> dict:
    """Where a wall-clock benchmark ran, for its committed JSON."""
    def git(*args):
        try:
            return subprocess.run(
                ["git", *args], cwd=Path(__file__).parent, check=True,
                capture_output=True, text=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def fmt_time(seconds: float, unit: str = "ms") -> str:
    if is_oom(seconds):
        return "OOM"
    if unit == "ms":
        return f"{seconds * 1e3:.2f}"
    return f"{seconds:.2f}"


def fmt_ratio(value: float) -> str:
    return "-" if is_oom(value) else f"{value:.2f}x"


def print_table(title: str, headers, rows) -> None:
    print()
    print(f"### {title}")
    print(render_table(headers, rows))


def paper_row(note: str) -> None:
    print(f"    (paper: {note})")


def parse_json_flag(description: str) -> Optional[str]:
    """Parse a benchmark module's ``--json PATH`` flag (None if absent)."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result dictionary to PATH as JSON")
    return parser.parse_args().json


# ``_jsonable`` / ``write_json`` live in ``repro.utils.jsonio`` so the
# CLI shares the same serialisation rules; re-exported above for the
# existing bench modules.
