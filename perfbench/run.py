"""Benchmark entry point: host wall-clock of what this repository's users run.

Run from the repository root::

    python3 perfbench/run.py --workload train-fullbatch --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that reports the per-layer metrics (see
``tracing.py``).  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every output check
passed.  Full results, the host record and the chrome trace are written
under ``.perfbench-out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench-out"

# Counts that must repeat exactly across every traced run of a seed.
REPEAT_KEYS = (
    "costmodel.t_r_calls", "core.blocks.build_calls", "sampling.sampled_edges",
    "comm.modeled_bytes", "serving.cache_hit_ratio", "tensor.backward_calls",
    "execution.tp.layers",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Host record
# ---------------------------------------------------------------------------

def _blas_threads(np):
    """OpenBLAS thread count of numpy's bundled BLAS, if it exposes one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest(*paths: Path) -> str:
    """SHA-256 over ``src/`` (and ``paths``): names the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(np) -> dict:
    import os

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "git_revision": _git_revision(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def timed_run(W, H, workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics, tracing off, in reference seconds (``hostspeed``)."""
    session = W.make_session(workload, seed)
    clock = H.CalibratedClock()

    def setup_once():
        t0 = time.perf_counter()
        session.setup()
        return time.perf_counter() - t0

    setup_host, setup_s = [], []
    for _ in range(W.SETUP_REPEATS):
        session.release()
        gc.collect()
        host, ref = clock.measure(setup_once)
        setup_host.append(host)
        setup_s.append(ref)
    floor, cap = W.OP_LIMITS[workload.name]
    op_host, op_s, notes = [], [], []
    attempted = failed = 0
    try:
        session.warmup()
        attempted += session.op_size
        clock.resync()
        while len(op_s) < cap and (len(op_s) < floor or sum(op_host) < seconds):
            attempted += session.op_size
            host, ref = session.timed_op(clock)
            op_host.append(host)
            op_s.append(ref)
    except Exception:  # an operation that raises fails
        failed += max(session.op_size, 1)
        attempted = max(attempted, failed)
        notes.append(traceback.format_exc())
    rss = peak_rss_mb()  # before the reference check allocates its own
    failed += session.check()
    notes += session.notes
    report = {"setup_s": setup_s, "op_s": op_s, "setup_host_s": setup_host,
              "op_host_s": op_host, "host_speed": clock.speeds,
              "notes": notes, **session.details()}
    metrics = {
        "setup_s": statistics.median(setup_s),
        "epoch_s": statistics.median(op_s) if op_s else float("nan"),
        "peak_rss_mb": rss,
    }
    shown = dict(metrics, **session.shown_metrics(op_host))
    shown["setup_host_s"] = statistics.median(setup_host)
    if op_host:
        shown["epoch_host_s"] = statistics.median(op_host)
    shown["host_speed"] = statistics.median(clock.speeds)
    shown["error_rate"] = failed / attempted if attempted else 1.0
    report["shown"] = shown
    return dict(metrics=metrics, attempted=attempted, failed=failed,
                report=report)


def _traced_once(W, T, workload, seed: int):
    """Set-up and one op with every wrapper installed (warm-up untraced)."""
    session = W.make_session(workload, seed)
    tracer = T.Tracer()
    gc.collect()
    with T.instrument(tracer):
        t0 = time.perf_counter()
        with tracer.span("bench.setup"):
            session.setup(tracer)
        setup_t = time.perf_counter() - t0
    session.warmup()  # untraced, as in the timed runs
    with T.instrument(tracer):
        with tracer.span("bench.op"):
            op_t = session.op()
    return session, tracer, setup_t, op_t


def _untraced_once(W, workload, seed: int):
    session = W.make_session(workload, seed)
    gc.collect()
    t0 = time.perf_counter()
    session.setup()
    setup_s = time.perf_counter() - t0
    session.warmup()
    return setup_s + session.op(), session.outputs()


def traced_run(W, T, workload, seed: int) -> dict:
    """Per-layer metrics from one traced set-up + op.

    The same untraced set-up + op runs before and after it, so warm-up
    effects of the process land on neither side of the overhead.
    """
    before, expected = _untraced_once(W, workload, seed)
    session, tracer, setup_t, op_t = _traced_once(W, T, workload, seed)
    metrics = T.summarize(tracer)
    notes = [f"entry point not found, not traced: {name}"
             for name in sorted(tracer.missing)]
    metrics["serving.cache_hit_ratio"] = getattr(session, "cache_hit_ratio", 0.0)
    attempted = 2 * session.op_size
    failed = session.check()
    if session.outputs() != expected:
        notes.append("traced outputs differ from the untraced run")
        failed = attempted
    notes += session.notes
    del session
    after, _ = _untraced_once(W, workload, seed)
    metrics["trace_overhead_frac"] = (setup_t + op_t) / ((before + after) / 2) - 1.0

    counts = {key: metrics[key] for key in REPEAT_KEYS}
    # Keyed by the program and the workload definitions: either may
    # change the counts.
    key = source_digest(Path(W.__file__).resolve())[:16]
    counts_path = OUT / "counts" / f"{workload.name}-seed{seed}-{key}.json"
    counts_path.parent.mkdir(parents=True, exist_ok=True)
    if counts_path.exists():
        previous = json.loads(counts_path.read_text())
        if previous != counts:
            notes.append(f"FLAG: exact-repeat counts changed: {previous} -> {counts}")
            failed = max(failed, 1)
    else:
        counts_path.write_text(json.dumps(counts, sort_keys=True))
    trace_path = OUT / "traces" / f"{workload.name}-seed{seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome(trace_path)
    report = {
        "untraced_setup_plus_op_s": [before, after],
        "traced_setup_s": setup_t, "traced_op_s": op_t,
        "spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT)),
        "repeat_counts": counts, "notes": notes, "shown": dict(metrics),
    }
    return dict(metrics=metrics, attempted=attempted, failed=failed,
                report=report)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_rps"):
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name == "host_speed":
        return "ratio"
    if name == "comm.modeled_bytes":
        return "bytes"
    if name.endswith(("_ratio", "_frac", "_rate")):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    # Only this checkout's source counts: an installed copy of the
    # package elsewhere on sys.path must not stand in for it.
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test is missing: no {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import workloads as W
    except ImportError as err:
        print(f"error: cannot import the program under test: {err}",
              file=sys.stderr)
        return 2
    workload = W.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    host = host_record(np)
    if args.trace:
        import tracing as T

        result = traced_run(W, T, workload, args.seed)
    else:
        import hostspeed as H

        result = timed_run(W, H, workload, args.seed, args.seconds)

    report = result.pop("report")
    correct = result["failed"] == 0
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    OUT.joinpath(
        "results", f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    ).write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "trace": args.trace,
         "seconds": args.seconds, "host": host, "correct": correct,
         **result, **report}, indent=1, default=float,
    ))
    print(f"{workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    for note in report["notes"]:
        print(note, file=sys.stderr)
    for name, value in report["shown"].items():
        print(f"  {name:<40} {value:>14.6g} {unit_of(name)}")
    if "op_s" in report:
        batches = len(report.get("batch_ms", []))
        print(f"  samples: {len(report['setup_s'])} set-ups, {len(report['op_s'])}"
              " timed ops after 1 warm-up"
              + (f", {batches} micro-batches" if batches else ""))
    else:
        shown = report["shown"]
        print(f"  other_s is {shown['other_s'] / shown['trace.window_s']:.2%}"
              f" of the {shown['trace.window_s']:.3f} s traced window,"
              f" over {report['spans']} spans")
    ref = report.get("reference")
    if ref:
        print(f"  loss reference ({ref['source']}): {ref['losses']}")
        for key, when in (("epoch_s", "this run"), ("pinned_epoch_s", "pinning")):
            if key in ref:
                median = statistics.median(ref[key])
                print(f"  single-worker baseline epoch_s {median:.4f} s"
                      f" (measured in {when})")
    print(f"  checked {result['attempted']} operations, {result['failed']} failed")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": float(value), "unit": unit_of(name)}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
