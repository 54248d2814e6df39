"""Regenerate ``pinned_losses.json``: the training workloads' loss references.

Usage (from the repository root)::

    python3 perfbench/pin_losses.py --workload train-fullbatch --seeds 0-31

Each seed's trajectory covers the warm-up epoch plus the most timed
epochs a run may take (``OP_LIMITS``), so every epoch a run executes is
checked against it.  Full-batch workloads pin the plain single-worker
run (and its host epoch seconds, the single-worker baseline); the
sampled workload pins its own trajectory.  Re-pin only when a
workload's definition in ``workloads.py`` changes: a code change must
reproduce these numbers.
"""

import argparse
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads as W  # noqa: E402


def dump(pinned: dict) -> str:
    """Indented JSON with each trajectory on one line."""
    text = json.dumps(pinned, indent=1, sort_keys=True)
    return re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[n for n, w in W.WORKLOADS.items() if w.engine])
    parser.add_argument("--seeds", default="0-31")
    args = parser.parse_args()
    workload = W.WORKLOADS[args.workload]
    epochs = 1 + W.OP_LIMITS[workload.name][1]
    path = W.PINNED_LOSSES
    everything = json.loads(path.read_text()) if path.exists() else {}
    pinned = everything.get(workload.name, {})
    if pinned.get("epochs") != epochs:
        pinned = {"epochs": epochs, "losses": {}}
    everything[workload.name] = pinned
    for seed in parse_seeds(args.seeds):
        ref = W.computed_reference(workload, seed, epochs)
        pinned["source"] = ref["source"]
        pinned["losses"][str(seed)] = ref["losses"]
        if "epoch_s" in ref:
            pinned.setdefault("epoch_s", {})[str(seed)] = ref["epoch_s"]
        print(seed, ref["losses"][:3], flush=True)
        path.write_text(dump(everything))
    return 0


if __name__ == "__main__":
    sys.exit(main())
