"""Pin the expected join-row totals per seed.

Runs the in-process chain of the flagship_fused and checkpoint_resume
workloads (no Ray) for each seed and writes ``perfbench/pins.json``,
which every run checks its outputs against. Run it again only when a
change to the engine is meant to change these outputs:

    python3 perfbench/pin.py 0 99
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

from tracing import NullTracer  # noqa: E402
from workloads import CheckpointResume, FlagshipFused  # noqa: E402


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    work = os.path.join(HERE, "out", "pin")
    pins: dict[str, dict[str, dict]] = {FlagshipFused.name: {}, CheckpointResume.name: {}}
    for seed in range(first, last + 1):
        wl = FlagshipFused(seed, work)
        wl.prepare()
        ref = wl.reference(NullTracer())
        pins[wl.name][str(seed)] = {k: ref[k] for k in ("join_rows", "matched_rows", "assignments")}
        wl = CheckpointResume(seed, work)
        wl.prepare()
        pins[wl.name][str(seed)] = {"join_rows": wl.reference(NullTracer())["join_rows"]}
        print(seed, pins[FlagshipFused.name][str(seed)], pins[wl.name][str(seed)], flush=True)
    shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "pins.json"), "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
