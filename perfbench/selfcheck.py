"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py

For each workload, two traced runs with seed 1 must be correct and give
the same count fingerprint: within a run, its traced passes (each in its
own process with its own hash salt) give one fingerprint, and each pass's
verifier flags the wrong answer it is fed.  On `chains` and `programs` a
traced run with seed 2 must give a different fingerprint.  On `corpus` the
seed only orders the items, so it cannot move the counts; that
fingerprint is printed, not compared.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1
SEEDED = ("chains", "programs")  # the workloads whose counts depend on the seed


def traced_run(workload: str, seed: int) -> tuple[bool, str | None]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    prints = [line.split(": ", 1)[1] for line in out if line.startswith("count fingerprint: ")]
    return json.loads(out[-1])["correct"], (prints[0] if prints else None)


def main() -> int:
    ok = True
    for workload in ("corpus", "chains", "programs"):
        correct, first = traced_run(workload, SEED)
        again_correct, again = traced_run(workload, SEED)
        _, other = traced_run(workload, SEED + 1)
        repeats = first is not None and first == again
        moved = first is not None and other is not None and first != other
        print(f"{workload}: correct={correct and again_correct} fingerprint seed {SEED}="
              f"{first} again={again} repeats={repeats} seed {SEED + 1}={other} changes={moved}")
        ok = ok and correct and again_correct and repeats and (moved or workload not in SEEDED)
    print("selfcheck", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
