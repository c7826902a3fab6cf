"""Determinism self-check: two traced runs with one seed must give identical counts.

    python3 benchmarks/selfcheck.py --seed 1 --seconds 5

Runs ``run.py --trace 1`` twice per workload, in separate processes, and
compares every count metric (calls, bytes, bits, cache-hit ratio). Exits 1
on any difference or failed run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE
from spans import DETERMINISTIC_COUNTS, LAYER_METRICS
from workloads import WORKLOADS

COUNTS = [name for name, _unit, kind, _key in LAYER_METRICS if kind not in ("s", "self_s")]


def traced_counts(workload: str, seed: int, seconds: float) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: traced run failed its checks\n{done.stderr}")
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    args = parser.parse_args()
    same = True
    for workload in WORKLOADS:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        for name in COUNTS:
            match = first[name] == second[name]
            same &= match
            if name in DETERMINISTIC_COUNTS or not match:
                print(f"{workload:15s} {name:32s} {first[name]!r:>10} {second[name]!r:>10} {'ok' if match else 'DIFFERENT'}")
    print("identical" if same else "counts differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
