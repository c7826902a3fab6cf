"""Record the exact outputs that the benchmark compares with ``==``.

    python3 benchmarks/record_golden.py

Runs the first GOLDEN_OPS operations of every workload for the default and
the held-out seed, checks them, and writes their summaries to golden.json.
Re-record only in a change whose purpose is to alter exact outputs.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, HELD_OUT_SEED, HERE, import_allocore
from workloads import WORKLOADS

GOLDEN_OPS = 8


def main() -> int:
    api = import_allocore()
    golden: dict[str, dict[str, list[dict]]] = {}
    for name, workload in WORKLOADS.items():
        golden[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            rows = []
            for index in range(GOLDEN_OPS):
                raw = workload.make_input(seed, index)
                problems, summary = workload.check(raw, workload.run(api, raw))
                if problems:
                    print(f"{name} seed {seed} operation {index}: {problems}", file=sys.stderr)
                    return 1
                rows.append(summary)
            golden[name][str(seed)] = rows
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
