"""Byte-for-byte golden outputs of the CLI.

Each case runs ``allocore.cli.main`` in-process and compares its exit code,
stdout and stderr with the copy recorded in ``tests/golden/<case>.json``.
A refactor that keeps behaviour must keep these files unchanged. After a
deliberate change of output, re-record with::

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from allocore.cli import main

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
GOLDEN = Path(__file__).resolve().parent / "golden"

# One point per instance for the ``separate`` cases, chosen to cover member,
# violated, bound-violated and the x(N minus k) > c(N) shortcut.
POINTS = {
    "empty_core": "1,1,0",
    "large_gap_k5": "0,0,5",
    "steiner_counterexample": "0,2,2",
    "subsidy_k5": "-5,5,5",
    "tight_ratio_eps_quarter": "1,1,0",
}
# The instances in spanning-tree format, which the ``mst`` cases also run on.
MST_INSTANCES = ("large_gap_k5", "steiner_counterexample", "subsidy_k5", "tight_ratio_eps_quarter")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, point in POINTS.items():
        path = f"instances/{name}.json"
        cases[f"analyze-{name}"] = ["analyze", path]
        cases[f"analyze-nonneg-{name}"] = ["analyze", path, "--nonneg"]
        cases[f"analyze-monotonize-nonneg-{name}"] = ["analyze", path, "--monotonize", "--nonneg"]
        cases[f"separate-{name}"] = ["separate", path, f"--point={point}"]
        cases[f"separate-nonneg-monotonize-{name}"] = [
            "separate", path, f"--point={point}", "--nonneg", "--monotonize"
        ]
        cases[f"mst-approx-{name}"] = ["mst", path, "approx"]
        cases[f"analyze-nonneg-decimal-{name}"] = ["analyze", path, "--nonneg", "--decimal"]
        if name in MST_INSTANCES:
            cases[f"mst-approx-decimal-{name}"] = ["mst", path, "approx", "--decimal"]
            cases[f"mst-gh-{name}"] = ["mst", path, "gh"]
            cases[f"mst-table-{name}"] = ["mst", path, "table"]
            cases[f"mst-table-monotonize-{name}"] = ["mst", path, "table", "--monotonize"]
    # A multi-member coalition key under --decimal stays the string "1,2".
    cases["separate-decimal-empty_core"] = [
        "separate", "instances/empty_core.json", "--point=1,1,0", "--decimal"
    ]
    cases["bench-seed7"] = ["bench", "--seed", "7", "--count", "200", "--n", "3-8"]
    # The exact optimum at the enumeration limit (n = 16): the full 2^16 cost
    # table and row generation over it; random_graph(Random(5), 16, "rational").
    cases["mst-approx-random16_rational"] = ["mst", "instances/random16_rational.json", "approx"]
    return cases


CASES = _cases()


def run(argv: list[str]) -> dict:
    """Run the CLI on ``argv`` (paths relative to the repository root)."""
    resolved = [str(ROOT / a) if a.startswith("instances/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(resolved)
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    expected = json.loads((GOLDEN / f"{case}.json").read_text())
    assert run(CASES[case]) == expected


def test_golden_files_are_exactly_the_cases():
    # a stale or renamed file in tests/golden/ would otherwise go unchecked
    assert sorted(path.stem for path in GOLDEN.glob("*.json")) == sorted(CASES)
    assert len(CASES) == 54


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        text = json.dumps(run(argv), indent=1) + "\n"
        (GOLDEN / f"{case}.json").write_text(text)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_cli.py --record")
    record()
