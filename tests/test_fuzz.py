"""Fuzzing of the instance parser and the command line on malformed input.

``instances.parse`` must either return an ``InstanceFile`` or raise
``InstanceParseError``; ``cli.main`` must end with exit code 0, 2, 3 or 4
(argparse's own usage errors exit with 2), never with another exception.

Valid instances are kept at n <= 5, or at n = 17 and 40 beyond the
enumeration limit, because an exact analysis at 6 <= n <= 16 may
legitimately run for a long time; malformed instances name any n.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from allocore.cli import main
from allocore.errors import InstanceParseError
from allocore.instances import InstanceFile, parse

BAD_RATIONALS = [
    "1/0", "abc", "1.5", "1e5", "1e999999999", "-1", "", " 3/4 ", "1/-2", "nan",
    "inf", "x/y", "1//2", "0x10", "9" * 5000, 1.5, True, None, [], {}, 10**30, -3,
]
HUGE_GRAND = json.dumps(
    {"format": "explicit", "n": 2, "costs": {"1": "1", "2": "1", "1,2": "1" + "0" * 400}}
)
BAD_KEYS = ["1", "2", "1,2", "2,1", "", "0", "a", "1,,2", "99", " 1", "1 ", "+1", "١", "1,2,3"]

counts = st.integers(-2, 5) | st.sampled_from([17, 40, 10**6, 10**18, "3", 3.0, True, None, [3]])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
rationals = (
    st.sampled_from(BAD_RATIONALS) | st.integers(0, 5) | st.sampled_from(["1/3", "5/7", "2"])
)
endpoints = st.integers(-1, 6) | st.sampled_from([10**6, "1", 1.0, None, True])


@st.composite
def explicit_objects(draw):
    fmt = draw(st.sampled_from(["explicit", "explicit", "mst", "other", 3]))
    obj = {"format": fmt, "n": draw(counts)}
    if draw(st.booleans()):
        costs = st.dictionaries(st.sampled_from(BAD_KEYS), rationals, max_size=8)
        obj["costs"] = draw(costs | json_values)
    if draw(st.booleans()):
        obj["default"] = draw(rationals)
    return obj


@st.composite
def mst_objects(draw):
    n = draw(counts)
    edge = st.tuples(endpoints, endpoints, rationals).map(list) | json_values
    edges = draw(st.lists(edge, max_size=8))
    if type(n) is int and 1 <= n <= 40 and draw(st.booleans()):
        edges += [[0, j, draw(st.integers(0, 4))] for j in range(1, n + 1)]  # a star connects
    return {"format": draw(st.sampled_from(["mst", "mst", "explicit"])), "n": n, "edges": edges}


@st.composite
def near_valid_objects(draw):
    """Complete explicit tables or connected graphs; now and then one value is
    replaced by a bad one or one entry is dropped."""
    values = st.integers(0, 6) | st.sampled_from(["1/3", "5/7", "11/13"])
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        keys = [
            ",".join(str(i + 1) for i in range(n) if bits >> i & 1) for bits in range(1, 1 << n)
        ]
        entries = {key: draw(values) for key in keys}
        obj = {"format": "explicit", "n": n, "costs": entries}
    else:
        n = draw(st.integers(1, 5) | st.sampled_from([17, 40]))
        entries = [[0, j, draw(values)] for j in range(1, n + 1)]
        m = min(n, 5)
        entries += [[i, j, draw(values)] for i in range(1, m + 1) for j in range(i + 1, m + 1)
                    if draw(st.booleans())]
        obj = {"format": "mst", "n": n, "edges": entries}
    corruption = draw(st.sampled_from(["none", "none", "value", "drop"]))
    index = draw(st.integers(0, len(entries) - 1))
    if obj["format"] == "explicit":
        key = list(entries)[index]
        if corruption == "value":
            entries[key] = draw(st.sampled_from(BAD_RATIONALS))
        elif corruption == "drop":
            del entries[key]
    elif corruption == "value":
        entries[index][2] = draw(st.sampled_from(BAD_RATIONALS))
    elif corruption == "drop":
        del entries[index]
    return obj


instance_texts = (
    near_valid_objects().map(json.dumps)
    | st.text(max_size=40)
    | json_values.map(json.dumps)
    | explicit_objects().map(json.dumps)
    | mst_objects().map(json.dumps)
    | mst_objects().map(lambda obj: json.dumps(obj)[:-3])  # truncated
    | st.integers(1, 100_000).map(lambda depth: "[" * depth + "]" * depth)
    | st.just('{"format": "mst", "n": ' + "9" * 5000 + ', "edges": []}')
)


@settings(max_examples=300, deadline=None)
@given(instance_texts)
def test_parse_returns_an_instance_or_raises_a_parse_error(text):
    try:
        result = parse(text)
    except InstanceParseError:
        return
    assert isinstance(result, InstanceFile)


good_points = st.lists(
    st.integers(-3, 6) | st.sampled_from(["1/3", "-5/7", "11/13"]), min_size=1, max_size=5
).map(lambda values: ",".join(map(str, values)))
bad_points = (
    st.sampled_from(["1/0,1", "a", "", "1e999999999,0", "1,,2", "--1"]) | st.text(max_size=10)
)
points = st.integers(0, 2).flatmap(lambda k: good_points if k else bad_points)
flags = st.sampled_from(["--nonneg", "--monotonize", "--decimal"])


@st.composite
def command_lines(draw, path):
    """A command line over the instance file at ``path``, or a bench run."""
    command = draw(st.sampled_from(["analyze", "mst", "separate", "bench", "other"]))
    if command == "analyze":
        return ["analyze", path] + draw(st.lists(flags, unique=True))
    if command == "mst":
        action = draw(st.sampled_from(["approx", "gh", "table", "bogus"]))
        extra = draw(st.sampled_from([[], ["--monotonize"], ["--limit", "3"], ["--limit", "x"]]))
        return ["mst", path, action] + extra
    if command == "separate":
        return ["separate", path, "--point", draw(points)] + draw(st.lists(flags, unique=True))
    if command == "bench":
        return [
            "bench",
            "--count", draw(st.sampled_from(["0", "-1", "1", "2", "x"])),
            "--n",
            draw(st.sampled_from(["3", "2-3", "3-2", "1", "a-b", "2-99", "", "2-3-4", "-2"])),
            "--seed", draw(st.sampled_from(["0", "7", "x"])),
        ]
    return draw(st.lists(st.text(max_size=6), max_size=3))


def run_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code


# Most command lines get a near-valid file, so the commands run past the parser.
cli_texts = st.integers(0, 3).flatmap(
    lambda k: near_valid_objects().map(json.dumps) if k else instance_texts
)


@settings(max_examples=300, deadline=None)
@given(cli_texts, st.data())
def test_cli_ends_with_a_documented_exit_code(text, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "game.json")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as handle:
            handle.write(text)
        argv = data.draw(command_lines(path))
        assert run_main(argv) in (0, 2, 3, 4)


def test_cli_unreadable_paths_are_parse_errors():
    with tempfile.TemporaryDirectory() as tmp:
        bad_utf8 = os.path.join(tmp, "latin1.json")
        with open(bad_utf8, "wb") as handle:
            handle.write(b'{"format": "mst", "n": 1, "edges": [[0, 1, "\xff"]]}')
        assert run_main(["analyze", bad_utf8]) == 2
        assert run_main(["analyze", tmp]) == 2  # a directory
        assert run_main(["analyze", os.path.join(tmp, "missing.json")]) == 2


def test_inputs_the_fuzz_found():
    """Each of these once ended in a traceback, a MemoryError or a hang; the
    coalition written as both "1" and " 1" silently kept only its last cost,
    ``--count 0`` failed inside ``min()``, and ``--decimal`` overflowed on a
    cost beyond float range."""
    with tempfile.TemporaryDirectory() as tmp:
        cases = {
            "[" * 100_000 + "]" * 100_000: 2,  # RecursionError in json
            '{"format": "mst", "n": ' + "9" * 5000 + ', "edges": []}': 2,  # int digit limit
            '{"format": "explicit", "n": 1, "costs": {"1": "1e999999999"}}': 2,  # 10**999999999
            # the same coalition twice
            '{"format": "explicit", "n": 1, "costs": {"1": "1", " 1": "5"}}': 2,
            '{"format": "mst", "n": 1000000000, "edges": [[0, 1, "1"]]}': 4,  # n-sized adjacency
        }
        for text, code in cases.items():
            path = os.path.join(tmp, "game.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            assert run_main(["analyze", path]) == code
        assert run_main(["bench", "--count", "0"]) == 4
        # c(N) = 10^400 is beyond float range: --decimal raised OverflowError.
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(HUGE_GRAND)
        assert run_main(["analyze", path, "--decimal"]) == 0
