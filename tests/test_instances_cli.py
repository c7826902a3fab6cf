import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from allocore import instances
from allocore.cli import main
from allocore.coalition import bits_members
from allocore.errors import InstanceParseError, PreconditionError
from allocore.games import ENUM_LIMIT, ExplicitGame
from allocore.generators import random_graph
from allocore.instances import (
    InstanceFile,
    explicit_instance_from_table,
    mst_instance_from_graph,
    parse,
    serialize,
    to_game,
    to_graph,
)
from allocore.mstgame import GRAPH_AGENT_LIMIT


EXPLICIT_TEXT = """
{"format": "explicit", "n": 3,
 "costs": {"1": 1, "2": "1", "3": "1",
           "1,2": "1", "1,3": "1", "2,3": "1",
           "1,2,3": "2"}}
"""

MST_TEXT = """
{"format": "mst", "n": 3,
 "edges": [[0, 1, "1"], [0, 2, 2], [0, 3, "2"],
           [1, 2, "0"], [1, 3, "1/4"], [2, 3, 0]]}
"""


class TestParsing:
    def test_explicit(self):
        inst = parse(EXPLICIT_TEXT)
        assert inst.format == "explicit" and inst.n == 3
        game = to_game(inst)
        assert game.cost_bits(0b111) == 2
        assert game.cost_bits(0b011) == 1

    def test_mst(self):
        inst = parse(MST_TEXT)
        graph = to_graph(inst)
        assert graph.coalition_cost(0b101) == Fraction(5, 4)

    def test_unsorted_key_named(self):
        text = EXPLICIT_TEXT.replace('"1,3"', '"3,1"')
        with pytest.raises(InstanceParseError, match="3,1"):
            parse(text)

    def test_duplicate_key(self):
        text = EXPLICIT_TEXT.replace('"2,3": "1"', '"2,3": "1", "2,3": "7"')
        with pytest.raises(InstanceParseError, match="duplicate"):
            parse(text)

    def test_empty_key_rejected(self):
        text = EXPLICIT_TEXT.replace('"1": 1', '"": 0, "1": 1')
        with pytest.raises(InstanceParseError, match="empty coalition"):
            parse(text)

    def test_missing_coalitions_without_default(self):
        text = EXPLICIT_TEXT.replace('"2,3": "1",', "")
        with pytest.raises(InstanceParseError, match="missing"):
            parse(text)

    def test_default_fills_missing(self):
        data = {"format": "explicit", "n": 3, "costs": {"1,2,3": "2"}, "default": "1"}
        game = to_game(parse(json.dumps(data)))
        assert game.cost_bits(0b011) == 1
        assert game.cost_bits(0b111) == 2

    def test_float_cost_rejected(self):
        data = {"format": "explicit", "n": 2, "costs": {"1": 0.5, "2": 1, "1,2": 1}}
        with pytest.raises(InstanceParseError, match="p/q"):
            parse(json.dumps(data))

    def test_bad_rational(self):
        data = {"format": "explicit", "n": 2, "costs": {"1": "1/0", "2": 1, "1,2": 1}}
        with pytest.raises(InstanceParseError, match="1/0"):
            parse(json.dumps(data))

    def test_agent_out_of_range(self):
        data = {"format": "explicit", "n": 2, "costs": {"1": 1, "2": 1, "1,2": 1, "3": 1}}
        with pytest.raises(InstanceParseError, match="agent 3"):
            parse(json.dumps(data))

    @pytest.mark.parametrize(
        "text, message",
        [
            # a fullwidth digit: str.isdigit and int accept it, the key format does not
            (EXPLICIT_TEXT.replace('"2,3"', '"2,\\uff13"'), "malformed coalition key '2,\uff13'"),
            (MST_TEXT.replace('"edges"', '"edge"'), "need an 'edges' array"),
            (MST_TEXT.replace("[0, 2, 2]", "[0, true, 2]"), "edge #1: endpoints must be integers"),
            (MST_TEXT.replace("[0, 2, 2]", "[0, 2.0, 2]"), "edge #1: endpoints must be integers"),
        ],
        ids=["non-ascii-key", "no-edges", "bool-endpoint", "float-endpoint"],
    )
    def test_malformed_input_rejected(self, text, message):
        with pytest.raises(InstanceParseError, match=message):
            parse(text)

    def test_json_errors_carry_line_numbers(self):
        with pytest.raises(InstanceParseError, match="line 2"):
            parse('{"format": "explicit",\n "n": }')

    def test_duplicate_edges(self):
        text = MST_TEXT.replace("[1, 2, \"0\"]", "[1, 2, \"0\"], [2, 1, \"5\"]")
        with pytest.raises(InstanceParseError, match="duplicate"):
            parse(text)

    def test_negative_weight(self):
        text = MST_TEXT.replace('"1/4"', '"-1/4"')
        with pytest.raises(InstanceParseError, match="negative"):
            parse(text)

    def test_monotonize_needs_mst(self):
        with pytest.raises(PreconditionError):
            to_game(parse(EXPLICIT_TEXT), monotonize=True)


def explicit_text(costs: dict, n: int = 3) -> str:
    return json.dumps({"format": "explicit", "n": n, "costs": costs})


CANONICAL3 = {"1": "1", "2": "1", "1,2": "1", "3": "1", "1,3": "1", "2,3": "1", "1,2,3": "2"}


class TestParsingOffTheCanonicalForms:
    """Keys and values that are not in serialize's form take the general path."""

    def test_non_canonical_keys_name_the_same_coalitions(self):
        renamed = {"1": "001", "1,3": "01,3", "2,3": "2,03", "1,2,3": "1,02,3"}
        costs = {renamed.get(key, key): value for key, value in CANONICAL3.items()}
        assert parse(explicit_text(costs)) == parse(explicit_text(CANONICAL3))

    def test_non_canonical_key_listed_twice(self):
        text = explicit_text({**CANONICAL3, "1,03": "1"})
        with pytest.raises(InstanceParseError, match=r"coalition '1,03' is listed twice"):
            parse(text)

    def test_non_canonical_rationals_give_equal_fractions(self):
        costs = {**CANONICAL3, "1": "2/4", "2": "0.75", "3": "+3", "1,2": "-0", "2,3": "1/2"}
        inst = parse(explicit_text(costs))
        values = inst.costs
        assert values[0b001] == values[0b110] == Fraction(1, 2)
        assert values[0b010] == Fraction(3, 4)
        assert values[0b100] == 3
        assert values[0b011] == 0
        assert all(type(v) is Fraction for v in values)
        assert to_game(inst).cost_bits(0b011) == 0

    @pytest.mark.parametrize("number", [1.0, True])
    def test_float_or_bool_after_the_same_string_and_int_is_rejected(self, number):
        # 1 == 1.0 == True: a memo keyed on any value would accept the later ones
        costs = {"3": "1", **CANONICAL3, "1": 1, "2": number, "2,3": number}
        assert list(costs)[:3] == ["3", "1", "2"]
        with pytest.raises(InstanceParseError, match=r"cost of '2': values must be integers"):
            parse(explicit_text(costs))

    def test_int_after_the_same_string_is_accepted(self):
        text = explicit_text(CANONICAL3).replace('"2": "1"', '"2": 1')
        assert parse(text) == parse(explicit_text(CANONICAL3))

    def test_bad_rational_named_at_its_first_key(self):
        text = explicit_text({**CANONICAL3, "2": "1/0", "2,3": "1/0"})
        with pytest.raises(InstanceParseError, match=r"cost of '2': bad rational '1/0'"):
            parse(text)

    def test_duplicate_in_a_full_table_names_the_first_duplicate(self):
        text = explicit_text(CANONICAL3)[:-2] + ', "1,3": "5", "1": "4"}}'
        with pytest.raises(InstanceParseError, match=r"duplicate key '1,3'"):
            parse(text)


def parse_outcome(text: str):
    try:
        return parse(text)
    except InstanceParseError as exc:
        return str(exc)


def bad_rational(value: str, reason: str) -> str:
    return f"cost of '2': bad rational {value!r} ({reason})"


# cost strings and what parse makes of them: an ASCII "p", "-p" or "p/q"
# with q != 0 is read from its integers, any other string by the general
# rational parser ("1_000" is a Fraction literal from Python 3.11 on)
COST_STRINGS = {
    "12": Fraction(12), "-7/3": Fraction(-7, 3), "+3": Fraction(3), " 3": Fraction(3),
    "3.0": Fraction(3), "007/014": Fraction(1, 2), "-0": Fraction(0), "0/5": Fraction(0),
    "٣": Fraction(3),
    "1_000": Fraction(1000) if sys.version_info >= (3, 11)
    else bad_rational("1_000", "Invalid literal for Fraction: '1_000'"),
    "3/0": bad_rational("3/0", "Fraction(3, 0)"),
    "1/-2": bad_rational("1/-2", "Invalid literal for Fraction: '1/-2'"),
    "1e3": bad_rational("1e3", "exponent notation is not accepted: '1e3'"),
    "½": bad_rational("½", "Invalid literal for Fraction: '½'"),
    "--3": bad_rational("--3", "Invalid literal for Fraction: '--3'"),
    "3/": bad_rational("3/", "Invalid literal for Fraction: '3/'"),
}


@pytest.mark.parametrize("value", COST_STRINGS)
def test_cost_string_parses_to_its_expected_outcome(value):
    outcome = parse_outcome(explicit_text({**CANONICAL3, "2": value, "2,3": value}))
    expected = COST_STRINGS[value]
    if isinstance(expected, str):
        assert outcome == expected
    else:
        assert outcome.costs[0b010] == outcome.costs[0b110] == expected


def test_cost_string_past_the_int_conversion_limit_is_rejected():
    # the limit's wording differs between Python versions
    with pytest.raises(InstanceParseError, match=r"^cost of '2': bad rational '9{5000}' \(Exceeds the limit \(4300"):
        parse(explicit_text({**CANONICAL3, "2": "9" * 5000}))


def test_first_bad_string_is_named_at_its_first_key():
    costs = {**CANONICAL3, "1": "1/2", "2": "x", "1,2": "1/0", "3": "x", "2,3": "1/2"}
    assert parse_outcome(explicit_text(costs)) == bad_rational("x", "Invalid literal for Fraction: 'x'")
    costs = {**CANONICAL3, "1": "y", "2": "1", "1,2": "y"}
    assert parse_outcome(explicit_text(costs)) == (
        "cost of '1': bad rational 'y' (Invalid literal for Fraction: 'y')"
    )


def test_strings_mixed_with_an_int_and_a_list_are_rejected():
    costs = {**CANONICAL3, "2": 1, "1,2": ["1"], "3": "x"}
    with pytest.raises(InstanceParseError, match=r"^cost of '1,2': values must be integers or 'p/q' strings$"):
        parse(explicit_text(costs))


def random_table(rng: Random, n: int) -> list[Fraction]:
    """A 2^n table with repeated values, its last entry an integer."""
    table = [Fraction(rng.randint(0, 12), rng.randint(1, 3)) for _ in range(1 << n)]
    table[0] = Fraction(0)
    table[-1] = Fraction(rng.randint(1, 9))
    return table


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 11])
class TestTheTwoKeyPaths:
    """serialize's own text takes parse's one-comparison path; every variant
    below takes the general key loop and must give the same result."""

    @pytest.fixture
    def case(self, n):
        rng = Random(1000 + n)
        table = random_table(rng, n)
        instance = explicit_instance_from_table(n, table)
        text = serialize(instance)
        assert parse(text) == instance and to_game(parse(text)).table() == tuple(table)
        return rng, table, instance, json.loads(text)

    @staticmethod
    def text_with_costs(data, costs, **extra):
        return json.dumps({**data, "costs": costs, **extra})

    def test_entries_in_another_order(self, case):
        rng, table, instance, data = case
        items = list(data["costs"].items())
        rng.shuffle(items)
        if len(items) > 1 and [key for key, _ in items] == list(data["costs"]):
            items.reverse()
        parsed = parse(self.text_with_costs(data, dict(items)))
        assert parsed == instance and to_game(parsed).table() == tuple(table)

    def test_one_key_written_off_the_canonical_form(self, case):
        rng, table, instance, data = case
        target = rng.choice(list(data["costs"]))
        costs = {("0" + k if k == target else k): value for k, value in data["costs"].items()}
        assert ("0" + target) in costs and target not in costs  # e.g. "1,3" -> "01,3"
        parsed = parse(self.text_with_costs(data, costs))
        assert parsed == instance and to_game(parsed).table() == tuple(table)

    def test_one_value_written_as_a_json_int(self, case):
        _, table, instance, data = case
        costs = dict(data["costs"])
        last = list(costs)[-1]
        costs[last] = int(costs[last])
        parsed = parse(self.text_with_costs(data, costs))
        assert parsed == instance and to_game(parsed).table() == tuple(table)

    def test_one_entry_dropped_and_a_default_declared(self, case, n):
        rng, table, instance, data = case
        dropped = rng.randrange(1, 1 << n)
        costs = dict(data["costs"])
        del costs[list(costs)[dropped - 1]]
        kept = instance.costs[:dropped] + (None,) + instance.costs[dropped + 1:]
        partial = InstanceFile("explicit", n, kept, table[dropped])
        parsed = parse(self.text_with_costs(data, costs, default=str(table[dropped])))
        assert parsed == partial and parse(serialize(partial)) == partial
        assert to_game(parsed).table() == tuple(table)


def test_coalition_keys_are_one_tuple_per_n():
    keys = instances._coalition_keys(3)
    assert keys == ("", "1", "2", "1,2", "3", "1,3", "2,3", "1,2,3")
    assert instances._coalition_keys(3) is keys
    assert all(instances._coalition_keys(n) is instances._coalition_keys(n) for n in (11, 16))


def test_explicit_instance_from_table_needs_a_full_table_from_zero():
    assert explicit_instance_from_table(2, [0, 1, 2, 3]).costs == (0, 1, 2, 3)
    for table in ([0, 1, 2], [0, 1, 2, 3, 4], [1, 1, 2, 3]):
        with pytest.raises(ValueError, match="2\\^2-entry cost table whose entry 0 is 0"):
            explicit_instance_from_table(2, table)


class TestCostMasksMustAscendInRange:
    """An explicit costs table is indexed by the masks 0..2^n - 1, no more and
    no fewer, and entry 0, the empty coalition, costs 0. serialize and to_game
    reject any other length or entry 0 with ValueError, as
    explicit_instance_from_table does (tested above)."""

    @pytest.mark.parametrize(
        "costs",
        [
            # entry 0 would give the empty coalition a cost
            (Fraction(1), Fraction(1), Fraction(1), Fraction(2)),
            # entry 4 would be the mask of an agent beyond n = 2
            (Fraction(0), Fraction(1), Fraction(1), Fraction(2), Fraction(5)),
            # mask 3, the grand coalition, has no entry
            (Fraction(0), Fraction(1), Fraction(1)),
        ],
        ids=["empty", "beyond-n", "short"],
    )
    @pytest.mark.parametrize(
        "reader",
        [
            lambda costs: serialize(InstanceFile("explicit", 2, costs)),
            lambda costs: to_game(InstanceFile("explicit", 2, costs)),
        ],
        ids=["serialize", "to_game"],
    )
    def test_rejected(self, costs, reader):
        # to_game leaves the check to ExplicitGame, whose messages differ
        with pytest.raises(ValueError, match=r"2\^2|empty coalition"):
            reader(costs)

    def test_a_partial_ascending_column_with_a_default_is_read(self):
        instance = InstanceFile("explicit", 2, (Fraction(0), None, None, Fraction(2)), Fraction(1))
        assert parse(serialize(instance)) == instance
        assert to_game(instance).table() == (0, 1, 1, 2)


@st.composite
def explicit_files(draw):
    """(text, n, table with None where the file lists no cost, default):
    every coalition listed and no default, or any subset listed and a
    default, with the keys in mask order or shuffled."""
    n = draw(st.integers(1, 6))
    value = st.fractions(min_value=0, max_value=20, max_denominator=6)
    table = [Fraction(0)] + draw(st.lists(value, min_size=(1 << n) - 1, max_size=(1 << n) - 1))
    default = None
    if draw(st.booleans()):
        default = draw(value)
        unlisted = draw(st.sets(st.integers(1, (1 << n) - 1)))
        table = [None if mask in unlisted else cost for mask, cost in enumerate(table)]
    listed = [mask for mask in range(1, 1 << n) if table[mask] is not None]
    if draw(st.booleans()):
        listed = draw(st.permutations(listed))
    data = {"format": "explicit", "n": n,
            "costs": {",".join(map(str, bits_members(m))): str(table[m]) for m in listed}}
    if default is not None:
        data["default"] = str(default)
    return json.dumps(data), n, table, default


@settings(deadline=None)
@given(explicit_files())
def test_the_costs_table_round_trips(case):
    text, n, table, default = case
    inst = parse(text)
    assert inst == InstanceFile("explicit", n, tuple(table), default)
    assert parse(serialize(inst)) == inst
    # serialize writes json.dumps's bytes of the listed coalitions in mask
    # order, an empty costs object (all default) included
    keys = {",".join(map(str, bits_members(m))): str(v)
            for m, v in enumerate(table) if m and v is not None}
    data = {"format": "explicit", "n": n, "costs": keys}
    if default is not None:
        data["default"] = str(default)
    assert serialize(inst) == json.dumps(data, indent=2) + "\n"
    full = tuple(default if v is None else v for v in table)
    assert to_game(inst).table() == full
    assert explicit_instance_from_table(n, full).costs == full


class TestMstEdgesInParseOrder:
    """serialize writes an mst record only in the form parse returns: (i, j)
    ascending strictly with 0 <= i < j <= n, and no negative weight."""

    @pytest.mark.parametrize(
        "edges",
        [
            # would write a file that parse rejects as a duplicate edge
            ((0, 1, Fraction(1)), (0, 1, Fraction(2))),
            # would write a file that parse rejects for its endpoints
            ((0, 1, Fraction(1)), (0, 5, Fraction(1))),
            # would write a file that parses back as (0, 1, 1), unequal
            ((1, 0, Fraction(1)),),
            # would write a file that parses back sorted, unequal
            ((0, 2, Fraction(1)), (0, 1, Fraction(1))),
            # would write a file that parse rejects for its weight
            ((0, 1, Fraction(-1)),),
        ],
        ids=["duplicate", "beyond-n", "reversed-pair", "descending", "negative-weight"],
    )
    def test_rejected(self, edges):
        with pytest.raises(ValueError, match=r"0 <= i < j <= 2, ascending strictly"):
            serialize(InstanceFile("mst", 2, edges=edges))


class TestRoundTrip:
    def test_explicit_round_trip(self):
        inst = parse(EXPLICIT_TEXT)
        text = serialize(inst)
        assert parse(text) == inst
        assert serialize(parse(text)) == text

    def test_mst_round_trip(self):
        inst = parse(MST_TEXT)
        text = serialize(inst)
        assert parse(text) == inst
        assert serialize(parse(text)) == text

    def test_default_preserved(self):
        data = {"format": "explicit", "n": 3, "costs": {"1,2,3": "2"}, "default": "1/3"}
        inst = parse(json.dumps(data))
        assert parse(serialize(inst)) == inst

    def test_random_graph_instances(self):
        rng = Random(44)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 5), "rational")
            inst = mst_instance_from_graph(g)
            again = parse(serialize(inst))
            assert again == inst
            assert to_graph(again).weights == g.weights

    def test_table_dump_round_trip(self, unbalanced3):
        inst = explicit_instance_from_table(3, unbalanced3.table())
        again = to_game(parse(serialize(inst)))
        assert again.table() == unbalanced3.table()

    def test_full_table_at_the_enumeration_limit(self):
        n = ENUM_LIMIT
        values = [Fraction(k, 3) for k in range(97)]
        table = [values[bits % 97] for bits in range(1 << n)]
        inst = explicit_instance_from_table(n, table)
        text = serialize(inst)
        assert f'    "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16": "{table[-1]}"\n' in text
        again = parse(text)
        assert again == inst
        assert to_game(again).table() == tuple(table)


@pytest.mark.parametrize("n", [1, 4, 11])
def test_serialize_writes_the_bytes_of_json_dumps(n):
    graph = random_graph(Random(n), n, "rational")
    table = graph.cost_table()
    costs = {",".join(map(str, bits_members(bits))): str(table[bits]) for bits in range(1, 1 << n)}
    data = {"format": "explicit", "n": n, "costs": costs, "default": "1/3"}
    inst = InstanceFile("explicit", n, explicit_instance_from_table(n, table).costs, Fraction(1, 3))
    assert serialize(inst) == json.dumps(data, indent=2) + "\n"
    edges = mst_instance_from_graph(graph)
    rows = ",\n".join("    " + json.dumps([i, j, str(w)]) for i, j, w in edges.edges)
    head = json.dumps({"format": "mst", "n": n}, indent=2)[:-2]
    assert serialize(edges) == head + ',\n  "edges": [\n' + rows + "\n  ]\n}\n"


def test_serialize_writes_empty_objects_as_json_dumps_does():
    edgeless = InstanceFile("mst", 2, edges=())
    text = json.dumps({"format": "mst", "n": 2, "edges": []}, indent=2) + "\n"
    assert serialize(edgeless) == text
    assert parse(text) == edgeless
    all_default = InstanceFile("explicit", 2, (Fraction(0), None, None, None), Fraction(3))
    text = json.dumps({"format": "explicit", "n": 2, "costs": {}, "default": "3"}, indent=2) + "\n"
    assert serialize(all_default) == text
    assert parse(text) == all_default


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCliAnalyze:
    def test_unbalanced_report(self, write, capsys, unbalanced3):
        path = write("g.json", serialize(explicit_instance_from_table(3, unbalanced3.table())))
        code, out, _ = run_cli(capsys, "analyze", path)
        assert code == 0
        report = json.loads(out)
        assert report["cost_of_stability"] == "1/2"
        assert report["core_nonempty"] is False
        assert report["eps_weak"] == "1/6"
        assert "ac_opt_nonneg" not in report

    def test_nonneg_flag_adds_variant(self, write, capsys, gap5):
        path = write("g.json", serialize(mst_instance_from_graph(gap5)))
        code, out, _ = run_cli(capsys, "analyze", path, "--nonneg")
        report = json.loads(out)
        assert code == 0
        assert report["ac_opt_nonneg"] == "5"
        assert report["gamma_approx"] is None  # c(N) = 0

    def test_monotonize_flag(self, write, capsys, steiner):
        path = write("g.json", serialize(mst_instance_from_graph(steiner)))
        code, out, _ = run_cli(capsys, "analyze", path, "--monotonize")
        report = json.loads(out)
        assert report["ac_opt"] == "3/2"

    def test_decimal_block_labeled(self, write, capsys, unbalanced3):
        path = write("g.json", serialize(explicit_instance_from_table(3, unbalanced3.table())))
        _, out, _ = run_cli(capsys, "analyze", path, "--decimal")
        report = json.loads(out)
        assert report["approximate_decimal"]["cost_of_stability"] == 0.5

    def test_decimal_beyond_float_range_repeats_the_exact_string(self, write, capsys):
        huge = "1" + "0" * 400
        data = {"format": "explicit", "n": 2, "costs": {"1": "1", "2": "1", "1,2": huge}}
        path = write("huge.json", json.dumps(data))
        code, out, err = run_cli(capsys, "analyze", path, "--decimal")
        assert code == 0, err
        report = json.loads(out)
        block = report["approximate_decimal"]
        assert report["c_grand"] == block["c_grand"] == huge
        assert block["ac_opt"] == 2.0
        assert block["gamma_approx"] == 0.0  # 1/(5*10^399) rounds to zero, no overflow

    def test_parse_error_exit_code(self, write, capsys):
        path = write("bad.json", EXPLICIT_TEXT.replace('"1,3"', '"3,1"'))
        code, _, err = run_cli(capsys, "analyze", path)
        assert code == 2
        assert "3,1" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "/nonexistent/g.json")
        assert code == 2

    def test_limit_exit_code(self, write, capsys):
        big = {"format": "mst", "n": 17,
               "edges": [[0, j, "1"] for j in range(1, 18)]}
        path = write("big.json", json.dumps(big))
        code, _, err = run_cli(capsys, "analyze", path)
        assert code == 3
        assert "limit" in err

    def test_graph_size_limit_exit_code(self, write, capsys):
        # A connected star one agent above the limit fails before the
        # (n+1)^2 weight table is built.
        n = GRAPH_AGENT_LIMIT + 1
        star = {"format": "mst", "n": n, "edges": [[0, j, "1"] for j in range(1, n + 1)]}
        path = write("star.json", json.dumps(star))
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "mst", path, "gh")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "limit" in err

    def test_every_rational_string_round_trips(self, write, capsys, unbalanced3):
        path = write("g.json", serialize(explicit_instance_from_table(3, unbalanced3.table())))
        _, out, _ = run_cli(capsys, "analyze", path)
        report = json.loads(out)

        def check(value):
            if isinstance(value, str):
                assert str(Fraction(value)) == value
            elif isinstance(value, list):
                for v in value:
                    check(v)

        for key, value in report.items():
            if key not in ("format", "monotonized", "core_nonempty", "n"):
                check(value)


class TestCliMst:
    def test_approx_report(self, write, capsys, tight_quarter):
        path = write("g.json", serialize(mst_instance_from_graph(tight_quarter)))
        code, out, _ = run_cli(capsys, "mst", path, "approx")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == "5/4"
        assert report["allocation"] == ["1", "0", "1/4"]
        assert report["optimum"] == "17/8"
        assert report["ratio"] == "17/10"
        assert report["trace"]["insertion_order"] == [1, 2, 3]
        assert report["trace"]["argmin_k"] == 2

    def test_approx_limit_skips_optimum(self, write, capsys, tight_quarter):
        path = write("g.json", serialize(mst_instance_from_graph(tight_quarter)))
        _, out, _ = run_cli(capsys, "mst", path, "approx", "--limit", "2")
        report = json.loads(out)
        assert "optimum" not in report

    def test_approx_reports_the_optimum_by_default_at_13_agents(self, write, capsys):
        graph = random_graph(Random(13), 13, "rational")
        path = write("g.json", serialize(mst_instance_from_graph(graph)))
        code, out, _ = run_cli(capsys, "mst", path, "approx")
        assert code == 0
        report = json.loads(out)
        optimum, value = Fraction(report["optimum"]), Fraction(report["value"])
        assert Fraction(report["ratio"]) == optimum / value
        assert 1 <= optimum / value <= 2

    def test_gh_report(self, write, capsys, subsidy5):
        path = write("g.json", serialize(mst_instance_from_graph(subsidy5)))
        code, out, _ = run_cli(capsys, "mst", path, "gh")
        report = json.loads(out)
        assert report["allocation"] == ["0", "0", "0"]

    def test_table_dump_is_a_valid_instance(self, write, capsys, steiner):
        path = write("g.json", serialize(mst_instance_from_graph(steiner)))
        code, out, _ = run_cli(capsys, "mst", path, "table", "--monotonize")
        assert code == 0
        dumped = parse(out)
        game = to_game(dumped)
        for bits in range(1, 8):
            assert game.cost_bits(bits) == 1

    def test_table_plain(self, write, capsys, steiner):
        path = write("g.json", serialize(mst_instance_from_graph(steiner)))
        _, out, _ = run_cli(capsys, "mst", path, "table")
        dumped = json.loads(out)
        assert dumped["costs"]["2,3"] == "2"

    @pytest.mark.parametrize("action", ["approx", "gh"])
    def test_monotonize_only_on_table(self, write, capsys, steiner, action):
        path = write("g.json", serialize(mst_instance_from_graph(steiner)))
        code, out, err = run_cli(capsys, "mst", path, action, "--monotonize")
        assert (code, out) == (4, "")
        assert "--monotonize applies to the table action only" in err

    def test_mst_commands_reject_explicit_files(self, write, capsys):
        path = write("g.json", EXPLICIT_TEXT)
        code, _, err = run_cli(capsys, "mst", path, "gh")
        assert code == 4

    def test_pipeline_consistency(self, write, capsys, steiner):
        mst_path = write("g.json", serialize(mst_instance_from_graph(steiner)))
        code, table_text, _ = run_cli(capsys, "mst", mst_path, "table")
        assert code == 0
        explicit_path = write("dump.json", table_text)
        keys_to_skip = {"format", "n", "monotonized"}
        _, out_mst, _ = run_cli(capsys, "analyze", mst_path, "--nonneg")
        _, out_explicit, _ = run_cli(capsys, "analyze", explicit_path, "--nonneg")
        r1 = {k: v for k, v in json.loads(out_mst).items() if k not in keys_to_skip}
        r2 = {k: v for k, v in json.loads(out_explicit).items() if k not in keys_to_skip}
        assert r1 == r2


class TestCliSeparate:
    def test_member(self, write, capsys, tight_quarter):
        path = write("g.json", serialize(mst_instance_from_graph(tight_quarter)))
        code, out, _ = run_cli(capsys, "separate", path, "--point", "0,1,1")
        assert code == 0
        assert json.loads(out)["verdict"] == "member"

    def test_violated(self, write, capsys, tight_quarter):
        path = write("g.json", serialize(mst_instance_from_graph(tight_quarter)))
        _, out, _ = run_cli(capsys, "separate", path, "--point", "1,1,0")
        report = json.loads(out)
        assert report["verdict"] == "violated"
        assert report["coalition"] == "1,2"
        assert report["amount"] == "1"

    def test_decimal_keeps_a_singleton_key_a_string(self, capsys):
        path = str(Path(__file__).resolve().parent.parent / "instances" / "steiner_counterexample.json")
        code, out, _ = run_cli(capsys, "separate", path, "--point=0,2,2", "--decimal")
        report = json.loads(out)
        assert code == 0
        assert report["coalition"] == report["approximate_decimal"]["coalition"] == "2"
        assert report["approximate_decimal"]["amount"] == 1.0

    def test_dimension_error(self, write, capsys, tight_quarter):
        path = write("g.json", serialize(mst_instance_from_graph(tight_quarter)))
        code, _, err = run_cli(capsys, "separate", path, "--point", "0,0")
        assert code == 4
        assert "3 agents" in err
        code, _, err = run_cli(capsys, "separate", path, "--point=1,x,0")
        assert code == 2
        assert "bad --point value" in err

    def test_nonneg_variant(self, write, capsys, steiner):
        path = write("g.json", serialize(mst_instance_from_graph(steiner)))
        code, out, _ = run_cli(
            capsys, "separate", path, "--point", "1/2,1/2,1/2", "--nonneg", "--monotonize"
        )
        assert json.loads(out)["verdict"] == "member"
        code, out, _ = run_cli(
            capsys, "separate", path, "--point", "1,-1,0", "--nonneg", "--monotonize"
        )
        report = json.loads(out)
        assert report["verdict"] == "bound_violated"
        assert report["agent"] == 2

    def test_point_with_a_negative_first_entry(self, capsys):
        path = str(Path(__file__).resolve().parent.parent / "instances" / "subsidy_k5.json")
        joined = run_cli(capsys, "separate", path, "--point=-5,5,5")
        spaced = run_cli(capsys, "separate", path, "--point", "-5,5,5")
        assert joined[0] == 0
        assert spaced == joined


class TestCliBench:
    def test_deterministic_stream_and_ratio_bounds(self, capsys):
        args = ["bench", "--seed", "5", "--count", "6", "--n", "2-4"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert len(lines) == 7  # one record per instance plus the summary
        for line in lines[:-1]:
            record = json.loads(line)
            ratio = Fraction(record["ratio"])
            assert 1 <= ratio <= 2
        summary = json.loads(lines[-1])
        assert Fraction(summary["ratio_min"]) >= 1
        assert Fraction(summary["ratio_max"]) <= 2

    def test_decimal_adds_float_ratios(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--seed", "5", "--count", "4", "--n", "2-4", "--decimal")
        assert code == 0
        *records, summary = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 4
        for record in records:
            assert record["ratio_decimal"] == float(Fraction(record["ratio"]))
        assert summary["ratio_mean_decimal"] == float(Fraction(summary["ratio_mean"]))

    def test_range_validation(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--n", "1-3")
        assert code == 4
        code, _, err = run_cli(capsys, "bench", "--n", "3-4-5")
        assert code == 4
        assert "--n expects N or LO-HI" in err
        code, _, _ = run_cli(capsys, "bench", "--n", "3-17")
        assert code == 3
