import json
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from allocore import instances
from allocore.cli import main
from allocore.errors import InstanceParseError, PreconditionError
from allocore.games import ExplicitGame
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

    def test_dimension_error(self, write, capsys, tight_quarter):
        path = write("g.json", serialize(mst_instance_from_graph(tight_quarter)))
        code, _, err = run_cli(capsys, "separate", path, "--point", "0,0")
        assert code == 4
        assert "3 agents" in err

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

    def test_range_validation(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--n", "1-3")
        assert code == 4
        code, _, _ = run_cli(capsys, "bench", "--n", "3-17")
        assert code == 3
