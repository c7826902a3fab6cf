from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, strategies as st

import allocore.games
import allocore.lp
import allocore.mstgame
import allocore.relaxations
from allocore.coalition import Coalition
from allocore.errors import EnumerationLimitError
from allocore.games import (
    ExplicitGame,
    as_rational,
    over_common_denominator,
    satisfies_last_monotone,
    subset_sums,
)
from allocore.generators import random_empty_core_game, random_explicit_game, random_graph
from allocore.mstgame import GraphInstance, MstGame, almost_core_approx, granot_huberman
from allocore.relaxations import (
    almost_core_optimum,
    core_nonempty,
    extended_core_delta,
    full_report,
    gamma_approx,
    least_core_eps,
    weak_core_eps,
)

from _oracles import (
    ProfitGame,
    coalition_sum,
    first_failing_pair,
    min_stable_profit,
    monotone,
    subadditive,
    submodular,
)


def additive_game(n: int) -> ExplicitGame:
    return ExplicitGame(n, [bits.bit_count() for bits in range(1 << n)])


def concave_size_game(n: int, f) -> ExplicitGame:
    return ExplicitGame(n, [f(bits.bit_count()) for bits in range(1 << n)])


class TestConstruction:
    def test_empty_coalition_cost_enforced(self):
        with pytest.raises(ValueError, match="empty"):
            ExplicitGame(2, [1, 0, 0, 0])

    def test_negative_cost_rejected_by_default(self):
        with pytest.raises(ValueError, match="negative"):
            ExplicitGame(2, [0, -1, 0, 0])

    def test_first_negative_mask_is_named(self):
        minus = Fraction(-1)  # one object at masks 2 and 3, as parse shares them
        for table in ([Fraction(0), Fraction(1), minus, minus], [0, 1, -1, Fraction(-2)]):
            with pytest.raises(ValueError, match=r"^cost of coalition mask 2 is negative: -1$"):
                ExplicitGame(2, table)

    def test_float_or_bool_among_fractions_rejected(self):
        for bad in (1.5, True):
            with pytest.raises(TypeError, match="expected an exact rational"):
                ExplicitGame(2, [Fraction(0), Fraction(1), bad, Fraction(-1)])
        table = ExplicitGame(2, [Fraction(0), 1, "1/2", Fraction(3)]).table()
        assert table == (0, 1, Fraction(1, 2), 3) and all(type(v) is Fraction for v in table)

    def test_table_length_checked(self):
        with pytest.raises(ValueError):
            ExplicitGame(2, [0, 1, 2])
        for n, name in ((True, "bool"), (2.0, "float")):
            with pytest.raises(TypeError, match=f"^n must be an int, got {name}$"):
                ExplicitGame(n, [0, 1, 1, 2])
        with pytest.raises(ValueError, match="^agent count must be nonnegative$"):
            ExplicitGame(-1, [0])

    def test_enumeration_limit(self):
        with pytest.raises(EnumerationLimitError):
            ExplicitGame(17, [0] * (1 << 17))

    def test_cost_checks_universe(self, tight_quarter):
        game = MstGame(tight_quarter)
        with pytest.raises(ValueError):
            game.cost(Coalition.from_members([1], 4))


class TestEvaluate:
    def test_detour_pair(self, tight_quarter):
        game = MstGame(tight_quarter)
        assert game.cost(Coalition.from_members([1, 3], 3)) == Fraction(5, 4)

    def test_empty_is_free(self, tight_quarter, gap5):
        assert MstGame(tight_quarter).cost(Coalition(0, 3)) == 0
        assert MstGame(gap5).cost(Coalition(0, 3)) == 0

    def test_far_pair(self, gap5):
        game = MstGame(gap5)
        assert game.cost(Coalition.from_members([2, 3], 3)) == 10

    def test_repeated_queries_identical(self, gap5):
        game = MstGame(gap5)
        s = Coalition.from_members([1, 3], 3)
        assert game.cost(s) == game.cost(s)


class TestSubadditive:
    def test_gap_instance(self, gap5):
        assert first_failing_pair(MstGame(gap5), subadditive) is None

    def test_additive(self):
        assert first_failing_pair(additive_game(3), subadditive) is None

    def test_two_agent_violation(self):
        assert first_failing_pair(ExplicitGame(2, [0, 1, 1, 3]), subadditive) == (1, 2)

    def test_mst_games_always_subadditive(self):
        rng = Random(42)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 6), "uniform")
            assert first_failing_pair(MstGame(g), subadditive) is None


class TestSubmodular:
    def test_additive(self):
        assert first_failing_pair(additive_game(3), submodular) is None

    def test_unit_pair_game(self):
        # all 16 pairs satisfy the inequality; verified by the scan itself
        assert first_failing_pair(ExplicitGame(2, [0, 1, 1, 1]), submodular) is None

    def test_steiner_instance_is_submodular(self, steiner):
        # Full enumeration over all coalition pairs confirms no violation:
        # the expensive pair {2,3} never beats the union-plus-intersection side.
        assert first_failing_pair(MstGame(steiner), submodular) is None

    def test_shared_connector_violates(self):
        # agent 1 is far from the supplier but close to agents 2 and 3;
        # {1,2} and {1,3} both save the big edge, their union cannot twice
        g = GraphInstance(
            3,
            [
                [0, 10, 1, 1],
                [10, 0, 1, 1],
                [1, 1, 0, 10],
                [1, 1, 10, 0],
            ],
        )
        game = MstGame(g)
        s, t = first_failing_pair(game, submodular)
        assert game.cost_bits(s) + game.cost_bits(t) < game.cost_bits(s | t) + game.cost_bits(s & t)

    def test_submodular_implies_subadditive(self):
        cases = [
            additive_game(4),
            concave_size_game(4, lambda k: 2 * k - k * (k - 1) // 5),
            concave_size_game(5, lambda k: min(k, 3)),
            ExplicitGame(2, [0, 1, 1, 1]),
        ]
        rng = Random(17)
        cases += [random_explicit_game(rng, 3) for _ in range(60)]
        checked = 0
        for game in cases:
            if first_failing_pair(game, submodular) is None:
                assert first_failing_pair(game, subadditive) is None
                checked += 1
        assert checked >= 4


class TestMonotone:
    def test_monotonized_steiner(self, steiner):
        assert first_failing_pair(MstGame(steiner, monotonized=True), monotone) is None

    def test_gap_instance_not_monotone(self, gap5):
        # lexicographically first violation: {2} against {1,2} (10 > 0)
        assert first_failing_pair(MstGame(gap5), monotone) == (0b010, 0b011)
        # the far pair also exceeds the free grand coalition
        game = MstGame(gap5)
        assert game.cost_bits(0b110) > game.grand_cost()

    def test_additive(self):
        assert first_failing_pair(additive_game(3), monotone) is None

    def test_monotone_implies_last_monotone(self):
        rng = Random(23)
        for _ in range(40):
            game = random_explicit_game(rng, rng.randint(2, 4))
            if first_failing_pair(game, monotone) is None:
                assert satisfies_last_monotone(game).ok


class TestLastMonotone:
    def test_monotonized_steiner(self, steiner):
        assert satisfies_last_monotone(MstGame(steiner, monotonized=True)).ok

    def test_gap_instance(self, gap5):
        ok, witness = satisfies_last_monotone(MstGame(gap5))
        assert not ok
        assert witness == 1  # c({2,3}) = 10 > 0 = c(N)

    def test_additive(self):
        assert satisfies_last_monotone(additive_game(4)).ok


class TestProfitTransform:
    def test_detour_instance_pair_savings(self, tight_quarter):
        assert ProfitGame(MstGame(tight_quarter)).cost_bits(0b011) == 2

    def test_singletons_save_nothing(self, unbalanced3):
        profit = ProfitGame(unbalanced3)
        for agent in (1, 2, 3):
            assert profit.cost_bits(1 << (agent - 1)) == 0

    def test_grand_savings(self, unbalanced3):
        assert ProfitGame(unbalanced3).cost_bits(0b111) == 1  # 3 - 2

    def test_negative_values_allowed(self):
        game = ExplicitGame(2, [0, 1, 1, 3])  # not subadditive
        assert ProfitGame(game).cost_bits(3) == -1

    def test_profit_minimizer_maps_to_an_almost_core_maximizer(self, gap5, unbalanced3):
        # x_i -> c({i}) - x_i carries the stable-profit minimizer onto a
        # maximizer of the almost-core program
        for game in (MstGame(gap5), unbalanced3, ExplicitGame(2, [0, 3, 4, 5])):
            singles = [game.cost_bits(1 << i) for i in range(game.n)]
            _, xv = min_stable_profit(ProfitGame(game))
            x = [c - v for c, v in zip(singles, xv)]
            sums = subset_sums(x)
            assert all(sums[bits] <= game.cost_bits(bits) for bits in range(1, (1 << game.n) - 1))
            assert sum(x) == almost_core_optimum(game)[0]


class TestTables:
    def test_explicit_from_graph_agrees_everywhere(self):
        rng = Random(3)
        for _ in range(12):
            g = random_graph(rng, rng.randint(2, 5), rng.choice(["uniform", "rational"]))
            game = ExplicitGame(g.n, g.cost_table())
            for bits in range(1 << g.n):
                assert game.cost_bits(bits) == g.coalition_cost(bits)

    def test_monotonized_table_agrees(self, steiner):
        game = ExplicitGame(steiner.n, steiner.monotonized_table())
        assert game.table() == steiner.monotonized_table()

    def test_explicit_scaled_table_is_kept(self):
        game = ExplicitGame(2, [0, Fraction(1, 2), Fraction(2, 3), Fraction(5, 4)])
        nums, d = game.scaled_table()
        assert game.scaled_table() is game.scaled_table()
        assert (list(nums), d) == over_common_denominator(game.table())

    def test_full_report_scales_an_explicit_table_once(self, monkeypatch):
        # a fresh game: the generator's core test has already scaled its own
        game = ExplicitGame(6, random_empty_core_game(Random(2), 6).table())
        full_tables = []

        def counting(values, base=1):
            if len(values) == 1 << game.n:
                full_tables.append(base)
            return over_common_denominator(values, base)

        for module in (allocore.games, allocore.lp, allocore.relaxations, allocore.mstgame):
            monkeypatch.setattr(module, "over_common_denominator", counting)
        full_report(game)
        assert full_tables == [1]


@given(st.lists(st.fractions(), min_size=0, max_size=6))
def test_subset_sums_matches_direct(shares):
    shares = [Fraction(s) for s in shares]
    sums = subset_sums(shares)
    for bits in range(1 << len(shares)):
        assert sums[bits] == coalition_sum(shares, bits)


@pytest.mark.parametrize("value", [1.5, True, object()], ids=["float", "bool", "object"])
def test_non_rationals_rejected(value):
    for coerce in (as_rational, lambda v: ExplicitGame(1, [0, v])):
        with pytest.raises(TypeError, match="expected an exact rational"):
            coerce(value)


def test_over_common_denominator_cases():
    assert over_common_denominator([]) == ([], 1)
    assert over_common_denominator([], 6) == ([], 6)
    assert over_common_denominator([Fraction(1, 2), Fraction(-2, 3), Fraction(5)]) == ([3, -4, 30], 6)
    # base > 1, as for the core oracle's query point over lcm(D, its denominators)
    assert over_common_denominator([Fraction(1, 4), Fraction(1, 3)], 6) == ([3, 4], 12)
    assert over_common_denominator([Fraction(1, 2), Fraction(3)], 4) == ([2, 12], 4)


@given(st.lists(st.fractions(), max_size=6), st.integers(1, 30))
def test_over_common_denominator_is_exact(values, base):
    scaled, d = over_common_denominator(values, base)
    assert d == lcm(base, *(v.denominator for v in values))
    assert [Fraction(v, d) for v in scaled] == values


def test_share_vectors_are_tuples_of_fractions(unbalanced3, tight_quarter):
    # The CLI prints a Fraction as "p/q" but an int as a JSON number, so a
    # share that is not a Fraction would change the output.
    def check(x):
        assert type(x) is tuple and all(type(v) is Fraction for v in x), x

    cores = 0
    for game in (unbalanced3, additive_game(3), MstGame(tight_quarter)):
        has_core, core = core_nonempty(game)
        cores += has_core
        report = full_report(game)
        vectors = [
            almost_core_optimum(game)[1],
            almost_core_optimum(game, require_nonneg=True)[1],
            least_core_eps(game)[1],
            weak_core_eps(game)[1],
            gamma_approx(game)[1],
            *extended_core_delta(game)[1],
            *([core] if has_core else []),
            *(getattr(report, name) for name in report._fields
              if name.endswith(("_allocation", "_x", "_t"))
              and getattr(report, name) is not None),
        ]
        for x in vectors:
            check(x)
    assert cores == 2  # the additive and the spanning-tree game
    approx, trace = almost_core_approx(tight_quarter)
    for x in (granot_huberman(tight_quarter), approx, trace.pre_update_shares, trace.final_shares):
        check(x)


@pytest.mark.parametrize("bits", [-1, 8])
def test_explicit_lookup_rejects_a_mask_outside_the_table(bits):
    game = ExplicitGame(3, [0, 1, 1, 1, 1, 1, 1, 2])
    with pytest.raises(ValueError, match=f"bitmask {bits} out of range for n=3"):
        game.cost_bits(bits)
