from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, strategies as st

from allocore.coalition import Coalition
from allocore.errors import EnumerationLimitError
from allocore.games import (
    Allocation,
    ExplicitGame,
    is_monotone,
    is_subadditive,
    is_submodular,
    over_common_denominator,
    profit_transform_allocation,
    satisfies_last_monotone,
    subset_sums,
    to_profit_game,
)
from allocore.generators import random_explicit_game, random_graph
from allocore.mstgame import GraphInstance, MstGame, explicit_from_graph

from _oracles import coalition_sum


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
        game = ExplicitGame(2, [0, -1, 0, 0], require_nonnegative=False)
        assert game.cost_bits(1) == -1

    def test_table_length_checked(self):
        with pytest.raises(ValueError):
            ExplicitGame(2, [0, 1, 2])

    def test_enumeration_limit(self):
        with pytest.raises(EnumerationLimitError):
            ExplicitGame(17, [0] * (1 << 17))

    def test_cost_checks_universe(self, tight_quarter):
        game = MstGame(tight_quarter)
        with pytest.raises(ValueError):
            game.cost(Coalition.singleton(1, 4))


class TestEvaluate:
    def test_detour_pair(self, tight_quarter):
        game = MstGame(tight_quarter)
        assert game.cost(Coalition.from_members([1, 3], 3)) == Fraction(5, 4)

    def test_empty_is_free(self, tight_quarter, gap5):
        assert MstGame(tight_quarter).cost(Coalition.empty(3)) == 0
        assert MstGame(gap5).cost(Coalition.empty(3)) == 0

    def test_far_pair(self, gap5):
        game = MstGame(gap5)
        assert game.cost(Coalition.from_members([2, 3], 3)) == 10

    def test_repeated_queries_identical(self, gap5):
        game = MstGame(gap5)
        s = Coalition.from_members([1, 3], 3)
        assert game.cost(s) == game.cost(s)


class TestSubadditive:
    def test_gap_instance(self, gap5):
        assert is_subadditive(MstGame(gap5)).ok

    def test_additive(self):
        assert is_subadditive(additive_game(3)).ok

    def test_two_agent_violation(self):
        game = ExplicitGame(2, [0, 1, 1, 3])
        ok, witness = is_subadditive(game)
        assert not ok
        assert witness == (Coalition(1, 2), Coalition(2, 2))

    def test_mst_games_always_subadditive(self):
        rng = Random(42)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 6), "uniform")
            assert is_subadditive(MstGame(g)).ok


class TestSubmodular:
    def test_additive(self):
        assert is_submodular(additive_game(3)).ok

    def test_unit_pair_game(self):
        # all 16 pairs satisfy the inequality; verified by the scan itself
        assert is_submodular(ExplicitGame(2, [0, 1, 1, 1])).ok

    def test_steiner_instance_is_submodular(self, steiner):
        # Full enumeration over all coalition pairs confirms no violation:
        # the expensive pair {2,3} never beats the union-plus-intersection side.
        assert is_submodular(MstGame(steiner)).ok

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
        ok, witness = is_submodular(MstGame(g))
        assert not ok
        s, t = witness
        game = MstGame(g)
        union, common = s.bits | t.bits, s.bits & t.bits
        assert game.cost(s) + game.cost(t) < game.cost_bits(union) + game.cost_bits(common)

    def test_witness_is_lexicographically_first(self):
        rng = Random(5)
        for _ in range(40):
            game = random_explicit_game(rng, 3)
            ok, witness = is_submodular(game)
            expected = None
            for s in range(8):
                if expected:
                    break
                for t in range(8):
                    if game.cost_bits(s) + game.cost_bits(t) < game.cost_bits(
                        s | t
                    ) + game.cost_bits(s & t):
                        expected = (s, t)
                        break
            if expected is None:
                assert ok
            else:
                assert not ok
                assert (witness[0].bits, witness[1].bits) == expected

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
            if is_submodular(game).ok:
                assert is_subadditive(game).ok
                checked += 1
        assert checked >= 4


class TestMonotone:
    def test_monotonized_steiner(self, steiner):
        assert is_monotone(MstGame(steiner, monotonized=True)).ok

    def test_gap_instance_not_monotone(self, gap5):
        ok, witness = is_monotone(MstGame(gap5))
        assert not ok
        # lexicographically first violation: {2} against {1,2} (10 > 0)
        assert witness == (Coalition(0b010, 3), Coalition(0b011, 3))
        # the far pair also exceeds the free grand coalition
        game = MstGame(gap5)
        assert game.cost_bits(0b110) > game.grand_cost()

    def test_additive(self):
        assert is_monotone(additive_game(3)).ok

    def test_monotone_implies_last_monotone(self):
        rng = Random(23)
        for _ in range(40):
            game = random_explicit_game(rng, rng.randint(2, 4))
            if is_monotone(game).ok:
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
        profit = to_profit_game(MstGame(tight_quarter))
        assert profit.cost(Coalition.from_members([1, 2], 3)) == 2

    def test_singletons_save_nothing(self, unbalanced3):
        profit = to_profit_game(unbalanced3)
        for agent in (1, 2, 3):
            assert profit.cost(Coalition.singleton(agent, 3)) == 0

    def test_grand_savings(self, unbalanced3):
        profit = to_profit_game(unbalanced3)
        assert profit.cost(Coalition.grand(3)) == 1  # 3 - 2

    def test_negative_values_allowed(self):
        game = ExplicitGame(2, [0, 1, 1, 3])  # not subadditive
        profit = to_profit_game(game)
        assert profit.cost_bits(3) == -1

    def test_allocation_transform_and_involution(self, tight_quarter):
        game = MstGame(tight_quarter)
        x = Allocation.of([1, 0, 0])
        xv = profit_transform_allocation(game, x)
        assert xv.as_strings() == ["0", "2", "2"]
        assert profit_transform_allocation(game, xv) == x

    def test_transform_of_singleton_costs_is_zero(self, gap5):
        game = MstGame(gap5)
        x = Allocation(game.singleton_costs())
        assert profit_transform_allocation(game, x).total() == 0


class TestTables:
    def test_explicit_from_graph_agrees_everywhere(self):
        rng = Random(3)
        for _ in range(12):
            g = random_graph(rng, rng.randint(2, 5), rng.choice(["uniform", "rational"]))
            game = explicit_from_graph(g)
            for bits in range(1 << g.n):
                assert game.cost_bits(bits) == g.coalition_cost(bits)

    def test_monotonized_table_agrees(self, steiner):
        game = explicit_from_graph(steiner, monotonize=True)
        assert game.table() == steiner.monotonized_table()


@given(st.lists(st.fractions(), min_size=0, max_size=6))
def test_subset_sums_matches_direct(shares):
    shares = [Fraction(s) for s in shares]
    sums = subset_sums(shares)
    for bits in range(1 << len(shares)):
        assert sums[bits] == coalition_sum(shares, bits)


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


def test_allocation_interface():
    a = Allocation.of(["1/2", 1, "3"])
    assert a.total() == Fraction(9, 2)
    assert a.on(Coalition.from_members([1, 3], 3)) == Fraction(7, 2)
    assert list(a) == [Fraction(1, 2), Fraction(1), Fraction(3)]
    assert a.as_strings() == ["1/2", "1", "3"]
    with pytest.raises(ValueError):
        a.on(Coalition.singleton(1, 2))
