from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import allocore.relaxations
from allocore import instances
from allocore.coalition import Coalition
from allocore.errors import PreconditionError, UndefinedRatioError
from allocore.games import ExplicitGame, Game, satisfies_last_monotone, subset_sums
from allocore.generators import (
    WEIGHT_MODELS,
    random_empty_core_game,
    random_explicit_game,
    random_graph,
    random_last_monotone_game,
)
from allocore.lp import LpStatus, solve, verify_point
from allocore.mstgame import GraphInstance, MstGame, granot_huberman
from allocore.relaxations import (
    SeparationResult,
    almost_core_optimum,
    brute_force_core_oracle,
    brute_force_nonneg_core_oracle,
    core_nonempty,
    core_optimum,
    cost_of_stability,
    extended_core_delta,
    full_report,
    gamma_approx,
    least_core_eps,
    separate_almost_core,
    separate_almost_core_nonneg,
    weak_core_eps,
)

from _oracles import (
    ProfitGame,
    almost_core_member,
    almost_core_nonneg_member,
    almost_core_problem,
    coalition_sum,
    coalition_sums,
    dense_coalition_program,
    first_failing_pair,
    min_stable_profit,
    reference_coalition_program,
    reference_lift,
    reference_row_generation,
    subsidy_problem,
    submodular,
    weak_core_problem,
)


class TestAlmostCoreOptimum:
    def test_gap_instance_nonneg(self, gap5):
        value, x = almost_core_optimum(MstGame(gap5), require_nonneg=True)
        assert value == 5
        assert verify_point(almost_core_problem(MstGame(gap5)), [0, 0, 5]).feasible

    def test_subsidy_instance_unrestricted(self, subsidy5):
        value, x = almost_core_optimum(MstGame(subsidy5), require_nonneg=False)
        assert value == 5
        assert tuple(x) == (-5, 5, 5)

    def test_steiner_instance(self, steiner):
        value, x = almost_core_optimum(MstGame(steiner), require_nonneg=False)
        assert value == 2
        assert tuple(x) == (0, 1, 1)

    def test_single_agent_rejected(self):
        with pytest.raises(PreconditionError):
            almost_core_optimum(ExplicitGame(1, [0, 7]))


class TestCoreOptimum:
    def test_detour_instance_total(self, tight_quarter):
        sol = core_optimum(MstGame(tight_quarter), [1, 1, 1])
        assert sol.value == 1  # equals c(N): the core is nonempty

    def test_unbalanced_total(self, unbalanced3):
        sol = core_optimum(unbalanced3, [1, 1, 1])
        assert sol.value == Fraction(3, 2)

    def test_zero_objective(self, unbalanced3):
        assert core_optimum(unbalanced3, [0, 0, 0]).value == 0

    def test_unbounded_objective_reported(self, unbalanced3):
        assert core_optimum(unbalanced3, [-1, 0, 0]).status is LpStatus.UNBOUNDED

    def test_objective_length_checked(self, unbalanced3):
        for objective in ([-1, 0], [1, 1, 1, 1]):
            with pytest.raises(ValueError):
                core_optimum(unbalanced3, objective)


class TestCoreNonempty:
    def test_balanced_with_witness(self, tight_quarter):
        game = MstGame(tight_quarter)
        ok, x = core_nonempty(game)
        assert ok
        assert sum(x) == game.grand_cost()
        sums = subset_sums(list(x))
        for bits in range(1, 1 << 3):
            assert sums[bits] <= game.cost_bits(bits)

    def test_unbalanced(self, unbalanced3):
        ok, x = core_nonempty(unbalanced3)
        assert not ok and x is None

    def test_single_agent(self):
        ok, x = core_nonempty(ExplicitGame(1, [0, 7]))
        assert ok and tuple(x) == (7,)

    def test_matches_almost_core_criterion(self):
        rng = Random(21)
        for _ in range(25):
            game = random_explicit_game(rng, rng.randint(2, 5))
            ok, _ = core_nonempty(game)
            value, _ = almost_core_optimum(game)
            assert ok == (value >= game.grand_cost())


class TestEpsilonRelaxations:
    def test_least_core_unbalanced(self, unbalanced3):
        eps, x = least_core_eps(unbalanced3)
        assert eps == Fraction(1, 3)
        assert tuple(x) == (Fraction(2, 3),) * 3

    def test_least_core_balanced_is_zero(self, tight_quarter, subsidy5):
        assert least_core_eps(MstGame(tight_quarter))[0] == 0
        assert least_core_eps(MstGame(subsidy5))[0] == 0

    def test_weak_unbalanced(self, unbalanced3):
        eps, x = weak_core_eps(unbalanced3)
        assert eps == Fraction(1, 6)

    def test_weak_below_strong(self, unbalanced3):
        assert weak_core_eps(unbalanced3)[0] <= least_core_eps(unbalanced3)[0]

    def test_witnesses_satisfy_their_relaxations(self):
        rng = Random(22)
        for _ in range(15):
            game = random_explicit_game(rng, rng.randint(2, 5))
            c_grand = game.grand_cost()
            eps_s, xs = least_core_eps(game)
            assert sum(xs) == c_grand
            eps_w, xw = weak_core_eps(game)
            assert sum(xw) == c_grand
            sums_s = subset_sums(list(xs))
            sums_w = subset_sums(list(xw))
            for bits in range(1, (1 << game.n) - 1):
                assert sums_s[bits] <= game.cost_bits(bits) + eps_s
                assert sums_w[bits] <= game.cost_bits(bits) + eps_w * bits.bit_count()


class TestMultiplicative:
    def test_unbalanced(self, unbalanced3):
        report = full_report(unbalanced3)
        eps, x = report.eps_mult, report.eps_mult_allocation
        assert eps == Fraction(1, 3)
        assert sum(x) == unbalanced3.grand_cost()
        sums = subset_sums(list(x))
        for bits in range(1, 7):
            assert sums[bits] <= (1 + eps) * unbalanced3.cost_bits(bits)

    def test_balanced_is_zero(self, tight_quarter):
        assert full_report(MstGame(tight_quarter)).eps_mult == 0

    def test_no_finite_scaling(self):
        game = ExplicitGame(2, [0, 0, 0, 5])
        report = full_report(game)
        assert (report.eps_mult, report.eps_mult_allocation) == (None, None)


class TestGamma:
    def test_unbalanced(self, unbalanced3):
        gamma, _ = gamma_approx(unbalanced3)
        assert gamma == Fraction(3, 4)

    def test_balanced_reaches_one(self, tight_quarter):
        gamma, _ = gamma_approx(MstGame(tight_quarter))
        assert gamma == 1

    def test_zero_grand_cost_is_an_error(self, gap5):
        with pytest.raises(UndefinedRatioError):
            gamma_approx(MstGame(gap5))


class TestCostOfStability:
    def test_unbalanced(self, unbalanced3):
        assert cost_of_stability(unbalanced3) == Fraction(1, 2)

    def test_balanced(self, tight_quarter):
        assert cost_of_stability(MstGame(tight_quarter)) == 0

    def test_equals_n_times_weak_eps(self, unbalanced3):
        assert cost_of_stability(unbalanced3) == 3 * weak_core_eps(unbalanced3)[0]


class TestExtendedCore:
    def test_unbalanced_with_witness_audit(self, unbalanced3):
        delta, (x, t) = extended_core_delta(unbalanced3)
        assert delta == Fraction(1, 2)
        assert all(v >= 0 for v in t)
        assert sum(x) == unbalanced3.grand_cost()
        # audit the witness against the raw program
        assert verify_point(subsidy_problem(unbalanced3), list(x) + list(t)).feasible

    def test_balanced_needs_no_subsidy(self, tight_quarter):
        delta, (x, t) = extended_core_delta(MstGame(tight_quarter))
        assert delta == 0
        assert sum(t) == 0


class TestFullReport:
    def test_unbalanced_exact_values(self, unbalanced3):
        r = full_report(unbalanced3)
        assert not r.core_nonempty
        assert r.ac_opt == Fraction(3, 2)
        assert r.eps_strong == Fraction(1, 3)
        assert r.eps_weak == Fraction(1, 6)
        assert r.eps_mult == Fraction(1, 3)
        assert r.gamma_approx == Fraction(3, 4)
        assert r.cost_of_stability == Fraction(1, 2)
        assert r.extended_core_delta == Fraction(1, 2)

    def test_balanced_gaps_vanish(self, tight_quarter):
        r = full_report(MstGame(tight_quarter))
        assert r.core_nonempty
        assert r.ac_opt == Fraction(17, 8)
        assert (r.eps_strong, r.eps_weak, r.eps_mult) == (0, 0, 0)
        assert r.gamma_approx == 1
        assert r.cost_of_stability == 0 == r.extended_core_delta

    def test_zero_grand_cost_game(self, gap5):
        r = full_report(MstGame(gap5))
        assert r.core_nonempty
        assert r.gamma_approx is None
        assert r.ac_opt_nonneg == 5

    def test_one_core_solve(self, monkeypatch, unbalanced3):
        calls = []

        def counting(game, objective):
            calls.append(objective)
            return core_optimum(game, objective)

        monkeypatch.setattr(allocore.relaxations, "core_optimum", counting)
        full_report(unbalanced3)
        assert len(calls) == 1

    @staticmethod
    def _assert_matches_standalone(game):
        r = full_report(game)
        assert (r.core_nonempty, r.core_allocation) == core_nonempty(game)
        if game.grand_cost() == 0:
            assert (r.gamma_approx, r.gamma_allocation) == (None, None)
        else:
            assert (r.gamma_approx, r.gamma_allocation) == gamma_approx(game)
        assert r.cost_of_stability == cost_of_stability(game)
        return r

    def test_shared_quantities_match_standalone_functions(self, gap5):
        rng = Random(37)
        for _ in range(12):
            n = rng.randint(2, 5)
            game = random_explicit_game(rng, n) if rng.random() < 0.5 else random_empty_core_game(rng, n)
            self._assert_matches_standalone(game)
        r = self._assert_matches_standalone(MstGame(gap5))  # c(N) = 0
        assert r.gamma_approx is None and r.cost_of_stability == 0
        # m = 0 < c(N): no finite multiplicative scaling, gamma 0
        r = self._assert_matches_standalone(ExplicitGame(2, [0, 0, 0, 1]))
        assert r.eps_mult is None and r.eps_mult_allocation is None
        assert r.gamma_approx == 0 and r.cost_of_stability == 1

    def test_random_balanced_games(self):
        rng = Random(31)
        found = 0
        for _ in range(40):
            game = random_explicit_game(rng, rng.randint(2, 4))
            r = full_report(game)
            if r.core_nonempty:
                found += 1
                assert r.cost_of_stability == 0
                assert r.gamma_approx in (None, 1)
        assert found


class TestConditionThree:
    def test_value_bound_on_last_monotone_games(self):
        rng = Random(32)
        for _ in range(20):
            n = rng.randint(2, 5)
            game = random_last_monotone_game(rng, n)
            value, _ = almost_core_optimum(game)
            assert value <= (1 + Fraction(1, n - 1)) * game.grand_cost()

    def test_bound_tight_on_monotonized_steiner(self, steiner):
        game = MstGame(steiner, monotonized=True)
        value, x = almost_core_optimum(game)
        assert value == Fraction(3, 2) == (1 + Fraction(1, 2)) * game.grand_cost()
        assert tuple(x) == (Fraction(1, 2),) * 3

    def test_nonnegative_maximizer_when_balanced(self):
        # monotonized spanning-tree games are balanced and last-monotone;
        # there the maximizer cannot dip below zero
        rng = Random(33)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 5), "uniform")
            game = MstGame(g, monotonized=True)
            assert satisfies_last_monotone(game).ok
            _, x = almost_core_optimum(game)
            assert all(v >= 0 for v in x)

    def test_negative_maximizer_possible_when_core_empty(self):
        # last-monotone alone does not force nonnegative maximizers: with an
        # empty core, agent 1's subsidy can relax two binding pair
        # constraints at once. Here the unique optimum is (-5, 5, 5).
        b = 5
        game = ExplicitGame(
            3, [0, b, b, 0, b, 0, 2 * b, 2 * b]
        )  # c({1,2}) = c({1,3}) = 0, c({2,3}) = c(N) = 2b
        assert satisfies_last_monotone(game).ok
        ok, _ = core_nonempty(game)
        assert not ok
        value, x = almost_core_optimum(game)
        assert value == b
        assert tuple(x) == (-b, b, b)

    def test_submodular_last_monotone_games_have_clean_optima(self, steiner):
        # balanced + submodular + last-monotone: optimum exists, maximizer >= 0
        game = MstGame(steiner, monotonized=True)
        assert first_failing_pair(game, submodular) is None
        value, x = almost_core_optimum(game)
        assert value == Fraction(3, 2)
        assert all(v >= 0 for v in x)


class TestProfitSide:
    def test_duality_on_random_games(self):
        rng = Random(34)
        for trial in range(20):
            game = random_explicit_game(rng, 7 + trial % 2 if trial < 4 else rng.randint(2, 5))
            ac_value, _ = almost_core_optimum(game)
            profit = ProfitGame(game)
            stable_min, xv = min_stable_profit(profit)
            singles = sum(game.cost_bits(1 << i) for i in range(game.n))
            assert ac_value + stable_min == singles
            sums = subset_sums(list(xv))
            for bits in range(1, (1 << game.n) - 1):
                assert sums[bits] >= profit.cost_bits(bits)


class TestSeparation:
    def test_member_point(self, tight_quarter):
        game = MstGame(tight_quarter)
        oracle = brute_force_core_oracle(game)
        res = separate_almost_core([0, 1, 1], oracle, game.grand_cost())
        assert res.member

    def test_violated_point(self, tight_quarter):
        game = MstGame(tight_quarter)
        oracle = brute_force_core_oracle(game)
        res = separate_almost_core([1, 1, 0], oracle, game.grand_cost())
        assert not res.member
        assert res.coalition == Coalition.from_members([1, 2], 3)
        assert res.amount == 1

    def test_member_despite_total_above_grand_cost(self, gap5):
        game = MstGame(gap5)
        oracle = brute_force_core_oracle(game)
        res = separate_almost_core([0, 0, 5], oracle, game.grand_cost())
        assert res.member  # x(N) = 5 > 0 = c(N) is irrelevant here

    def test_single_agent_always_member(self):
        game = ExplicitGame(1, [0, 7])
        oracle = brute_force_core_oracle(game)
        assert separate_almost_core([100], oracle, game.grand_cost()).member

    def test_nonneg_member(self, steiner):
        game = MstGame(steiner, monotonized=True)
        oracle = brute_force_nonneg_core_oracle(game)
        res = separate_almost_core_nonneg([Fraction(1, 2)] * 3, oracle, game)
        assert res.member

    def test_nonneg_violated(self, steiner):
        game = MstGame(steiner, monotonized=True)
        oracle = brute_force_nonneg_core_oracle(game)
        res = separate_almost_core_nonneg([1, 1, 0], oracle, game)
        assert not res.member
        assert res.coalition == Coalition.from_members([1, 2], 3)

    def test_nonneg_bound_violation_short_circuits(self, steiner):
        game = MstGame(steiner, monotonized=True)

        def exploding_oracle(point):
            raise RuntimeError("the oracle must not be consulted")

        res = separate_almost_core_nonneg([1, -1, 0], exploding_oracle, game)
        assert res.verdict == "bound_violated"
        assert res.negative_agent == 2
        assert res.amount == 1

    def test_nonneg_rest_above_grand_cost_short_circuits(self, steiner):
        # x({2,3}) = 4 > c(N) = 1: {2,3} is reported at k = 1, before any query
        game = MstGame(steiner, monotonized=True)

        def exploding_oracle(point):
            raise RuntimeError("the oracle must not be consulted")

        res = separate_almost_core_nonneg([0, 2, 2], exploding_oracle, game)
        assert res.verdict == "violated"
        assert res.coalition == Coalition.from_members([2, 3], 3)
        assert res.amount == 3

    def test_oracles_reject_points_of_the_wrong_length(self):
        game = ExplicitGame(3, [0, 1, 1, 1, 1, 1, 1, 2])
        for factory in (brute_force_core_oracle, brute_force_nonneg_core_oracle):
            oracle = factory(game)
            for point in ([0, 0, 0, 100], [1, 1], [-1, 0]):
                with pytest.raises(ValueError):
                    oracle(point)
        for point in ([0, 0, 0, 100], []):  # [] is within budget: its one query is [] itself
            with pytest.raises(ValueError):
                separate_almost_core(point, brute_force_core_oracle(game), game.grand_cost())
        with pytest.raises(ValueError, match="point has 4 entries, the game has 3 agents"):
            separate_almost_core_nonneg([0, 0, 0, 100], brute_force_nonneg_core_oracle(game), game)

    def test_nonneg_requires_last_monotone(self, gap5):
        game = MstGame(gap5)
        oracle = brute_force_nonneg_core_oracle(game)
        with pytest.raises(PreconditionError):
            separate_almost_core_nonneg([0, 0, 0], oracle, game)

    def test_agreement_with_brute_force(self):
        rng = Random(35)
        for _ in range(120):
            n = rng.randint(2, 6)
            game = random_explicit_game(rng, n)
            oracle = brute_force_core_oracle(game)
            random_point = [Fraction(rng.randint(-4, 12), rng.randint(1, 3)) for _ in range(n)]
            for point in (random_point, _budget_balanced(rng, game)):
                res = separate_almost_core(point, oracle, game.grand_cost())
                assert res.member == almost_core_member(game, point)
                assert _as_tuple(res) == reference_lift(game.table(), point)
                if not res.member:
                    violated = sum(point[i - 1] for i in res.coalition.members())
                    assert 0 < res.coalition.bits < (1 << n) - 1
                    assert violated - game.cost(res.coalition) == res.amount > 0

    def test_nonneg_agreement_with_brute_force(self):
        rng = Random(36)
        for _ in range(120):
            n = rng.randint(2, 6)
            game = random_last_monotone_game(rng, n)
            oracle = brute_force_nonneg_core_oracle(game)
            random_point = [Fraction(rng.randint(-2, 10), rng.randint(1, 3)) for _ in range(n)]
            for point in (random_point, _budget_balanced(rng, game)):
                res = separate_almost_core_nonneg(point, oracle, game)
                assert res.member == almost_core_nonneg_member(game, point)
                assert _as_tuple(res) == reference_lift(game.table(), point, nonneg=True)
                if res.member:
                    continue
                if res.negative_agent is not None:
                    assert res.coalition is None
                    assert point[res.negative_agent - 1] == -res.amount < 0
                else:
                    violated = sum(point[i - 1] for i in res.coalition.members())
                    assert 0 < res.coalition.bits < (1 << n) - 1
                    assert violated - game.cost(res.coalition) == res.amount > 0


def _budget_balanced(rng, game):
    """A point with x(N) = c(N): c(N) split in random nonnegative proportions."""
    weights = [rng.randint(0, 4) for _ in range(game.n)]
    if not any(weights):
        weights[-1] = 1
    total = sum(weights)
    return [game.grand_cost() * w / total for w in weights]


def _as_tuple(res):
    """A ``SeparationResult`` in the form of ``reference_lift``'s results."""
    if res.member:
        return ("member",)
    if res.negative_agent is not None:
        return ("bound", res.negative_agent, res.amount)
    return ("coalition", res.coalition.bits, res.amount)


def _counting(oracle):
    """``oracle`` wrapped to record every query point, and that record."""
    queries = []

    def counted(point):
        queries.append(tuple(point))
        return oracle(point)

    return counted, queries


class TestLiftQueries:
    def test_one_query_within_budget(self):
        rng = Random(37)
        for _ in range(20):
            graph = random_graph(rng, rng.randint(2, 6), rng.choice(WEIGHT_MODELS))
            x = granot_huberman(graph)
            game = MstGame(graph)
            oracle, queries = _counting(brute_force_core_oracle(game))
            assert separate_almost_core(x, oracle, game.grand_cost()).member
            assert queries == [x]
            game = MstGame(graph, monotonized=True)
            oracle, queries = _counting(brute_force_nonneg_core_oracle(game))
            assert separate_almost_core_nonneg(x, oracle, game).member
            assert queries == [x]

    def test_one_query_per_agent_over_budget(self, gap5):
        game = MstGame(gap5)
        x = (Fraction(0), Fraction(0), Fraction(5))
        over = sum(x) - game.grand_cost()
        assert over > 0
        oracle, queries = _counting(brute_force_core_oracle(game))
        assert separate_almost_core(x, oracle, game.grand_cost()).member
        assert queries == [x[:k] + (x[k] - over,) + x[k + 1 :] for k in range(3)]

    def test_no_agents_one_empty_query(self):
        game = ExplicitGame(0, [0])
        oracle, queries = _counting(brute_force_core_oracle(game))
        assert separate_almost_core([], oracle, game.grand_cost()).member
        oracle, queries_nonneg = _counting(brute_force_nonneg_core_oracle(game))
        assert separate_almost_core_nonneg([], oracle, game).member
        assert queries == queries_nonneg == [()]

    @pytest.mark.parametrize(
        "report",
        [
            SeparationResult(False, Coalition(0b111, 3), Fraction(1)),
            SeparationResult(False, negative_agent=1, amount=Fraction(1)),
        ],
        ids=["grand-coalition", "no-coalition"],
    )
    @pytest.mark.parametrize("point", [[0, 0, 0], [1, 1, 1]], ids=["within-budget", "over-budget"])
    def test_failed_oracle_is_a_precondition_error(self, report, point):
        game = ExplicitGame(3, [0, 1, 1, 1, 1, 1, 1, 2])
        with pytest.raises(PreconditionError, match="core oracle failed"):
            separate_almost_core(point, lambda _: report, game.grand_cost())


def _programs(game):
    """Each row-generated coalition program as (its dense problem over every
    proper coalition, a call that solves it by row generation and returns
    the optimum in the problem's max form and the full point)."""
    n = game.n

    def core():
        solution = core_optimum(game, [1] * n)
        return solution.value, solution.point

    def least_core():
        eps, x = least_core_eps(game)
        return -eps, (*x, eps)

    cases = {
        "core": (dense_coalition_program(game, [1] * n, grand=1), core),
        "least-core": (
            dense_coalition_program(
                game, [0] * n + [-1], [None] * n + [0], extra=lambda bits: {n: -1}, grand=-1
            ),
            least_core,
        ),
    }
    for nonneg in (False, True):
        cases[f"almost-core nonneg={nonneg}"] = (
            almost_core_problem(game, nonneg), lambda nonneg=nonneg: almost_core_optimum(game, nonneg)
        )
    return cases


def _derived_programs(game):
    """The weak epsilon and subsidy programs, whose optima are derived from
    the core solve, as (the dense problem, a call that returns the derived
    optimum in the problem's max form and the full point)."""

    def weak():
        eps, x = weak_core_eps(game)
        return -eps, (*x, eps)

    def subsidy():
        delta, (x, t) = extended_core_delta(game)
        return -delta, (*x, *t)

    return {"weak-core": (weak_core_problem(game), weak), "subsidy": (subsidy_problem(game), subsidy)}


def _row(con):
    """A stored row as plain data: its coefficients in order, rhs and den."""
    return list(con.coef.items()), con.rhs, con.den


def _assert_matches_dense(game):
    for name, (problem, run) in {**_programs(game), **_derived_programs(game)}.items():
        value, point = run()
        dense = solve(problem)
        assert dense.is_optimal, name
        assert value == dense.value, (name, value, dense.value)
        assert sum(c * v for c, v in zip(problem.objective, point)) == value, name
        assert verify_point(problem, point).feasible, name


class TestRowGeneration:
    """Every coalition program is solved over a working set of rows; the
    optimum must equal the dense program's over every proper coalition."""

    def test_explicit_games_match_dense(self):
        rng = Random(91)
        for n in range(2, 7):
            for empty in (False, True):
                game = random_empty_core_game(rng, n) if empty else random_explicit_game(rng, n)
                _assert_matches_dense(game)

    def test_mst_games_match_dense(self):
        rng = Random(92)
        for n in range(3, 11):
            for model in WEIGHT_MODELS:
                if n > 8 and model != WEIGHT_MODELS[n % 4]:
                    continue
                _assert_matches_dense(MstGame(random_graph(rng, n, model)))

    def test_nonneg_mst_almost_core_at_twelve(self):
        game = MstGame(random_graph(Random(93), 12, "rational"))
        value, x = almost_core_optimum(game, require_nonneg=True)
        problem = almost_core_problem(game, require_nonneg=True)
        assert value == solve(problem).value
        assert verify_point(problem, x).feasible

    def test_two_agents(self):
        game = ExplicitGame(2, [0, 3, 4, 5])
        _assert_matches_dense(game)
        assert almost_core_optimum(game) == (7, (3, 4))

    def test_profit_rows_are_lower_bounds(self):
        # v(S) >= 0 rows bind from below: the minimum charges each pair its value
        game = ExplicitGame(3, [0, 0, 0, 2, 0, 2, 2, 5])
        value, x = min_stable_profit(game)
        assert value == 3 and tuple(x) == (1, 1, 1)
        _assert_matches_dense(game)

    def test_stored_rows_are_the_dense_rows(self, monkeypatch):
        # every row the working set stores is the dense program's row for its
        # coalition, coefficient for coefficient, so both solve one program
        problems = []

        def capturing(problem):
            problems.append(problem)
            return solve(problem)

        monkeypatch.setattr(allocore.relaxations, "solve", capturing)
        rng = Random(94)
        games = [random_empty_core_game(rng, n) for n in range(2, 7)]
        games += [random_explicit_game(rng, n) for n in range(2, 6)]
        games += [MstGame(random_graph(rng, 7, model)) for model in WEIGHT_MODELS]
        generated = 0
        for game in games:
            n, full = game.n, (1 << game.n) - 1
            for name, (dense, run) in _programs(game).items():
                problems.clear()
                run()
                assert len(set(map(id, problems))) == 1, name
                stored = problems[0].constraints
                generated += len(stored) > n + 1
                for con in stored:
                    bits = sum(1 << i for i in con.coef if i < n)
                    want = dense.constraints[-1 if bits == full else bits - 1]
                    assert _row(con) == _row(want), (name, bits)
        assert generated > 0  # rows past the seed rows were compared too

    def test_rounds(self, monkeypatch):
        solves, solutions = [], []

        def counting(problem):
            solves.append(len(problem.constraints))
            solutions.append(solve(problem))
            return solutions[-1]

        monkeypatch.setattr(allocore.relaxations, "solve", counting)
        # additive costs: charging every singleton its cost violates no coalition,
        # so the seed rows are solved once and carry the duals
        additive = ExplicitGame(3, [0, 1, 2, 3, 4, 5, 6, 7])
        assert almost_core_optimum(additive) == (7, (1, 2, 4))
        assert solves == [3] and solutions[-1].duals == (1, 1, 1)
        solves.clear()
        # every pair costs 1: the singleton optimum (1, 1, 1) violates all
        # three pair rows, which join the seed rows for the second solve
        assert almost_core_optimum(ExplicitGame(3, [0, 1, 1, 1, 1, 1, 1, 2]))[0] == Fraction(3, 2)
        assert solves == [3, 6]

    def test_every_program_solves_once_per_scan(self, monkeypatch):
        # each round solves the working set and then scans its point, in
        # every program of every game
        counts = dict.fromkeys(("solve", "scan"), 0)

        def counted(name, inner):
            def wrapper(*args):
                counts[name] += 1
                return inner(*args)

            return wrapper

        monkeypatch.setattr(allocore.relaxations, "solve", counted("solve", solve))
        monkeypatch.setattr(allocore.relaxations, "subset_sums", counted("scan", subset_sums))
        rng = Random(98)
        games = [ExplicitGame(3, [0, 1, 2, 3, 4, 5, 6, 7])]
        for n in range(2, 7):
            games += [random_explicit_game(rng, n), random_empty_core_game(rng, n)]
        games += [MstGame(random_graph(rng, n, model)) for n in (3, 6, 8) for model in WEIGHT_MODELS]
        grown = single = 0
        for game in games:
            for nonneg in (False, True):
                counts.update(solve=0, scan=0)
                almost_core_optimum(game, nonneg)
                assert counts["solve"] == counts["scan"] >= 1, (game.table(), nonneg)
                grown += counts["scan"] > 1  # the first scan found a violation
                single += counts["scan"] == 1
            for run in (lambda: core_optimum(game, [1] * game.n), lambda: least_core_eps(game)):
                counts.update(solve=0, scan=0)
                run()
                assert counts["solve"] == counts["scan"] >= 1, game.table()
        assert grown and single

    def test_matches_a_loop_that_solves_every_round(self, monkeypatch):
        # both loops start from the game's seed rows and solve every round,
        # so they add the same rows and return the same solution
        problems = []

        def capturing(problem):
            problems.append(problem)
            return solve(problem)

        monkeypatch.setattr(allocore.relaxations, "solve", capturing)
        rng = Random(99)
        games = [
            random_empty_core_game(rng, n) if empty else random_explicit_game(rng, n)
            for n in range(2, 8) for empty in (False, True) for _ in range(20)
        ]
        games += [
            MstGame(random_graph(rng, n, model))
            for n in range(3, 11) for model in WEIGHT_MODELS for _ in range(5)
        ]
        assert len(games) >= 400
        for game in games:
            for nonneg in (False, True):
                problems.clear()
                got = allocore.relaxations._solve_coalitions(
                    game, [1] * game.n, [0] * game.n if nonneg else None, what="the sweep"
                )
                want, reference = reference_row_generation(game, nonneg)
                assert got == want, (game.table(), nonneg)
                assert [_row(con) for con in problems[-1].constraints] == [
                    _row(con) for con in reference.constraints
                ], (game.table(), nonneg)

    def test_one_agent_still_solves_its_empty_seed_program(self):
        # the one singleton row is N, so the seed program has no rows at all
        with pytest.raises(AssertionError, match=r"came back LpStatus\.UNBOUNDED over its rows"):
            allocore.relaxations._solve_coalitions(
                ExplicitGame(1, [0, 5]), [1], what="the almost-core program"
            )

    @pytest.mark.parametrize("costs", [[0, -1, 2, 3], [0, -1, 2, 3, 2, 3, 1, 4]])
    def test_negative_singleton_cost_leaves_the_nonneg_program_infeasible(self, costs):
        # x_1 <= c({1}) < 0 <= x_1: infeasible whether or not the first scan finds
        # a violation (none at n = 2, {2, 3} at n = 3)
        class NegativeSingleton(Game):
            n = len(costs).bit_length() - 1

            def cost_bits(self, bits):
                return Fraction(costs[bits])

        with pytest.raises(
            AssertionError,
            match=r"^the almost-core program came back LpStatus\.INFEASIBLE over its rows$",
        ):
            almost_core_optimum(NegativeSingleton(), require_nonneg=True)


class TestSeedCoalitions:
    """A game names the coalitions whose rows start row generation: the
    singletons by default, and for a spanning-tree game every N \\ {k} too.
    The seed may change which optimal vertex comes back, never the value."""

    def test_the_spanning_tree_seed_changes_no_value(self):
        rng = Random(101)
        programs = differ = 0
        for n in range(3, 12):
            singletons = [1 << i for i in range(n)]
            extra = {"core": {"grand": 1}, "least-core": {"slack": n, "grand": -1}}
            for model in WEIGHT_MODELS:
                graph = random_graph(rng, n, model)
                for game in (MstGame(graph), MstGame(graph, monotonized=True)):
                    full, c_grand = (1 << n) - 1, game.grand_cost()
                    for name, (dense, run) in _programs(game).items():
                        value, point = run()
                        want, _ = reference_coalition_program(
                            game, dense.objective, dense.lower_bounds,
                            seed=singletons, **extra.get(name, {}),
                        )
                        assert value == want.value, (name, n, model)
                        if n <= 6:
                            assert value == solve(dense).value, (name, n, model)
                        assert verify_point(dense, point).feasible, (name, n, model)
                        # the brute-force stability scan, without the LP code
                        x, off = point[:n], point[n] if name == "least-core" else 0
                        sums, costs = coalition_sums(x), game.table()
                        assert all(
                            sums[bits] - off <= costs[bits] for bits in range(1, full)
                        ), (name, n, model)
                        if name == "core":
                            assert sum(x) <= c_grand
                        elif name == "least-core":
                            assert sum(x) == c_grand and off >= 0
                        elif name.endswith("True"):
                            assert min(x) >= 0
                        # the singleton-seeded point, with the least core's
                        # agent 1 lowered to x(N) = c(N) as least_core_eps does
                        ref = list(want.point)
                        if name == "least-core":
                            ref[0] -= sum(ref[:n]) - c_grand
                        programs += 1
                        differ += tuple(ref) != tuple(point)
        assert programs == 9 * 4 * 2 * 4 and 0 < differ < programs

    def test_the_default_seed_is_the_singletons(self):
        assert ExplicitGame(0, [0]).seed_coalitions() == []
        assert ExplicitGame(1, [0, 5]).seed_coalitions() == []  # {1} is N
        assert ExplicitGame(3, range(8)).seed_coalitions() == [1, 2, 4]

    def test_the_spanning_tree_seed(self):
        rng = Random(102)
        for n in range(1, 9):
            full = (1 << n) - 1
            seed = MstGame(random_graph(rng, n, "uniform")).seed_coalitions()
            assert seed == sorted(set(seed)) and 0 not in seed and full not in seed, n
            want = {1 << i for i in range(n)} | {full ^ (1 << i) for i in range(n)}
            assert set(seed) == want - {0, full}, n
        # n = 1: N \ {1} is empty and {1} is N; n = 2: each N \ {k} is a singleton
        one = MstGame(GraphInstance(1, [[0, 3], [3, 0]]))
        assert one.seed_coalitions() == []
        assert MstGame(random_graph(rng, 2, "uniform")).seed_coalitions() == [1, 2]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_seed_row_is_empty_or_repeated(self, monkeypatch, n):
        # a seed holding the empty set would add the row x(empty) <= 0
        problems = []

        def capturing(problem):
            problems.append(problem)
            return solve(problem)

        monkeypatch.setattr(allocore.relaxations, "solve", capturing)
        game = MstGame(random_graph(Random(103), n, "uniform"))
        assert core_optimum(game, [1] * n).value == game.grand_cost()
        rows = [_row(con) for con in problems[0].constraints]
        assert all(coef for coef, _, _ in rows) and len(rows) == len({str(r) for r in rows})
        assert len(rows) == len(game.seed_coalitions()) + 1  # and the grand row

    @pytest.mark.parametrize("bad", [0, 7])
    def test_a_seed_outside_the_proper_coalitions_is_a_bug(self, bad):
        class BadSeed(ExplicitGame):
            def seed_coalitions(self):
                return [1, 2, 4, bad]

        with pytest.raises(AssertionError, match="a seed row is not a proper coalition"):
            almost_core_optimum(BadSeed(3, range(8)))


class TestDerivedFromCoreSolve:
    """The weak epsilon and the minimum subsidy come from m = max x(N) of the
    certified core solve; the dense programs are their oracles."""

    @staticmethod
    def _sweep_games():
        rng = Random(96)
        for n in range(2, 8):
            for _ in range(30):
                yield random_explicit_game(rng, n)
                yield random_empty_core_game(rng, n)
        for n in range(3, 8):
            for model in WEIGHT_MODELS:
                for _ in range(2):
                    graph = random_graph(rng, n, model)
                    yield MstGame(graph)
                    yield MstGame(graph, monotonized=True)

    def test_dense_programs_agree_on_a_sweep(self):
        games = empty = negative = 0
        for game in self._sweep_games():
            r = full_report(game)
            eps, x = r.eps_weak, r.eps_weak_allocation
            delta, xs, t = r.extended_core_delta, r.extended_core_x, r.extended_core_t
            assert (eps, x) == weak_core_eps(game)
            assert (delta, (xs, t)) == extended_core_delta(game)
            assert solve(weak_core_problem(game)).value == -eps
            assert solve(subsidy_problem(game)).value == -delta
            # both witnesses checked coalition by coalition, without the LP code
            c_grand = game.grand_cost()
            assert eps >= 0 and sum(x) == c_grand
            assert almost_core_member(game, [v - eps for v in x])
            assert min(t) >= 0 and sum(t) == delta and sum(xs) == c_grand
            assert almost_core_member(game, [a - b for a, b in zip(xs, t)])
            # full_report reuses x_m as x_a on an empty core, x_a when x_a >= 0
            # and the core witness on a nonempty core; the standalone programs
            # must reach the same values
            ac, ac_x = r.ac_opt, r.ac_opt_allocation
            assert ac == almost_core_optimum(game)[0]
            assert almost_core_member(game, ac_x) and sum(ac_x) == ac
            acn, acn_x = r.ac_opt_nonneg, r.ac_opt_nonneg_allocation
            assert acn == almost_core_optimum(game, True)[0]
            assert almost_core_nonneg_member(game, acn_x) and sum(acn_x) == acn
            eps_s, x_s = r.eps_strong, r.eps_strong_allocation
            assert eps_s == least_core_eps(game)[0]
            assert sum(x_s) == c_grand
            assert all(
                coalition_sum(x_s, bits) - eps_s <= game.cost_bits(bits)
                for bits in range(1, (1 << game.n) - 1)
            )
            games += 1
            empty += not r.core_nonempty
            negative += min(r.ac_opt_allocation) < 0
        # both sides of both reuse rules: 296 empty cores, 127 negative shares
        assert games >= 400 and 180 <= empty <= games - 100 and 100 <= negative <= games - 100

    def test_a_report_keeps_x_a_as_the_nonneg_witness(self):
        # x_a >= 0 here, so the report returns it; the x >= 0 program's own
        # vertex differs but has the same value
        rng = Random(144)
        game = MstGame(random_graph(rng, rng.randint(2, 8), "uniform"))
        r = full_report(game)
        value, x = almost_core_optimum(game, True)
        assert game.n == 5 and r.ac_opt_nonneg == r.ac_opt == value == 10
        assert r.ac_opt_nonneg_allocation == r.ac_opt_allocation == (0, 7, 0, 1, 2)
        assert x == (0, 6, 1, 1, 2)
        assert almost_core_nonneg_member(game, x) and almost_core_nonneg_member(game, r.ac_opt_allocation)

    def test_no_agents(self):
        game = ExplicitGame(0, [0])
        assert weak_core_eps(game) == (0, ())
        assert extended_core_delta(game) == (0, ((), ()))
        assert type(weak_core_eps(game)[0]) is type(extended_core_delta(game)[0]) is Fraction

    def test_one_agent(self):
        game = ExplicitGame(1, [0, 3])
        assert weak_core_eps(game) == (0, (3,))
        assert extended_core_delta(game) == (0, ((3,), (0,)))
        assert solve(weak_core_problem(game)).value == 0 == solve(subsidy_problem(game)).value

    def test_core_duals_are_a_balanced_cover(self, monkeypatch):
        # Bondareva-Shapley: the duals weight coalitions so that every agent
        # is covered exactly once and the weighted cost is m
        problems = []

        def capturing(problem):
            problems.append(problem)
            return solve(problem)

        monkeypatch.setattr(allocore.relaxations, "solve", capturing)
        rng = Random(97)
        games = [random_empty_core_game(rng, n) for n in range(2, 7)]
        games += [MstGame(random_graph(rng, 6, model)) for model in WEIGHT_MODELS]
        empty = 0
        for game in games:
            n = game.n
            problems.clear()
            solution = core_optimum(game, [1] * n)
            rows = problems[-1].constraints
            assert len(solution.duals) == len(rows) and min(solution.duals) >= 0
            cover = [Fraction(0)] * n
            weighted = Fraction(0)
            for con, y in zip(rows, solution.duals):
                bits = sum(1 << i for i in con.coef)
                for i in con.coef:
                    cover[i] += y
                weighted += y * game.cost_bits(bits)
            assert cover == [1] * n
            assert weighted == solution.value
            if solution.value < game.grand_cost():
                # x(N) <= c(N) is slack at an empty core's optimum, so the
                # proper rows alone certify m as the almost-core optimum too
                (grand,) = (y for con, y in zip(rows, solution.duals) if len(con.coef) == n)
                assert grand == 0
                empty += 1
        assert empty == 5

    AC, CORE, LEAST = "the almost-core program", "the core program", "the least-core program"

    @pytest.mark.parametrize(
        "make, negative_share, programs",
        [
            # empty core: the core solve's x_m is x_a, and x_m >= 0 the nonnegative optimum
            (lambda tq: random_empty_core_game(Random(98), 5), False, [CORE, LEAST]),
            # the one almost-core run is the x >= 0 program
            (lambda tq: random_empty_core_game(Random(98), 3), True, [AC, CORE, LEAST]),
            # nonempty core: its witness is the least core's optimum (eps = 0)
            (lambda tq: MstGame(tq), False, [AC, CORE]),
        ],
        ids=["empty-core", "empty-core-negative-share", "tight-quarter"],
    )
    def test_a_report_skips_the_programs_it_holds(
        self, monkeypatch, tight_quarter, make, negative_share, programs
    ):
        game = make(tight_quarter)  # sampling runs core solves
        ran = []
        solve_coalitions = allocore.relaxations._solve_coalitions

        def recording(game, objective, bounds=None, **kwargs):
            ran.append(kwargs["what"])
            return solve_coalitions(game, objective, bounds, **kwargs)

        monkeypatch.setattr(allocore.relaxations, "_solve_coalitions", recording)
        r = full_report(game)
        assert (min(r.ac_opt_allocation) < 0) == negative_share
        assert r.core_nonempty == (self.LEAST not in programs)
        assert sorted(ran) == programs


class TestLeastCoreCertificate:
    """The least-core program's duals in the paper's terms: weights
    lambda_S >= 0 on proper coalitions and mu >= 0 on the grand row
    x(N) >= c(N). Dual feasibility reads sum over S containing i of
    lambda_S = mu for every agent i (x_i is free) and sum of lambda_S <= 1
    (eps >= 0); strong duality reads eps* = mu c(N) - sum lambda_S c(S).
    Everything is recomputed with Fraction and game.cost_bits only."""

    INSTANCES = Path(__file__).resolve().parent.parent / "instances"
    GRAPHS = ("large_gap_k5", "steiner_counterexample", "subsidy_k5", "tight_ratio_eps_quarter")
    CASES = [(name, False) for name in ("empty_core", *GRAPHS)] + [(name, True) for name in GRAPHS]

    @staticmethod
    def _assert_certified(game, solved):
        eps, x = least_core_eps(game)
        problem, solution = solved[-1]
        n, full = game.n, (1 << game.n) - 1
        weights, mu = {}, None
        for con, y in zip(problem.constraints, solution.duals, strict=True):
            bits = sum(1 << i for i in con.coef if i < n)
            assert y >= 0
            if bits == full:
                mu = y
            else:
                weights[bits] = y
        assert mu is not None and len(weights) == len(problem.constraints) - 1
        for i in range(n):
            assert sum((y for bits, y in weights.items() if bits >> i & 1), Fraction(0)) == mu
        total = sum(weights.values(), Fraction(0))
        assert total <= 1
        assert eps == mu * game.grand_cost() - sum(
            (y * game.cost_bits(bits) for bits, y in weights.items()), Fraction(0)
        )
        if eps > 0:
            # complementary slackness: eps is basic, so its dual row is tight,
            # and mu > 0 makes x(N) >= c(N) tight at every optimum
            assert total == 1 and mu > 0
        # the witness, checked without the LP code
        assert sum(x) == game.grand_cost()
        assert almost_core_member(game, [v - eps for v in x])
        return eps

    @pytest.fixture
    def solved(self, monkeypatch):
        solved = []

        def capturing(problem):
            solution = solve(problem)
            solved.append((problem, solution))
            return solution

        monkeypatch.setattr(allocore.relaxations, "solve", capturing)
        return solved

    @pytest.mark.parametrize(
        "name, monotonize", CASES, ids=[name + "-monotonized" * m for name, m in CASES]
    )
    def test_instances(self, solved, name, monotonize):
        inst = instances.parse((self.INSTANCES / f"{name}.json").read_text())
        self._assert_certified(instances.to_game(inst, monotonize=monotonize), solved)

    def test_random_sweep(self, solved):
        rng = Random(99)
        games = []
        for n in range(2, 7):
            for _ in range(8):
                games += [random_explicit_game(rng, n), random_empty_core_game(rng, n)]
        for n in range(3, 7):
            for model in WEIGHT_MODELS:
                graph = random_graph(rng, n, model)
                games += [MstGame(graph), MstGame(graph, monotonized=True)]
        positive = sum(self._assert_certified(game, solved) > 0 for game in games)
        assert len(games) == 112 and 0 < positive < len(games)
