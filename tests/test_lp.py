from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import allocore.lp
import allocore.relaxations
from allocore.generators import WEIGHT_MODELS, random_empty_core_game, random_graph
from allocore.lp import LpProblem, LpStatus, VerifyResult, _Tableau, solve, verify_point
from allocore.mstgame import MstGame
from allocore.relaxations import almost_core_optimum, full_report

from _oracles import (
    almost_core_problem,
    dual_of_canonical,
    polyhedron_max,
    rational_row,
    reference_simplex,
    reference_verify_point,
)


def add_equality(problem, coeffs, rhs):
    """coeffs . x == rhs as a <= row and its opposite."""
    problem.add(coeffs, rhs)
    problem.add({i: -Fraction(v) for i, v in coeffs.items()}, -Fraction(rhs))


def traced_solve(problem):
    """``solve(problem)`` and the (row, column) of every pivot it made."""
    trace = []
    pivot = _Tableau.pivot

    def recording(self, r, c, *args):
        trace.append((r, c))
        return pivot(self, r, c, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Tableau, "pivot", recording)
        return solve(problem), trace


def test_pair_constraint_binds():
    p = LpProblem(2, [1, 1], [0, 0])
    p.add({0: 1}, 1)
    p.add({1: 1}, 1)
    p.add({0: 1, 1: 1}, 1)
    sol = solve(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == 1


def test_unbounded_without_constraints():
    assert solve(LpProblem(1, [1])).status is LpStatus.UNBOUNDED


def test_infeasible_pair():
    p = LpProblem(1, [1])
    p.add({0: 1}, 0)
    p.add({0: -1}, -1)  # x0 >= 1
    assert solve(p).status is LpStatus.INFEASIBLE


def test_infeasible_equalities():
    p = LpProblem(1, [0])
    add_equality(p, {0: 1}, 2)
    add_equality(p, {0: 1}, 3)
    assert solve(p).status is LpStatus.INFEASIBLE


def test_equality_with_free_variables():
    p = LpProblem(2, [-1, -1])  # minimize x1 + x2
    add_equality(p, {0: 1, 1: 1}, -3)
    p.add({0: 1, 1: -1}, 1)
    sol = solve(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == 3
    assert sum(sol.point) == -3


def test_nonzero_lower_bounds_rejected():
    for bound in (5, "7/2", -1):
        with pytest.raises(ValueError, match="lower bound must be 0 or None"):
            LpProblem(2, [-1, -1], [0, bound])
    p = LpProblem(2, [-1, 0], ["0", None])  # minimize x0 >= 0; x1 is free
    assert p.lower_bounds == (0, None)
    p.add({0: -1, 1: -1}, -3)  # x0 + x1 >= 3
    p.add({1: 1}, 2)
    assert solve(p).point == (1, 2)


def test_lower_bounds_cannot_be_assigned_past_the_check():
    p = LpProblem(2, [-1, 0], [0, None])
    for bound in (Fraction(5), "x", None):
        with pytest.raises(TypeError):
            p.lower_bounds[0] = bound
    assert p.lower_bounds == (0, None)
    p.add({0: -1, 1: -1}, -3)
    p.add({1: 1}, 2)
    assert solve(p).point == (1, 2)


def test_problem_is_fixed_at_construction():
    p = LpProblem(2, [1, 1], [0, None])
    for name in ("num_vars", "objective", "lower_bounds", "constraints"):
        with pytest.raises(AttributeError):
            setattr(p, name, getattr(p, name))
    p.add({0: -1}, -1)  # x0 >= 1; phase 2 enters this row's slack
    p.add({0: 1}, 5)
    assert type(p.constraints) is tuple
    with pytest.raises(AttributeError):
        p.constraints.pop()
    with pytest.raises(AttributeError):
        p.constraints.append(p.constraints[0])
    with pytest.raises(TypeError):
        p.constraints[0] = p.constraints[1]
    # rows refused after their first entries were read leave no tableau row
    with pytest.raises(ValueError, match="variable index"):
        p.add({0: 1, 1: 1, 2: 1}, 0)
    with pytest.raises(TypeError, match="exact rational"):
        p.add({0: 1}, 1.5)
    p.add({1: 1}, 0)
    assert len(p.constraints) == 3 and assert_solves_as_fresh(p).value == 5
    assert traced_solve(p)[1][-1] == (1, 3)  # the slack follows x0 and x1's two parts
    q = LpProblem(1, [1], [0])
    with pytest.raises(AttributeError):
        q.num_vars = 2  # the rows were checked against 1 variable
    q.add({0: 1}, 1)
    assert solve(q).point == (1,)


def test_degenerate_cycling_guard():
    # classic Beale-style degeneracy; Bland's rule must terminate
    p = LpProblem(4, ["3/4", -150, "1/50", -6], [0, 0, 0, 0])
    p.add({0: "1/4", 1: -60, 2: "-1/25", 3: 9}, 0)
    p.add({0: "1/2", 1: -90, 2: "-1/50", 3: 3}, 0)
    p.add({2: 1}, 1)
    sol = solve(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == Fraction(1, 20)


def test_determinism_bit_for_bit(unbalanced3):
    p1 = almost_core_problem(unbalanced3)
    p2 = almost_core_problem(unbalanced3)
    s1, s2 = solve(p1), solve(p2)
    assert s1 == s2


def test_malformed_dimensions():
    p = LpProblem(2, [1, 1])
    for index in (2, -1, Fraction(1, 2), True):  # num_vars, negative, no int, a bool
        with pytest.raises(ValueError, match="variable index"):
            p.add({index: 1}, 0)
    with pytest.raises(TypeError):  # every row is <=; add takes no relation
        p.add({0: 1, 1: 2}, "<=", 0)
    with pytest.raises(TypeError, match="got bool"):
        p.add({0: True}, 0)
    assert p.constraints == ()
    assert assert_solves_as_fresh(p).status is LpStatus.UNBOUNDED  # no tableau row was kept
    p.add({1: 3, 0: 0}, 1)
    p.add({1: "2/3", 0: -1}, 0)
    first, second = p.constraints
    assert (first.coef, first.rhs, first.den) == ({1: 3}, 1, 1)  # the zero is not stored
    # -x0 + 2/3 x1 <= 0 is stored over its denominator 3
    assert (list(second.coef.items()), second.rhs, second.den) == ([(0, -3), (1, 2)], 0, 3)
    for args in ((2, [1]), (-1, []), (2, [1, 1], [0])):  # objective, num_vars, bounds
        with pytest.raises(ValueError):
            LpProblem(*args)
    with pytest.raises(TypeError, match="got bool"):
        LpProblem(1, [False])
    for num_vars, name in ((True, "bool"), (1.5, "float"), ("1", "str")):
        with pytest.raises(TypeError, match=f"^num_vars must be an int, got {name}$"):
            LpProblem(num_vars, [1], [0])
    with pytest.raises(ValueError):
        verify_point(p, [1])


class TestVerifyPoint:
    def test_almost_core_feasible_point(self, tight_quarter):
        p = almost_core_problem(MstGame(tight_quarter))
        assert verify_point(p, [0, 1, 1]).feasible

    def test_violated_pair_named(self, tight_quarter):
        p = almost_core_problem(MstGame(tight_quarter))
        res = verify_point(p, [1, 1, 0])
        assert not res.feasible
        # rows are in ascending bitmask order, so {1,2} (mask 3) is row 2
        assert res.violated_constraints == (2,)

    def test_zero_vector_feasible_for_nonnegative_games(self, gap5, unbalanced3):
        assert verify_point(almost_core_problem(MstGame(gap5)), [0, 0, 0]).feasible
        assert verify_point(almost_core_problem(unbalanced3), [0, 0, 0]).feasible

    def test_bound_violations_reported(self):
        p = LpProblem(2, [1, 1], [0, 0])
        p.add({0: 1, 1: 1}, 5)
        res = verify_point(p, [-1, 2])
        assert not res.feasible
        assert res.violated_bounds == (0,)


def test_strong_duality_on_random_canonical_programs():
    rng = Random(314)
    optimal_pairs = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        m = rng.randint(2, 5)
        objective = [Fraction(rng.randint(-3, 6)) for _ in range(n)]
        rows = [[Fraction(rng.randint(-2, 5)) for _ in range(n)] for _ in range(m)]
        rhs = [Fraction(rng.randint(0, 9)) for _ in range(m)]
        # a box keeps the primal bounded, so both sides are optimal
        rows += [[Fraction(int(k == i)) for k in range(n)] for i in range(n)]
        rhs += [Fraction(6)] * n
        primal = LpProblem(n, objective, [Fraction(0)] * n)
        for row, b in zip(rows, rhs):
            primal.add(dict(enumerate(row)), b)
        psol = solve(primal)
        assert psol.status is LpStatus.OPTIMAL
        dsol = solve(dual_of_canonical(objective, rows, rhs))
        assert dsol.status is LpStatus.OPTIMAL
        assert psol.value == -dsol.value
        optimal_pairs += 1
    assert optimal_pairs == 40


def test_optimum_matches_vertex_enumeration():
    rng = Random(2718)
    for _ in range(60):
        n = rng.randint(2, 3)
        m = rng.randint(1, 4)
        objective = [Fraction(rng.randint(-4, 6)) for _ in range(n)]
        rows = [[Fraction(rng.randint(-3, 5)) for _ in range(n)] for _ in range(m)]
        rhs = [Fraction(rng.randint(0, 8)) for _ in range(m)]
        for i in range(n):  # box: 0 <= x <= 4
            rows += [[Fraction(sign * (k == i)) for k in range(n)] for sign in (1, -1)]
            rhs += [Fraction(4), Fraction(0)]
        problem = LpProblem(n, objective)
        for row, b in zip(rows, rhs):
            problem.add(dict(enumerate(row)), b)
        sol = solve(problem)
        assert sol.status is LpStatus.OPTIMAL
        expected, _ = polyhedron_max(objective, rows, rhs)
        assert sol.value == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_optimal_points_pass_verify(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(0, 4))
    frac = st.fractions(min_value=-5, max_value=5)
    problem = LpProblem(
        n,
        data.draw(st.lists(frac, min_size=n, max_size=n)),
        [Fraction(0)] * n,
    )
    for _ in range(m):
        add = add_equality if data.draw(st.booleans()) else LpProblem.add
        add(problem, dict(enumerate(data.draw(st.lists(frac, min_size=n, max_size=n)))), data.draw(frac))
    for i in range(n):
        problem.add({i: Fraction(1)}, Fraction(7))
    sol = solve(problem)
    if sol.status is LpStatus.OPTIMAL:
        check = verify_point(problem, sol.point)
        assert check.feasible
        assert sol.value == sum(c * v for c, v in zip(problem.objective, sol.point))


# Denominators 3, 7, 11 and 13 are pairwise coprime, so row scaling, row
# denominators and their gcd reductions all get work to do.
coprime_fractions = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from([1, 3, 7, 11, 13])
)


# The same rationals as ints (when integral), "p/q" strings or Fractions.
exact_inputs = coprime_fractions.flatmap(
    lambda f: st.sampled_from(
        [f, f"{f.numerator}/{f.denominator}"] + ([f.numerator] if f.denominator == 1 else [])
    )
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 5), st.just(0) | exact_inputs, max_size=6), exact_inputs)
def test_stored_row_is_the_input_over_its_lcm(coeffs, rhs):
    p = LpProblem(6, [0] * 6)
    p.add(coeffs, rhs)
    con = p.constraints[0]
    nonzero = {i: Fraction(v) for i, v in sorted(coeffs.items()) if Fraction(v)}
    assert list(con.coef) == list(nonzero)
    assert all(type(v) is int for v in (*con.coef.values(), con.rhs, con.den))
    for i, c in nonzero.items():
        assert Fraction(con.coef[i], con.den) == c
    assert Fraction(con.rhs, con.den) == Fraction(rhs)
    # exactly the lcm, so no row is over-scaled
    assert con.den == lcm(Fraction(rhs).denominator, *(c.denominator for c in nonzero.values()))


@st.composite
def mixed_programs(draw):
    """LPs with negative right-hand sides, free and nonnegative variables,
    and equalities as opposite pairs of rows, some redundant or
    contradicting."""
    n = draw(st.integers(1, 4))
    bounds = draw(st.lists(st.none() | st.just(Fraction(0)), min_size=n, max_size=n))
    problem = LpProblem(n, draw(st.lists(coprime_fractions, min_size=n, max_size=n)), bounds)
    equalities = []
    for _ in range(draw(st.integers(0, 5))):
        row = dict(enumerate(draw(st.lists(coprime_fractions, min_size=n, max_size=n))))
        rhs = draw(coprime_fractions)
        if draw(st.booleans()):
            add_equality(problem, row, rhs)
            equalities.append((row, rhs))
        else:
            problem.add(row, rhs)
    for _ in range(draw(st.integers(0, 2)) if equalities else 0):
        # a combination of equalities: redundant, or contradicting when shifted
        a, b = draw(coprime_fractions), draw(coprime_fractions)
        (row1, rhs1), (row2, rhs2) = draw(st.sampled_from(equalities)), draw(st.sampled_from(equalities))
        shift = draw(st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 3)]))
        add_equality(
            problem,
            {i: a * row1.get(i, 0) + b * row2.get(i, 0) for i in range(n)},
            a * rhs1 + b * rhs2 + shift,
        )
    if draw(st.booleans()):  # a box keeps most of these bounded
        for i in range(n):
            problem.add({i: Fraction(1)}, Fraction(5))
            problem.add({i: Fraction(-1)}, Fraction(5))
    return problem


@settings(max_examples=300, deadline=None)
@given(mixed_programs())
def test_same_pivots_and_result_as_reference_simplex(problem):
    sol, trace = traced_solve(problem)
    status, value, point, expected_trace = reference_simplex(problem)
    assert sol.status.value == status
    assert sol.value == value
    assert sol.point == point
    assert trace == expected_trace
    if sol.is_optimal:
        assert verify_point(problem, sol.point).feasible


def assert_solves_as_fresh(problem):
    """``problem`` solves as a new LpProblem holding its rows does, pivot for pivot."""
    sol, trace = traced_solve(problem)
    fresh = LpProblem(problem.num_vars, problem.objective, problem.lower_bounds)
    for con in problem.constraints:
        coef, rhs = rational_row(con)
        fresh.add(coef, rhs)
    assert fresh.constraints == problem.constraints
    fresh_sol, fresh_trace = traced_solve(fresh)
    assert (sol.status, sol.value, sol.point) == (fresh_sol.status, fresh_sol.value, fresh_sol.point)
    assert trace == fresh_trace
    return sol


@settings(max_examples=150, deadline=None)
@given(mixed_programs(), st.data())
def test_rows_kept_across_solves_change_nothing(full, data):
    # the rows of ``full`` join one problem in batches, with a solve after each
    problem = LpProblem(full.num_vars, full.objective, full.lower_bounds)
    rows = full.constraints
    while True:
        assert_solves_as_fresh(problem)
        if len(problem.constraints) == len(rows):
            break
        upto = data.draw(st.integers(len(problem.constraints) + 1, len(rows)))
        for con in rows[len(problem.constraints):upto]:
            coef, rhs = rational_row(con)
            problem.add(coef, rhs)


@pytest.mark.parametrize("rhs", [7, Fraction(7, 3), "-5/2"])
def test_integer_rows_are_stored_as_rational_rows_are(rhs):
    coeffs = {0: 3, 4: -2, 1: 0, 2: 1, 3: -6}  # unsorted, with a zero
    stored = []
    for form in (int, Fraction, str):
        p = LpProblem(5, [0] * 5)
        p.add({i: form(v) for i, v in coeffs.items()}, rhs)
        p.add({0: 1, 2: form(3)}, rhs)  # one int among the others
        stored.append(p.constraints)
    assert stored[0] == stored[1] == stored[2]
    for first, other in zip(stored[0], stored[1]):
        assert list(first.coef.items()) == list(other.coef.items())
        assert all(type(v) is int for v in (*first.coef.values(), first.rhs, first.den))
    first = stored[0][0]
    assert list(first.coef) == [0, 2, 3, 4]
    assert Fraction(first.rhs, first.den) == Fraction(rhs)
    assert first.den == Fraction(rhs).denominator
    for coeffs in ({0: True}, {0: 1, 1: False}):
        with pytest.raises(TypeError, match="got bool"):
            p.add(coeffs, rhs)
    assert len(p.constraints) == 2


def test_coalition_programs_pivot_as_reference_simplex(monkeypatch):
    # every working set that row generation solves: phase 1 over the least
    # core's x(N) >= c(N) row and free variables in full_report, phase 2
    # only in the nonnegative program
    checked = []

    def checking(problem):
        sol, trace = traced_solve(problem)
        status, value, point, expected_trace = reference_simplex(problem)
        assert (sol.status.value, sol.value, sol.point) == (status, value, point)
        assert trace == expected_trace
        checked.append(problem)
        return sol

    monkeypatch.setattr(allocore.relaxations, "solve", checking)
    rng = Random(95)
    for _ in range(2):
        full_report(random_empty_core_game(rng, 6))
    for model in WEIGHT_MODELS:
        almost_core_optimum(MstGame(random_graph(rng, 7, model)), True)
    phase1 = [p for p in checked if any(con.rhs < 0 for con in p.constraints)]
    assert phase1 and max(p.lower_bounds.count(None) for p in phase1) == 6


# Points whose denominators mostly do not divide the rows' denominators.
point_fractions = st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 7, 17, 19])
)


@settings(max_examples=200, deadline=None)
@given(mixed_programs(), st.data())
def test_verify_point_matches_fraction_check(problem, data):
    n = problem.num_vars
    points = [data.draw(st.lists(point_fractions, min_size=n, max_size=n))]
    sol = solve(problem)
    if sol.is_optimal:
        assert verify_point(problem, sol.point).feasible
        points += [sol.point, [v + Fraction(1, 17) for v in sol.point]]
    for point in points:
        rows, bounds = reference_verify_point(problem, point)
        assert verify_point(problem, point) == VerifyResult(not rows and not bounds, rows, bounds)


def test_stored_rows_are_read_only():
    p = LpProblem(2, [1, 1])
    p.add({0: 1, 1: 2}, 3)
    coef = p.constraints[0].coef
    with pytest.raises(TypeError):
        coef[0] = 0
    with pytest.raises(TypeError):
        coef[5] = 1
    with pytest.raises(TypeError):
        del coef[1]
    assert dict(coef) == {0: 1, 1: 2}


def assert_optimal_vertex(problem, sol):
    """The optimum passes verify_point and is a best vertex by enumeration."""
    assert sol.status is LpStatus.OPTIMAL
    assert verify_point(problem, sol.point).feasible
    n = problem.num_vars
    stored = [rational_row(con) for con in problem.constraints]
    rows = [[coeffs.get(i, 0) for i in range(n)] for coeffs, _ in stored]
    rhs = [b for _, b in stored]
    for i, lb in enumerate(problem.lower_bounds):
        if lb is not None:
            rows.append([Fraction(-(k == i)) for k in range(n)])
            rhs.append(lb)
    best, argmax = polyhedron_max(problem.objective, rows, rhs)
    assert sol.value == best
    assert sol.point in argmax


def test_drive_out_on_a_negative_pivot():
    # max x0 subject to x0 + x1 = 2 (rows 0 and 1) and x0 <= x1 (row 2). Phase
    # 1 enters x0 on row 2 and x1 on row 0, which ties row 1 on the ratio and
    # has the smaller basic column. Row 1's artificial stays basic at 0 and
    # reads -1 in its smallest real column, row 0's slack: the drive-out
    # pivot is the third, and the only negative one.
    p = LpProblem(2, [1, 0], [0, 0])
    add_equality(p, {0: 1, 1: 1}, 2)
    p.add({0: 1, 1: -1}, 0)
    pivots = []
    pivot = _Tableau.pivot

    def recording(self, r, c):
        pivots.append((r, c, self.rows[r].coef[c]))
        pivot(self, r, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Tableau, "pivot", recording)
        sol = solve(p)
    assert pivots[:3] == [(2, 0, 1), (0, 1, 2), (1, 2, -1)]
    assert min(v for *_, v in pivots) == -1
    assert sol.point == (1, 1)
    assert_optimal_vertex(p, sol)


def test_gcd_reduction_lowers_a_row_denominator():
    # The last pivot, on the slack of 2x <= 4 (denominator 1), leaves row 0
    # as (2x + 2y + 2s) / 2 = 6 / 2; the gcd brings it back to x + y + s = 3.
    p = LpProblem(2, [2, 3], [0, 0])
    p.add({0: 1, 1: 1}, 3)
    p.add({0: 2}, 4)
    reduced = []
    pivot = _Tableau.pivot

    def recording(self, r, c):
        dens = [row.den for row in self.rows]
        touched = [i for i, row in enumerate(self.rows) if i != r and c in row.coef]
        pivot(self, r, c)
        d = self.rows[r].den
        reduced.extend((i, dens[i] * d, self.rows[i].den) for i in touched
                       if self.rows[i].den != dens[i] * d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Tableau, "pivot", recording)
        sol = solve(p)
    assert reduced == [(0, 2, 1)]
    assert sol.value == 9
    assert_optimal_vertex(p, sol)


def test_optimum_with_a_denominator_above_64_bits():
    # x0 <= 1 / a0 and x_i <= x_(i-1) / a_i all bind, so x_4 = prod(1 / a_i).
    a = [Fraction(8191, 3), Fraction(8209, 7), Fraction(8219, 11), Fraction(8221, 13), Fraction(8231)]
    p = LpProblem(5, [1] * 5, [0] * 5)
    p.add({0: a[0]}, 1)
    for i in range(1, 5):
        p.add({i - 1: Fraction(-1), i: a[i]}, 0)
    sol = solve(p)
    expected = []
    for ai in a:
        expected.append((expected[-1] if expected else 1) / ai)
    assert sol.point == tuple(expected)
    assert sol.point[4].denominator > 2**64
    assert_optimal_vertex(p, sol)


@settings(max_examples=300, deadline=None)
@given(mixed_programs())
def test_duals_certify_every_all_le_optimum(problem):
    sol = solve(problem)
    if not sol.is_optimal:
        assert sol.duals is None
        return
    rows = problem.constraints
    assert len(sol.duals) == len(rows) and min(sol.duals, default=0) >= 0
    assert sum((y * b for (_, b), y in zip(map(rational_row, rows), sol.duals)), Fraction(0)) == sol.value
    if len(rows) <= 7:  # small enough for vertex enumeration of the dual
        # the duals are an optimal vertex of the dual program
        n, m = problem.num_vars, len(rows)
        stored = [rational_row(con) for con in rows]
        dual = dual_of_canonical(
            problem.objective, [[coef.get(i, 0) for i in range(n)] for coef, _ in stored],
            [b for _, b in stored], [i for i, lb in enumerate(problem.lower_bounds) if lb is None],
        )
        dual_stored = [rational_row(con) for con in dual.constraints]
        dual_rows = [[coef.get(r, 0) for r in range(m)] for coef, _ in dual_stored]
        dual_rhs = [b for _, b in dual_stored]
        dual_rows += [[Fraction(-(k == r)) for k in range(m)] for r in range(m)]  # y >= 0
        dual_rhs += [Fraction(0)] * m
        best, argmax = polyhedron_max(dual.objective, dual_rows, dual_rhs)
        assert -best == sol.value
        assert sol.duals in argmax


def test_every_optimum_carries_checked_duals():
    p = LpProblem(2, [1, 1], [0, 0])
    p.add({0: 1, 1: 1}, 4)
    assert solve(p).duals == (1,)
    # x0 = x1 as a pair of rows; the second has rhs 0 and the first binds
    add_equality(p, {0: 1, 1: -1}, 0)
    sol = solve(p)
    assert sol.point == (2, 2) and sol.duals == (1, 0, 0)
    # x0 >= 1 and x1 >= 1 have negative right-hand sides, so phase 1 runs
    # first; the optimum still carries its duals, and solve checked them
    p.add({0: -1}, -1)
    p.add({1: -1}, -1)
    checked = []
    check = allocore.lp._check_duals

    def recording(*args):
        checked.append(check(*args))
        return checked[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allocore.lp, "_check_duals", recording)
        sol = solve(p)
    assert sol.point == (2, 2) and checked == [sol.duals]
    assert len(sol.duals) == 5 and sol.duals[0] == 1 and sum(sol.duals) == 1
    q = LpProblem(1, [1])
    q.add({0: -1}, 0)
    assert solve(q) == (LpStatus.UNBOUNDED, None, None, None)
    q.add({0: 1}, -1)
    assert solve(q) == (LpStatus.INFEASIBLE, None, None, None)


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda ys: {r: -y for r, y in ys.items()}, "negative dual multiplier"),
        (lambda ys: {r: 2 * y for r, y in ys.items()}, "duals miss the objective"),
        (lambda ys: dict(list(ys.items())[1:]), "duals miss the objective"),
        (lambda ys: {**ys, 0: 1}, "dual value"),
    ],
    ids=["wrong-sign", "scaled", "row-dropped", "slack-row-weighted"],
)
def test_a_wrong_dual_makes_solve_raise(monkeypatch, tamper, message):
    # max x0 + x1 over x1 <= 3, x0 + x1 <= 2 and x0 - x1 <= 1, whose only dual
    # optimum is (0, 1, 0); x0 is free, so its column must be met exactly
    p = LpProblem(2, [1, 1], [None, 0])
    p.add({1: 1}, 3)
    p.add({0: 1, 1: 1}, 2)
    p.add({0: 1, 1: -1}, 1)
    sol = solve(p)
    assert (sol.value, sol.duals) == (2, (0, 1, 0))
    support = allocore.lp._dual_support
    monkeypatch.setattr(allocore.lp, "_dual_support", lambda *args: tamper(support(*args)))
    with pytest.raises(AssertionError, match=message):
        solve(p)
