"""Core relaxations and almost-core optimization.

The almost core of a game (N, c) is the set of allocations satisfying every
proper-coalition stability constraint x(S) <= c(S), with no budget-balance
requirement; its optimum is the largest total cost that can be shared while
no proper coalition prefers its outside option. This module builds and
solves the defining linear programs for that optimum, for the classic core
relaxations (strong/weak/multiplicative epsilon-core, gamma-core, cost of
stability, extended core), and implements the reduction of almost-core
separation to core separation.

For games with empty core the relaxation optima are linked by exact
identities: the minimum subsidy equals (1 - gamma*) c(N), equals
eps_m*/(1 + eps_m*) c(N), equals the cost of stability, equals n * eps_w*.
Gamma, eps_m and the cost of stability are functions of one number,
m = max x(N) over all stability constraints, so they come from one core
solve and the gamma and multiplicative identities hold by algebra; the
subsidy and weak-epsilon programs are the independent cross-checks of
cost of stability = subsidy = n * eps_w. ``full_report`` checks every
identity before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .coalition import Coalition, bits_members
from .errors import PreconditionError, UndefinedRatioError
from .games import (
    Allocation,
    Game,
    as_rational,
    check_enum_limit,
    over_common_denominator,
    satisfies_last_monotone,
    subset_sums,
)
from .lp import LpProblem, LpSolution, solve

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _ensure(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _require_multi_agent(game: Game, what: str) -> None:
    if game.n < 2:
        raise PreconditionError(
            f"{what} is unbounded for a single agent: the almost core of a "
            "one-agent game has no constraints"
        )


def _indicator(bits: int, first: int = 0, value: Fraction = _ONE) -> dict[int, Fraction]:
    """The row {first + i - 1: value} over the members i of a bitmask."""
    return dict.fromkeys((first + i - 1 for i in bits_members(bits)), value)


def _coalition_program(
    game: Game, objective: Sequence[object], bounds: Sequence[object | None] | None = None, *,
    what: str, relation: str = "<=", extra: Callable[[int], dict[int, Fraction]] | None = None,
    grand: str | None = None,
) -> LpProblem:
    """Rows x(S) + extra(S) . y (relation) c(S) for proper S in ascending bitmask order.

    x are the first n variables, y the rest, and extra(S) maps y-variables
    (indices n and up) to coefficients; a last row x(N) (grand) c(N) is
    added when ``grand`` names a relation.
    """
    check_enum_limit(game.n, f"building {what}")
    n = game.n
    problem = LpProblem(len(objective), objective, bounds)
    if extra is None and problem.num_vars != n:
        raise ValueError("objective length does not match the game")
    for bits in range(1, (1 << n) - 1):
        row = _indicator(bits)
        if extra is not None:
            row.update(extra(bits))
        problem.add(row, relation, game.cost_bits(bits))
    if grand is not None:
        problem.add(_indicator((1 << n) - 1), grand, game.grand_cost())
    return problem


def almost_core_problem(game: Game, require_nonneg: bool = False) -> LpProblem:
    """max x(N) over all proper-coalition constraints, in ascending bitmask order."""
    n = game.n
    bounds = [_ZERO] * n if require_nonneg else None
    return _coalition_program(game, [_ONE] * n, bounds, what="the almost-core program")


def core_problem(game: Game, objective: Sequence[object]) -> LpProblem:
    """Optimize over stability constraints for every nonempty coalition, N included."""
    return _coalition_program(game, objective, what="the core program", grand="<=")


def almost_core_optimum(
    game: Game, require_nonneg: bool = False
) -> tuple[Fraction, Allocation]:
    """The exact almost-core optimum and one maximizer.

    With ``require_nonneg`` the agents must not be subsidized (x >= 0).
    """
    _require_multi_agent(game, "almost-core maximization")
    solution = solve(almost_core_problem(game, require_nonneg))
    _ensure(solution.is_optimal, f"almost-core program came back {solution.status}")
    return solution.value, Allocation(solution.point)


def core_optimum(game: Game, objective: Sequence[object]) -> LpSolution:
    return solve(core_problem(game, objective))


class _Shareable(NamedTuple):
    """What follows from m = max x(N) over every stability constraint, N included."""

    maximizer: Allocation
    core: Allocation | None  # the maximizer when m = c(N)
    mult: tuple[Fraction, Allocation] | None  # c(N)/m - 1, the maximizer scaled by c(N)/m
    gamma: Fraction | None  # m / c(N)
    cost_of_stability: Fraction  # c(N) - m


def _max_shareable(game: Game) -> _Shareable:
    solution = core_optimum(game, [_ONE] * game.n)
    _ensure(solution.is_optimal, f"core program came back {solution.status}")
    m, x = solution.value, Allocation(solution.point)
    c_grand = game.grand_cost()
    if m == c_grand:
        mult = _ZERO, x
    elif m == 0:
        mult = None
    else:
        factor = c_grand / m
        mult = factor - 1, Allocation(tuple(factor * v for v in x))
    gamma = None if c_grand == 0 else m / c_grand
    return _Shareable(x, x if m == c_grand else None, mult, gamma, c_grand - m)


def core_nonempty(game: Game) -> tuple[bool, Allocation | None]:
    """Decide core nonemptiness; on success return a budget-balanced stable witness.

    The core is nonempty exactly when maximizing x(N) over all stability
    constraints (N included) attains c(N).
    """
    core = _max_shareable(game).core
    return core is not None, core


def _epsilon_relaxation(game: Game, weight_of_size: Callable[[int], Fraction]) -> tuple[Fraction, Allocation]:
    """min eps >= 0 with x(S) <= c(S) + eps * weight(|S|) for proper S, x(N) = c(N)."""
    n = game.n
    problem = _coalition_program(
        game, [_ZERO] * n + [-_ONE], [None] * n + [_ZERO], what="an epsilon-core program",
        extra=lambda bits: {n: -weight_of_size(bits.bit_count())}, grand="==",
    )
    solution = solve(problem)
    _ensure(solution.is_optimal, f"epsilon-core program came back {solution.status}")
    return -solution.value, Allocation(solution.point[:n])


def least_core_eps(game: Game) -> tuple[Fraction, Allocation]:
    """Smallest uniform additive relaxation (the least-core value) and a witness."""
    return _epsilon_relaxation(game, lambda _size: _ONE)


def weak_core_eps(game: Game) -> tuple[Fraction, Allocation]:
    """Smallest per-capita additive relaxation, eps scaled by coalition size."""
    return _epsilon_relaxation(game, lambda size: Fraction(size))


def mult_core_eps(game: Game) -> tuple[Fraction, Allocation] | None:
    """Smallest multiplicative relaxation x(S) <= (1 + eps) c(S), or None.

    Computed through the bijection x -> (1 + eps) x between stable
    allocations and multiplicatively relaxed ones: the optimum corresponds
    to the largest feasible fraction of c(N), so eps* = c(N)/m - 1 where m
    maximizes x(N) over all stability constraints. When m = 0 < c(N) no
    finite scaling works and None is returned.
    """
    return _max_shareable(game).mult


def gamma_approx(game: Game) -> tuple[Fraction, Allocation]:
    """Largest gamma <= 1 so that a stable allocation covers gamma * c(N)."""
    if game.grand_cost() == 0:
        raise UndefinedRatioError(
            "the gamma relaxation is a fraction of c(N), undefined when c(N) = 0"
        )
    shareable = _max_shareable(game)
    return shareable.gamma, shareable.maximizer


def cost_of_stability(game: Game) -> Fraction:
    """c(N) minus the largest stably shareable total (0 for balanced games)."""
    return _max_shareable(game).cost_of_stability


def extended_core_delta(game: Game) -> tuple[Fraction, tuple[Allocation, Allocation]]:
    """Minimum total subsidy t(N) restoring stability, with a witness (x, t).

    The witness satisfies t >= 0, x(N) = c(N), and (x - t)(S) <= c(S) for
    every proper coalition.
    """
    n = game.n
    problem = _coalition_program(
        game, [_ZERO] * n + [-_ONE] * n, [None] * n + [_ZERO] * n, what="the subsidy program",
        extra=lambda bits: _indicator(bits, n, -_ONE), grand="==",
    )
    solution = solve(problem)
    _ensure(solution.is_optimal, f"subsidy program came back {solution.status}")
    x = Allocation(solution.point[:n])
    t = Allocation(solution.point[n:])
    return -solution.value, (x, t)


def min_stable_profit(profit_game: Game) -> tuple[Fraction, Allocation]:
    """min x(N) subject to x(S) >= v(S) for every proper coalition.

    The profit-side counterpart of the almost-core maximization: for the
    cost-savings game of a cost game, the two optima add up to the sum of
    singleton costs.
    """
    _require_multi_agent(profit_game, "stable-profit minimization")
    problem = _coalition_program(
        profit_game, [-_ONE] * profit_game.n, what="the stable-profit program", relation=">="
    )
    solution = solve(problem)
    _ensure(solution.is_optimal, f"stable-profit program came back {solution.status}")
    return -solution.value, Allocation(solution.point)


@dataclass(frozen=True, slots=True)
class RelaxationReport:
    """Every relaxation optimum for one game (see :func:`full_report`)."""

    n: int
    c_grand: Fraction
    core_nonempty: bool
    core_allocation: Allocation | None
    ac_opt: Fraction
    ac_opt_allocation: Allocation
    ac_opt_nonneg: Fraction
    ac_opt_nonneg_allocation: Allocation
    eps_strong: Fraction
    eps_strong_allocation: Allocation
    eps_weak: Fraction
    eps_weak_allocation: Allocation
    eps_mult: Fraction | None
    eps_mult_allocation: Allocation | None
    gamma_approx: Fraction | None
    gamma_allocation: Allocation | None
    cost_of_stability: Fraction
    extended_core_delta: Fraction
    extended_core_x: Allocation
    extended_core_t: Allocation


def full_report(game: Game) -> RelaxationReport:
    """Compute all relaxation quantities and verify their exact relations.

    One core solve gives the core witness, gamma, eps_m and the cost of
    stability; the almost-core, epsilon and subsidy optima each come from
    their own program. For empty-core games the equality chain linking the
    subsidy, gamma, multiplicative, cost-of-stability and weak-epsilon
    optima is asserted exactly; the weak/strong epsilon inequalities are
    asserted always.
    """
    n = game.n
    c_grand = game.grand_cost()
    shareable = _max_shareable(game)
    has_core = shareable.core is not None
    mult, gamma, cos = shareable.mult, shareable.gamma, shareable.cost_of_stability
    ac_val, ac_x = almost_core_optimum(game, False)
    acn_val, acn_x = almost_core_optimum(game, True)
    eps_s, eps_s_x = least_core_eps(game)
    eps_w, eps_w_x = weak_core_eps(game)
    delta_ec, (ec_x, ec_t) = extended_core_delta(game)

    _ensure(has_core == (ac_val >= c_grand), "core emptiness disagrees with the almost-core optimum")
    _ensure(eps_w <= eps_s, "weak epsilon exceeded the strong epsilon")
    _ensure((n - 1) * eps_w >= eps_s, "strong epsilon exceeded (n-1) times the weak epsilon")
    if has_core:
        _ensure(cos == 0 and delta_ec == 0 and eps_s == 0 and eps_w == 0,
                "balanced game with a nonzero relaxation gap")
        _ensure(mult is not None and mult[0] == 0, "balanced game with nonzero multiplicative gap")
        _ensure(gamma is None or gamma == 1, "balanced game with gamma below 1")
    else:
        _ensure(gamma is not None, "empty core forces c(N) > 0, gamma must be defined")
        _ensure(delta_ec == cos, "subsidy optimum differs from the cost of stability")
        _ensure(cos == n * eps_w, "cost of stability differs from n times the weak epsilon")
        _ensure((1 - gamma) * c_grand == cos, "gamma identity failed")
        if mult is None:
            _ensure(gamma == 0, "no finite multiplicative gap although gamma > 0")
        else:
            eps_m = mult[0]
            _ensure(eps_m / (1 + eps_m) * c_grand == cos, "multiplicative identity failed")

    return RelaxationReport(
        n=n,
        c_grand=c_grand,
        core_nonempty=has_core,
        core_allocation=shareable.core,
        ac_opt=ac_val,
        ac_opt_allocation=ac_x,
        ac_opt_nonneg=acn_val,
        ac_opt_nonneg_allocation=acn_x,
        eps_strong=eps_s,
        eps_strong_allocation=eps_s_x,
        eps_weak=eps_w,
        eps_weak_allocation=eps_w_x,
        eps_mult=None if mult is None else mult[0],
        eps_mult_allocation=None if mult is None else mult[1],
        gamma_approx=gamma,
        gamma_allocation=None if gamma is None else shareable.maximizer,
        cost_of_stability=cos,
        extended_core_delta=delta_ec,
        extended_core_x=ec_x,
        extended_core_t=ec_t,
    )


@dataclass(frozen=True, slots=True)
class SeparationResult:
    """Outcome of a membership query: member, or one violated constraint."""

    member: bool
    coalition: Coalition | None = None
    amount: Fraction | None = None
    negative_agent: int | None = None

    @property
    def verdict(self) -> str:
        if self.member:
            return "member"
        if self.negative_agent is not None:
            return "bound_violated"
        return "violated"


CoreOracle = Callable[[Sequence[Fraction]], SeparationResult]


def _query_point(point: Sequence[object], n: int) -> list[Fraction]:
    values = [as_rational(v) for v in point]
    if len(values) != n:
        raise ValueError(f"point has {len(values)} entries, the game has {n} agents")
    return values


def brute_force_core_oracle(game: Game) -> CoreOracle:
    """Exact separation for all stability constraints by full enumeration.

    Returns the ascending-bitmask first violated coalition (N included).
    The scan runs on integers: the table is scaled once to its common
    denominator D, and each query point to L = lcm(D, its denominators).
    """
    table, d = game.scaled_table()
    n = game.n

    def oracle(point: Sequence[Fraction]) -> SeparationResult:
        values = _query_point(point, n)
        scaled, scale = over_common_denominator(values, d)
        sums = subset_sums(scaled)
        factor = scale // d
        costs = table if factor == 1 else [c * factor for c in table]
        for bits in range(1, 1 << n):
            if sums[bits] > costs[bits]:
                return SeparationResult(
                    False, Coalition(bits, n), Fraction(sums[bits] - costs[bits], scale)
                )
        return SeparationResult(True)

    return oracle


def brute_force_nonneg_core_oracle(game: Game) -> CoreOracle:
    """As :func:`brute_force_core_oracle` plus the x >= 0 bound constraints."""
    inner = brute_force_core_oracle(game)
    n = game.n

    def oracle(point: Sequence[Fraction]) -> SeparationResult:
        values = _query_point(point, n)
        for i, v in enumerate(values):
            if v < 0:
                return SeparationResult(False, negative_agent=i + 1, amount=-v)
        return inner(values)

    return oracle


def _lift(
    shares: tuple[Fraction, ...], c_n: Fraction, core_sep: CoreOracle, game: Game | None = None
) -> SeparationResult:
    """The n-query reduction of both separation variants.

    ``game`` turns on the nonnegative variant's shortcut, which reports N
    minus k before lowering coordinate k would take it below zero.
    """
    n = len(shares)
    total = sum(shares, _ZERO)
    for k in range(n):
        rest = total - shares[k]
        ceiling = c_n - rest
        if game is not None and ceiling < 0:
            # x(N \ {k}) > c(N) >= c(N \ {k}): that coalition is violated as is.
            bits = ((1 << n) - 1) ^ (1 << k)
            return SeparationResult(False, Coalition(bits, n), rest - game.cost_bits(bits))
        if ceiling >= shares[k]:
            lowered = shares
        else:
            lowered = shares[:k] + (ceiling,) + shares[k + 1 :]
        result = core_sep(lowered)
        if not result.member:
            if result.coalition is None or result.coalition.is_grand():
                raise PreconditionError(
                    "core oracle failed: no proper coalition reported for a query "
                    "point with total at most c(N)"
                )
            amount = result.amount
            if (result.coalition.bits >> k) & 1 and lowered[k] != shares[k]:
                amount += shares[k] - lowered[k]
            return SeparationResult(False, result.coalition, amount)
    return SeparationResult(True)


def separate_almost_core(
    xhat: Allocation | Sequence[object], core_sep: CoreOracle, c_grand: object
) -> SeparationResult:
    """Almost-core membership via n queries to a core separation oracle.

    For each agent k the candidate point is lowered in coordinate k just
    enough that its total is at most c(N), then handed to the oracle. A
    violated coalition reported for a lowered point never involves the
    grand coalition and lifts verbatim to the original point; if all n
    queries pass, the original point satisfies every proper-coalition
    constraint.
    """
    return _lift(tuple(as_rational(v) for v in xhat), as_rational(c_grand), core_sep)


def separate_almost_core_nonneg(
    xhat: Allocation | Sequence[object], core_sep: CoreOracle, game: Game
) -> SeparationResult:
    """Membership in the almost core intersected with x >= 0.

    Requires c(N minus one agent) <= c(N) for every agent, which keeps the
    lowered query points nonnegative. Negative entries of the candidate are
    reported as bound violations before any oracle query.
    """
    cond = satisfies_last_monotone(game)
    if not cond.ok:
        raise PreconditionError(
            f"removing agent {cond.witness} raises the cost above c(N); the "
            "nonnegative separation reduction requires c(N \\ {k}) <= c(N)"
        )
    shares = tuple(as_rational(v) for v in xhat)
    if len(shares) != game.n:
        raise ValueError("point length does not match the game")
    for i, v in enumerate(shares):
        if v < 0:
            return SeparationResult(False, negative_agent=i + 1, amount=-v)
    return _lift(shares, game.grand_cost(), core_sep, game)
