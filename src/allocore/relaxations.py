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
All five are functions of m = max x(N) over all stability constraints,
so the identities hold by algebra, and m comes from the almost-core
program, the core program without x(N) <= c(N): with a its optimum and
x_a its maximizer, m = min(a, c(N)), and the core is nonempty exactly
when a reaches c(N) (the paper's criterion). The core maximizer x_m is
x_a lowered to total m by ``_lower_to``: the excess comes off the shares
from agent 1 upward, pushing none below 0, and any remainder (only
c(N) < 0 leaves one) off agent 1. Lowering a share keeps every proper
row, so x_m is feasible, and a core element if a >= c(N), nonnegative
when x_a is and c(N) >= 0. At n <= 1 the almost-core program is
undefined and the core program gives m and x_m. The weak epsilon is (c(N) - m)/n with witness
x_m + eps_w * 1, and the minimum subsidy c(N) - m with witness
(x_m + t, t), t the whole subsidy on agent 1: feasible since
x_m(S) <= c(S), optimal since lowering a feasible point by its epsilons
or subsidies gives a point of the core program. The almost-core optimum
is certified: the final scan shows its point feasible for every row, and
``solve`` checks its duals, a balanced cover of N by proper coalitions.

``full_report`` skips the programs whose optimum it already holds. An
almost-core maximizer x_a >= 0 meets the bounds of the nonnegative
program, so it is that program's optimum. The least core has the bound
eps >= 0, so on a nonempty core (0, core witness) is its optimum;
otherwise it is solved with the grand row x(N) >= c(N), so every program
has <= rows only and a checked dual certificate, and ``_lower_to`` makes
its witness budget balanced without changing eps. A report thus solves
the almost-core program, the least core only on an empty core, and the
nonnegative program only on a negative share of x_a; it re-checks only
the least-core value against the weak epsilon. The least core and the
almost core bind on almost the same balanced collection of coalitions
(Bondareva 1963; Shapley 1967), so a report's least core starts from the
final working set of the program solved just before it: the nonnegative
program's on a negative share of x_a, else the almost-core program's.
That saves the rounds that would find those rows again; it can move the
least-core witness, never eps. The set is passed from call to call, never
kept in the module, so a standalone call starts from the game's seed.

Every program has one row per proper coalition (2^n - 2 rows), of which
about n bind at an optimal vertex, so each is solved by row generation
(``_solve_coalitions``, the one builder of coalition rows). The working
set starts from the rows of ``game.seed_coalitions()`` and of any rows the
caller passes on, plus the grand-coalition row where the program has one.
Every game seeds the n
singleton rows, which bound every program; a spanning-tree game adds
every N \\ {k}, the rows its 2-approximation prices, which carry much of
the dual support at the almost-core optimum. A proper row reads
x(S) - slack, the row giving up one slack (eps in the least core). Each
round scans all coalitions on integers (the point and the cost table over
one common denominator, x(S) from one subset-sum pass, less the slack),
and the n most violated rows, ties to the smaller bitmask, join the
working set, whose exact optimum is the next point. When the scan finds
none, that point is feasible for the full program and at least its
optimum (the working set is a relaxation), so it is the exact optimum.
Every round solves the working set and then scans, so every answer
carries checked duals. On three random rational-model spanning-tree
games per size, the nonnegative almost-core program took 2 to 6 scans,
one solve each, and ended with 19 to 30 of its 510 rows at n = 9, 32 to
60 of 4094 at n = 12 and 38 to 98 of 16382 at n = 14.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .coalition import Coalition, bits_members
from .errors import PreconditionError, UndefinedRatioError
from .games import (
    Game,
    as_rational,
    check_enum_limit,
    over_common_denominator,
    satisfies_last_monotone,
    subset_sums,
)
from .lp import LpProblem, LpSolution, LpStatus, solve

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


def _solve_coalitions(
    game: Game, objective: Sequence[object], bounds: Sequence[object | None] | None = None, *,
    what: str, slack: int | None = None, grand: int | None = None, seed: Iterable[int] = (),
) -> tuple[LpSolution, set[int]]:
    """The optimum of max objective . (x, y) subject to x(S) - y[slack] <= c(S)
    for every proper coalition S, plus grand * (x(N) - c(N)) <= 0 when
    ``grand`` is 1 or -1; x are the first n variables and y the rest.
    ``slack`` names the y variable taken off each proper row.

    Solved by row generation (see the module docstring) from the rows of
    ``game.seed_coalitions()`` and of ``seed``, proper-coalition bitmasks,
    one solve per scan. Returns the optimum and the final working set, the
    bitmasks of every proper row the last solve held, which a later program
    of the same report takes as its ``seed``. Every program here is
    feasible and its seed rows bound it, so a working set that does not
    solve to OPTIMAL is a bug and raises AssertionError.
    """
    check_enum_limit(game.n, f"building {what}")
    n = game.n
    full = (1 << n) - 1
    problem = LpProblem(len(objective), objective, bounds)

    # the table first: an MstGame then reads the seed rows' costs from it
    table, d = game.scaled_table()

    def add(bits: int) -> None:
        row = dict.fromkeys((i - 1 for i in bits_members(bits)), 1)
        if slack is not None:
            row[slack] = -1
        problem.add(row, game.cost_bits(bits))

    working = set(game.seed_coalitions()).union(seed)
    _ensure(working.isdisjoint((0, full)), f"{what}: a seed row is not a proper coalition")
    for bits in sorted(working):
        add(bits)
    if grand is not None:
        problem.add(dict.fromkeys(range(n), grand), grand * game.cost_bits(full))

    while True:
        solution = solve(problem)
        _ensure(solution.is_optimal, f"{what} came back {solution.status} over its rows")
        point, scale = over_common_denominator(solution.point, d)
        off = 0 if slack is None else point[slack]
        factor = scale // d
        excess = [a - off - factor * c for a, c in zip(subset_sums(point[:n]), table)]
        violated = heapq.nlargest(
            n, [b for b in range(1, full) if excess[b] > 0], key=excess.__getitem__
        )
        if not violated:
            return solution, working
        # every point satisfies its rows, so a scan that disagrees would loop forever
        _ensure(working.isdisjoint(violated), f"{what}: the scan contradicts a working-set row")
        working.update(violated)
        for bits in violated:
            add(bits)


def _almost_core(
    game: Game, require_nonneg: bool
) -> tuple[Fraction, tuple[Fraction, ...], set[int]]:
    """The almost-core optimum, a maximizer and the program's final working set."""
    _require_multi_agent(game, "almost-core maximization")
    n = game.n
    solution, rows = _solve_coalitions(
        game, [_ONE] * n, [_ZERO] * n if require_nonneg else None, what="the almost-core program"
    )
    return solution.value, solution.point, rows


def almost_core_optimum(
    game: Game, require_nonneg: bool = False
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """The exact almost-core optimum and one maximizer.

    With ``require_nonneg`` the agents must not be subsidized (x >= 0).
    """
    return _almost_core(game, require_nonneg)[:2]


def core_optimum(game: Game, objective: Sequence[object]) -> LpSolution:
    """max objective . x over the stability constraints of every nonempty coalition.

    The program is feasible (lower shares violate no row). A negative
    objective coefficient makes it unbounded, since lowering that share
    violates no row either; otherwise the singleton rows bound it.
    """
    if len(objective) != game.n:
        raise ValueError("objective length does not match the game")
    if any(as_rational(v) < 0 for v in objective):
        return LpSolution(LpStatus.UNBOUNDED)
    return _solve_coalitions(game, objective, what="the core program", grand=1)[0]


def _lower_to(x: Sequence[Fraction], total: Fraction) -> tuple[Fraction, ...]:
    """x lowered to total ``total``: the excess comes off the shares from agent 1
    upward, pushing none below 0, and any remainder off agent 1."""
    over, lowered = sum(x, _ZERO) - total, []
    for v in x:
        cut = min(over, max(v, _ZERO))
        lowered.append(v - cut)
        over -= cut
    return tuple(v - over if i == 0 else v for i, v in enumerate(lowered))


class _Shareable(NamedTuple):
    """What follows from m = min(a, c(N)) = max x(N) over every stability
    constraint, N included, and its maximizer x_m (module docstring)."""

    almost_core: tuple[Fraction, tuple[Fraction, ...]]  # (a, x_a); (m, x_m) at n <= 1
    rows: set[int]  # the almost-core program's final working set; empty at n <= 1
    maximizer: tuple[Fraction, ...]
    core: tuple[Fraction, ...] | None  # the maximizer when m = c(N)
    # c(N)/m - 1, the maximizer scaled by c(N)/m
    mult: tuple[Fraction, tuple[Fraction, ...]] | None
    gamma: Fraction | None  # m / c(N)
    cost_of_stability: Fraction  # c(N) - m
    weak_core_eps: tuple[Fraction, tuple[Fraction, ...]]  # (c(N) - m)/n, x_m + eps
    # c(N) - m, (x_m + t, t) with t the whole subsidy on agent 1
    extended_core_delta: tuple[Fraction, tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]


def _max_shareable(game: Game) -> _Shareable:
    n = game.n
    c_grand = game.grand_cost()
    # the almost-core program is undefined at n <= 1: there (m, x_m) is the core (value, point)
    if n > 1:
        a, x_a, rows = _almost_core(game, False)
    else:
        (a, x_a), rows = core_optimum(game, [_ONE] * n)[1:3], set()
    m = min(a, c_grand)
    x = _lower_to(x_a, m)
    if m == c_grand:
        mult = _ZERO, x
    elif m == 0:
        mult = None
    else:
        factor = c_grand / m
        mult = factor - 1, tuple(factor * v for v in x)
    gamma = None if c_grand == 0 else m / c_grand
    cos = c_grand - m
    eps_w = cos / n if n else cos  # no agents: c(N) = m = 0
    t = tuple(cos if i == 0 else _ZERO for i in range(n))
    return _Shareable(
        (a, x_a), rows, x, x if m == c_grand else None, mult, gamma, cos,
        (eps_w, tuple(v + eps_w for v in x)), (cos, (tuple(v + s for v, s in zip(x, t)), t)),
    )


def core_nonempty(game: Game) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Decide core nonemptiness; on success return a budget-balanced stable witness.

    The core is nonempty exactly when the almost-core optimum reaches c(N),
    and x_a lowered to total c(N) is then a core element (module docstring).
    """
    core = _max_shareable(game).core
    return core is not None, core


def least_core_eps(
    game: Game, *, rows: Iterable[int] = ()
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Smallest uniform additive relaxation (the least-core value) and a witness:
    min eps >= 0 with x(S) - eps <= c(S) for proper S and x(N) = c(N),
    solved with x(N) >= c(N) and x lowered to x(N) = c(N) by ``_lower_to``.

    ``rows`` names proper coalitions, as bitmasks, whose rows join the seed
    rows of the program's first solve. They can change the witness, never
    eps; a value that is not a proper coalition raises ValueError.
    """
    n = game.n
    full = (1 << n) - 1
    rows = tuple(rows)
    for bits in rows:
        if not (isinstance(bits, int) and 0 < bits < full):
            raise ValueError(f"row {bits!r} is not a proper coalition of {n} agents")
    solution, _ = _solve_coalitions(
        game, [_ZERO] * n + [-_ONE], [None] * n + [_ZERO], what="the least-core program",
        slack=n, grand=-1, seed=rows,
    )
    return -solution.value, _lower_to(solution.point[:n], game.grand_cost())


def weak_core_eps(game: Game) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Smallest per-capita additive relaxation, eps scaled by coalition size,
    and a witness: (c(N) - m)/n, with m = min(a, c(N)) (module docstring)."""
    return _max_shareable(game).weak_core_eps


def gamma_approx(game: Game) -> tuple[Fraction, tuple[Fraction, ...]]:
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


def extended_core_delta(
    game: Game,
) -> tuple[Fraction, tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Minimum total subsidy t(N) restoring stability, with a witness (x, t).

    The witness satisfies t >= 0, x(N) = c(N), and (x - t)(S) <= c(S) for
    every proper coalition. The minimum is c(N) - m, m = min(a, c(N)), all
    of it on agent 1 (module docstring).
    """
    return _max_shareable(game).extended_core_delta


class RelaxationReport(NamedTuple):
    """Every relaxation optimum for one game (see :func:`full_report`).

    Each ``*_allocation`` field, ``extended_core_x`` and ``extended_core_t``
    is a tuple of n Fractions, agent i's share at index i - 1.
    """

    n: int
    c_grand: Fraction
    core_nonempty: bool
    core_allocation: tuple[Fraction, ...] | None
    ac_opt: Fraction
    ac_opt_allocation: tuple[Fraction, ...]
    ac_opt_nonneg: Fraction
    ac_opt_nonneg_allocation: tuple[Fraction, ...]
    eps_strong: Fraction
    eps_strong_allocation: tuple[Fraction, ...]
    eps_weak: Fraction
    eps_weak_allocation: tuple[Fraction, ...]
    eps_mult: Fraction | None
    eps_mult_allocation: tuple[Fraction, ...] | None
    gamma_approx: Fraction | None
    gamma_allocation: tuple[Fraction, ...] | None
    cost_of_stability: Fraction
    extended_core_delta: Fraction
    extended_core_x: tuple[Fraction, ...]
    extended_core_t: tuple[Fraction, ...]


def full_report(game: Game) -> RelaxationReport:
    """Compute all relaxation quantities and check the relations between programs.

    One certified almost-core solve (a, x_a) gives the core and its witness,
    gamma, eps_m, the cost of stability, the weak epsilon and the minimum
    subsidy (module docstring). The least core and the nonnegative
    almost-core optimum run their own programs only when the report does
    not hold them, so a report runs 1 to 3 programs; the least core starts
    from the final rows of the program solved before it. eps_w <= eps_s <=
    (n-1) eps_w is checked; on an empty core, gamma must be defined
    (c(N) > 0), which only negative costs can break. Raises
    PreconditionError at n <= 1, where the almost core is unbounded.
    """
    _require_multi_agent(game, "almost-core maximization")
    n = game.n
    c_grand = game.grand_cost()
    shareable = _max_shareable(game)
    has_core = shareable.core is not None
    mult, gamma = shareable.mult, shareable.gamma
    ac_val, ac_x = shareable.almost_core
    # rows: the final working set of the last program solved
    acn_val, acn_x, rows = (
        (ac_val, ac_x, shareable.rows) if min(ac_x) >= 0 else _almost_core(game, True)
    )
    eps_s, eps_s_x = (_ZERO, shareable.core) if has_core else least_core_eps(game, rows=rows)
    eps_w, eps_w_x = shareable.weak_core_eps
    delta_ec, (ec_x, ec_t) = shareable.extended_core_delta

    _ensure(eps_w <= eps_s, "weak epsilon exceeded the strong epsilon")
    _ensure((n - 1) * eps_w >= eps_s, "strong epsilon exceeded (n-1) times the weak epsilon")
    if not has_core:
        _ensure(gamma is not None, "empty core forces c(N) > 0, gamma must be defined")

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
        cost_of_stability=shareable.cost_of_stability,
        extended_core_delta=delta_ec,
        extended_core_x=ec_x,
        extended_core_t=ec_t,
    )


class SeparationResult(NamedTuple):
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
    """Both separation variants: one query when x(N) <= c(N), else at most n.

    Query k is x lowered in coordinate k by over = max(x(N) - c(N), 0).
    ``game`` turns on the nonnegative variant's shortcut, which reports N
    minus k when lowering coordinate k would take it below zero.
    """
    n = len(shares)
    total = sum(shares, _ZERO)
    over = max(total - c_n, _ZERO)
    for k in range(n if over else 1):  # with over = 0 the one query is x itself
        if over and game is not None and shares[k] < over:
            # x(N \ {k}) > c(N) >= c(N \ {k}): that coalition is violated as is.
            bits = ((1 << n) - 1) ^ (1 << k)
            amount = total - shares[k] - game.cost_bits(bits)
            return SeparationResult(False, Coalition(bits, n), amount)
        result = core_sep(shares[:k] + (shares[k] - over,) + shares[k + 1 :] if over else shares)
        if not result.member:
            if result.coalition is None or result.coalition.bits == (1 << n) - 1:
                raise PreconditionError(
                    "core oracle failed: no proper coalition reported for a query "
                    "point with total at most c(N)"
                )
            amount = result.amount
            if (result.coalition.bits >> k) & 1:
                amount += over
            return SeparationResult(False, result.coalition, amount)
    return SeparationResult(True)


def separate_almost_core(
    xhat: Sequence[object], core_sep: CoreOracle, c_grand: object
) -> SeparationResult:
    """Almost-core membership via queries to a core separation oracle: one
    when x(N) <= c(N), else at most n.

    Query k is the candidate lowered in coordinate k by the common excess
    x(N) - c(N), or the candidate itself when that is not positive. A
    violated proper coalition found at query k lifts to the candidate with
    the excess added back when it contains k; if every query passes, the
    candidate satisfies every proper-coalition constraint.
    """
    return _lift(tuple(as_rational(v) for v in xhat), as_rational(c_grand), core_sep)


def separate_almost_core_nonneg(
    xhat: Sequence[object], core_sep: CoreOracle, game: Game
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
    shares = tuple(_query_point(xhat, game.n))
    for i, v in enumerate(shares):
        if v < 0:
            return SeparationResult(False, negative_agent=i + 1, amount=-v)
    return _lift(shares, game.grand_cost(), core_sep, game)
