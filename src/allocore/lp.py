"""Exact linear programming on sparse integer rows.

A two-phase primal simplex with Bland's anti-cycling rule. Problems are
stated as max c . x subject to A x <= b, each variable either free (lower
bound None) or nonnegative (lower bound 0); a row a . x >= b is added as
-a . x <= -b, and an equality as two such rows. A free variable is the
difference of a positive and a negative part, both nonnegative, so every
returned optimum is a vertex of the feasible region augmented by the
x >= 0 bounds. The negative part has a virtual column, the index after the
positive part's, and is never stored: row operations keep it -1 times the
positive part's column in every row and in the cost row, so entering,
the ratio test and the pivot read that column with sign -1. Basis, pivot
trace and column order are in virtual indices, those of the split tableau.

A row is a map from variable index to coefficient ({0: 1, 3: -2} is
x0 - 2 x3); absent variables read 0. ``add`` scales each row to integers
once; a row of int coefficients needs only its rhs's denominator. A stored
``Constraint`` keeps the nonzero entries, in ascending variable order, in a
read-only mapping of numerators over ``den``, the lcm of the row's
denominators, so ``solve`` and ``verify_point`` visit nothing else and
nothing can change a row after ``add`` checked it. The objective
and the lower bounds are dense tuples, one entry per variable.

The tableau keeps each row as a dict of its nonzero integer numerators
over one positive integer denominator of its own. A problem is append-only:
its variables, objective and bounds are fixed at construction, and ``add``
translates each row into its tableau row (columns, slack, sign, rhs and
den) as it stores it, so a solve only copies the rows, and row generation,
which appends rows between solves, translates each row once. One loop does
every row update: a pivot clears its column from the other rows and the
cost row with it, and pricing out the objective runs through it too. It
touches only the rows with a nonzero in the pivot column and does only
integer arithmetic (row i becomes (p * row_i - f * pivot_row) / (q_i * p),
then is divided by the gcd of its entries). Every tableau entry is the same
rational as in a dense Fraction tableau, so the pivot choices, and the
returned values, are those of the textbook method. The optimum is read out
on integers: a variable's two parts are never both basic, so x is the
basic right-hand sides over p, the lcm of those rows' denominators, and
its value is one integer dot product with the objective over its common
denominator d, divided by d * p. Values are handed back as
fractions.Fraction, one built per nonzero coordinate, and every optimum is
checked with verify_point, which also compares integers: each stored row
against the point over its common denominator. No floating point is used
anywhere. Column and row order are fixed and there is no presolve, so
identical problems give identical solutions.

Row r has a slack column, the r-th after the structural ones. The slack
columns have full row rank, so phase 1 never drops a row, and every
optimum carries its dual certificate: y_r is minus the reduced cost of row
r's slack column in the final cost row (negating a row with a negative
rhs negates its slack column and its tableau multiplier alike, so the sign
holds). Only rows whose slack has a nonzero reduced cost are visited, and
no Fraction is built for a zero multiplier. ``solve`` checks the
certificate on integers next to verify_point: y >= 0, (A^T y)_j = c_j on
free columns and >= c_j on x >= 0 columns, and b . y equals the value,
which proves the point optimal.
"""

from __future__ import annotations

import enum
import operator
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .games import as_rational, over_common_denominator

_ZERO = Fraction(0)


class Constraint(NamedTuple):
    """The row sum(coef[i] * x_i) <= rhs, every number over den > 0."""

    coef: Mapping[int, int]  # read-only; nonzeros only, ascending variable index
    rhs: int
    den: int


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpSolution(NamedTuple):
    status: LpStatus
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None  # one per stored row; every optimum

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


class LpProblem:
    """max objective . x subject to <= rows, each variable free or x_i >= 0.

    num_vars, the objective and the lower bounds are fixed and checked at
    construction; ``add`` is the only change, and it appends a row."""

    def __init__(
        self,
        num_vars: int,
        objective: Sequence[object],
        lower_bounds: Sequence[object | None] | None = None,
    ):
        if isinstance(num_vars, bool) or not isinstance(num_vars, int):
            raise TypeError(f"num_vars must be an int, got {type(num_vars).__name__}")
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        self._objective = tuple(as_rational(v) for v in objective)
        if len(self._objective) != num_vars:
            raise ValueError("objective length does not match num_vars")
        if lower_bounds is None:
            lower_bounds = (None,) * num_vars
        if len(lower_bounds) != num_vars:
            raise ValueError("lower_bounds length does not match num_vars")
        bounds = tuple(None if b is None else as_rational(b) for b in lower_bounds)
        if any(bounds):  # None and 0 are the only falsy entries
            raise ValueError("each lower bound must be 0 or None (free)")
        self._num_vars = num_vars
        self._lower_bounds = bounds
        self._constraints: list[Constraint] = []
        # Virtual column layout: one column per nonnegative variable, two per
        # free variable (positive and negative parts); only the first is stored.
        col_var: list[tuple[int, int]] = []  # (variable index, sign)
        first_col: list[int] = []
        for i, lb in enumerate(bounds):
            first_col.append(len(col_var))
            col_var.append((i, 1))
            if lb is None:
                col_var.append((i, -1))
        self._col_var, self._first_col = col_var, first_col
        self._free = frozenset(first_col[i] for i, lb in enumerate(bounds) if lb is None)
        # solve's tableau rows, one (coef, rhs, den, basic column or -1) per
        # constraint; row r's slack is column len(col_var) + r
        self._rows: list[tuple[dict[int, int], int, int, int]] = []

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def objective(self) -> tuple[Fraction, ...]:
        return self._objective

    @property
    def lower_bounds(self) -> tuple[Fraction | None, ...]:
        return self._lower_bounds

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints)

    def add(self, coeffs: Mapping[int, object], rhs: object) -> None:
        """Add the row sum(coeffs[i] * x_i) <= rhs.

        ``coeffs`` maps variable indices in 0..num_vars-1 to coefficients;
        absent variables read 0 and zero coefficients are dropped. A row
        that fails a check leaves the problem as it was.
        """
        row = {}
        last, ascending, ints = -1, True, True  # builders emit ascending keys; sort only other rows
        for i, v in coeffs.items():
            if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < self._num_vars:
                raise ValueError(f"variable index {i!r} not in 0..{self._num_vars - 1}")
            ascending = ascending and i > last
            last = i
            if type(v) is not int:  # a bool is no int here, so it still fails
                v = as_rational(v)
                ints = False
            if v:
                row[i] = v
        if not ascending:
            row = dict(sorted(row.items()))
        b = as_rational(rhs)
        if ints:  # the lcm of the denominators is the rhs's
            den, num = b.denominator, b.numerator
            coef = {i: c * den for i, c in row.items()} if den != 1 else row
        else:
            nums, den = over_common_denominator([*row.values(), b])
            coef, num = dict(zip(row, nums)), nums[-1]
        self._constraints.append(Constraint(MappingProxyType(coef), num, den))
        # The tableau row: the row's slack column, +1 over den, and a row
        # with a negative rhs is negated. Its basic column is then the slack
        # when it still reads +1, otherwise an artificial one, which solve
        # adds after all real columns.
        first_col = self._first_col
        tcoef = {first_col[i]: c for i, c in coef.items()}
        slack = len(self._col_var) + len(self._rows)
        tcoef[slack] = den
        basic = slack if num >= 0 else -1
        if num < 0:
            tcoef = {j: -v for j, v in tcoef.items()}
        self._rows.append((tcoef, abs(num), den, basic))


class VerifyResult(NamedTuple):
    feasible: bool
    violated_constraints: tuple[int, ...]
    violated_bounds: tuple[int, ...]


def verify_point(problem: LpProblem, point: Sequence[object]) -> VerifyResult:
    """Exact feasibility report for a candidate point.

    The check runs on integers: the point is scaled once to its common
    denominator P, and each stored row, whose integers are over its own
    den, is compared as sum(coef[i] * P * x_i) <= rhs * P.
    """
    x = [as_rational(v) for v in point]
    if len(x) != problem.num_vars:
        raise ValueError("point length does not match num_vars")
    xs, p = over_common_denominator(x)
    bad_rows = []
    for idx, con in enumerate(problem.constraints):
        coef = con.coef
        lhs = sum(map(operator.mul, coef.values(), map(xs.__getitem__, coef)))
        if lhs > con.rhs * p:
            bad_rows.append(idx)
    bad_bounds = [
        i
        for i, (v, lb) in enumerate(zip(x, problem.lower_bounds))
        if lb is not None and v < 0
    ]
    return VerifyResult(not bad_rows and not bad_bounds, tuple(bad_rows), tuple(bad_bounds))


class _Row:
    """A tableau row: stored column j holds coef[j] / den and the right-hand
    side is rhs / den, with den > 0. Only nonzero entries are stored."""

    __slots__ = ("coef", "rhs", "den")

    def __init__(self, coef: dict[int, int], rhs: int, den: int):
        self.coef = coef
        self.rhs = rhs
        self.den = den


def _clear(prow: _Row, c: int, sign: int, rows) -> None:
    """Clear stored column c from each row of ``rows`` other than prow:
    subtract the multiple of prow that zeroes it, then divide by the gcd of
    the denominator and numerators. prow reads 1 in the pivot's virtual
    column, so prow.coef[c] is sign * prow.den, sign being -1 when that
    column is the negative part of c."""
    p, prhs, pitems = prow.den, prow.rhs, tuple(prow.coef.items())
    for row in rows:
        coef = row.coef
        if c not in coef or row is prow:
            continue
        f = sign * coef[c]
        if p != 1:
            coef = {j: v * p for j, v in coef.items()}
        for j, v in pitems:  # column c nets f * p - f * p = 0
            w = coef.get(j, 0) - f * v
            if w:
                coef[j] = w
            else:
                del coef[j]
        rhs = p * row.rhs - f * prhs
        den = row.den * p
        if den != 1:
            g = gcd(den, rhs, *coef.values())
            if g > 1:
                coef = {j: v // g for j, v in coef.items()}
                rhs //= g
                den //= g
        row.coef, row.rhs, row.den = coef, rhs, den


class _Tableau:
    """Simplex tableau over virtual columns. Column basis[r] reads 1 in row r
    and 0 in every other row; cost holds the reduced costs, whose signs pick
    the entering column. A free variable's negative part, the virtual column
    after its positive part j, is -1 times column j in every row and in the
    cost row, so only column j is stored; ``free`` holds those j."""

    def __init__(self, rows: list[_Row], basis: list[int], cost: _Row, free: frozenset[int]):
        """Take the objective row ``cost`` and price it out against the basic
        columns, so that it holds the reduced costs."""
        self.rows = rows
        self.basis = basis
        self.cost = cost
        self.free = free
        for row, bcol in zip(rows, basis):
            c, sign = self.stored(bcol)
            if c in cost.coef:
                _clear(row, c, sign, (cost,))

    def stored(self, c: int) -> tuple[int, int]:
        """(stored column, sign) of virtual column c."""
        return (c - 1, -1) if c - 1 in self.free else (c, 1)

    def pivot(self, r: int, c: int) -> None:
        """Pivot on (r, c), c a virtual column: scale row r to read 1 in
        column c, then clear column c from every other row and from the
        cost row."""
        col, sign = self.stored(c)
        prow = self.rows[r]
        p = prow.coef[col] * sign
        if p < 0:
            prow.coef = {j: -v for j, v in prow.coef.items()}
            prow.rhs = -prow.rhs
            p = -p
        if p != 1:
            g = gcd(p, prow.rhs, *prow.coef.values())
            if g > 1:
                prow.coef = {j: v // g for j, v in prow.coef.items()}
                prow.rhs //= g
                p //= g
        prow.den = p
        _clear(prow, col, sign, chain(self.rows, (self.cost,)))
        self.basis[r] = c

    def run_simplex(self) -> str:
        """Bland-rule primal simplex; mutates the tableau in place.

        Returns "optimal" or "unbounded". The entering column is the smallest
        virtual one with a positive reduced cost (a free column's negative
        reduced cost offers its negative part); the leaving row has the
        smallest ratio rhs / a over rows with a > 0 (row denominators
        cancel), ties going to the smaller basis index.
        """
        rows, basis, free = self.rows, self.basis, self.free
        while True:
            enter = min(
                (j if v > 0 else j + 1 for j, v in self.cost.coef.items() if v > 0 or j in free),
                default=-1,
            )
            if enter < 0:
                return "optimal"
            col, sign = self.stored(enter)
            leave = -1
            for r, row in enumerate(rows):
                a = sign * row.coef.get(col, 0)
                if a > 0:
                    if leave < 0:
                        leave, best_rhs, best_a = r, row.rhs, a
                        continue
                    lhs, rhs = row.rhs * best_a, best_rhs * a
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                        leave, best_rhs, best_a = r, row.rhs, a
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)


def solve(problem: LpProblem) -> LpSolution:
    """Exact optimum, or an Infeasible/Unbounded verdict.

    Deterministic: identical problems yield bit-identical solutions.
    """
    # Copies of the rows add built, with an artificial column for each row
    # that has no basic slack.
    built = problem._rows
    width = len(problem._col_var) + len(built)
    rows = [_Row(coef.copy(), rhs, den) for coef, rhs, den, _ in built]
    basis = [basic for *_, basic in built]
    art_rows = [r for r, basic in enumerate(basis) if basic < 0]
    for k, r in enumerate(art_rows):
        basis[r] = width + k
        rows[r].coef[width + k] = rows[r].den

    if art_rows:
        # Phase 1: maximize -(sum of artificials).
        cost = _Row({width + k: -1 for k in range(len(art_rows))}, 0, 1)
        tab = _Tableau(rows, basis, cost, problem._free)
        verdict = tab.run_simplex()
        if verdict != "optimal":  # the phase-1 objective is bounded by 0
            raise AssertionError("phase 1 cannot be unbounded")
        # Right-hand sides stay nonnegative, so the optimum is 0 exactly
        # when every artificial still in the basis sits at 0.
        if any(row.rhs for row, bcol in zip(rows, basis) if bcol >= width):
            return LpSolution(LpStatus.INFEASIBLE)
        # Drive remaining artificials out of the basis, each on its row's
        # smallest real column; the slack columns give every row one. A stored
        # column precedes its virtual negative part, so the smallest stored
        # real column is the smallest nonzero virtual one.
        for r, bcol in enumerate(basis):
            if bcol >= width:
                tab.pivot(r, min(j for j in rows[r].coef if j < width))
        for row in rows:
            row.coef = {j: v for j, v in row.coef.items() if j < width}

    # Phase 2: the real objective over the current basis.
    obj, d = over_common_denominator(problem.objective)
    cost = _Row({problem._first_col[i]: c for i, c in enumerate(obj) if c}, 0, d)
    tab = _Tableau(rows, basis, cost, problem._free)
    verdict = tab.run_simplex()
    if verdict == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)

    # x as integers over p: a variable's two columns are never both basic.
    col_var = problem._col_var
    basic = [(row, bcol) for row, bcol in zip(rows, basis) if bcol < len(col_var) and row.rhs]
    p = lcm(*(row.den for row, _ in basic))
    xs = [0] * problem.num_vars
    for row, bcol in basic:
        i, sign = col_var[bcol]
        xs[i] = sign * row.rhs * (p // row.den)
    value = Fraction(sum(map(operator.mul, obj, xs)), d * p)
    point = tuple(Fraction(v, p) if v else _ZERO for v in xs)

    check = verify_point(problem, point)
    if not check.feasible:  # exact arithmetic: this would be a solver bug
        raise AssertionError(
            f"simplex returned an infeasible point: rows {check.violated_constraints}, "
            f"bounds {check.violated_bounds}"
        )
    support = _dual_support(tab.cost, len(col_var))
    duals = _check_duals(problem, support, tab.cost.den, obj, d, value)
    return LpSolution(LpStatus.OPTIMAL, value, point, duals)


def _dual_support(cost: _Row, first_slack: int) -> dict[int, int]:
    """Row r's multiplier, an integer over cost.den, for each row r with a
    nonzero one: minus the reduced cost of its slack column first_slack + r."""
    return {j - first_slack: -v for j, v in cost.coef.items() if j >= first_slack}


def _check_duals(
    problem: LpProblem, support: dict[int, int], den: int, obj: list[int], d: int,
    value: Fraction,
) -> tuple[Fraction, ...]:
    """The duals y_r = support[r] / den, 0 off the support, once they
    certify ``value`` as the optimum of the objective obj / d;
    AssertionError if they do not. The check runs on integers over L, the
    lcm of the support rows' denominators: y_r * A_r is
    support[r] * (L / den_r) * coef over den * L."""
    negative = sorted(r for r, y in support.items() if y < 0)
    if negative:
        raise AssertionError(f"negative dual multiplier on rows {negative}")
    cons = problem._constraints
    scale = lcm(*(cons[r].den for r in support))
    aty = [0] * problem._num_vars
    by = 0
    for r, y in support.items():
        con = cons[r]
        f = y * (scale // con.den)
        by += f * con.rhs
        for i, a in con.coef.items():
            aty[i] += f * a
    # (A^T y)_i = aty[i] / (den * scale) against c_i = obj[i] / d
    scale *= den
    short = [
        i for i, (a, c, lb) in enumerate(zip(aty, obj, problem._lower_bounds))
        if (a * d != c * scale if lb is None else a * d < c * scale)
    ]
    if short:
        raise AssertionError(f"duals miss the objective on variables {short}")
    if by * value.denominator != value.numerator * scale:
        raise AssertionError(f"dual value {Fraction(by, scale)} differs from the optimum {value}")
    duals = [_ZERO] * len(cons)
    for r, y in support.items():
        duals[r] = Fraction(y, den)
    return tuple(duals)
