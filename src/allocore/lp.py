"""Exact linear programming on sparse integer rows.

A two-phase primal simplex with Bland's anti-cycling rule. Problems are
stated as maximization with mixed <=, ==, >= rows and optional
per-variable lower bounds (None = free). Free variables are split into
differences of nonnegatives internally, so every returned optimum is a
vertex of the feasible region augmented by the bound constraints.

A row is a map from variable index to coefficient ({0: 1, 3: -2} is
x0 - 2 x3); absent variables read 0. ``add`` scales each row to integers
once: a stored ``Constraint`` keeps the nonzero entries, in ascending
variable order, in a read-only mapping of numerators over ``den``, the lcm
of the row's denominators, so ``solve`` and ``verify_point`` visit nothing
else and nothing can change a row after ``add`` checked it. The objective
and the lower bounds are dense, one entry per variable.

The tableau keeps each row as a dict of its nonzero integer numerators
over one positive integer denominator of its own, so a pivot touches only
the rows with a nonzero in the pivot column and does only integer
arithmetic (row i becomes (p * row_i - f * pivot_row) / (q_i * p), then is
divided by the gcd of its entries). Every tableau entry is the same
rational as in a dense Fraction tableau, so the pivot choices, and the
returned values, are those of the textbook method; values are handed back
as fractions.Fraction and every optimum is checked with verify_point,
which also compares integers: each stored row against the point over its
common denominator. No floating point is used
anywhere. Column and row order are fixed and there is no presolve, so
identical problems give identical solutions.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Mapping, Sequence

from .games import as_rational, over_common_denominator

_ZERO = Fraction(0)

LE = "<="
EQ = "=="
GE = ">="
_RELATIONS = (LE, EQ, GE)
_HOLDS = {LE: operator.le, EQ: operator.eq, GE: operator.ge}


@dataclass(frozen=True, slots=True)
class Constraint:
    """The row sum(coef[i] * x_i) (relation) rhs, every number over den > 0."""

    coef: Mapping[int, int]  # read-only; nonzeros only, ascending variable index
    relation: str
    rhs: int
    den: int


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, slots=True)
class LpSolution:
    status: LpStatus
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


class LpProblem:
    """max objective . x subject to rows and optional variable lower bounds."""

    def __init__(
        self,
        num_vars: int,
        objective: Sequence[object],
        lower_bounds: Sequence[object | None] | None = None,
    ):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        self.num_vars = num_vars
        self.objective = tuple(as_rational(v) for v in objective)
        if len(self.objective) != num_vars:
            raise ValueError("objective length does not match num_vars")
        if lower_bounds is None:
            self.lower_bounds: list[Fraction | None] = [None] * num_vars
        else:
            if len(lower_bounds) != num_vars:
                raise ValueError("lower_bounds length does not match num_vars")
            self.lower_bounds = [
                None if b is None else as_rational(b) for b in lower_bounds
            ]
        self.constraints: list[Constraint] = []

    def add(self, coeffs: Mapping[int, object], relation: str, rhs: object) -> None:
        """Add the row sum(coeffs[i] * x_i) (relation) rhs.

        ``coeffs`` maps variable indices in 0..num_vars-1 to coefficients;
        absent variables read 0 and zero coefficients are dropped.
        """
        if relation not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}")
        row = {}
        for i, v in sorted(coeffs.items()):
            if not isinstance(i, int) or not 0 <= i < self.num_vars:
                raise ValueError(f"variable index {i!r} not in 0..{self.num_vars - 1}")
            c = as_rational(v)
            if c:
                row[i] = c
        nums, den = over_common_denominator([*row.values(), as_rational(rhs)])
        coef = MappingProxyType(dict(zip(row, nums)))
        self.constraints.append(Constraint(coef, relation, nums[-1], den))


@dataclass(frozen=True, slots=True)
class VerifyResult:
    feasible: bool
    violated_constraints: tuple[int, ...]
    violated_bounds: tuple[int, ...]


def verify_point(problem: LpProblem, point: Sequence[object]) -> VerifyResult:
    """Exact feasibility report for a candidate point.

    The check runs on integers: the point is scaled once to its common
    denominator P, and each stored row, whose integers are over its own
    den, is compared as sum(coef[i] * P * x_i) (relation) rhs * P.
    """
    x = [as_rational(v) for v in point]
    if len(x) != problem.num_vars:
        raise ValueError("point length does not match num_vars")
    xs, p = over_common_denominator(x)
    bad_rows = []
    for idx, con in enumerate(problem.constraints):
        lhs = sum(c * xs[i] for i, c in con.coef.items())
        if not _HOLDS[con.relation](lhs, con.rhs * p):
            bad_rows.append(idx)
    bad_bounds = [
        i
        for i, (v, lb) in enumerate(zip(x, problem.lower_bounds))
        if lb is not None and v < lb
    ]
    return VerifyResult(not bad_rows and not bad_bounds, tuple(bad_rows), tuple(bad_bounds))


class _Row:
    """A tableau row: column j holds coef[j] / den and the right-hand side is
    rhs / den, with den > 0. Only nonzero entries are stored."""

    __slots__ = ("coef", "rhs", "den")

    def __init__(self, coef: dict[int, int], rhs: int, den: int):
        self.coef = coef
        self.rhs = rhs
        self.den = den

    def reduce(self) -> None:
        """Divide the row by the gcd of its denominator and numerators."""
        if self.den == 1:
            return
        g = gcd(self.den, self.rhs, *self.coef.values())
        if g > 1:
            self.coef = {j: v // g for j, v in self.coef.items()}
            self.rhs //= g
            self.den //= g

    def eliminate(self, prow: _Row, c: int) -> None:
        """Subtract the multiple of prow that clears column c; prow reads 1 there."""
        coef = self.coef
        f = coef.pop(c)
        p = prow.den
        if p != 1:
            for j in coef:
                coef[j] *= p
        for j, v in prow.coef.items():
            if j != c:
                w = coef.get(j, 0) - f * v
                if w:
                    coef[j] = w
                else:
                    del coef[j]
        self.rhs = p * self.rhs - f * prow.rhs
        self.den *= p
        self.reduce()


class _Tableau:
    """Simplex tableau. Column basis[r] reads 1 in row r and 0 in every other
    row; cost holds the reduced costs, whose signs pick the entering column."""

    def __init__(self, rows: list[_Row], basis: list[int], cost: _Row):
        self.rows = rows
        self.basis = basis
        self.cost = cost

    def pivot(self, r: int, c: int) -> None:
        """Pivot on (r, c): scale row r to read 1 in column c, then clear
        column c from every other row and from the cost row."""
        prow = self.rows[r]
        p = prow.coef[c]
        if p < 0:
            prow.coef = {j: -v for j, v in prow.coef.items()}
            prow.rhs = -prow.rhs
            p = -p
        prow.den = p
        prow.reduce()
        for i, row in enumerate(self.rows):
            if i != r and c in row.coef:
                row.eliminate(prow, c)
        if c in self.cost.coef:
            self.cost.eliminate(prow, c)
        self.basis[r] = c

    def run_simplex(self) -> str:
        """Bland-rule primal simplex; mutates the tableau in place.

        Returns "optimal" or "unbounded". The entering column is the smallest
        one with a positive reduced cost; the leaving row has the smallest
        ratio rhs / a over rows with a > 0 (row denominators cancel), ties
        going to the smaller basis index.
        """
        rows, basis = self.rows, self.basis
        while True:
            enter = min((j for j, v in self.cost.coef.items() if v > 0), default=-1)
            if enter < 0:
                return "optimal"
            leave = -1
            for r, row in enumerate(rows):
                a = row.coef.get(enter, 0)
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
    # Column layout: one column per bounded variable (shifted by its lower
    # bound), two per free variable (positive and negative parts).
    col_var: list[tuple[int, int]] = []  # (variable index, sign)
    first_col: list[int] = []
    shift: list[Fraction] = []
    for i, lb in enumerate(problem.lower_bounds):
        first_col.append(len(col_var))
        col_var.append((i, 1))
        if lb is None:
            col_var.append((i, -1))
        shift.append(_ZERO if lb is None else lb)
    nstruct = len(col_var)
    low, scale = over_common_denominator(shift)  # the lower bounds over L

    def columns(coef: Mapping[int, int]) -> dict[int, int]:
        """The nonzero integers of a row or objective, by column, times L."""
        entries = {}
        for i, c in coef.items():
            c *= scale
            entries[first_col[i]] = c
            if problem.lower_bounds[i] is None:
                entries[first_col[i] + 1] = -c
        return entries

    # x = y + low / L turns a stored row coef . x (relation) rhs over den into
    # L coef . y (relation) L rhs - coef . low over den L; slack +1 (<=) or -1 (>=).
    rows: list[_Row] = []
    slack_col_of_row: list[int | None] = []
    width = nstruct
    for con in problem.constraints:
        b = con.rhs * scale - sum(c * low[i] for i, c in con.coef.items() if low[i])
        row = _Row(columns(con.coef), b, con.den * scale)
        scol = None
        if con.relation != EQ:
            scol = width
            width += 1
            row.coef[scol] = row.den if con.relation == LE else -row.den
        if b < 0:
            row.coef = {j: -v for j, v in row.coef.items()}
            row.rhs = -row.rhs
        rows.append(row)
        slack_col_of_row.append(scol)

    # Initial basis: use the slack where it survived with coefficient +1,
    # otherwise an artificial column (appended after all real columns).
    basis: list[int] = []
    art_rows: list[int] = []
    for r, (row, scol) in enumerate(zip(rows, slack_col_of_row)):
        if scol is not None and row.coef[scol] > 0:
            basis.append(scol)
        else:
            basis.append(width + len(art_rows))
            row.coef[basis[r]] = row.den
            art_rows.append(r)

    if art_rows:
        # Phase 1: maximize -(sum of artificials), priced out against their rows.
        cost = _Row({width + k: -1 for k in range(len(art_rows))}, 0, 1)
        for r in art_rows:
            cost.eliminate(rows[r], basis[r])
        tab = _Tableau(rows, basis, cost)
        verdict = tab.run_simplex()
        if verdict != "optimal":  # the phase-1 objective is bounded by 0
            raise AssertionError("phase 1 cannot be unbounded")
        # Right-hand sides stay nonnegative, so the optimum is 0 exactly
        # when every artificial still in the basis sits at 0.
        if any(row.rhs for row, bcol in zip(rows, basis) if bcol >= width):
            return LpSolution(LpStatus.INFEASIBLE)
        # Drive remaining artificials out of the basis; drop redundant rows.
        r = 0
        while r < len(rows):
            if basis[r] >= width:
                pivot_col = min((j for j in rows[r].coef if j < width), default=None)
                if pivot_col is None:
                    del rows[r], basis[r]
                    continue
                tab.pivot(r, pivot_col)
            r += 1
        for row in rows:
            row.coef = {j: v for j, v in row.coef.items() if j < width}

    # Phase 2: reduce the real objective against the current basis.
    obj, d = over_common_denominator(problem.objective)
    cost = _Row(columns({i: c for i, c in enumerate(obj) if c}), 0, d * scale)
    for row, bcol in zip(rows, basis):
        if bcol in cost.coef:
            cost.eliminate(row, bcol)
    tab = _Tableau(rows, basis, cost)
    verdict = tab.run_simplex()
    if verdict == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)

    x = list(shift)
    for row, bcol in zip(rows, basis):
        if bcol < nstruct and row.rhs:
            i, sign = col_var[bcol]
            x[i] += Fraction(sign * row.rhs, row.den)
    value = sum((c * v for c, v in zip(problem.objective, x) if c), _ZERO)
    point = tuple(x)

    check = verify_point(problem, point)
    if not check.feasible:  # exact arithmetic: this would be a solver bug
        raise AssertionError(
            f"simplex returned an infeasible point: rows {check.violated_constraints}, "
            f"bounds {check.violated_bounds}"
        )
    return LpSolution(LpStatus.OPTIMAL, value, point)
