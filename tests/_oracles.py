"""Independent exact oracles used to cross-check the library.

Everything here is deliberately written from scratch against the
definitions (Gaussian elimination, vertex enumeration, direct membership
scans) so that it shares no code path with the solver it audits.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def gauss_solve(rows, rhs):
    """Solve a square rational system exactly; None if singular."""
    n = len(rows)
    m = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [v / pv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def satisfies(rows, rhs, rels, x) -> bool:
    for row, b, rel in zip(rows, rhs, rels):
        v = sum(a * xx for a, xx in zip(row, x))
        if rel == "<=" and not v <= b:
            return False
        if rel == ">=" and not v >= b:
            return False
        if rel == "==" and v != b:
            return False
    return True


def enumerate_vertices(rows, rhs, rels=None):
    """All feasible basic points of {x : rows x (rel) rhs}. Exponential."""
    n = len(rows[0])
    if rels is None:
        rels = ["<="] * len(rows)
    seen = set()
    points = []
    for combo in combinations(range(len(rows)), n):
        x = gauss_solve([rows[i] for i in combo], [rhs[i] for i in combo])
        if x is None or not satisfies(rows, rhs, rels, x):
            continue
        key = tuple(x)
        if key not in seen:
            seen.add(key)
            points.append(x)
    return points


def polyhedron_max(objective, rows, rhs, rels=None):
    """(max value, list of maximizing vertices); None if no feasible vertex."""
    vertices = enumerate_vertices(rows, rhs, rels)
    if not vertices:
        return None
    best = None
    argmax = []
    for x in vertices:
        v = sum(o * xx for o, xx in zip(objective, x))
        if best is None or v > best:
            best = v
            argmax = [tuple(x)]
        elif v == best:
            argmax.append(tuple(x))
    return best, argmax


def coalition_sum(shares, bits) -> Fraction:
    total = Fraction(0)
    i = 0
    while bits:
        if bits & 1:
            total += shares[i]
        bits >>= 1
        i += 1
    return total


def almost_core_member(game, shares) -> bool:
    """Direct scan of every proper nonempty coalition constraint."""
    full = (1 << game.n) - 1
    return all(
        coalition_sum(shares, bits) <= game.cost_bits(bits)
        for bits in range(1, full)
    )


def almost_core_nonneg_member(game, shares) -> bool:
    return all(v >= 0 for v in shares) and almost_core_member(game, shares)


def core_polyhedron_member(game, shares) -> bool:
    """Every nonempty coalition, the grand coalition included."""
    return all(
        coalition_sum(shares, bits) <= game.cost_bits(bits)
        for bits in range(1, 1 << game.n)
    )


def almost_core_rows(game):
    """(rows, rhs) of the proper-coalition system, ascending bitmask order."""
    n = game.n
    rows, rhs = [], []
    for bits in range(1, (1 << n) - 1):
        rows.append([Fraction(int(bool(bits >> i & 1))) for i in range(n)])
        rhs.append(game.cost_bits(bits))
    return rows, rhs


def superset_min_cost(graph, bits) -> Fraction:
    """Monotonized cost by direct enumeration over all supersets."""
    full = (1 << graph.n) - 1
    best = graph.coalition_cost(bits)
    rest = full ^ bits
    sub = 0
    while True:
        sub = (sub - rest) & rest
        if sub == 0:
            break
        cand = graph.coalition_cost(bits | sub)
        if cand < best:
            best = cand
    return best


def rational_row(con):
    """A stored ``Constraint`` read back as rationals: ({variable: coef / den}, rhs / den)."""
    return {i: Fraction(c, con.den) for i, c in con.coef.items()}, Fraction(con.rhs, con.den)


def dual_of_canonical(objective, rows, rhs):
    """For max{c x : A x <= b, x >= 0}: the dual min{b y : A^T y >= c, y >= 0},
    stated as a maximization of -b y so both sides run through the same API."""
    from allocore.lp import LpProblem

    m = len(rows)
    n = len(objective)
    dual = LpProblem(m, [-b for b in rhs], [Fraction(0)] * m)
    for j in range(n):
        dual.add({i: rows[i][j] for i in range(m)}, ">=", objective[j])
    return dual


def reference_simplex(problem):
    """Dense Fraction two-phase simplex with Bland's rule, for auditing ``solve``.

    Reads an ``LpProblem`` and makes the pivot choices that ``allocore.lp``
    is specified to make: the entering column is the smallest index with a
    positive reduced cost, the leaving row has the smallest ratio with ties
    to the smaller basis index, and after phase 1 each artificial left in the
    basis is pivoted out on its row's smallest nonzero real column (the row is
    deleted when it has none). Returns ``(status, value, point, trace)``:
    status is "optimal", "infeasible" or "unbounded", value and point are
    None unless optimal, and trace lists every pivot as (row, column).
    """
    zero = Fraction(0)
    n = problem.num_vars
    col_var = []  # (variable, sign): free variables get a +/- pair of columns
    shift = []
    for i, lb in enumerate(problem.lower_bounds):
        col_var.append((i, 1))
        if lb is None:
            col_var.append((i, -1))
        shift.append(zero if lb is None else lb)
    nstruct = len(col_var)
    width = nstruct + sum(1 for con in problem.constraints if con.relation != "==")

    rows, rhs, slack_of = [], [], []
    for con in problem.constraints:
        coeffs, b = rational_row(con)
        row = [coeffs.get(i, zero) * sign for i, sign in col_var] + [zero] * (width - nstruct)
        b -= sum(coeffs.get(i, zero) * shift[i] for i in range(n))
        scol = None
        if con.relation != "==":
            scol = nstruct + sum(1 for s in slack_of if s is not None)
            row[scol] = Fraction(1 if con.relation == "<=" else -1)
        if b < 0:
            row, b = [-v for v in row], -b
        rows.append(row)
        rhs.append(b)
        slack_of.append(scol)

    basis = []
    art_rows = []
    for r, scol in enumerate(slack_of):
        if scol is not None and rows[r][scol] == 1:
            basis.append(scol)
        else:
            basis.append(width + len(art_rows))
            art_rows.append(r)
    for row in rows:
        row.extend(zero for _ in art_rows)
    for k, r in enumerate(art_rows):
        rows[r][width + k] = Fraction(1)
    trace = []

    def pivot(r, c, cost):
        trace.append((r, c))
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        rhs[r] /= piv
        for rr in range(len(rows)):
            f = rows[rr][c]
            if rr != r and f:
                rows[rr] = [a - f * b for a, b in zip(rows[rr], rows[r])]
                rhs[rr] -= f * rhs[r]
        f = cost[c]
        cost[:] = [a - f * b for a, b in zip(cost, rows[r])]
        basis[r] = c

    def simplex(cost):
        while True:
            enter = next((j for j, v in enumerate(cost) if v > 0), None)
            if enter is None:
                return "optimal"
            leave = None
            for r, row in enumerate(rows):
                if row[enter] > 0:
                    ratio = rhs[r] / row[enter]
                    if leave is None or (ratio, basis[r]) < (rhs[leave] / rows[leave][enter], basis[leave]):
                        leave = r
            if leave is None:
                return "unbounded"
            pivot(leave, enter, cost)

    if art_rows:
        cost = [sum((rows[r][j] for r in art_rows), zero) if j < width else zero
                for j in range(width + len(art_rows))]
        if simplex(cost) != "optimal":
            raise AssertionError("phase 1 cannot be unbounded")
        if any(rhs[r] for r in range(len(rows)) if basis[r] >= width):
            return "infeasible", None, None, trace
        r = 0
        while r < len(rows):
            if basis[r] >= width:
                col = next((j for j in range(width) if rows[r][j]), None)
                if col is None:
                    del rows[r], rhs[r], basis[r]
                    continue
                pivot(r, col, cost)
            r += 1
        rows[:] = [row[:width] for row in rows]

    obj = [problem.objective[i] * sign for i, sign in col_var] + [zero] * (width - nstruct)
    cost = list(obj)
    for r, b in enumerate(basis):
        cost = [a - obj[b] * v for a, v in zip(cost, rows[r])]
    if simplex(cost) == "unbounded":
        return "unbounded", None, None, trace

    x = list(shift)
    for r, b in enumerate(basis):
        if b < nstruct:
            i, sign = col_var[b]
            x[i] += sign * rhs[r]
    value = sum((c * v for c, v in zip(problem.objective, x)), zero)
    return "optimal", value, tuple(x), trace


def reference_verify_point(problem, point):
    """The row check of ``verify_point`` in Fraction arithmetic.

    Returns (violated row indices, violated lower-bound indices).
    """
    x = [Fraction(v) for v in point]
    rows = []
    for idx, con in enumerate(problem.constraints):
        coeffs, b = rational_row(con)
        lhs = sum((c * x[i] for i, c in coeffs.items()), Fraction(0))
        if con.relation == "<=":
            ok = lhs <= b
        elif con.relation == ">=":
            ok = lhs >= b
        else:
            ok = lhs == b
        if not ok:
            rows.append(idx)
    bounds = [
        i for i, (v, lb) in enumerate(zip(x, problem.lower_bounds))
        if lb is not None and v < lb
    ]
    return tuple(rows), tuple(bounds)


def reference_prim(graph, vertices):
    """Prim's algorithm on ``graph.weights`` in Fraction arithmetic.

    Returns (total, insertion order, edges (tree_end, new_vertex)) with the
    tie-breaks ``GraphInstance.prim`` is specified to make: among
    minimum-weight candidate edges the largest new vertex wins, then the
    smallest tree endpoint.
    """
    w = graph.weights
    best_w = {v: w[0][v] for v in vertices}
    best_i = dict.fromkeys(best_w, 0)
    order, edges = [], []
    total = Fraction(0)
    remaining = sorted(best_w)
    while remaining:
        pick = remaining[0]
        for v in remaining[1:]:
            if best_w[v] <= best_w[pick]:  # <= : larger vertex wins ties
                pick = v
        total += best_w[pick]
        order.append(pick)
        edges.append((best_i[pick], pick))
        remaining.remove(pick)
        for v in remaining:
            cand = w[pick][v]
            if cand < best_w[v] or (cand == best_w[v] and pick < best_i[v]):
                best_w[v] = cand
                best_i[v] = pick
    return total, order, edges


def reference_cost_table(graph):
    """Spanning-tree cost of every coalition bitmask, by ``reference_prim``."""
    n = graph.n
    return [
        reference_prim(graph, [i + 1 for i in range(n) if bits >> i & 1])[0]
        for bits in range(1 << n)
    ]


def reference_core_scan(table, point, nonneg=False):
    """First violated constraint of x(S) <= table[S] over nonempty S in
    ascending bitmask order, in Fraction arithmetic; with ``nonneg`` the
    bounds x >= 0 come first. Returns ("member",), ("bound", agent, amount)
    or ("coalition", bits, amount)."""
    x = [Fraction(v) for v in point]
    if nonneg:
        for i, v in enumerate(x):
            if v < 0:
                return ("bound", i + 1, -v)
    for bits in range(1, len(table)):
        excess = coalition_sum(x, bits) - table[bits]
        if excess > 0:
            return ("coalition", bits, excess)
    return ("member",)
