"""Independent exact oracles used to cross-check the library.

Everything here is deliberately written from scratch against the
definitions (Gaussian elimination, vertex enumeration, direct membership
scans, the dense coalition programs) so that it shares no code path with
the solver it audits.
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


def satisfies(rows, rhs, x) -> bool:
    sums = (sum(a * xx for a, xx in zip(row, x)) for row in rows)
    return all(v <= b for v, b in zip(sums, rhs))


def enumerate_vertices(rows, rhs):
    """All feasible basic points of {x : rows x <= rhs}. Exponential."""
    n = len(rows[0])
    seen = set()
    points = []
    for combo in combinations(range(len(rows)), n):
        x = gauss_solve([rows[i] for i in combo], [rhs[i] for i in combo])
        if x is None or not satisfies(rows, rhs, x):
            continue
        key = tuple(x)
        if key not in seen:
            seen.add(key)
            points.append(x)
    return points


def polyhedron_max(objective, rows, rhs):
    """(max value, list of maximizing vertices); None if no feasible vertex."""
    vertices = enumerate_vertices(rows, rhs)
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


def coalition_sums(shares) -> list[Fraction]:
    """x(S) for every bitmask S: x(S minus its lowest agent) plus that agent's share."""
    sums = [Fraction(0)] * (1 << len(shares))
    for bits in range(1, len(sums)):
        low = bits & -bits
        sums[bits] = sums[bits ^ low] + shares[low.bit_length() - 1]
    return sums


def almost_core_member(game, shares) -> bool:
    """Direct scan of every proper nonempty coalition constraint."""
    full = (1 << game.n) - 1
    return all(
        coalition_sum(shares, bits) <= game.cost_bits(bits)
        for bits in range(1, full)
    )


def almost_core_nonneg_member(game, shares) -> bool:
    return all(v >= 0 for v in shares) and almost_core_member(game, shares)


def almost_core_rows(game):
    """(rows, rhs) of the proper-coalition system, ascending bitmask order."""
    n = game.n
    rows, rhs = [], []
    for bits in range(1, (1 << n) - 1):
        rows.append([Fraction(int(bool(bits >> i & 1))) for i in range(n)])
        rhs.append(game.cost_bits(bits))
    return rows, rhs


def dense_coalition_program(game, objective, bounds=None, sign=1, extra=None, grand=None):
    """max objective . (x, y) subject to sign x(S) + extra(S) . y <= sign c(S)
    for every proper coalition S in ascending bitmask order, then the row
    grand x(N) <= grand c(N) when ``grand`` is 1 (x(N) <= c(N)) or -1
    (x(N) >= c(N)).

    x are the first n variables and y the rest; ``extra`` maps a bitmask to
    its row's {y variable: coefficient}. With sign = -1 a row states
    x(S) >= c(S) as its negated <= row. This is the full program that the
    library's row generation must solve to the same optimum.
    """
    from allocore.lp import LpProblem

    n = game.n
    problem = LpProblem(len(objective), objective, bounds)
    for bits in range(1, (1 << n) - 1):
        row = {i: sign for i in range(n) if bits >> i & 1}
        if extra is not None:
            row.update(extra(bits))
        problem.add(row, sign * game.cost_bits(bits))
    if grand is not None:
        problem.add(dict.fromkeys(range(n), grand), grand * game.cost_bits((1 << n) - 1))
    return problem


def almost_core_problem(game, require_nonneg=False):
    """max x(N) over every proper-coalition constraint (and x >= 0 if asked)."""
    n = game.n
    return dense_coalition_program(game, [1] * n, [0] * n if require_nonneg else None)


def reference_row_generation(game, require_nonneg=False):
    """The almost-core program by :func:`reference_coalition_program` from
    the game's seed rows. Returns (the last solution, its problem)."""
    n = game.n
    return reference_coalition_program(game, [1] * n, [0] * n if require_nonneg else None)


def reference_coalition_program(game, objective, bounds=None, slack=None, grand=None, seed=None):
    """max objective . (x, y) subject to x(S) - y[slack] <= c(S) for every
    proper coalition S, plus grand * (x(N) - c(N)) <= 0 when ``grand`` is
    1 or -1, by row generation that solves every round, the first
    included: the rows of ``seed`` (default ``game.seed_coalitions()``)
    and the grand row, then after each solve the n coalitions of largest
    excess x(S) - y[slack] - c(S) > 0, ties to the smaller bitmask,
    scanned in Fraction arithmetic, until a solve's point violates no
    proper coalition. Returns (the last solution, its problem)."""
    from allocore.lp import LpProblem, solve

    n = game.n
    costs = game.table()
    problem = LpProblem(len(objective), objective, bounds)

    def add(bits):
        row = {i: 1 for i in range(n) if bits >> i & 1}
        if slack is not None:
            row[slack] = -1
        problem.add(row, costs[bits])

    for bits in game.seed_coalitions() if seed is None else seed:
        add(bits)
    if grand is not None:
        problem.add({i: grand for i in range(n)}, grand * costs[-1])
    while True:
        solution = solve(problem)
        assert solution.is_optimal
        sums = coalition_sums(solution.point[:n])
        if slack is not None:
            sums = [v - solution.point[slack] for v in sums]
        excess = {bits: sums[bits] - costs[bits] for bits in range(1, len(costs) - 1)}
        violated = sorted((b for b, e in excess.items() if e > 0), key=lambda b: (-excess[b], b))
        if not violated:
            return solution, problem
        for bits in violated[:n]:
            add(bits)


def weak_core_problem(game):
    """max -eps over (x, eps), eps >= 0 the variable n, subject to
    x(S) - |S| eps <= c(S) for every proper S and x(N) >= c(N): the weak
    epsilon core program, solved densely. Lowering shares keeps every
    proper row, so x(N) >= c(N) has the optimum of x(N) = c(N)."""
    n = game.n
    return dense_coalition_program(
        game, [0] * n + [-1], [None] * n + [0],
        extra=lambda bits: {n: -bits.bit_count()}, grand=-1,
    )


def subsidy_problem(game):
    """max -t(N) over (x, t), t >= 0 the variables n..2n-1, subject to
    (x - t)(S) <= c(S) for every proper S and x(N) >= c(N): the extended
    core's minimum-subsidy program, solved densely (x(N) >= c(N) as in
    ``weak_core_problem``)."""
    n = game.n
    return dense_coalition_program(
        game, [0] * n + [-1] * n, [None] * n + [0] * n,
        extra=lambda bits: {n + i: -1 for i in range(n) if bits >> i & 1}, grand=-1,
    )


def first_failing_pair(game, holds):
    """The first pair (S, T) of bitmasks, S then T ascending, for which
    ``holds(game.table(), S, T)`` is false; None when it holds for all 4^n pairs."""
    c = game.table()
    return next(
        ((s, t) for s in range(len(c)) for t in range(len(c)) if not holds(c, s, t)), None
    )


def subadditive(c, s, t):
    """c(S | T) <= c(S) + c(T) for disjoint S and T."""
    return s & t or c[s | t] <= c[s] + c[t]


def submodular(c, s, t):
    return c[s] + c[t] >= c[s | t] + c[s & t]


def monotone(c, s, t):
    """c(S) <= c(T) whenever S is a subset of T."""
    return s & ~t or c[s] <= c[t]


class ProfitGame:
    """The cost-savings game v(S) = sum over i in S of c({i}) - c(S) of a
    cost game. It is negative where c is not subadditive, so it is no
    ``ExplicitGame``; it has what ``dense_coalition_program`` reads."""

    def __init__(self, game):
        self.n = game.n
        c = game.table()
        singles = [c[1 << i] for i in range(game.n)]
        self.values = [coalition_sum(singles, bits) - c[bits] for bits in range(len(c))]

    def cost_bits(self, bits):
        return self.values[bits]


def min_stable_profit(profit):
    """min x(N) subject to x(S) >= v(S) for every proper coalition S, by one
    dense solve: (the minimum, a minimizer)."""
    from allocore.lp import solve

    solution = solve(dense_coalition_program(profit, [-1] * profit.n, sign=-1))
    return -solution.value, solution.point


def shifted_graph(graph, amount):
    """``graph`` with ``amount`` added to the weight of every edge."""
    from allocore.mstgame import GraphInstance

    return GraphInstance(graph.n, [
        [w + amount if i != j else 0 for j, w in enumerate(row)]
        for i, row in enumerate(graph.weights)
    ])


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


def dual_of_canonical(objective, rows, rhs, free=()):
    """For max{c x : A x <= b, x >= 0}: the dual min{b y : A^T y >= c, y >= 0},
    stated as max{-b y : -A^T y <= -c, y >= 0} so both sides run through the
    same API. A variable listed in ``free`` has no bound x_j >= 0, and its
    dual row is the equality (A^T y)_j = c_j, stated as the <= row followed
    by its opposite (A^T y)_j <= c_j."""
    from allocore.lp import LpProblem

    m = len(rows)
    n = len(objective)
    dual = LpProblem(m, [-b for b in rhs], [Fraction(0)] * m)
    for j in range(n):
        dual.add({i: -rows[i][j] for i in range(m)}, -objective[j])
        if j in free:
            dual.add({i: rows[i][j] for i in range(m)}, objective[j])
    return dual


def reference_simplex(problem):
    """Dense Fraction two-phase simplex with Bland's rule, for auditing ``solve``.

    Reads an ``LpProblem`` and makes the pivot choices that ``allocore.lp``
    is specified to make, on one column per variable followed by one slack
    per row: the entering column is the smallest index with a positive
    reduced cost, or a nonzero one when the variable is free, and it moves
    in the direction of that sign. The leaving row has the smallest ratio
    over the rows whose basic variable is not free, with ties to the smaller
    basis index, so a free variable never leaves the basis. After phase 1
    each artificial left in the basis is pivoted out on its row's smallest
    nonzero real column (every row has one: its slack column). Returns
    ``(status, value, point, trace)``: status is "optimal", "infeasible" or
    "unbounded", value and point are None unless optimal, and trace lists
    every pivot as (row, column).
    """
    zero = Fraction(0)
    n = problem.num_vars
    free = {i for i, lb in enumerate(problem.lower_bounds) if lb is None}
    width = n + len(problem.constraints)

    rows, rhs = [], []
    for r, con in enumerate(problem.constraints):
        coeffs, b = rational_row(con)
        row = [coeffs.get(i, zero) for i in range(n)] + [zero] * (width - n)
        row[n + r] = Fraction(1)  # the slack
        if b < 0:
            row, b = [-v for v in row], -b
        rows.append(row)
        rhs.append(b)

    basis = []
    art_rows = []
    for r, row in enumerate(rows):
        if row[n + r] == 1:
            basis.append(n + r)
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
            enter = next((j for j, v in enumerate(cost) if v > 0 or (v and j in free)), None)
            if enter is None:
                return "optimal"
            sign = 1 if cost[enter] > 0 else -1
            leave = None
            for r, row in enumerate(rows):
                a = sign * row[enter]
                if a > 0 and basis[r] not in free:
                    ratio = rhs[r] / a
                    if leave is None or (ratio, basis[r]) < (best, basis[leave]):
                        leave, best = r, ratio
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
        for r in range(len(rows)):
            if basis[r] >= width:
                pivot(r, next(j for j in range(width) if rows[r][j]), cost)
        rows[:] = [row[:width] for row in rows]

    obj = list(problem.objective) + [zero] * (width - n)
    cost = list(obj)
    for r, b in enumerate(basis):
        cost = [a - obj[b] * v for a, v in zip(cost, rows[r])]
    if simplex(cost) == "unbounded":
        return "unbounded", None, None, trace

    x = [zero] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = rhs[r]
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
        if lhs > b:
            rows.append(idx)
    bounds = [
        i for i, (v, lb) in enumerate(zip(x, problem.lower_bounds))
        if lb is not None and v < 0
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


def reference_lift(table, point, nonneg=False):
    """The n-query separation reduction over ``reference_core_scan``, with
    c(N) = table[-1]: query k lowers coordinate k just enough that the total
    is at most c(N). With ``nonneg`` the bounds x >= 0 come first, and N
    minus k is reported when that ceiling on x_k is negative. A coalition
    found at query k gets back what coordinate k lost when it contains k.
    Returns the tuples of ``reference_core_scan``."""
    x = [Fraction(v) for v in point]
    n = len(x)
    full = (1 << n) - 1
    if nonneg:
        for i, v in enumerate(x):
            if v < 0:
                return ("bound", i + 1, -v)
    total = sum(x, Fraction(0))
    for k in range(n):
        ceiling = table[full] - (total - x[k])
        if nonneg and ceiling < 0:
            bits = full ^ (1 << k)
            return ("coalition", bits, total - x[k] - table[bits])
        lowered = list(x)
        lowered[k] = min(x[k], ceiling)
        found = reference_core_scan(table, lowered, nonneg)
        if found[0] != "member":
            kind, bits, amount = found
            assert kind == "coalition" and bits != full, "core scan reported no proper coalition"
            if bits >> k & 1:
                amount += x[k] - lowered[k]
            return ("coalition", bits, amount)
    return ("member",)
