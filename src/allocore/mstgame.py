"""Minimum-cost-spanning-tree games.

Agents are nodes 1..n of a complete undirected graph with a supplier node 0;
the cost of a coalition S is the weight of a minimum spanning tree of the
subgraph induced by S plus the supplier. ``MstGame(graph)`` is that
characteristic function and ``MstGame(graph, monotonized=True)`` its
monotonization (coalitions may route through outside agents as Steiner
nodes); ``graph.cost_table()`` and ``graph.monotonized_table()`` give either
as a full table, for ``ExplicitGame(graph.n, table)``. The module also
provides the classic one-tree core allocation and a 2-approximation for
maximizing nonnegative shareable costs (both return shares as tuples of
Fractions).

A ``GraphInstance`` keeps its weights as integers over one common
denominator D, the lcm of the weight denominators. Prim's algorithm, the
cost table, the monotonization sweep and the 2-approximation compare and
add those integers; scaling by D > 0 keeps every comparison, so tie-breaks
and trees are those of the rational weights. ``Fraction(value, D)`` is
built only where a value leaves the class.

Two paths compute costs. Prim (``GraphInstance.prim``, the package's one
Prim) serves trees, insertion orders, the one-tree allocation, the
2-approximation and single coalition lookups at any n. The full 2^n table
(n <= 16) comes from one integer subset recurrence that removes an MST
leaf, c(S) = min over v in S of c(S - v) + near_v(S - v), with near_v(X) the
cheapest edge from v into {0} + X (see :func:`_leaf_removal_table`). The
table is built once per graph; every later lookup, the monotonization
sweep, ``MstGame.table`` and ``MstGame.scaled_table`` read it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterable, NamedTuple, Sequence

from .coalition import bits_members
from .errors import EnumerationLimitError, PreconditionError
from .games import Game, as_rational, check_enum_limit, over_common_denominator

#: Most agents ``from_edges`` accepts; its (n+1)^2 weight table takes ~90 MB at 1000.
GRAPH_AGENT_LIMIT = 1000

_ZERO = Fraction(0)


def _check_int(n: object) -> None:
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"n must be an int, got {type(n).__name__}")


class GraphInstance:
    """A complete weighted graph on nodes {0, 1, ..., n}; node 0 is the supplier.

    Weights are symmetric nonnegative rationals. Instances are immutable
    after construction. A coalition cost is one Prim run until the full
    cost table is built (by leaf removal, once); from then on every cost
    is read from that table.
    ``weights`` holds the rationals as given; the computations run on
    ``denominator`` (D) times them, which are integers, and every cost is
    handed back as a Fraction over D.
    """

    def __init__(self, n: int, weights: Sequence[Sequence[object]]):
        _check_int(n)
        if n < 1:
            raise ValueError("need at least one agent")
        if len(weights) != n + 1 or any(len(row) != n + 1 for row in weights):
            raise ValueError(f"weight table must be ({n + 1})x({n + 1})")
        w = [[_ZERO] * (n + 1) for _ in range(n + 1)]
        for i in range(n + 1):
            for j in range(n + 1):
                if i == j:
                    continue  # diagonal unused
                v = as_rational(weights[i][j])
                if v < 0:
                    raise ValueError(f"negative weight on edge ({i},{j}): {v}")
                w[i][j] = v
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                if w[i][j] != w[j][i]:
                    raise ValueError(f"weights are not symmetric at ({i},{j})")
        self.n = n
        self.weights = tuple(tuple(row) for row in w)
        flat, self.denominator = over_common_denominator([v for row in w for v in row])
        self._w = tuple(tuple(flat[k:k + n + 1]) for k in range(0, len(flat), n + 1))
        self._table: tuple[int, ...] | None = None
        self._monotone_table: tuple[int, ...] | None = None

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int, object]]
    ) -> "GraphInstance":
        """Build from an edge list; absent edges get a weight larger than any
        spanning tree of the given edges, so they never enter an MST. The
        given edges must connect {0, ..., n}, and n may not exceed
        ``GRAPH_AGENT_LIMIT`` (EnumerationLimitError)."""
        _check_int(n)
        seen: dict[tuple[int, int], Fraction] = {}
        total = _ZERO
        for i, j, wv in edges:
            if not (0 <= i <= n and 0 <= j <= n) or i == j:
                raise ValueError(f"bad edge ({i},{j})")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]},{key[1]})")
            v = as_rational(wv)
            if v < 0:
                raise ValueError(f"negative weight on edge {key}: {v}")
            seen[key] = v
            total += v
        # connectivity of the input edges over all of {0..n}; the adjacency
        # lists cover only the nodes the edges name, so a huge n with few
        # edges fails here without allocating anything of size n
        adj: dict[int, list[int]] = {}
        for (i, j) in seen:
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, []).append(i)
        reached = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v_ in adj.get(u, ()):
                if v_ not in reached:
                    reached.add(v_)
                    stack.append(v_)
        if len(reached) != n + 1:
            missing = list(islice((v for v in range(n + 1) if v not in reached), 10))
            more = " ..." if n + 1 - len(reached) > len(missing) else ""
            raise ValueError(f"input edges do not connect nodes {missing}{more} to the supplier")
        if n > GRAPH_AGENT_LIMIT:
            raise EnumerationLimitError(
                f"{n} agents need a weight table of {n + 1}^2 entries; "
                f"limit is n <= {GRAPH_AGENT_LIMIT}"
            )
        fill = total + 1
        w = [[fill] * (n + 1) for _ in range(n + 1)]
        for (i, j), v in seen.items():
            w[i][j] = v
            w[j][i] = v
        return cls(n, w)

    def prim(self, vertices: Iterable[int]) -> tuple[int, list[int], list[tuple[int, int]]]:
        """Prim's algorithm on {0} + vertices, starting at the supplier.

        Returns (D * total weight, insertion order, edges (tree_end,
        new_vertex)), where D is ``denominator``. Tie-breaking is fixed:
        among minimum-weight candidate edges, the largest new vertex wins,
        then the smallest tree endpoint.
        """
        w = self._w
        remaining = sorted(set(vertices))
        best = [w[0][v] for v in remaining]  # cheapest edge into the tree
        near = [0] * len(remaining)  # its tree endpoint
        order: list[int] = []
        edges: list[tuple[int, int]] = []
        total = 0
        while remaining:
            low = min(best)
            k = len(best) - 1 - best[::-1].index(low)  # last minimum: larger vertex wins ties
            pick = remaining.pop(k)
            del best[k]
            total += low
            order.append(pick)
            edges.append((near.pop(k), pick))
            row = w[pick]
            for slot, v in enumerate(remaining):
                cand = row[v]
                if cand < best[slot] or (cand == best[slot] and pick < near[slot]):
                    best[slot] = cand
                    near[slot] = pick
        return total, order, edges

    def _cost(self, bits: int) -> int:
        """D times the coalition's spanning-tree cost: read from the table
        once it exists, otherwise one Prim run."""
        if self._table is not None:
            return self._table[bits]
        return self.prim(bits_members(bits))[0]

    def coalition_cost(self, bits: int) -> Fraction:
        """MST cost of the subgraph induced by the coalition plus the supplier."""
        if not 0 <= bits < 1 << self.n:  # -1 would read c(N) from the table
            raise ValueError(f"bitmask {bits} out of range for n={self.n}")
        return Fraction(self._cost(bits), self.denominator)

    def _scaled_cost_table(self) -> tuple[int, ...]:
        """D times the cost of every coalition, indexed by bitmask; built once."""
        if self._table is None:
            check_enum_limit(self.n, "materializing the spanning-tree cost table")
            self._table = _leaf_removal_table(self._w, self.n)
        return self._table

    def _fractions(self, scaled: Sequence[int]) -> tuple[Fraction, ...]:
        """The scaled table over D, with one Fraction per distinct value."""
        d = self.denominator
        exact = {v: Fraction(v, d) for v in set(scaled)}
        return tuple(map(exact.__getitem__, scaled))

    def cost_table(self) -> tuple[Fraction, ...]:
        return self._fractions(self._scaled_cost_table())

    def _scaled_monotonized_table(self) -> tuple[int, ...]:
        """D times the min over supersets of the cost table.

        Each of n rounds takes the pairwise min of the two halves, which
        handles the top agent, then interleaves the halves, which rotates
        the bit order so the next agent is on top; after n rounds every
        agent has been handled and the bit order is back where it started.
        """
        if self._monotone_table is None:
            check_enum_limit(self.n, "monotonizing the cost table")
            bar = list(self._scaled_cost_table())
            half = len(bar) // 2
            for _ in range(self.n):
                hi = bar[half:]
                bar[0::2] = [a if a < b else b for a, b in zip(bar[:half], hi)]
                bar[1::2] = hi
            self._monotone_table = tuple(bar)
        return self._monotone_table

    def monotonized_table(self) -> tuple[Fraction, ...]:
        """min over supersets of the cost table."""
        return self._fractions(self._scaled_monotonized_table())


def _leaf_removal_table(w: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """Spanning-tree cost of every coalition on the integer weights ``w``,
    by c(S) = min over v in S of c(S - v) + near_v(S - v), where near_v(X)
    is v's cheapest edge into {0} + X.

    Every term is at least c(S): attaching v to its nearest vertex in an MST
    of (S - v) + {0} spans S + {0}. Some term equals c(S): an MST of
    S + {0} has at least two leaves, so some v in S is a leaf; removing it
    leaves a spanning tree of (S - v) + {0}, which weighs at least
    c(S - v), and its leaf edge weighs at least near_v(S - v). Only totals
    come out, so tie-breaks cannot matter.

    The nearest-edge table near_v is built by doubling over the agents u:
    the entries whose X holds u are min(near_v(X - u), w(v, u)). Every
    entry is a min that includes w(v, 0), the entry of the empty X, so that
    entry is the table's maximum. An edge u with w(v, u) >= w(v, 0) changes
    no entry, and the new half is a copy; one with w(v, u) at most the
    smallest entry so far replaces every entry, and the new half is w(v, u)
    repeated. Entries whose X holds v itself are never read (the
    recurrence asks for near_v(S - v)), so at u = v the new half is a copy
    as well. Either shortcut gives the table the elementwise min gives.
    """
    # near[i][X] for agent i + 1, by doubling over the agents of X
    near = []
    for v in range(1, n + 1):
        row = w[v]
        top = low = row[0]  # the table's maximum and its minimum so far
        table = [top]
        for u in range(1, n + 1):
            c = row[u]
            if c >= top or u == v:
                table += table
            elif c <= low:
                table += [c] * len(table)
                low = c
            else:
                table += [a if a < c else c for a in table]
        near.append(table)
    cost = [0] * (1 << n)
    members = [()]  # members[x]: (bit, near table) of each agent in x
    for i in range(n):
        top = 1 << i
        near_top = near[i]
        for x in range(top):  # S = top | x, its highest agent is i + 1
            s = top | x
            best = cost[x] + near_top[x]
            for bit, near_v in members[x]:
                c = cost[s ^ bit] + near_v[s ^ bit]
                if c < best:
                    best = c
            cost[s] = best
        if i < n - 1:  # the last agent's doubling would go unread
            pair = (top, near_top)
            members += [m + (pair,) for m in members]
    return tuple(cost)


class MstGame(Game):
    """A game evaluated from a graph instance, optionally monotonized."""

    def __init__(self, graph: GraphInstance, *, monotonized: bool = False):
        self.n = graph.n
        self.graph = graph
        self.monotonized = monotonized
        # eager: a monotonized game answers every lookup from this one integer table
        self._table = graph._scaled_monotonized_table() if monotonized else None

    def cost_bits(self, bits: int) -> Fraction:
        if self._table is not None:
            if not 0 <= bits < len(self._table):
                raise ValueError(f"bitmask {bits} out of range for n={self.n}")
            return Fraction(self._table[bits], self.graph.denominator)
        return self.graph.coalition_cost(bits)

    def table(self) -> tuple[Fraction, ...]:
        """The graph's own table, with no Prim run per coalition."""
        return self.graph.monotonized_table() if self.monotonized else self.graph.cost_table()

    def scaled_table(self) -> tuple[Sequence[int], int]:
        """The graph's own integer table and its denominator D."""
        table = self.graph._scaled_cost_table() if self._table is None else self._table
        return table, self.graph.denominator

    def seed_coalitions(self) -> list[int]:
        """The singletons and every N \\ {k}, ascending. The 2-approximation
        prices each c(N \\ {k}), and those rows carry much of the dual
        support at the almost-core optimum, so row generation starts from
        them instead of scanning for them. The empty set (N \\ {1} at
        n = 1) and N are left out, and at n = 2 each N \\ {k} is a
        singleton, kept once."""
        full = (1 << self.n) - 1
        singletons = {1 << i for i in range(self.n)}
        return sorted((singletons | {full ^ bit for bit in singletons}) - {0, full})


def granot_huberman(graph: GraphInstance) -> tuple[Fraction, ...]:
    """Charge each agent the weight of its connecting edge in one Prim run.

    Budget balanced, and a core allocation of both the plain and the
    monotonized game.
    """
    _, _, edges = graph.prim(range(1, graph.n + 1))
    shares = [_ZERO] * graph.n
    for (i, j) in edges:
        shares[j - 1] = graph.weights[i][j]
    return tuple(shares)


class ApproxTrace(NamedTuple):
    """Reproducible record of one 2-approximation run."""

    insertion_order: tuple[int, ...]
    tree_edges: tuple[tuple[int, int], ...]
    pre_update_shares: tuple[Fraction, ...]
    last_agent: int
    argmin_k: int
    final_shares: tuple[Fraction, ...]


def almost_core_approx(graph: GraphInstance) -> tuple[tuple[Fraction, ...], ApproxTrace]:
    """2-approximation for maximizing nonnegative stable shareable costs.

    A Prim sweep charges each agent its connecting edge weight, then the
    last inserted agent's share is raised to the largest value that keeps
    every coalition of the form N minus one agent affordable. The result
    is nonnegative, stable for every proper coalition, and its total is at
    least half the optimum of the nonnegative almost-core maximization.
    """
    n = graph.n
    if n < 2:
        raise PreconditionError("the approximation needs at least two agents")
    total, order, edges = graph.prim(range(1, n + 1))
    w = graph._w
    shares = [0] * n  # D times each share
    for (i, j) in edges:
        shares[j - 1] = w[i][j]
    d = graph.denominator
    pre = tuple(Fraction(v, d) for v in shares)
    last = order[-1]
    full = (1 << n) - 1
    best: int | None = None
    best_k = -1
    for k in range(1, n + 1):
        if k == last:
            continue
        others = total - shares[k - 1] - shares[last - 1]  # x(N \ {k, last})
        cand = graph._cost(full ^ (1 << (k - 1))) - others
        if best is None or cand < best:
            best = cand
            best_k = k
    shares[last - 1] = best
    final = tuple(Fraction(v, d) for v in shares)
    trace = ApproxTrace(
        insertion_order=tuple(order),
        tree_edges=tuple(edges),
        pre_update_shares=pre,
        last_agent=last,
        argmin_k=best_k,
        final_shares=final,
    )
    return final, trace

