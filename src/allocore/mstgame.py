"""Minimum-cost-spanning-tree games.

Agents are nodes 1..n of a complete undirected graph with a supplier node 0;
the cost of a coalition S is the weight of a minimum spanning tree of the
subgraph induced by S plus the supplier. The module provides the
characteristic function, its monotonization (coalitions may route through
outside agents as Steiner nodes), the classic one-tree core allocation,
a 2-approximation for maximizing nonnegative shareable costs, and the
uniform weight shift that removes the need for subsidies.

A ``GraphInstance`` keeps its weights as integers over one common
denominator D, the lcm of the weight denominators. Prim's algorithm, the
cost cache, the monotonization sweep and the 2-approximation compare and
add those integers; scaling by D > 0 keeps every comparison, so tie-breaks
and trees are those of the rational weights. ``Fraction(value, D)`` is
built only where a value leaves the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence

from .coalition import Coalition, bits_members
from .errors import EnumerationLimitError, PreconditionError
from .games import (
    Allocation, ExplicitGame, Game, as_rational, check_enum_limit, over_common_denominator,
)

#: Most agents ``from_edges`` accepts; its (n+1)^2 weight table takes ~90 MB at 1000.
GRAPH_AGENT_LIMIT = 1000

_ZERO = Fraction(0)


class GraphInstance:
    """A complete weighted graph on nodes {0, 1, ..., n}; node 0 is the supplier.

    Weights are symmetric nonnegative rationals. Instances are immutable
    after construction; coalition costs are memoized internally.
    ``weights`` holds the rationals as given; the computations run on
    ``denominator`` (D) times them, which are integers, and every cost is
    handed back as a Fraction over D.
    """

    def __init__(self, n: int, weights: Sequence[Sequence[object]]):
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
        self._cost_cache: dict[int, int] = {0: 0}
        self._monotone_table: tuple[int, ...] | None = None

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int, object]]
    ) -> "GraphInstance":
        """Build from an edge list; absent edges get a weight larger than any
        spanning tree of the given edges, so they never enter an MST. The
        given edges must connect {0, ..., n}, and n may not exceed
        ``GRAPH_AGENT_LIMIT`` (EnumerationLimitError)."""
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

    def weight(self, i: int, j: int) -> Fraction:
        return self.weights[i][j]

    def _tree(self, vertices: Iterable[int]) -> tuple[int, list[int], list[tuple[int, int]]]:
        """Prim's algorithm on the scaled weights: (D * total weight,
        insertion order, edges). Tie-breaks as in :meth:`prim`."""
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

    def prim(self, vertices: Sequence[int]) -> tuple[Fraction, list[int], list[tuple[int, int]]]:
        """Prim's algorithm on {0} + vertices, starting at the supplier.

        Returns (total weight, insertion order, edges (tree_end, new_vertex)).
        Tie-breaking is fixed: among minimum-weight candidate edges, the
        largest new vertex wins, then the smallest tree endpoint.
        """
        total, order, edges = self._tree(vertices)
        return Fraction(total, self.denominator), order, edges

    def _cost(self, bits: int) -> int:
        """D times the coalition's spanning-tree cost, memoized."""
        cached = self._cost_cache.get(bits)
        if cached is None:
            cached = self._tree(bits_members(bits))[0]
            self._cost_cache[bits] = cached
        return cached

    def coalition_cost(self, bits: int) -> Fraction:
        """MST cost of the subgraph induced by the coalition plus the supplier."""
        return Fraction(self._cost(bits), self.denominator)

    def _scaled_cost_table(self) -> list[int]:
        check_enum_limit(self.n, "materializing the spanning-tree cost table")
        cost = self._cost
        return [cost(bits) for bits in range(1 << self.n)]

    def cost_table(self) -> tuple[Fraction, ...]:
        d = self.denominator
        return tuple(Fraction(v, d) for v in self._scaled_cost_table())

    def _scaled_monotonized_table(self) -> tuple[int, ...]:
        """D times the min over supersets of the cost table, via one sweep per agent."""
        if self._monotone_table is None:
            check_enum_limit(self.n, "monotonizing the cost table")
            bar = self._scaled_cost_table()
            for i in range(self.n):
                bit = 1 << i
                for bits in range(1 << self.n):
                    if not bits & bit and bar[bits | bit] < bar[bits]:
                        bar[bits] = bar[bits | bit]
            self._monotone_table = tuple(bar)
        return self._monotone_table

    def monotonized_table(self) -> tuple[Fraction, ...]:
        """min over supersets of the cost table."""
        d = self.denominator
        return tuple(Fraction(v, d) for v in self._scaled_monotonized_table())

    def default_shift(self) -> Fraction:
        """Sum of the supplier edge weights (the singleton costs)."""
        return Fraction(sum(self._w[0][1:]), self.denominator)


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
            return Fraction(self._table[bits], self.graph.denominator)
        return self.graph.coalition_cost(bits)

    def scaled_table(self) -> tuple[Sequence[int], int]:
        """The graph's own integer table and its denominator D."""
        table = self.graph._scaled_cost_table() if self._table is None else self._table
        return table, self.graph.denominator


def mst_cost(graph: GraphInstance, coalition: Coalition) -> Fraction:
    if coalition.n != graph.n:
        raise ValueError("coalition universe does not match the graph")
    return graph.coalition_cost(coalition.bits)


def monotonized_cost(graph: GraphInstance, coalition: Coalition) -> Fraction:
    if coalition.n != graph.n:
        raise ValueError("coalition universe does not match the graph")
    return Fraction(graph._scaled_monotonized_table()[coalition.bits], graph.denominator)


def explicit_from_graph(graph: GraphInstance, monotonize: bool = False) -> ExplicitGame:
    """Materialize the full 2^n characteristic table as an explicit game."""
    table = graph.monotonized_table() if monotonize else graph.cost_table()
    return ExplicitGame(graph.n, table)


def granot_huberman(graph: GraphInstance) -> Allocation:
    """Charge each agent the weight of its connecting edge in one Prim run.

    Budget balanced, and a core allocation of both the plain and the
    monotonized game.
    """
    _, _, edges = graph._tree(range(1, graph.n + 1))
    shares = [_ZERO] * graph.n
    for (i, j) in edges:
        shares[j - 1] = graph.weights[i][j]
    return Allocation(tuple(shares))


@dataclass(frozen=True, slots=True)
class ApproxTrace:
    """Reproducible record of one 2-approximation run."""

    insertion_order: tuple[int, ...]
    tree_edges: tuple[tuple[int, int], ...]
    pre_update_shares: Allocation
    last_agent: int
    argmin_k: int
    final_shares: Allocation


def almost_core_approx(graph: GraphInstance) -> tuple[Allocation, ApproxTrace]:
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
    total, order, edges = graph._tree(range(1, n + 1))
    w = graph._w
    shares = [0] * n  # D times each share
    for (i, j) in edges:
        shares[j - 1] = w[i][j]
    d = graph.denominator
    pre = Allocation(tuple(Fraction(v, d) for v in shares))
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
    final = Allocation(tuple(Fraction(v, d) for v in shares))
    trace = ApproxTrace(
        insertion_order=tuple(order),
        tree_edges=tuple(edges),
        pre_update_shares=pre,
        last_agent=last,
        argmin_k=best_k,
        final_shares=final,
    )
    return final, trace


def shift_weights(graph: GraphInstance, amount: object | None = None) -> GraphInstance:
    """Add a uniform amount to every edge weight.

    Coalition costs shift by |S| * amount. The default amount (the sum of
    all supplier edge weights) is large enough that the shifted game's
    nonnegative almost-core optimum equals the original unrestricted
    optimum plus n * amount.
    """
    m = graph.default_shift() if amount is None else as_rational(amount)
    if m < 0:
        raise ValueError("shift amount must be nonnegative")
    size = graph.n + 1
    w = [
        [graph.weights[i][j] + m if i != j else _ZERO for j in range(size)]
        for i in range(size)
    ]
    return GraphInstance(graph.n, w)
