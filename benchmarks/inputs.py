"""Seeded input generator owned by the benchmark.

It does not use ``allocore.generators``: that module is due to be rewritten,
and its ``random_empty_core_game`` calls the LP solver under test. Every
input is a plain-data description (integer cost tables, rational weight
matrices); each operation builds a fresh game object from it, so no memo of
the program carries over from one operation to the next.

Input ``index`` of workload ``name`` under ``seed`` comes from its own
``random.Random``, so it is the same whatever number of operations a run
reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

WEIGHT_MODELS = ("uniform", "rational", "euclidean", "nearpath")


@dataclass(frozen=True)
class ExplicitInput:
    """A 2^n cost table indexed by bitmask, with an empty core by construction."""

    n: int
    table: tuple[int, ...]


@dataclass(frozen=True)
class GraphInput:
    """Symmetric weights on {0 (supplier), 1..n}, plus a point outside the almost core."""

    n: int
    model: str
    weights: tuple[tuple[Fraction, ...], ...]
    outside: tuple[Fraction, ...]


def rng_for(workload: str, seed: int, index: int | str) -> Random:
    return Random(f"allocore-bench/{workload}/{seed}/{index}")


def empty_core_table(rng: Random, n: int) -> ExplicitInput:
    """Proper coalitions cost 1..6; c(N) = c(S) + c(N \\ S) + k for a random proper S, k >= 1.

    Any stable x has x(N) = x(S) + x(N \\ S) <= c(N) - k < c(N), so the core is
    empty without solving anything. c(N) is drawn from [max(2n, c(S) + c(N \\ S) + 1), 3n],
    the range of the package's own empty-core generator.
    """
    full = (1 << n) - 1
    table = [0] + [rng.randint(1, 6) for _ in range(full - 1)] + [0]
    split = rng.randint(1, full - 1)
    table[full] = rng.randint(max(2 * n, table[split] + table[full ^ split] + 1), 3 * n)
    return ExplicitInput(n, tuple(table))


def random_weights(rng: Random, n: int, model: str) -> tuple[tuple[Fraction, ...], ...]:
    """The four weight models of ``allocore bench``, copied so they stay fixed here.

    "uniform" integers 0..12; "rational" small-denominator fractions;
    "euclidean" squared distances of grid points; "nearpath" a cheap
    Hamiltonian path hidden among expensive edges.
    """
    size = n + 1
    w = [[Fraction(0)] * size for _ in range(size)]

    def put(i: int, j: int, value: Fraction) -> None:
        w[i][j] = value
        w[j][i] = value

    if model == "uniform":
        for i in range(size):
            for j in range(i + 1, size):
                put(i, j, Fraction(rng.randint(0, 12)))
    elif model == "rational":
        for i in range(size):
            for j in range(i + 1, size):
                put(i, j, Fraction(rng.randint(0, 24), rng.randint(1, 4)))
    elif model == "euclidean":
        points = [(rng.randint(0, 15), rng.randint(0, 15)) for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                dx = points[i][0] - points[j][0]
                dy = points[i][1] - points[j][1]
                put(i, j, Fraction(dx * dx + dy * dy))
    elif model == "nearpath":
        path = list(range(1, size))
        rng.shuffle(path)
        path = [0] + path
        for i in range(size):
            for j in range(i + 1, size):
                put(i, j, Fraction(rng.randint(5, 24)))
        for a, b in zip(path, path[1:]):
            put(a, b, Fraction(rng.randint(0, 3)))
    else:
        raise ValueError(f"unknown weight model {model!r}")
    return tuple(tuple(row) for row in w)


def graph_input(rng: Random, n: int, model: str) -> GraphInput:
    """Weights of the given model and a nonnegative point outside the almost core.

    The point charges one random agent its singleton cost w(0, j) plus 1, so
    coalition {j} is violated, and every other agent a random share of at
    most its singleton cost.
    """
    weights = random_weights(rng, n, model)
    outside = [Fraction(rng.randint(0, 4), 4) * weights[0][i + 1] for i in range(n)]
    j = rng.randrange(n)
    outside[j] = weights[0][j + 1] + 1
    return GraphInput(n, model, weights, tuple(outside))
