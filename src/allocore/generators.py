"""Instance builders: canonical worked examples and seeded random families.

The canonical graphs are the small three-agent instances that exhibit the
extreme behaviours of spanning-tree cost sharing (unbounded gap between
c(N) and the almost-core optimum, necessity of subsidies, tightness of the
2-approximation, and failure of the approximation on the monotonized game).
Random families are driven by a caller-supplied ``random.Random`` so that
every run is reproducible from its seed.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .games import ExplicitGame, as_rational
from .mstgame import GraphInstance
from .relaxations import core_nonempty

_ZERO = Fraction(0)


def _triangle_instance(w01, w02, w03, w12, w13, w23) -> GraphInstance:
    return GraphInstance(
        3,
        [
            [0, w01, w02, w03],
            [w01, 0, w12, w13],
            [w02, w12, 0, w23],
            [w03, w13, w23, 0],
        ],
    )


def large_gap_instance(k: object) -> GraphInstance:
    """c(N) = 0 while the nonnegative almost-core optimum is k.

    Agent 3 can only be reached cheaply through agent 1, so k is stably
    chargeable even though the grand coalition's tree is free.
    """
    kk = as_rational(k)
    if kk <= 0:
        raise ValueError("the gap parameter must be positive")
    return _triangle_instance(0, 2 * kk, 2 * kk, 0, kk, 0)


def subsidy_instance(k: object) -> GraphInstance:
    """Unrestricted almost-core optimum k, attained only at shares (-k, k, k).

    With nonnegative shares nothing can be charged at all, so dropping the
    subsidy makes the shareable total collapse from k to 0.
    """
    kk = as_rational(k)
    if kk <= 0:
        raise ValueError("the gap parameter must be positive")
    return _triangle_instance(0, 2 * kk, 2 * kk, 0, 0, 0)


def _check_eps(eps: object) -> Fraction:
    e = as_rational(eps)
    if not 0 < e < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    return e


def tight_approximation_instance(eps: object) -> GraphInstance:
    """The 2-approximation returns value 1 + eps while the optimum is 2.

    As eps shrinks, the realized ratio 2/(1 + eps) approaches the factor 2.
    The pair costs are c({1,2}) = 1, c({1,3}) = 1 + eps and
    c({2,3}) = 2 - eps; summing the three pair constraints gives
    2 x(N) <= 4, and (eps, 1 - eps, 1) attains x(N) = 2 with x >= 0.
    """
    e = _check_eps(eps)
    return _triangle_instance(1, 2, 2 - e, 0, e, 0)


def detour_instance(eps: object) -> GraphInstance:
    """The 2-approximation returns value 1 + eps while the optimum is 2 + eps/2.

    The pair costs are c({1,2}) = 1, c({1,3}) = 1 + eps and c({2,3}) = 2;
    summing the three pair constraints gives 2 x(N) <= 4 + eps, and
    (eps/2, 1 - eps/2, 1 + eps/2) attains x(N) = 2 + eps/2 with x >= 0.
    The realized ratio is (2 + eps/2)/(1 + eps).
    """
    e = _check_eps(eps)
    return _triangle_instance(1, 2, 2, 0, e, 0)


def steiner_counterexample_instance() -> GraphInstance:
    """Costs are 1 everywhere except c({2,3}) = 2; monotonization flattens to 1.

    The 2-approximation output is stable for the plain game but can violate
    a pair constraint of the monotonized game.
    """
    return _triangle_instance(1, 1, 1, 0, 0, 1)


def empty_core_game() -> ExplicitGame:
    """Three agents, every proper coalition costs 1, the grand coalition 2.

    Pair constraints cap the shareable total at 3/2 < 2, so the core is
    empty with cost of stability 1/2.
    """
    return ExplicitGame(3, [0, 1, 1, 1, 1, 1, 1, 2])


def random_explicit_game(rng: Random, n: int) -> ExplicitGame:
    """Uniform integer costs in [0, 10] on nonempty coalitions."""
    table = [0] + [rng.randint(0, 10) for _ in range((1 << n) - 1)]
    return ExplicitGame(n, table)


def random_empty_core_game(rng: Random, n: int) -> ExplicitGame:
    """Rejection-sample up to 1000 explicit games until the core is empty.

    Proper coalitions get small costs and the grand coalition a large one,
    which makes empty cores frequent; every candidate is still checked.
    A game with fewer than two agents always has a core, so n < 2 raises
    ValueError before the first draw.
    """
    if n < 2:
        raise ValueError(f"an empty core needs at least two agents, got n = {n}")
    for _ in range(1000):
        table = [0] + [rng.randint(1, 6) for _ in range((1 << n) - 2)]
        table.append(rng.randint(2 * n, 3 * n))
        game = ExplicitGame(n, table)
        nonempty, _ = core_nonempty(game)
        if not nonempty:
            return game
    raise RuntimeError("no empty-core game found in 1000 draws")


def random_last_monotone_game(rng: Random, n: int) -> ExplicitGame:
    """Random costs in [0, 10] with c(N) lifted to max_k c(N \\ {k})."""
    table = [0] + [rng.randint(0, 10) for _ in range((1 << n) - 1)]
    full = (1 << n) - 1
    table[full] = max(table[full], *(table[full ^ (1 << i)] for i in range(n)))
    return ExplicitGame(n, table)


WEIGHT_MODELS = ("uniform", "rational", "euclidean", "nearpath")


def random_graph(rng: Random, n: int, model: str = "uniform") -> GraphInstance:
    """A complete random instance on n agents plus the supplier.

    Models: "uniform" integer weights; "rational" small-denominator
    fractions; "euclidean" squared distances of random grid points;
    "nearpath" a cheap Hamiltonian path hidden among expensive edges (the
    adversarial shape for shareable-cost maximization).
    """
    size = n + 1
    w = [[_ZERO] * size for _ in range(size)]

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
        raise ValueError(f"unknown weight model {model!r}; pick one of {WEIGHT_MODELS}")
    return GraphInstance(n, w)
