"""Transferable-utility games and the exact-rational helpers they share.

A game is a pair (N, c) of agents N = {1, ..., n} and a nonnegative
characteristic cost function c on coalitions with c(empty) = 0. An
allocation is a plain tuple of n Fractions, agent i's share at index i - 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .coalition import Coalition
from .errors import EnumerationLimitError

#: Hard cap for any operation that enumerates all coalitions (2^n table rows).
ENUM_LIMIT = 16


def check_enum_limit(n: int, what: str) -> None:
    if n > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"{what} enumerates all 2^{n} coalitions; limit is n <= {ENUM_LIMIT}"
        )


def as_rational(value: object) -> Fraction:
    """Coerce ints, strings like "3/4" or "0.75", and Fractions; floats and
    bools are rejected, and so are strings in exponent notation
    ("1e999999999" would build a billion-digit integer)."""
    if type(value) is Fraction:  # the common case, without the ABC instance check
        return value
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation is not accepted: {value!r}")
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def over_common_denominator(values: Sequence[Fraction], base: int = 1) -> tuple[list[int], int]:
    """([D * v for v in values], D): the rationals over D = lcm(base, their denominators)."""
    d = lcm(base, *(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def subset_sums(shares: Sequence) -> list:
    """x(S) for every bitmask S, by doubling: share i adds itself to every
    sum so far, which fills the bitmasks with bit i set.

    Starts from the int 0, so integer shares give integer sums and
    Fraction shares give Fraction sums (the empty set's entry stays 0).
    """
    sums = [0]
    for x in shares:
        sums += [s + x for s in sums]
    return sums


class Game:
    """Base class: deterministic coalition cost evaluation for n agents."""

    n: int
    _scaled: tuple[tuple[int, ...], int] | None = None

    def cost_bits(self, bits: int) -> Fraction:
        raise NotImplementedError

    def cost(self, coalition: Coalition) -> Fraction:
        if coalition.n != self.n:
            raise ValueError(
                f"coalition is over {coalition.n} agents, game has {self.n}"
            )
        return self.cost_bits(coalition.bits)

    def grand_cost(self) -> Fraction:
        return self.cost_bits((1 << self.n) - 1)

    def table(self) -> tuple[Fraction, ...]:
        """The full 2^n cost table, indexed by bitmask."""
        check_enum_limit(self.n, "building a full cost table")
        return tuple(self.cost_bits(bits) for bits in range(1 << self.n))

    def seed_coalitions(self) -> list[int]:
        """The bitmasks, ascending, whose rows start every coalition
        program's working set (see ``relaxations._solve_coalitions``): the
        n singletons. Never the empty set or N, so at n = 1, whose one
        singleton is N, there are none."""
        full = (1 << self.n) - 1
        return [1 << i for i in range(self.n) if 1 << i != full]

    def scaled_table(self) -> tuple[Sequence[int], int]:
        """(D * table, D): the cost table as integers over one common
        denominator D, the lcm of the entries' denominators. Computed on
        the first call and kept: every coalition program and oracle of one
        game reads the same scaling."""
        if self._scaled is None:
            nums, d = over_common_denominator(self.table())
            self._scaled = (tuple(nums), d)
        return self._scaled


class ExplicitGame(Game):
    """A game backed by an explicit 2^n cost table indexed by bitmask."""

    def __init__(self, n: int, costs: Sequence[object]):
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError(f"n must be an int, got {type(n).__name__}")
        if n < 0:
            raise ValueError("agent count must be nonnegative")
        check_enum_limit(n, "an explicit cost table")
        table = tuple(costs)
        if set(map(type, table)) != {Fraction}:  # all Fractions need no coercion
            table = tuple(map(as_rational, table))
        if len(table) != 1 << n:
            raise ValueError(f"cost table must have 2^{n} = {1 << n} entries, got {len(table)}")
        if table[0] != 0:
            raise ValueError("c(empty coalition) must be 0")
        for bits, value in enumerate(table):
            if value.numerator < 0:
                raise ValueError(f"cost of coalition mask {bits} is negative: {value}")
        self.n = n
        self._table = table

    def cost_bits(self, bits: int) -> Fraction:
        if not 0 <= bits < len(self._table):  # -1 would read c(N)
            raise ValueError(f"bitmask {bits} out of range for n={self.n}")
        return self._table[bits]

    def table(self) -> tuple[Fraction, ...]:
        return self._table


class AgentCheck(NamedTuple):
    ok: bool
    witness: int | None


def satisfies_last_monotone(game: Game) -> AgentCheck:
    """c(N \\ {k}) <= c(N) for every agent k.

    Holds for monotone cost functions. Under it every almost-core value is
    at most (1 + 1/(n-1)) c(N), and for balanced games the maximizers are
    nonnegative.
    """
    full = (1 << game.n) - 1
    c_full = game.cost_bits(full)
    for k in range(1, game.n + 1):
        if game.cost_bits(full ^ (1 << (k - 1))) > c_full:
            return AgentCheck(False, k)
    return AgentCheck(True, None)
