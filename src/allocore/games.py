"""Transferable-utility games and brute-force structural checks.

A game is a pair (N, c) of agents N = {1, ..., n} and a characteristic cost
function c on coalitions with c(empty) = 0. Cost games are nonnegative;
profit games produced by :func:`to_profit_game` may carry negative values.
An allocation is a plain tuple of n Fractions, agent i's share at index i - 1.
The brute-force checks read the whole table once, as the integers of
:meth:`Game.scaled_table`; scaling by D > 0 keeps every comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .coalition import Coalition, submasks_ascending
from .errors import EnumerationLimitError

#: Hard cap for any operation that enumerates all coalitions (2^n table rows).
ENUM_LIMIT = 16


def check_enum_limit(n: int, what: str) -> None:
    if n > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"{what} enumerates all 2^{n} coalitions; limit is n <= {ENUM_LIMIT}"
        )


def as_rational(value: object) -> Fraction:
    """Coerce ints, strings like "3/4" or "0.75", and Fractions; floats are
    rejected, and so are strings in exponent notation ("1e999999999" would
    build a billion-digit integer)."""
    if type(value) is Fraction:  # the common case, without the ABC instance check
        return value
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation is not accepted: {value!r}")
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
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

    def singleton_costs(self) -> tuple[Fraction, ...]:
        return tuple(self.cost_bits(1 << i) for i in range(self.n))

    def table(self) -> tuple[Fraction, ...]:
        """The full 2^n cost table, indexed by bitmask."""
        check_enum_limit(self.n, "building a full cost table")
        return tuple(self.cost_bits(bits) for bits in range(1 << self.n))

    def scaled_table(self) -> tuple[Sequence[int], int]:
        """(D * table, D): the cost table as integers over one common
        denominator D, the lcm of the entries' denominators."""
        return over_common_denominator(self.table())


class ExplicitGame(Game):
    """A game backed by an explicit 2^n cost table indexed by bitmask."""

    def __init__(self, n: int, costs: Sequence[object], *, require_nonnegative: bool = True):
        check_enum_limit(n, "an explicit cost table")
        table = tuple(map(as_rational, costs))
        if len(table) != 1 << n:
            raise ValueError(f"cost table must have 2^{n} = {1 << n} entries, got {len(table)}")
        if table[0] != 0:
            raise ValueError("c(empty coalition) must be 0")
        if require_nonnegative:
            for bits, value in enumerate(table):
                if value.numerator < 0:
                    raise ValueError(f"cost of coalition mask {bits} is negative: {value}")
        self.n = n
        self._table = table

    def cost_bits(self, bits: int) -> Fraction:
        return self._table[bits]

    def table(self) -> tuple[Fraction, ...]:
        return self._table


class PairCheck(NamedTuple):
    ok: bool
    witness: tuple[Coalition, Coalition] | None


class AgentCheck(NamedTuple):
    ok: bool
    witness: int | None


def is_subadditive(game: Game) -> PairCheck:
    """c(S | T) <= c(S) + c(T) for all disjoint nonempty S, T.

    On failure the witness is the lexicographically smallest violating
    (S, T) in bitmask order.
    """
    check_enum_limit(game.n, "the subadditivity check")
    n = game.n
    c, _ = game.scaled_table()
    full = (1 << n) - 1
    for s in range(1, full + 1):
        cs = c[s]
        for t in submasks_ascending(full ^ s):
            if c[s | t] > cs + c[t]:
                return PairCheck(False, (Coalition(s, n), Coalition(t, n)))
    return PairCheck(True, None)


def is_submodular(game: Game) -> PairCheck:
    """c(S) + c(T) >= c(S | T) + c(S & T) for all S, T, by full enumeration."""
    check_enum_limit(game.n, "the submodularity check")
    n = game.n
    table, _ = game.scaled_table()
    size = 1 << n
    for s in range(size):
        cs = table[s]
        for t in range(size):
            if cs + table[t] < table[s | t] + table[s & t]:
                return PairCheck(False, (Coalition(s, n), Coalition(t, n)))
    return PairCheck(True, None)


def is_monotone(game: Game) -> PairCheck:
    """c(S) <= c(T) whenever S is a subset of T."""
    check_enum_limit(game.n, "the monotonicity check")
    n = game.n
    c, _ = game.scaled_table()
    full = (1 << n) - 1
    for s in range(full + 1):
        cs = c[s]
        # supersets of s in ascending order: s | u over submasks u of ~s
        for u in submasks_ascending(full ^ s):
            if cs > c[s | u]:
                return PairCheck(False, (Coalition(s, n), Coalition(s | u, n)))
    return PairCheck(True, None)


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


def to_profit_game(game: Game) -> ExplicitGame:
    """The cost-savings game v(S) = sum_{i in S} c({i}) - c(S).

    Values are nonnegative when the cost game is subadditive, but may be
    negative otherwise; the resulting table is therefore not validated for
    nonnegativity.
    """
    check_enum_limit(game.n, "the profit transformation")
    table = game.table()
    single_sums = subset_sums([table[1 << i] for i in range(game.n)])
    values = [s - c for s, c in zip(single_sums, table)]
    return ExplicitGame(game.n, values, require_nonnegative=False)


def profit_transform_allocation(game: Game, x: Sequence[object]) -> tuple[Fraction, ...]:
    """Map cost shares to profit shares by x_i -> c({i}) - x_i (an involution)."""
    if len(x) != game.n:
        raise ValueError("allocation length does not match the game")
    return tuple(ci - as_rational(xi) for ci, xi in zip(game.singleton_costs(), x))
