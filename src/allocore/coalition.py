"""Coalitions of agents encoded as bitmasks.

Agents are numbered 1..n everywhere at the API surface; internally bit i-1
of the mask encodes membership of agent i. Node 0 never appears in a
coalition (it is reserved for the supplier node of spanning-tree instances).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class _CoalitionFields(NamedTuple):
    bits: int
    n: int


class Coalition(_CoalitionFields):
    """A subset of the agents {1, ..., n}, stored as a bitmask.

    Every way of building one (the constructor, ``_make`` and ``_replace``)
    checks that ``bits`` and ``n`` are ints, not bools, and that ``bits``
    fits in ``n`` agents.
    """

    __slots__ = ()

    def __new__(cls, bits: int, n: int) -> "Coalition":
        return cls._make((bits, n))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "Coalition":
        # the one place a Coalition is built: _replace calls it too
        bits, n = iterable
        for value in (bits, n):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"bits and n must be ints, got {value!r}")
        if n < 0:
            raise ValueError("agent count must be nonnegative")
        if not 0 <= bits < (1 << n):
            raise ValueError(f"bitmask {bits} out of range for n={n}")
        return super()._make((bits, n))

    @classmethod
    def from_members(cls, members: Iterable[int], n: int) -> "Coalition":
        bits = 0
        for agent in members:
            if not 1 <= agent <= n:
                raise ValueError(f"agent {agent} not in 1..{n}")
            bits |= 1 << (agent - 1)
        return cls(bits, n)

    def members(self) -> tuple[int, ...]:
        return bits_members(self.bits)

    def key(self) -> str:
        """Canonical comma-separated member list, e.g. "1,3". Empty set -> ""."""
        return ",".join(str(a) for a in self.members())

    def __str__(self) -> str:
        return "{" + self.key() + "}"


def bits_members(bits: int) -> tuple[int, ...]:
    """1-indexed members of a raw bitmask, in ascending order; the one
    bitmask decoder. Walks the set bits, lowest first."""
    if bits < 0:  # -1 has no lowest set bit to clear: the walk would never end
        raise ValueError(f"bitmask {bits} is negative")
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return tuple(out)
