"""Coalitions of agents encoded as bitmasks.

Agents are numbered 1..n everywhere at the API surface; internally bit i-1
of the mask encodes membership of agent i. Node 0 never appears in a
coalition (it is reserved for the supplier node of spanning-tree instances).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, slots=True)
class Coalition:
    """A subset of the agents {1, ..., n}, stored as a bitmask."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("agent count must be nonnegative")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bitmask {self.bits} out of range for n={self.n}")

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
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return tuple(out)
