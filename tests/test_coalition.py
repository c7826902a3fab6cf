from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from allocore.coalition import Coalition, bits_members, submasks_ascending


def test_from_members_round_trip():
    c = Coalition.from_members([1, 3], 3)
    assert c.bits == 0b101
    assert c.members() == (1, 3)
    assert c.key() == "1,3"
    assert str(c) == "{1,3}"


def test_bounds_checked():
    with pytest.raises(ValueError):
        Coalition(8, 3)
    with pytest.raises(ValueError):
        Coalition(-1, 3)
    with pytest.raises(ValueError):
        Coalition.from_members([4], 3)
    with pytest.raises(ValueError):
        Coalition.from_members([0], 3)


def test_submasks_ascending_enumerates_exactly_once():
    mask = 0b10110
    subs = list(submasks_ascending(mask))
    assert subs == sorted(subs)
    assert set(subs) == {s for s in range(1, 32) if s & mask == s}


@given(st.integers(min_value=0, max_value=2**10 - 1))
def test_submasks_match_filter(mask):
    assert list(submasks_ascending(mask)) == [
        s for s in range(1, mask + 1) if s & mask == s
    ]


@given(st.sets(st.integers(min_value=1, max_value=10)), st.integers(10, 12))
def test_members_bits_bijection(members, n):
    c = Coalition.from_members(members, n)
    assert set(c.members()) == members
    assert bits_members(c.bits) == c.members() == tuple(sorted(members))
