from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from allocore.coalition import Coalition, bits_members


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


@given(st.sets(st.integers(min_value=1, max_value=10)), st.integers(10, 12))
def test_members_bits_bijection(members, n):
    c = Coalition.from_members(members, n)
    assert set(c.members()) == members
    assert bits_members(c.bits) == c.members() == tuple(sorted(members))
