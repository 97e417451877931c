from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bhecke.partitions import (
    addable_boxes,
    as_partition,
    boxes,
    content,
    enumerate_partitions,
    fmt_ratio,
    is_partition,
    m_tableau,
    parse_partition,
    parse_ratio,
    strip,
)

partitions_st = st.lists(st.integers(1, 9), max_size=6).map(as_partition)


def test_content_examples():
    assert content((1, 1)) == 0
    assert content((1, 4)) == 3
    assert content((5, 1)) == -4
    assert content((3, 3)) == 0


def test_is_partition():
    assert is_partition(())
    assert is_partition((4, 3, 3, 1))
    assert not is_partition((3, 4))
    assert not is_partition((2, 0))
    assert not is_partition((2, -1))
    assert not is_partition((True, True))


def test_as_partition_sorts():
    assert as_partition([1, 3, 2]) == (3, 2, 1)
    with pytest.raises(ValueError):
        as_partition([0, 1])


def test_boxes_row_major():
    assert list(boxes((2, 1))) == [(1, 1), (1, 2), (2, 1)]
    assert list(boxes(())) == []


def test_m_tableau_integer_m():
    tab = m_tableau((4, 3, 2, 1, 1), Fraction(3))
    row1 = [tab.entry((1, c)) for c in range(1, 5)]
    assert row1 == [3, 4, 5, 6]
    assert tab.entry((4, 1)) == 0
    assert tab.entry((5, 1)) == 1


def test_m_tableau_half_integer_m():
    tab = m_tableau((2,), Fraction(1, 2))
    assert tab.entry_multiset() == (Fraction(1, 2), Fraction(3, 2))


@given(partitions_st, st.fractions(min_value=0, max_value=4))
def test_m_tableau_entries_nonnegative(lam, m):
    tab = m_tableau(lam, m)
    assert all(e >= 0 for e in tab.entries.values())


@given(partitions_st.filter(bool), st.integers(0, 5))
def test_m_tableau_rows_increase_by_one(lam, m):
    tab = m_tableau(lam, Fraction(m))
    for r, length in enumerate(lam, start=1):
        for c in range(1, length):
            diff = tab.entry((r, c + 1)) - tab.entry((r, c))
            assert diff in (1, -1)


def test_strip_entries():
    assert strip(1).signed_entries == (0,)
    assert strip(3).signed_entries == (-1, 0, 1)
    s4 = strip(4)
    assert s4.signed_entries == (Fraction(-3, 2), Fraction(-1, 2),
                                 Fraction(1, 2), Fraction(3, 2))
    assert sorted(abs(e) for e in s4.signed_entries) == [
        Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(3, 2)]
    with pytest.raises(ValueError):
        strip(0)


@given(st.integers(1, 30))
def test_strip_sums_to_zero(p):
    assert sum(strip(p).signed_entries) == 0
    assert len(strip(p).signed_entries) == p


def test_addable_boxes():
    assert addable_boxes(()) == [(1, 1)]
    assert addable_boxes((2,)) == [(1, 3), (2, 1)]
    assert addable_boxes((4, 3, 2, 1, 1)) == [(1, 5), (2, 4), (3, 3), (4, 2), (6, 1)]


@given(partitions_st)
def test_addable_boxes_give_partitions(lam):
    for r, c in addable_boxes(lam):
        grown = list(lam) + [0] * (r - len(lam))
        grown[r - 1] += 1
        assert is_partition(tuple(grown))
        assert grown[r - 1] == c


def test_enumerate_partitions_counts():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(enumerate_partitions(10)) == 42
    with pytest.raises(ValueError):
        enumerate_partitions(41)
    assert len(enumerate_partitions(41, bound=50)) == 44583


def test_parse_ratio():
    assert parse_ratio("3") == 3
    assert parse_ratio("-5/2") == Fraction(-5, 2)
    assert parse_ratio(" 1/2 ") == Fraction(1, 2)
    for bad in ("0.5", "1e3", "3/0", "", "one"):
        with pytest.raises(ValueError):
            parse_ratio(bad)


@given(st.fractions())
def test_fmt_parse_round_trip(q):
    assert parse_ratio(fmt_ratio(q)) == q


def test_parse_partition():
    assert parse_partition("") == ()
    assert parse_partition("4,3,2,1,1") == (4, 3, 2, 1, 1)
    assert parse_partition("1,3,2") == (3, 2, 1)
    with pytest.raises(ValueError):
        parse_partition("2,x")
    with pytest.raises(ValueError):
        parse_partition("2,0")
