from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bhecke.partitions import (
    as_partition,
    boxes,
    content,
    diagonal_lengths,
    diagonal_step,
    enumerate_partitions,
    fmt_ratio,
    from_diagonal_lengths,
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
    row1 = [tab[(1, c)] for c in range(1, 5)]
    assert row1 == [3, 4, 5, 6]
    assert tab[(4, 1)] == 0
    assert tab[(5, 1)] == 1


def test_m_tableau_half_integer_m():
    tab = m_tableau((2,), Fraction(1, 2))
    assert sorted(tab.values()) == [Fraction(1, 2), Fraction(3, 2)]


@given(partitions_st, st.fractions(min_value=0, max_value=4))
def test_m_tableau_entries_nonnegative(lam, m):
    tab = m_tableau(lam, m)
    assert all(e >= 0 for e in tab.values())


@given(partitions_st.filter(bool), st.integers(0, 5))
def test_m_tableau_rows_increase_by_one(lam, m):
    tab = m_tableau(lam, Fraction(m))
    for r, length in enumerate(lam, start=1):
        for c in range(1, length):
            diff = tab[(r, c + 1)] - tab[(r, c)]
            assert diff in (1, -1)


def test_strip_entries():
    assert strip(1) == (0,)
    assert strip(3) == (-1, 0, 1)
    s4 = strip(4)
    assert s4 == (Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2))
    assert sorted(abs(e) for e in s4) == [
        Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(3, 2)]
    with pytest.raises(ValueError):
        strip(0)


@given(st.integers(1, 30))
def test_strip_sums_to_zero(p):
    assert sum(strip(p)) == 0
    assert len(strip(p)) == p


# Every partition of weight <= 12, and a window of contents wide enough that
# every diagonal of each is inside it with an empty diagonal at either end.
UP_TO_12 = [lam for w in range(13) for lam in (enumerate_partitions(w) if w else [()])]
WINDOW = range(-13, 14)


def test_box_lies_in_lam_by_its_diagonal():
    for lam in UP_TO_12:
        diag = diagonal_lengths(lam)
        inside = set(boxes(lam))
        rows, cols = len(lam) + 2, (lam[0] if lam else 0) + 2
        for r in range(1, rows + 1):
            for c in range(1, cols + 1):
                assert ((r, c) in inside) == (diag.get(c - r, 0) >= min(r, c)), (lam, r, c)
        assert from_diagonal_lengths(diag) == lam


def _sequences_passing_the_step_rule(budget):
    """Every sequence of lengths on WINDOW, zero at both ends, of total at
    most budget, whose every neighbouring pair passes diagonal_step: built
    outward from content 0, trying every length at each new diagonal."""
    out = []

    def extend(seq, lo, hi, left):
        if lo == WINDOW[0] and hi == WINDOW[-1]:
            if seq[lo] == 0 == seq[hi]:
                out.append({x: v for x, v in seq.items() if v})
            return
        x = hi + 1 if hi < WINDOW[-1] else lo - 1
        for v in range(left + 1):
            if (diagonal_step(hi, seq[hi], v) if x > hi else diagonal_step(x, v, seq[lo])):
                seq[x] = v
                extend(seq, min(lo, x), max(hi, x), left - v)
                del seq[x]

    for v in range(budget + 1):
        extend({0: v}, 0, 0, budget - v)
    return out


def test_step_rule_tells_partitions_apart():
    # A sequence of diagonal lengths is a partition's exactly when every
    # neighbouring pair passes the step rule.
    wanted = sorted(sorted(diagonal_lengths(lam).items()) for lam in UP_TO_12)
    found = sorted(sorted(seq.items()) for seq in _sequences_passing_the_step_rule(12))
    assert found == wanted
    assert len(found) == len(UP_TO_12) == 272


def test_containment_is_diagonal_by_diagonal():
    diags = {lam: diagonal_lengths(lam) for lam in UP_TO_12}
    for big in UP_TO_12:
        inside = set(boxes(big))
        for mu in UP_TO_12:
            contains = set(boxes(mu)) <= inside
            assert contains == all(diags[big].get(x, 0) >= n for x, n in diags[mu].items()), \
                (big, mu)


def test_enumerate_partitions_counts():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(enumerate_partitions(10)) == 42
    assert len(enumerate_partitions(40)) == 37338
    with pytest.raises(ValueError, match="41 > 40"):
        enumerate_partitions(41)


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
