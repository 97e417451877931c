"""The integer gluing kernel against the Fraction computations it replaced.

The references below are the earlier implementations, kept here as
independent oracles: a scan of every partition of |mu| + p comparing
m-tableau entry multisets, the pole order counted from exponent lists of
(1 - q1^a) factors, the block rule in Fractions, and the splitting map run
on the m-tableau. They share no code with the kernel beyond the partition
enumerator, the m-tableau and the strip; the exponent-list count `order`
comes from `exponent_counts`.
"""

import time
from collections import Counter, defaultdict
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations

import pytest
from exponent_counts import FactorProduct, order

from bhecke.cfun import (
    pole_order_A_part,
    pole_order_block,
    pole_order_short_direct,
)
from bhecke.partitions import content, enumerate_partitions, m_tableau, strip
from bhecke.rgroup import glue_strip_geometric
from bhecke.splitting import split

# Half-integers to 6, plus parameters with denominators 3 and 4.
MS = [F(k, 2) for k in range(13)] + [F(1, 3), F(5, 3), F(7, 4)]
STRIPS = range(1, 13)


def _partitions_up_to(weight):
    return [lam for l in range(weight + 1)
            for lam in (enumerate_partitions(l) if l else [()])]


# ------------------------------------------------------------ references

def _multiset(entries):
    return frozenset(Counter(entries).items())


@lru_cache(maxsize=None)
def _tableau_entries(lam, m):
    return tuple(m_tableau(lam, m).entries.values())


# Holds the tables of one m at a time (totals 0 to 20): each test runs one
# m, so the tables of the other m would only take memory.
@lru_cache(maxsize=21)
def _by_entry_multiset(total, m):
    """Every partition of total, grouped by its m-tableau entry multiset,
    each group in descending lexicographic order."""
    out = defaultdict(list)
    for cand in enumerate_partitions(total):
        out[_multiset(m_tableau(cand, m).entries.values())].append(cand)
    return out


def glue_by_partition_scan(mu, p, m):
    """Partitions of |mu| + p containing mu whose entry multiset is mu's
    plus the strip's absolute entries."""
    strip_entries = tuple(abs(e) for e in strip(p).signed_entries)
    target = _multiset(_tableau_entries(mu, m) + strip_entries)
    return [cand for cand in _by_entry_multiset(sum(mu) + p, m).get(target, [])
            if len(cand) >= len(mu) and all(c >= u for c, u in zip(cand, mu))]


def _a_part_factors(p, m):
    z = F(p - 1, 2)
    num, den = [], []
    for d in range(1, p + 1):
        num.append(-m - z + (d - 1))
        den.append(-z + (d - 1))
    for d1, d2 in combinations(range(1, p + 1), 2):
        num.append(F(-p + d1 + d2 - 2))
        den.append(F(-p + d1 + d2 - 1))
    return FactorProduct(tuple(num), tuple(den))


@lru_cache(maxsize=None)
def _a_part_order(p, m):
    return order(_a_part_factors(p, m))


@lru_cache(maxsize=None)
def _interaction_order(e, mu, m):
    """Order of the interaction quotients of one strip entry e against
    every tableau entry: exponents -e +- entry over -1 - e +- entry."""
    num, den = [], []
    for ep in _tableau_entries(mu, m):
        den.append(-e + ep)
        den.append(-e - ep)
        num.append(-1 - e + ep)
        num.append(-1 - e - ep)
    return order(FactorProduct(tuple(num), tuple(den)))


def direct_by_exponents(p, mu, m):
    """The full product's order, summed over its strip-only part and the
    interaction quotients of each strip entry (the order of a product is
    the sum over its factors, so each part is counted once and cached)."""
    return _a_part_order(p, m) + sum(_interaction_order(e, mu, m)
                                     for e in strip(p).signed_entries)


def block_order_in_fractions(p, x, y):
    z = F(p - 1, 2)
    if (z - x).denominator != 1:
        return 0
    if z == x - 1:
        return -1
    if z == y or (z == 0 and x == 0):
        return 1
    return 0


def split_by_tableau(lam, m):
    """The splitting map on the m-tableau: block fields in selection order
    (orientation, boxes, entry_low, entry_high), or None where undefined."""
    tab = m_tableau(lam, m)
    remaining = set(tab.entries)
    blocks = []
    while remaining:
        top = max(tab.entries[b] for b in remaining)
        argmax = [b for b in remaining if tab.entries[b] == top]
        if len(argmax) > 1:
            return None
        b = argmax[0]
        v = content(b) + m
        if v == 0:
            return None
        step, orientation = ((0, -1), "horizontal") if v > 0 else ((-1, 0), "vertical")
        run, want = [b], top - 1
        while True:
            nxt = (run[-1][0] + step[0], run[-1][1] + step[1])
            if nxt not in remaining or tab.entries[nxt] != want:
                break
            run.append(nxt)
            want -= 1
        run.reverse()
        remaining.difference_update(run)
        blocks.append((orientation, tuple(run), tab.entries[run[0]], tab.entries[run[-1]]))
    return blocks


def _block_fields(sr):
    # Compared field by field: the enum's identity does not survive a reload.
    return [(blk.orientation.value, blk.boxes, blk.entry_low, blk.entry_high)
            for blk in sr.blocks]


# ------------------------------------------------------------ comparisons

@pytest.mark.parametrize("m", MS, ids=str)
def test_glue_matches_partition_scan(m):
    for mu in _partitions_up_to(8):
        for p in STRIPS:
            assert glue_strip_geometric(mu, p, m) == glue_by_partition_scan(mu, p, m), (mu, p, m)


@pytest.mark.parametrize("m", MS, ids=str)
def test_direct_pole_order_matches_exponent_count(m):
    for mu in _partitions_up_to(8):
        for p in STRIPS:
            assert pole_order_short_direct(p, mu, m) == direct_by_exponents(p, mu, m), (mu, p, m)


def test_a_part_matches_exponent_count():
    for m in MS + [-m for m in MS]:
        for p in STRIPS:
            assert pole_order_A_part(p, m) == _a_part_order(p, m), (p, m)


def test_block_order_matches_fraction_rule():
    for x in {abs(k + m) for k in range(-8, 9) for m in MS}:
        for y in (x + k for k in range(8)):
            for p in STRIPS:
                assert pole_order_block(p, (x, y)) == block_order_in_fractions(p, x, y), (p, x, y)


@pytest.mark.parametrize("m", MS, ids=str)
def test_split_matches_tableau_split(m):
    for lam in _partitions_up_to(12):
        sr = split(lam, m)
        want = split_by_tableau(lam, m)
        if want is None:
            assert sr is None, (lam, m)
            continue
        assert _block_fields(sr) == want, (lam, m)
        horizontal = sorted((len(b[1]) for b in want if b[0] == "horizontal"), reverse=True)
        vertical = sorted((len(b[1]) for b in want if b[0] == "vertical"), reverse=True)
        assert (sr.bipartition.first, sr.bipartition.second) == \
            (tuple(horizontal), tuple(vertical)), (lam, m)


@pytest.mark.parametrize("lam, m, entries", [
    ((4, 3, 2, 1, 1), F(3), [(3, 6), (2, 4), (1, 2), (0, 1)]),
    ((2,), F(1, 2), [(F(1, 2), F(3, 2))]),
])
def test_split_block_entries_are_fractions(lam, m, entries):
    blocks = split(lam, m).blocks
    assert [(b.entry_low, b.entry_high) for b in blocks] == entries
    assert all(type(b.entry_low) is F and type(b.entry_high) is F for b in blocks)


# ------------------------------------------------------------ cost

@pytest.mark.parametrize("mu, p, expect", [
    ((12, 7, 4, 3, 2, 1, 1), 12, []),
    ((30,), 13, [(30, 5, 1, 1, 1, 1, 1, 1, 1, 1)]),
])
def test_glue_cost_does_not_scale_with_partition_count(mu, p, expect):
    # A scan of the 53,174 partitions of 42 (63,261 of 43) took 2.7 s and
    # 0.24 s; growing addable boxes takes well under a millisecond.
    started = time.perf_counter()
    assert glue_strip_geometric(mu, p, F(3)) == expect
    assert time.perf_counter() - started < 0.05
