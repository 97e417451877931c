import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import bhecke
from bhecke import splitting
from bhecke.cfun import pole_order_short_direct
from bhecke.partitions import RANK_BOUND, boxes, content, enumerate_partitions, strip
from bhecke.rgroup import can_glue
from bhecke.splitting import (
    SPLIT_MEMO_BOUND,
    Orientation,
    central_character,
    datum_error,
    is_residual_point,
    residual_counts,
    residual_partitions,
    split,
)

H = Orientation.HORIZONTAL
V = Orientation.VERTICAL

# Verdicts frozen from the root-counting definition worked by hand.
RESIDUAL_CASES = [
    ((1,), Fraction(1), True),
    ((1, 1), Fraction(1), False),
    ((2,), Fraction(1, 2), True),
    ((1, 1), Fraction(1, 2), False),
    ((2, 2), Fraction(1), True),
    ((1, 1, 1, 1), Fraction(1), True),
    ((2, 1, 1), Fraction(0), True),
    ((2, 1, 1), Fraction(1), True),
    ((3, 3), Fraction(1), True),
    ((2, 1), Fraction(0), False),
    ((2, 2, 1), Fraction(1), False),
    ((3,), Fraction(0), True),
    ((1, 1), Fraction(2), True),
    ((2, 1), Fraction(2), True),
]


@pytest.mark.parametrize("lam, m, expect", RESIDUAL_CASES)
def test_is_residual_point_frozen(lam, m, expect):
    assert is_residual_point(lam, m) is expect


def test_is_residual_point_rejects_empty():
    with pytest.raises(ValueError):
        is_residual_point((), Fraction(1))
    with pytest.raises(ValueError):
        residual_counts((), Fraction(1))


def pairwise_counts(lam, m):
    """The root count written out root by root: the definition, in Fraction."""
    gamma = [content(box) + m for box in boxes(lam)]
    poles = zeros = 0
    for gi in gamma:
        for val in (gi, -gi):
            poles += val == m
            zeros += val == 0
    for gi, gj in combinations(gamma, 2):
        for val in (gi + gj, gi - gj, -gi + gj, -gi - gj):
            poles += val == 1
            zeros += val == 0
    return poles, zeros


# m = a/d for d <= 4 and 0 <= m <= 5: integers, halves, and the odd d = 3.
_SWEEP_MS = sorted({Fraction(a, d) for d in range(1, 5) for a in range(5 * d + 1)})


@pytest.mark.parametrize("m", _SWEEP_MS, ids=str)
def test_residual_counts_match_pairwise(m):
    for l in range(1, 11):
        for lam in enumerate_partitions(l):
            assert residual_counts(lam, m) == pairwise_counts(lam, m), (lam, m)


def test_residual_counts_worked_values():
    # m = 0 counts each zero one-coordinate root as a pole and a zero.
    assert residual_counts((1,), Fraction(0)) == (2, 2)
    # gamma = (1, 2, 0, -1): poles at e_1, -e_4 and six pair roots; zeros at
    # +-e_3 and +-(e_1 + e_4).
    assert residual_counts((2, 1, 1), Fraction(1)) == (8, 4)
    # gamma = (1/2, 3/2, -1/2, 1/2): 9 - 6 = 3 != 4, not residual.
    assert residual_counts((2, 2), Fraction(1, 2)) == (9, 6)


# (lam, m, xi, eta); None means the split is undefined.
SPLIT_CASES = [
    ((2,), Fraction(1), (2,), ()),
    ((2, 2), Fraction(1), (2, 2), ()),
    ((2, 1, 1), Fraction(1), (2,), (2,)),
    ((1, 1), Fraction(0), (), (2,)),
    ((1, 1, 1), Fraction(0), (), (3,)),
    ((2, 1, 1), Fraction(0), (1,), (3,)),
    ((1, 1, 1, 1), Fraction(1), (1,), (3,)),
    ((1, 1), Fraction(2), (1, 1), ()),
    ((4, 3, 2, 1, 1), Fraction(3), (4, 3, 2), (2,)),
    ((2, 2, 1, 1, 1, 1), Fraction(3), (2, 2, 1), (3,)),
    ((1, 1), Fraction(1), None, None),
    ((2, 2), Fraction(1, 2), None, None),
    ((2, 1), Fraction(0), None, None),
    ((2, 2, 1), Fraction(1), None, None),
]


@pytest.mark.parametrize("lam, m, xi, eta", SPLIT_CASES)
def test_split_frozen(lam, m, xi, eta):
    res = split(lam, m)
    if xi is None:
        assert res is None
    else:
        assert res.bipartition.first == xi
        assert res.bipartition.second == eta


def test_split_block_details():
    res = split((4, 3, 2, 1, 1), Fraction(3))
    got = [(b.orientation, b.entry_low, b.entry_high, len(b)) for b in res.blocks]
    assert got == [(H, 3, 6, 4), (H, 2, 4, 3), (H, 1, 2, 2), (V, 0, 1, 2)]
    # ascending-entry box order inside each block
    assert res.blocks[0].boxes == ((1, 1), (1, 2), (1, 3), (1, 4))
    assert res.blocks[3].boxes == ((4, 1), (5, 1))


def test_split_rejects_negative_m():
    with pytest.raises(ValueError):
        split((2,), Fraction(-1))


def test_split_empty_partition():
    res = split((), Fraction(1))
    assert res.blocks == ()
    assert res.bipartition.first == ()
    assert res.bipartition.second == ()


@pytest.mark.parametrize("lam", [[2, 1], (2, 0), (1, 2), (2, -1), (0,)], ids=repr)
def test_split_rejects_a_non_partition(lam):
    # with the splits of (2,) and (2, 1) kept, e.g. (2, 0) still raises
    split((2,), Fraction(1)), split((2, 1), Fraction(1))
    for _ in range(2):
        with pytest.raises(ValueError, match="not a partition"):
            split(lam, Fraction(1))
    with pytest.raises(ValueError, match="not a partition"):
        can_glue(1, lam, Fraction(1))


# ------------------------------------------------------------ the memo

MEMO_MS = [Fraction(k, 2) for k in range(9)] + [Fraction(1, 3), Fraction(5, 4)]


@pytest.mark.parametrize("m", MEMO_MS, ids=str)
def test_memoised_split_equals_the_unmemoised_body(m):
    unmemoised = splitting._split.__wrapped__
    for l in range(11):
        for lam in enumerate_partitions(l) if l else [()]:
            first = split(lam, m)
            assert first == unmemoised(lam, m), (lam, m)
            assert split(lam, m) is first, (lam, m)


def test_can_glue_splits_mu_once_for_every_strip():
    mu, m = (4, 3, 2, 1, 1), Fraction(3)
    splitting._split.cache_clear()
    glues = [can_glue(p, mu, m) for p in range(1, 13)]
    info = splitting._split.cache_info()
    assert (info.misses, info.hits) == (1, 11)
    assert glues == [pole_order_short_direct(p, mu, m) == 0 for p in range(1, 13)]


def test_memo_keeps_at_most_its_bound():
    splitting._split.cache_clear()
    for k in range(SPLIT_MEMO_BOUND + 10):
        split((1,), Fraction(k))
    assert splitting._split.cache_info().currsize == SPLIT_MEMO_BOUND
    # the least recently used entries went first
    misses = splitting._split.cache_info().misses
    split((1,), Fraction(SPLIT_MEMO_BOUND + 9))
    assert splitting._split.cache_info().misses == misses
    split((1,), Fraction(0))
    assert splitting._split.cache_info().misses == misses + 1


def test_negative_m_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="m must be >= 0"):
            split((2, 1), Fraction(-1, 2))


# Fills the memo twice over with its largest entries under RANK_BOUND, the
# column (1^64) at m >= 64 (64 one-box blocks, entries above the small-int
# cache), and prints the growth of the peak RSS over the import baseline.
# ru_maxrss is in KiB on Linux.
_MEMO_RSS_PROBE = """
import json, resource
from fractions import Fraction
from bhecke import splitting
def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
base = peak()
for k in range(2 * splitting.SPLIT_MEMO_BOUND):
    splitting.split((1,) * 64, Fraction(64 * 997 + k, 997))
print(json.dumps({"kept": splitting._split.cache_info().currsize,
                  "grown": peak() - base}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads ru_maxrss in KiB, as Linux reports it")
def test_a_full_memo_of_rank_64_splits_stays_under_40_mb():
    # A fresh interpreter, so that the peak starts at the import baseline.
    # About 30 MB on Python 3.11; twice the bound in distinct inputs shows
    # that evicted entries are freed.
    src = str(Path(bhecke.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _MEMO_RSS_PROBE], check=True,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    rss = json.loads(out)
    assert rss["kept"] == SPLIT_MEMO_BOUND
    assert rss["grown"] <= 40e6, rss


def _half_range(lo, hi):
    q = Fraction(lo)
    while q <= hi:
        yield q
        q += Fraction(1, 2)


@pytest.mark.parametrize("m", list(_half_range(0, 3)))
def test_split_defined_iff_residual_small(m):
    for l in range(1, 10):
        for lam in enumerate_partitions(l):
            assert (split(lam, m) is not None) == is_residual_point(lam, m), (lam, m)


@given(st.integers(1, 8), st.fractions(min_value=0, max_value=4))
def test_split_block_sizes_partition_diagram(l, m):
    for lam in enumerate_partitions(l):
        res = split(lam, m)
        if res is None:
            continue
        total = sum(len(b) for b in res.blocks)
        assert total == l
        assert res.bipartition.weight == l


def test_residual_partitions():
    assert residual_partitions(0, Fraction(1)) == [()]
    assert residual_partitions(2, Fraction(1, 2)) == [(2,)]
    got = residual_partitions(4, Fraction(1))
    assert (1, 1, 1, 1) in got and (2, 2) in got


def test_residual_partitions_weight_thirty():
    assert len(residual_partitions(30, Fraction(3))) == 2164


def test_central_character_concatenation():
    cc = central_character((3,), (2, 1, 1), Fraction(1))
    assert cc == (-1, 0, 1, 1, 2, 0, -1)


def test_central_character_worked_example():
    cc = central_character((11, 7, 4, 3), (4, 3, 2, 1, 1), Fraction(3))
    assert len(cc) == 36
    assert cc[:11] == strip(11)
    assert cc[11:18] == strip(7)
    assert cc[25:] == (3, 4, 5, 6, 2, 3, 4, 1, 2, 0, -1)


def test_central_character_rejects_nonresidual():
    with pytest.raises(ValueError):
        central_character((3,), (1, 1), Fraction(1))


def test_validate_datum():
    assert datum_error(36, Fraction(3), (11, 7, 4, 3), (4, 3, 2, 1, 1)) is None
    assert datum_error(3, Fraction(1), (2,), (1,)) is None
    assert datum_error(2, Fraction(1), (2,), ()) is None
    assert datum_error(5, Fraction(1), (3,), (1, 1)) is not None
    assert datum_error(4, Fraction(1), (2,), (1,)) is not None
    assert datum_error(3, Fraction(-1), (2,), (1,)) is not None
    assert datum_error(3, Fraction(1), (1, 2), (1,)) is not None
    assert datum_error(RANK_BOUND, Fraction(1, 3), (RANK_BOUND,), ()) is None
    assert datum_error(RANK_BOUND + 1, Fraction(1, 3), (RANK_BOUND + 1,), ()) \
        == f"n={RANK_BOUND + 1} is above the rank bound {RANK_BOUND}"
