"""The stabilizer survivors and R members of _wscan against pure-Python
scans."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import bhecke
from bhecke._wscan import (
    group_order,
    pi_structure,
    pi_survivors,
    unrank,
    w_survivor_indices,
)
from bhecke.partitions import enumerate_partitions
from bhecke.rgroup import InductionDatum, brute_force_R, induction_data


def shapes(n_max):
    """Every (n, pset, short) of a datum with a nonempty parabolic root
    system and n <= n_max."""
    out = set()
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            for kappa in enumerate_partitions(k):
                l = n - k
                if l == 0 and (not kappa or kappa[0] == 1):
                    continue
                out.add((n,) + pi_structure(tuple(kappa), l, n))
    return sorted(out)


@lru_cache(maxsize=None)
def elements(n):
    return [unrank(n, k) for k in range(group_order(n))]


def root_image(images, a):
    """w(e_a - e_{a+1}) as a dict coordinate -> coefficient."""
    x, y = images[a - 1], images[a]
    out = {abs(x): 1 if x > 0 else -1}
    out[abs(y)] = out.get(abs(y), 0) - (1 if y > 0 else -1)
    return out


def scan(n, pset, short):
    """Ranks of the elements mapping every chain root of pset to a chain
    root of pset, and fixing e_n when short."""
    chain = [{b: 1, b + 1: -1} for b in pset]
    return [k for k, images in enumerate(elements(n))
            if all(root_image(images, a) in chain for a in pset)
            and (not short or images[n - 1] == n)]


def test_survivors_match_python_scan():
    found = shapes(5)
    assert len(found) > 30
    for n, pset, short in found:
        surv = pi_survivors(n, pset, short)
        assert surv.dtype == np.int64
        assert surv.tolist() == scan(n, pset, short), (n, pset, short)


def test_repeated_call_returns_cached_array():
    first = pi_survivors(6, (1, 2, 4), True)
    assert pi_survivors(6, (1, 2, 4), True) is first
    assert not first.flags.writeable
    once = w_survivor_indices(6, (3, 2), 1, (1, 3, 5, 0, 2, 2))
    again = w_survivor_indices(6, (3, 2), 1, (1, 3, 5, 0, 2, 2))
    assert np.array_equal(once, again)
    assert np.isin(once, first).all()


def test_wide_character_gives_the_same_survivors():
    # Entries whose differences leave int16 switch the scan to int64; a
    # positive scale of the character keeps the survivors.
    gamma2 = (1, 3, 5, 0, 2, 2)
    narrow = w_survivor_indices(6, (3, 2), 1, gamma2)
    wide = w_survivor_indices(6, (3, 2), 1, tuple(20000 * g for g in gamma2))
    assert np.array_equal(narrow, wide)


def test_empty_parabolic_root_system_is_none():
    assert w_survivor_indices(3, (1, 1, 1), 0, (1, 1, 1)) is None
    assert w_survivor_indices(1, (1,), 0, (0,)) is None
    assert pi_survivors(3, (), False) is None


# Prints, as JSON, the growth of the peak RSS over the import baseline
# after building images_table(8) and after four survivor scans, with the
# table's size and layout. ru_maxrss is in KiB on Linux.
_RSS_PROBE = """
import json, resource
from bhecke import _wscan
def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
base = peak()
img = _wscan.images_table(8)
built = peak() - base
for pset, short in [((1,), False), ((1,), True),
                    ((1, 2, 3, 4, 5, 6, 7), False), ((2, 4, 6), False)]:
    _wscan.pi_survivors(8, pset, short)
print(json.dumps({"nbytes": img.nbytes, "built": built,
                  "scanned": peak() - base,
                  "contiguous": img.flags.c_contiguous}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads ru_maxrss in KiB, as Linux reports it")
def test_rank_8_scans_allocate_little_beyond_the_table():
    # A fresh interpreter, so that the peak starts at the import baseline.
    src = str(Path(bhecke.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE], check=True,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    rss = json.loads(out)
    assert rss["contiguous"]
    assert rss["built"] <= 1.25 * rss["nbytes"], rss
    assert rss["scanned"] <= 1.5 * rss["nbytes"], rss


def r_scan(xi):
    """Ranks of the stabilizer elements w with, on every pair of blocks
    p < q of one length class starting at coordinates a < b, w(e_a) > 0 and
    the block holding |w(e_a)| before the one holding |w(e_b)|, and, on a
    class that does not glue, w(e_a) > 0 on every block."""
    block = [-1] * xi.n
    for p, (a, part) in enumerate(zip(xi.offsets, xi.kappa)):
        block[a:a + part] = [p] * part
    gluable = {length for length, _ in xi.gluable_classes}
    stab = xi._stabilizer_indices
    ranks = range(group_order(xi.n)) if stab is None else stab.tolist()
    out = []
    for k in ranks:
        images = elements(xi.n)[k]
        ok = True
        for length, ps in xi.length_classes():
            firsts = [images[xi.offsets[p]] for p in ps]
            if length not in gluable:
                ok &= all(v > 0 for v in firsts)
            for i, v in enumerate(firsts):
                for w in firsts[i + 1:]:
                    ok &= v > 0 and block[abs(v) - 1] < block[abs(w) - 1]
        if ok:
            out.append(k)
    return out


def test_r_members_match_python_scan():
    data = [InductionDatum(*case) for n in range(1, 6)
            for case in induction_data(n, [F(k, 2) for k in range(7)])]
    assert len(data) == 428
    assert sum(xi._stabilizer_indices is None for xi in data) == 35
    for xi in data:
        found = [w.images for w in brute_force_R(xi)]
        assert found == [elements(xi.n)[k] for k in r_scan(xi)], xi


def test_character_condition_never_prunes():
    # Every block of one length carries the same centred strip character,
    # so a w that permutes those blocks, each reversed with sign or not,
    # maps the character onto itself, and the simple-root condition already
    # fixes the tail pointwise. So today the stabilizer equals the
    # simple-root survivors, and its order is the product of 2^k * k! over
    # the length classes, whatever glues. The filter stays: it is part of
    # the stabilizer's definition.
    ms = [F(k, 2) for k in range(9)] + [F(1, 3), F(2, 3), F(5, 4)]
    data = [InductionDatum(*case) for n in range(1, 7)
            for case in induction_data(n, ms)]
    assert len(data) == 1469
    for xi in data:
        stab = xi._stabilizer_indices
        surv = pi_survivors(xi.n, *pi_structure(xi.kappa, xi.l, xi.n))
        if surv is None:
            assert stab is None, xi
        else:
            assert np.array_equal(stab, surv), xi
