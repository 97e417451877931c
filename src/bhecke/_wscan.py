"""Vectorized scans over W(B_n) for the brute-force stabilizer oracles.

Group elements are indexed 0 .. 2^n*n!-1 as k = s*n! + p, where p is the
lexicographic rank of the underlying permutation and bit j of s flips the
sign of target coordinate j+1. The full signed-image table for one n is a
(2^n*n!, n) int8 array (83 MB at n = 8), built once per n, straight into
one C-contiguous buffer, and shared: at n = 8 the build takes about 0.2 s
and lifts peak RSS by about 1.07 times the table (2-CPU Linux VM). The
sorted survivor indices of each simple-root shape (n, pset, short) are
cached: a few hundred int64 for most shapes at n = 8, but 645,120 with e_n
simple and no chain root. pi_survivors and w_survivor_indices return None
for the whole group; r_member_indices always returns indices and caches
nothing.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

import numpy as np


def group_order(n: int) -> int:
    return (1 << n) * factorial(n)


@lru_cache(maxsize=None)
def images_table(n: int) -> np.ndarray:
    """Row k holds the signed images (w(e_i) = img[i]-th coordinate, signed)."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    s = np.arange(1 << n, dtype=np.int64)[:, None]
    signs = (1 - 2 * ((s >> np.arange(n)[None, :]) & 1)).astype(np.int8)
    img = np.take(signs, perms, axis=1)
    img *= perms + 1
    return img.reshape(-1, n)


def unrank(n: int, k: int) -> tuple[int, ...]:
    """Signed image vector of group element k (1-based coordinate values)."""
    s, p = divmod(k, factorial(n))
    pool = list(range(n))
    perm = []
    for i in range(n - 1, -1, -1):
        d, p = divmod(p, factorial(i))
        perm.append(pool.pop(d))
    return tuple((j + 1) * (-1 if (s >> j) & 1 else 1) for j in perm)


def pi_structure(kappa: tuple[int, ...], l: int, n: int) -> tuple[tuple[int, ...], bool]:
    """Chain positions a (roots e_a - e_{a+1}) and whether e_n is a simple root."""
    pset = []
    off = 0
    for part in kappa:
        pset.extend(range(off + 1, off + part))
        off += part
    if l >= 2:
        pset.extend(range(off + 1, n))
    return tuple(pset), l >= 1


_survivor_cache: dict = {}


def pi_survivors(n: int, pset: tuple[int, ...],
                 short: bool) -> np.ndarray | None:
    """Sorted indices of the elements stabilizing the simple-root set.

    Each condition filters only the candidates left by the ones before it:
    first w(e_n) = e_n when e_n is simple, then, one chain root
    e_a - e_{a+1} of pset at a time, that w maps it to a chain root
    e_b - e_{b+1} of pset: w(e_{a+1}) = w(e_a) + 1, and on the rows left
    by that test, w(e_a) is e_b or -e_{b+1}. Cached per shape
    (n, pset, short); the array is read-only because it is shared. Returns
    None when there is no condition, meaning the whole group survives.
    """
    if not pset and not short:
        return None
    key = (n, pset, short)
    surv = _survivor_cache.get(key)
    if surv is None:
        img = images_table(n)
        lut = np.zeros(2 * n + 1, dtype=bool)
        for b in pset:
            lut[b + n] = True
            lut[n - b - 1] = True
        surv = np.flatnonzero(img[:, n - 1] == n) if short else None
        for a in pset:
            pair = img[slice(None) if surv is None else surv, a - 1:a + 1]
            keep = pair[:, 1] == pair[:, 0] + 1
            surv = np.flatnonzero(keep) if surv is None else surv[keep]
            surv = surv[lut[img[surv, a - 1].astype(np.int16) + n]]
        surv.flags.writeable = False
        _survivor_cache[key] = surv
    return surv


def w_survivor_indices(n: int, kappa: tuple[int, ...], l: int,
                       gamma2: tuple[int, ...]):
    """Indices of the stabilizer 𝒲: simple-root condition plus the character
    condition (image minus character constant per strip block, zero on the
    tail). gamma2 is the central character scaled to integers; the scan
    runs in int16 while the difference of two entries fits, else in int64.
    Returns None when the parabolic root system is empty, meaning the whole
    group survives vacuously.

    The character condition has never pruned a survivor of the simple-root
    condition (tests/test_wscan.py pins that for n <= 6): every block of one
    length carries the same centred strip character, so a w permuting those
    blocks, each reversed with sign or not, maps it onto itself, and w
    fixes the tail pointwise. It stays as part of the definition."""
    surv = pi_survivors(n, *pi_structure(kappa, l, n))
    if surv is None:
        return None
    img = images_table(n)[surv]
    dtype = np.int16 if 2 * max(map(abs, gamma2)) < 1 << 15 else np.int64
    g2 = np.array(gamma2, dtype=dtype)
    tgt = np.abs(img).astype(np.int64) - 1
    vals = np.sign(img).astype(dtype) * g2[None, :]
    wgam = np.empty_like(vals)
    np.put_along_axis(wgam, tgt, vals, axis=1)
    diff = wgam - g2[None, :]
    keep = np.ones(len(surv), dtype=bool)
    off = 0
    for part in kappa:
        if part > 1:
            blk = diff[:, off:off + part]
            keep &= (blk == blk[:, :1]).all(axis=1)
        off += part
    if l:
        keep &= (diff[:, off:] == 0).all(axis=1)
    return surv[keep]


def r_member_indices(n: int, kappa: tuple[int, ...], surv: np.ndarray | None,
                     class_firsts: tuple[tuple[int, ...], ...],
                     gluable_flags: tuple[bool, ...]) -> np.ndarray:
    """Sorted indices of the stabilizer elements preserving the positive
    restricted roots.

    surv is the datum's stabilizer as w_survivor_indices returns it, None
    meaning the whole group. class_firsts groups the 0-based first
    coordinates c of the strip blocks by equal length; gluable_flags marks
    the classes whose factor carries no single restricted root. Each block
    filters only the candidates left by the ones before it: w(e_c) > 0,
    except on the last block of a gluable class, and the block holding
    |w(e_c)| strictly increases from each block of a class to the next,
    which by transitivity orders every pair of the class.
    """
    full = images_table(n)
    blk_of = np.full(n, -1, dtype=np.int8)
    blk_of[:sum(kappa)] = np.repeat(np.arange(len(kappa)), kappa)
    for firsts, gluable in zip(class_firsts, gluable_flags):
        for i, c in enumerate(firsts):
            signed = i < len(firsts) - 1 or not gluable
            if not (signed or i):
                continue  # a one-block gluable class: no condition
            img = full[slice(None) if surv is None else surv, c]
            tgt = blk_of[np.abs(img) - 1]
            keep = (img > 0 if signed else True) & (prev < tgt if i else True)
            surv = np.flatnonzero(keep) if surv is None else surv[keep]
            prev = tgt[keep]
    return np.arange(group_order(n)) if surv is None else surv
