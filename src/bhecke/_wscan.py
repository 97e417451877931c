"""Vectorized scans over W(B_n) for the brute-force stabilizer oracles.

Group elements are indexed 0 .. 2^n*n!-1 as k = s*n! + p, where p is the
lexicographic rank of the underlying permutation and bit j of s flips the
sign of target coordinate j+1. The full signed-image table for one n is a
(2^n*n!, n) int8 array (83 MB at n = 8), built once per n and shared; the
sorted survivor indices of each simple-root shape (n, pset, short) are
cached, a few hundred int64 per shape at n = 8.
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
    img = signs[:, perms]
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


def rank(images: tuple[int, ...]) -> int:
    n = len(images)
    perm = [abs(v) - 1 for v in images]
    pool = list(range(n))
    p = 0
    for i, j in enumerate(perm):
        d = pool.index(j)
        p += d * factorial(n - 1 - i)
        pool.pop(d)
    s = 0
    for v in images:
        if v < 0:
            s |= 1 << (-v - 1)
    return s * factorial(n) + p


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
    e_b - e_{b+1} of pset (w(e_a) is e_b or -e_{b+1}). Cached per shape
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
            v = pair[:, 0]
            keep = (pair[:, 1] == v + 1) & lut[v.astype(np.int16) + n]
            surv = np.flatnonzero(keep) if surv is None else surv[keep]
        surv.flags.writeable = False
        _survivor_cache[key] = surv
    return surv


def w_survivor_indices(n: int, kappa: tuple[int, ...], l: int,
                       gamma2: tuple[int, ...]):
    """Indices of the stabilizer 𝒲: simple-root condition plus the character
    condition (image minus character constant per strip block, zero on the
    tail). Returns None when the parabolic root system is empty, meaning the
    whole group survives vacuously."""
    surv = pi_survivors(n, *pi_structure(kappa, l, n))
    if surv is None:
        return None
    img = images_table(n)[surv]
    g2 = np.array(gamma2, dtype=np.int16)
    tgt = np.abs(img).astype(np.int64) - 1
    vals = np.sign(img).astype(np.int16) * g2[None, :]
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


_r_full_cache: dict = {}


def r_member_indices(n: int, kappa: tuple[int, ...], surv: np.ndarray | None,
                     class_blocks: tuple[tuple[tuple[int, int], ...], ...],
                     gluable_flags: tuple[bool, ...]) -> np.ndarray:
    """Indices of stabilizer elements preserving the positive restricted roots.

    surv is the datum's stabilizer as w_survivor_indices returns it: sorted
    indices, or None for the whole group. class_blocks groups the strip
    blocks by equal length, each block given as (0-based block index,
    0-based first coordinate); gluable_flags marks the classes whose factor
    carries no single restricted root.
    """
    if surv is None:
        key = (n, kappa, gluable_flags)
        hit = _r_full_cache.get(key)
        if hit is not None:
            return hit
        rows = images_table(n)

        def col(c):
            return rows[:, c]
    else:
        full = images_table(n)

        def col(c):
            return full[surv, c]

    blk_of = np.full(n, -1, dtype=np.int8)
    off = 0
    for p, part in enumerate(kappa):
        blk_of[off:off + part] = p
        off += part

    t = {}
    s = {}
    for blocks in class_blocks:
        for p, c in blocks:
            img0 = col(c)
            t[p] = blk_of[np.abs(img0).astype(np.int16) - 1]
            s[p] = img0 > 0

    size = group_order(n) if surv is None else len(surv)
    keep = np.ones(size, dtype=bool)
    for blocks, gluable in zip(class_blocks, gluable_flags):
        ps = [p for p, _ in blocks]
        if not gluable:
            for p in ps:
                keep &= s[p]
        for i, p in enumerate(ps):
            for q in ps[i + 1:]:
                keep &= (t[p] < t[q]) & s[p]

    out = np.flatnonzero(keep) if surv is None else surv[keep]
    if surv is None:
        _r_full_cache[(n, kappa, gluable_flags)] = out
    return out
