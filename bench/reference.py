"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports bhecke. Every quantity that depends on m is scaled by 2,
so a parameter m in (1/2)Z is passed as the integer m2 = 2m and all
arithmetic stays in Python ints. Each function follows the definition the
paper (and the package docstrings) state, written out a second time so that
a program output can be checked against a computation made apart from it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, factorial


@lru_cache(maxsize=None)
def _parts_at_most(n: int, cap: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    return tuple((first,) + rest
                 for first in range(min(n, cap), 0, -1)
                 for rest in _parts_at_most(n - first, first))


def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, parts decreasing, in descending lexicographic order."""
    return _parts_at_most(n, n)


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the recurrence over the largest part."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def scaled_contents(lam: tuple[int, ...], m2: int) -> list[int]:
    """2 * (content + m) over the boxes of lam."""
    return [2 * (c - r) + m2 for r, row in enumerate(lam) for c in range(row)]


def root_counts(lam: tuple[int, ...], m2: int) -> tuple[int, int]:
    """Pole and zero counts of the residual test, from a histogram of values.

    Over the 2l^2 roots of B_l evaluated at gamma = content + m: a root
    +-e_i is a pole when it takes the value m, a root +-e_i +- e_j when it
    takes the value 1; any root taking 0 is a zero. The pairs are counted
    from value multiplicities instead of pair by pair.
    """
    h = Counter(scaled_contents(lam, m2))
    poles = h[m2] + h[-m2]
    zeros = 2 * h[0]
    # unordered pairs with g_i - g_j = +-1 contribute one pole each
    poles += sum(k * h[v - 2] for v, k in h.items())
    # g_i + g_j = 1 and -g_i - g_j = 1, self-pairs removed
    for s in (2, -2):
        poles += (sum(k * h[s - v] for v, k in h.items()) - h[s // 2]) // 2
    # g_i = g_j and g_i = -g_j each make two of the four pair roots vanish
    zeros += sum(k * (k - 1) for k in h.values())
    zeros += sum(k * h[-v] for v, k in h.items()) - h[0]
    return poles, zeros


def is_residual(lam: tuple[int, ...], m2: int) -> bool:
    """Whether poles minus zeros equals |lam|; the empty partition is residual."""
    if not lam:
        return True
    poles, zeros = root_counts(lam, m2)
    return poles - zeros == sum(lam)


@lru_cache(maxsize=None)
def residual_list(l: int, m2: int) -> tuple[tuple[int, ...], ...]:
    return tuple(lam for lam in partitions(l) if is_residual(lam, m2))


@lru_cache(maxsize=None)
def short_pole_order(p: int, mu: tuple[int, ...], m2: int) -> int:
    """Pole order of the short-root c-function factor for a length-p strip.

    Counts zero exponents among the factors (1 - q^a): the strip-only
    quotient and, for each strip entry e and tableau entry t = |content + m|,
    the interaction quotients with denominators -e +- t and numerators
    -1 - e +- t. The order is zero denominators minus zero numerators.
    """
    z2 = p - 1
    strip2 = [-z2 + 2 * k for k in range(p)]
    tab2 = [abs(g) for g in scaled_contents(mu, m2)]
    den = num = 0
    for d in range(p):
        den += -z2 + 2 * d == 0
        num += -m2 - z2 + 2 * d == 0
    for d1 in range(1, p + 1):
        for d2 in range(d1 + 1, p + 1):
            den += -p + d1 + d2 - 1 == 0
            num += -p + d1 + d2 - 2 == 0
    for e in strip2:
        for t in tab2:
            den += (-e + t == 0) + (-e - t == 0)
            num += (-2 - e + t == 0) + (-2 - e - t == 0)
    return den - num


def padded_rows(first: tuple[int, ...], second: tuple[int, ...],
                m2: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two-row m-symbol of a bipartition (both zero forms coincide at m = 0)."""
    lx, le = len(first), len(second)
    if m2 % 2:
        delta = (m2 + 1) // 2
        t = max(lx, le + delta)
        b = t - delta
    else:
        b = max(le, lx - m2 // 2)
        t = b + m2 // 2
    xi = (0,) * (t - lx) + tuple(sorted(first))
    eta = (0,) * (b - le) + tuple(sorted(second))
    odd = m2 % 2
    return (tuple(x + 2 * i for i, x in enumerate(xi)),
            tuple(e + 2 * i + odd for i, e in enumerate(eta)))


def _pair_min_sum(values) -> int:
    vs = sorted(values)
    return sum(v * (len(vs) - 1 - i) for i, v in enumerate(vs))


def a_value(first: tuple[int, ...], second: tuple[int, ...], m2: int) -> int:
    """Sum of pairwise minima of the symbol entries, less that of the empty
    bipartition's symbol of the same padded shape."""
    top, bottom = padded_rows(first, second, m2)
    base = [2 * i for i in range(len(top))]
    base += [2 * i + m2 % 2 for i in range(len(bottom))]
    return _pair_min_sum(top + bottom) - _pair_min_sum(base)


def symbol_multiset(first, second, m2: int) -> tuple[int, ...]:
    top, bottom = padded_rows(tuple(first), tuple(second), m2)
    return tuple(sorted(top + bottom))


def position_subsets(first, second, m2: int) -> int:
    """C(N, t): top-row position choices over an N-entry symbol with t on top."""
    top, bottom = padded_rows(tuple(first), tuple(second), m2)
    return comb(len(top) + len(bottom), len(top))


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product a*b of signed permutations in image notation (b acts first)."""
    return tuple(a[v - 1] if v > 0 else -a[-v - 1] for v in b)


def generated_group(gens, n: int) -> set[tuple[int, ...]]:
    """Closure of the generators under multiplication, identity included."""
    ident = tuple(range(1, n + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                v = compose(w, tuple(g))
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def weyl_order_r0(kappa: tuple[int, ...], gluable: dict[int, bool]) -> int:
    """|W(R0)|: per equal-length class of k strips, W(B_k) when the length
    does not glue and W(D_k) (trivial for k = 1) when it does."""
    order = 1
    for length, k in Counter(kappa).items():
        if gluable[length]:
            order *= (1 << (k - 1)) * factorial(k) if k > 1 else 1
        else:
            order *= (1 << k) * factorial(k)
    return order
