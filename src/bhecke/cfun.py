"""Pole orders of restricted c-function factors by exact exponent counting.

Every factor is (1 - q1^a) for an exact rational exponent a, with q1 generic
(transcendental > 1), so a factor vanishes iff a = 0 and the pole order of a
quotient of such products is a matter of counting zero exponents. The
accompanying (1 + q^...theta) factors never vanish at real positive points
and are not materialized. Every count runs on integers: the pair
exponents doubled, and, with m = a/d in lowest terms, the short-root
exponents scaled by 2d. Fraction appears only in the arguments.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import Partition
from .splitting import SplitResult

__all__ = [
    "pole_order_A_part",
    "pole_order_block",
    "pole_order_pair",
    "pole_order_short_blockwise",
    "pole_order_short_direct",
]


def pole_order_pair(p1: int, p2: int, sign: str) -> int:
    """Pole order of the two-factor-class product for strips of lengths p1, p2.

    For 0 <= i < p1, 0 <= j < p2 the product has one quotient
    (1 - q1^(e - 1)) / (1 - q1^e), with e = i + j - (p1 + p2)/2 + 1 for
    sign "+" and e = (p1 - p2)/2 - (i - j) for sign "-". The count runs
    on the doubled exponents 2e, which are integers: zero denominators
    minus zero numerators. Both sign choices give 1 when p1 = p2 and 0
    otherwise; for p1 + p2 odd every exponent is a half-integer and
    nothing vanishes.
    """
    if p1 < 1 or p2 < 1:
        raise ValueError("strip lengths must be >= 1")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    poles = zeros = 0
    for i in range(p1):
        for j in range(p2):
            e2 = 2 * (i + j) - p1 - p2 + 2 if sign == "+" else p1 - p2 - 2 * (i - j)
            poles += e2 == 0
            zeros += e2 == 2
    return poles - zeros


def pole_order_A_part(p: int, m: Fraction) -> int:
    """Pole order of the strip-only part: 0 iff m lies in {(p-1)/2, (p-3)/2, ...}.

    Of the factors (1 - q1^(-m - z + k)) / (1 - q1^(-z + k)), 0 <= k < p,
    and (1 - q1^(k1 + k2 - p)) / (1 - q1^(k1 + k2 - p + 1)), k1 < k2,
    exactly one denominator vanishes for every p, and one numerator
    vanishes iff z - m is an integer with |m| <= z, where z = (p-1)/2.
    With m = a/d in lowest terms that reads |2a| <= d(p-1) with
    2a = d(p-1) mod 2d.
    """
    if p < 1:
        raise ValueError("strip length must be >= 1")
    a, d = Fraction(m).as_integer_ratio()
    span = d * (p - 1)
    return 0 if 2 * abs(a) <= span and (span - 2 * a) % (2 * d) == 0 else 1


def pole_order_short_direct(p: int, mu: Partition, m: Fraction) -> int:
    """Pole order of the full short-root product, oblivious to block structure.

    Strip-only factors plus, for each (strip box, tableau box) pair, the two
    interaction quotients with exponents -e(box) +- entry(box'); a zero entry
    makes the two coincide and is thereby counted twice, as required.

    The count runs in integers. With m = a/d in lowest terms every entry
    scaled by 2d is an integer: h[v] counts the tableau boxes with
    |2(d*content + a)| = v, and the strip entries scale to
    E = d(2k - p + 1). A strip entry E meets h[E] + h[-E] zero
    denominators and h[2d + E] + h[-2d - E] zero numerators.
    """
    total = pole_order_A_part(p, m)
    a, d = Fraction(m).as_integer_ratio()
    hist: dict[int, int] = {}
    for row, length in enumerate(mu):
        for col in range(length):
            v = abs(2 * (d * (col - row) + a))
            hist[v] = hist.get(v, 0) + 1
    h = hist.get
    for k in range(p):
        e = d * (2 * k - p + 1)
        total += h(e, 0) + h(-e, 0) - h(2 * d + e, 0) - h(-2 * d - e, 0)
    return total


def pole_order_block(p: int, block: tuple[Fraction, Fraction]) -> int:
    """Pole order contributed by one block with entries x, x+1, ..., y.

    -1 when z = x-1, +1 when z = y, else 0, where z = (p-1)/2; everything is
    0 when z - x is not an integer. One clipped corner: for z = 0 against a
    block starting at 0 the generic pole/zero pairing breaks down (the zero
    factors it expects would need strip entries +-1, which a length-1 strip
    lacks) and the surviving count is +1. Matches the direct factor count of
    pole_order_short_direct blockwise; the equivalence sweep enforces it.
    """
    (xn, xd), (yn, yd) = (v.as_integer_ratio() for v in block)
    if xn < 0 or xn * yd > yn * xd:
        raise ValueError(f"block entries must satisfy 0 <= x <= y, got {block}")
    if xd > 2:
        return 0
    # In units of 1/2: z is p - 1 and x is x2, so z - x is an integer iff
    # x2 has the parity of p - 1.
    x2 = 2 * xn // xd
    if (p - 1 - x2) % 2:
        return 0
    if p - 1 == x2 - 2:
        return -1
    if (p - 1) * yd == 2 * yn:
        return 1
    if p == 1 and xn == 0:
        return 1
    return 0


def pole_order_short_blockwise(p: int, split_result: SplitResult, m: Fraction) -> int:
    """Blockwise short-root pole order: strip part plus one term per block."""
    total = pole_order_A_part(p, m)
    for blk in split_result.blocks:
        total += pole_order_block(p, (blk.entry_low, blk.entry_high))
    return total
