"""The splitting map, residual-point test, and central characters.

The splitting map decomposes the m-tableau of a partition into horizontal
and vertical blocks of consecutive entries, peeling the largest remaining
entry first; it is defined exactly on the partitions whose associated
central character is a residual point, and the root-counting test
`is_residual_point` is the independent oracle for that equivalence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .partitions import (
    Bipartition,
    BoxCoord,
    Partition,
    boxes,
    content,
    enumerate_partitions,
    fmt_ratio,
    is_partition,
    strip,
)

__all__ = [
    "Block",
    "CentralCharacter",
    "Orientation",
    "SplitResult",
    "central_character",
    "datum_error",
    "is_residual_point",
    "residual_partitions",
    "split",
]


class Orientation(enum.Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


@dataclass(frozen=True)
class Block:
    """A run of boxes with consecutive entries x, x+1, ..., y.

    Boxes are stored in ascending-entry order: left to right for a
    horizontal block, top to bottom for a vertical one.
    """

    orientation: Orientation
    boxes: tuple[BoxCoord, ...]
    entry_low: Fraction
    entry_high: Fraction

    def __len__(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True)
class SplitResult:
    """Blocks in selection order plus the resulting bipartition.

    The first component of the bipartition collects the horizontal block
    lengths, the second the vertical ones.
    """

    blocks: tuple[Block, ...]
    bipartition: Bipartition


def split(lam: Partition, m: Fraction) -> Optional[SplitResult]:
    """Split the m-tableau of lam into blocks; None when undefined.

    Each step encloses the unique maximal remaining entry into the maximal
    run of consecutive decreasing entries extending leftward (entries above
    the zero diagonal, content+m > 0) or upward (below it). Undefined in
    exactly two cases: the maximal remaining entry is not unique, or a box
    with entry 0 is stranded as a 1x1 block. On every partition whose
    central character is residual these cases do not arise, and on every
    other partition one of them does; `test_split_defined_iff_residual`
    sweeps that equivalence against the root-counting oracle.
    """
    mm = Fraction(m)
    if mm < 0:
        raise ValueError("m must be >= 0")
    # With m = a/d in lowest terms every d*(content + m) is an integer, and
    # its absolute value is the box's entry scaled by d.
    a, d = mm.as_integer_ratio()
    entry = {(r, c): abs(d * (c - r) + a)
             for r, length in enumerate(lam, start=1)
             for c in range(1, length + 1)}
    remaining = set(entry)
    blocks: list[Block] = []

    while remaining:
        top = max(entry[b] for b in remaining)
        argmax = [b for b in remaining if entry[b] == top]
        if len(argmax) > 1:
            return None
        b = argmax[0]
        v = d * content(b) + a
        if v == 0:
            return None
        if v > 0:
            step = (0, -1)
            orientation = Orientation.HORIZONTAL
        else:
            step = (-1, 0)
            orientation = Orientation.VERTICAL

        run = [b]
        want = top - d
        r, c = b
        while True:
            nxt = (r + step[0], c + step[1])
            if nxt not in remaining or entry[nxt] != want:
                break
            run.append(nxt)
            want -= d
            r, c = nxt

        run.reverse()  # ascending entries: leftmost / topmost first
        remaining.difference_update(run)
        blocks.append(Block(
            orientation=orientation,
            boxes=tuple(run),
            entry_low=Fraction(entry[run[0]], d),
            entry_high=Fraction(top, d),
        ))

    xi = tuple(sorted((len(blk) for blk in blocks
                       if blk.orientation is Orientation.HORIZONTAL), reverse=True))
    eta = tuple(sorted((len(blk) for blk in blocks
                        if blk.orientation is Orientation.VERTICAL), reverse=True))
    return SplitResult(blocks=tuple(blocks), bipartition=Bipartition(xi, eta))


def residual_counts(lam: Partition, m: Fraction) -> tuple[int, int]:
    """Pole and zero counts of the root-counting residual test.

    With gamma_i = content + m over the boxes and the full rank-l root
    system (all 2l^2 roots), counts the roots evaluating to their label
    (1 on two-coordinate roots, m on one-coordinate ones) and the roots
    evaluating to zero. At m = 0 a zero one-coordinate value meets both
    counts; the formula is used as written.

    The count runs in integers. With m = a/d in lowest terms every
    d*gamma_i = d*content + a is an integer, and h[v] is the number of
    boxes with d*gamma_i = v. The roots +-e_i count h[a] + h[-a] poles
    and 2*h[0] zeros. Over the pairs i < j, e_i - e_j and e_j - e_i give
    one pole per ordered pair with d*(gamma_i - gamma_j) = d, which is
    sum h[v]*h[v-d]; +-(e_i + e_j) give one pole per unordered pair with
    d*(gamma_i + gamma_j) = +-d, which is (sum h[v]*h[+-d-v] - h[+-d/2])/2,
    the term h[+-d/2] (present only for even d) removing the self-pairs.
    Zeros: each pair of equal values vanishes on both differences,
    sum h[v]*(h[v]-1), and each pair of opposite values on both sums,
    sum h[v]*h[-v] - h[0]. The cost is linear in the number of boxes.
    """
    if not lam:
        raise ValueError("lam must be nonempty")
    a, d = Fraction(m).as_integer_ratio()
    hist: dict[int, int] = {}
    for row, length in enumerate(lam):
        for col in range(length):
            v = d * (col - row) + a
            hist[v] = hist.get(v, 0) + 1
    h = hist.get
    poles = h(a, 0) + h(-a, 0)
    zeros = 2 * h(0, 0)
    shifted = plus = minus = equal = opposite = 0
    for v, k in hist.items():
        shifted += k * h(v - d, 0)
        plus += k * h(d - v, 0)
        minus += k * h(-d - v, 0)
        equal += k * (k - 1)
        opposite += k * h(-v, 0)
    if d % 2 == 0:
        plus -= h(d // 2, 0)
        minus -= h(-d // 2, 0)
    poles += shifted + plus // 2 + minus // 2
    zeros += equal + opposite - h(0, 0)
    return poles, zeros


def is_residual_point(lam: Partition, m: Fraction) -> bool:
    """Whether the pole count exceeds the zero count by exactly |lam|."""
    poles, zeros = residual_counts(lam, m)
    return poles - zeros == sum(lam)


def residual_partitions(l: int, m: Fraction) -> list[Partition]:
    """All residual partitions of l at parameter m; the empty partition for l = 0."""
    if l == 0:
        return [()]
    return [lam for lam in enumerate_partitions(l) if is_residual_point(lam, m)]


CentralCharacter = tuple[Fraction, ...]


def central_character(kappa: Partition, mu: Partition, m: Fraction) -> CentralCharacter:
    """Exponent vector: strip entries of each kappa part, then content+m over mu.

    Rejects a nonempty mu that is not residual, since only residual points
    carry discrete series.
    """
    mm = Fraction(m)
    if mu and not is_residual_point(mu, mm):
        raise ValueError(f"mu={mu} is not residual at m={mm}")
    out: list[Fraction] = []
    for p in kappa:
        out.extend(strip(p).signed_entries)
    for box in boxes(mu):
        out.append(content(box) + mm)
    return tuple(out)


def datum_error(n: int, m: Fraction, kappa: Partition, mu: Partition) -> Optional[str]:
    """First violated precondition of an induction datum, or None if valid."""
    try:
        mm = Fraction(m)
    except (TypeError, ValueError):
        return f"m={m!r} is not a rational number"
    if mm < 0:
        return f"m={fmt_ratio(mm)} is negative"
    if not isinstance(n, int) or n < 1:
        return f"n={n!r} is not a positive integer"
    if not is_partition(kappa):
        return f"kappa={kappa!r} is not a partition (weakly decreasing positive parts)"
    if not is_partition(mu):
        return f"mu={mu!r} is not a partition (weakly decreasing positive parts)"
    if sum(kappa) + sum(mu) != n:
        return f"|kappa| + |mu| = {sum(kappa)} + {sum(mu)} != n = {n}"
    if mu and not is_residual_point(mu, mm):
        return f"mu={tuple(mu)} is not residual at m={fmt_ratio(mm)}"
    return None
