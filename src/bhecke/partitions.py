"""Exact Young-diagram primitives: partitions, contents, m-tableaux, strips.

All arithmetic is exact: quantities derived from the parameter m live in
`fractions.Fraction`. Partitions are tuples of positive ints stored weakly
decreasing (row 1 is the longest row); boxes are 1-based (row, col) pairs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

__all__ = [
    "Bipartition",
    "BoxCoord",
    "ENUMERATION_BOUND",
    "Partition",
    "RANK_BOUND",
    "as_partition",
    "boxes",
    "check_enumeration_bound",
    "check_rank_bound",
    "content",
    "diagonal_lengths",
    "diagonal_step",
    "enumerate_partitions",
    "fmt_ratio",
    "from_diagonal_lengths",
    "is_partition",
    "m_tableau",
    "parse_partition",
    "parse_ratio",
    "strip",
]

Partition = tuple[int, ...]
BoxCoord = tuple[int, int]


def is_partition(parts: tuple) -> bool:
    """True iff parts is a tuple of positive ints, weakly decreasing."""
    if not isinstance(parts, tuple):
        return False
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool) or p <= 0:
            return False
    return all(a >= b for a, b in zip(parts, parts[1:]))


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize an iterable of parts into a stored partition (sorted decreasing)."""
    out = tuple(sorted(parts, reverse=True))
    if not is_partition(out):
        raise ValueError(f"not a partition: {parts!r}")
    return out


def content(box: BoxCoord) -> int:
    """Content of a box: column minus row.

    >>> content((1, 4))
    3
    >>> content((5, 1))
    -4
    """
    row, col = box
    return col - row


def boxes(lam: Partition) -> Iterator[BoxCoord]:
    """Boxes of the Young diagram of lam, row-major."""
    for r, length in enumerate(lam, start=1):
        for c in range(1, length + 1):
            yield (r, c)


def m_tableau(lam: Partition, m: Fraction) -> dict[BoxCoord, Fraction]:
    """The m-tableau of lam: each box of its Young diagram mapped to the
    entry |content + m|."""
    mm = Fraction(m)
    return {box: abs(content(box) + mm) for box in boxes(lam)}


def strip(p: int) -> tuple[Fraction, ...]:
    """The signed entries -(p-1)/2, ..., (p-1)/2, in steps of 1, of a row
    of p boxes.

    They are the exponents of the length-p factor of a central character;
    their absolute values are the entries a gluing adds to a tableau.
    """
    if p < 1:
        raise ValueError("strip length must be >= 1")
    z = Fraction(p - 1, 2)
    return tuple(-z + k for k in range(p))


def diagonal_lengths(lam: Partition) -> dict[int, int]:
    """The number D_x of boxes of lam at each content x that lam reaches.

    Box (r, c) lies in lam exactly when D_(c-r) >= min(r, c), so these
    counts fix lam, and lam contains mu exactly when D(lam) >= D(mu) on
    every diagonal.
    """
    diag: dict[int, int] = {}
    for r, length in enumerate(lam, start=1):
        for x in range(1 - r, length + 1 - r):
            diag[x] = diag.get(x, 0) + 1
    return diag


def diagonal_step(x: int, here: int, there: int) -> bool:
    """Whether diagonals x and x + 1 of a partition may hold here and there
    boxes: from the main diagonal outward each length drops by 0 or 1. A
    sequence of diagonal lengths is a partition's exactly when every
    neighbouring pair passes."""
    return 0 <= (here - there if x >= 0 else there - here) <= 1


def from_diagonal_lengths(diag: dict[int, int]) -> Partition:
    """The partition with diag[x] boxes at content x (none where x is not a
    key), for a diag whose every neighbouring pair passes `diagonal_step`."""
    rows = []
    while True:
        r = len(rows) + 1
        c = 1
        while diag.get(c - r, 0) >= min(r, c):
            c += 1
        if c == 1:
            return tuple(rows)
        rows.append(c - 1)


@lru_cache(maxsize=None)
def _partitions_of(n: int, maxpart: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


ENUMERATION_BOUND = 40


def check_enumeration_bound(n: int) -> None:
    """Refuse to enumerate the partitions of n above ENUMERATION_BOUND."""
    if n > ENUMERATION_BOUND:
        raise ValueError(
            f"partition enumeration bound exceeded: {n} > {ENUMERATION_BOUND}")


# Largest rank n of an induction datum, and largest weight |lam| of a
# partition to split. Truncated induction is closed-form per strip and
# gluing a chain over content pairs, so no rank-64 report found takes more
# than about 10 ms on a 2-CPU VM: the slowest, strips (20, 16) over
# (7,6,5,4,3,2,1) at m = 1/2, spends about half of its 7 ms in
# similarity_class and under a third in glue_strip_geometric.
RANK_BOUND = 64


def check_rank_bound(n: int) -> None:
    """Refuse a rank, or the weight of a partition to split, above RANK_BOUND."""
    if n > RANK_BOUND:
        raise ValueError(f"rank bound exceeded: {n} > {RANK_BOUND}")


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in descending lexicographic order, for n up to
    ENUMERATION_BOUND (p(40) = 37,338)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_enumeration_bound(n)
    return list(_partitions_of(n, n if n else 1))


@dataclass(frozen=True)
class Bipartition:
    """Ordered pair of partitions; the combinatorial shadow of a W(B_n) character."""

    first: Partition
    second: Partition

    @property
    def weight(self) -> int:
        return sum(self.first) + sum(self.second)


_RATIO_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_ratio(text: str) -> Fraction:
    """Parse an exact fraction string like "3" or "-5/2".

    Decimal and scientific notation are rejected: silent rounding of m would
    corrupt every downstream entry.
    """
    s = text.strip()
    if not _RATIO_RE.match(s):
        raise ValueError(f"not an exact fraction: {text!r}")
    return Fraction(s)


def fmt_ratio(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition; empty string means ()."""
    s = text.strip()
    if not s:
        return ()
    try:
        parts = [int(tok) for tok in s.split(",")]
    except ValueError:
        raise ValueError(f"not a partition: {text!r}") from None
    return as_partition(parts)
