"""Exact Young-diagram primitives: partitions, contents, m-tableaux, A-strips.

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
    "AStrip",
    "Bipartition",
    "BoxCoord",
    "ENUMERATION_BOUND",
    "MTableau",
    "Partition",
    "addable_boxes",
    "as_partition",
    "boxes",
    "check_enumeration_bound",
    "content",
    "enumerate_partitions",
    "fmt_ratio",
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


@dataclass(frozen=True)
class MTableau:
    """Young diagram of `shape` with box entries |content + m|."""

    shape: Partition
    m: Fraction
    entries: dict

    def entry(self, box: BoxCoord) -> Fraction:
        return self.entries[box]

    def entry_multiset(self) -> tuple[Fraction, ...]:
        """All entries, sorted ascending (multiset as a canonical tuple)."""
        return tuple(sorted(self.entries.values()))


def m_tableau(lam: Partition, m: Fraction) -> MTableau:
    mm = Fraction(m)
    entries = {box: abs(content(box) + mm) for box in boxes(lam)}
    return MTableau(shape=lam, m=mm, entries=entries)


@dataclass(frozen=True)
class AStrip:
    """Row of p boxes with entries -(p-1)/2, ..., (p-1)/2 in steps of 1.

    The signed entries are the exponents of the length-p factor of a central
    character; their absolute values are the entries a gluing adds to a
    tableau.
    """

    length: int
    signed_entries: tuple[Fraction, ...]


def strip(p: int) -> AStrip:
    if p < 1:
        raise ValueError("strip length must be >= 1")
    z = Fraction(p - 1, 2)
    return AStrip(length=p, signed_entries=tuple(-z + k for k in range(p)))


def addable_boxes(lam: Partition) -> list[BoxCoord]:
    """Boxes that can be appended to lam so the result is still a partition."""
    out = []
    for r in range(1, len(lam) + 1):
        here = lam[r - 1]
        above = lam[r - 2] if r >= 2 else None
        if above is None or here < above:
            out.append((r, here + 1))
    out.append((len(lam) + 1, 1))
    return out


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


def check_enumeration_bound(n: int, bound: int = ENUMERATION_BOUND) -> None:
    """Refuse to enumerate the partitions of n above the bound."""
    if n > bound:
        raise ValueError(f"partition enumeration bound exceeded: {n} > {bound}")


def enumerate_partitions(n: int, bound: int = ENUMERATION_BOUND) -> list[Partition]:
    """All partitions of n in descending lexicographic order.

    The bound guards against accidental huge enumerations; raise it
    explicitly if a sweep really needs more.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_enumeration_bound(n, bound)
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
