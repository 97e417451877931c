"""m-symbols, similarity classes, the a_m statistic, and truncated induction.

A bipartition is encoded as a two-row symbol by shifting its increasing parts;
bipartitions whose symbols carry the same entry multiset are similar, and the
pairwise-min statistic a_m drives truncated induction: induce with the Pieri
rule, keep the a_m-maximal constituents, and close under similarity. Interval
counts of the resulting symbols encode component groups, which is where the
reducibility count 2^d resurfaces independently of the root-system picture.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from .partitions import Bipartition, Partition, fmt_ratio
from .rgroup import InductionDatum, d_value

__all__ = [
    "CharacterSet",
    "MINUS_ZERO",
    "PLUS_ZERO",
    "Symbol",
    "SymbolVariant",
    "a_m",
    "cardinality_check",
    "component_group_order_m1",
    "interval_count_check",
    "intervals",
    "pieri_induct",
    "similar",
    "similarity_class",
    "springer_correspondents",
    "symbol",
    "truncated_induct",
    "variants_for_m",
]


@dataclass(frozen=True)
class SymbolVariant:
    """Symbol family selector: integer m, one of the two zero forms, or
    half-integer m. Row building reads only m, so the zero forms +0 and -0
    build identical rows and differ only in their label (the classical
    display interleaves them differently). Computations at m = 0 run once,
    under +0."""

    kind: str
    m: Fraction

    def __post_init__(self):
        object.__setattr__(self, "m", Fraction(self.m))
        if self.kind in ("plus0", "minus0"):
            if self.m != 0:
                raise ValueError("zero variants require m = 0")
        elif self.kind == "int":
            if self.m.denominator != 1 or self.m == 0:
                raise ValueError(f"integer variant requires a nonzero integer, got {self.m}")
        elif self.kind == "half":
            if self.m.denominator != 2:
                raise ValueError(f"half variant requires m in Z+1/2, got {self.m}")
        else:
            raise ValueError(f"unknown variant kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "plus0":
            return "+0"
        if self.kind == "minus0":
            return "-0"
        return fmt_ratio(self.m)


PLUS_ZERO = SymbolVariant("plus0", Fraction(0))
MINUS_ZERO = SymbolVariant("minus0", Fraction(0))


def variants_for_m(m: Fraction) -> tuple[SymbolVariant, ...]:
    """The symbol variants attached to a parameter value; both zero forms at m = 0."""
    mm = Fraction(m)
    if mm == 0:
        return (PLUS_ZERO, MINUS_ZERO)
    if mm.denominator == 1:
        return (SymbolVariant("int", mm),)
    if mm.denominator == 2:
        return (SymbolVariant("half", mm),)
    raise ValueError(f"symbols are defined for half-integer m only, got {mm}")


@dataclass(frozen=True)
class Symbol:
    """Two strictly increasing rows of nonnegative integers."""

    variant: SymbolVariant
    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def entry_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.top + self.bottom))


def _padded_lengths(variant: SymbolVariant, len_xi: int, len_eta: int) -> tuple[int, int]:
    """Row lengths (top, bottom) after the least zero padding that gives the
    variant's offset top - bottom: m for whole m, and m rounded away from
    zero for half m."""
    num = variant.m.numerator
    if variant.m.denominator == 2:
        delta = (num + 1) // 2 if num > 0 else (num - 1) // 2
        t = max(len_xi, len_eta + delta)
        return t, t - delta
    b = max(len_eta, len_xi - num)
    return b + num, b


def _base(t: int, bb: int, odd: int) -> list[int]:
    """Entries of the all-zeros symbol with rows of lengths t and bb."""
    return [*range(0, 2 * t, 2), *range(odd, 2 * bb + odd, 2)]


def _rows(b: Bipartition, variant: SymbolVariant) -> tuple[list[int], int]:
    """The symbol's entries, top row then bottom row in one list, and the
    top-row length: the parts laid increasing onto the base 0, 2, 4, ...,
    the bottom base being 1, 3, 5, ... for half m."""
    first, second = b.first, b.second
    t, bb = _padded_lengths(variant, len(first), len(second))
    vals = _base(t, bb, variant.m.denominator - 1)
    for i, x in enumerate(sorted(first, reverse=True), 1):
        vals[t - i] += x
    for i, x in enumerate(sorted(second, reverse=True), 1):
        vals[t + bb - i] += x
    return vals, t


def symbol(b: Bipartition, variant: SymbolVariant) -> Symbol:
    """The m-symbol of a bipartition: parts listed increasing, padded with
    zeros to the variant's row-length offset (minimally, so a first part
    stays nonzero whenever possible), top entries shifted by 0,2,4,... and
    bottom entries by the same for whole m or by 1,3,5,... for half m."""
    vals, t = _rows(b, variant)
    return Symbol(variant=variant, top=tuple(vals[:t]), bottom=tuple(vals[t:]))


def _pair_min_sum(values: list[int]) -> int:
    """Sum of min(x, y) over unordered pairs of positions; sorts values."""
    values.sort()
    return sum(map(operator.mul, values, range(len(values) - 1, -1, -1)))


@lru_cache(maxsize=None)
def _base_pair_min(t: int, bb: int, odd: int) -> int:
    """The pair-min sum of the all-zeros symbol, one per row shape."""
    return _pair_min_sum(_base(t, bb, odd))


def a_m(b: Bipartition, variant: SymbolVariant) -> int:
    """Sum of min(x, y) over unordered pairs of symbol entry positions,
    normalized by the all-zeros symbol of the same padded shape.

    Runs on the integer entry list of the symbol, with no Symbol built:
    the pair-min sum of the sorted entries v_0 <= ... <= v_(N-1) is
    sum v_k (N - 1 - k), and the all-zeros term depends only on the row
    lengths and the parity of the bottom base."""
    vals, t = _rows(b, variant)
    odd = variant.m.denominator - 1
    return _pair_min_sum(vals) - _base_pair_min(t, len(vals) - t, odd)


def similar(b1: Bipartition, b2: Bipartition, variant: SymbolVariant) -> bool:
    """Whether the two symbols carry the same entries with multiplicities."""
    if b1.weight != b2.weight:
        raise ValueError("similarity compares bipartitions of equal weight")
    return symbol(b1, variant).entry_multiset() == symbol(b2, variant).entry_multiset()


def _decode_member(top: tuple[int, ...], bottom: tuple[int, ...],
                   variant: SymbolVariant) -> Optional[Bipartition]:
    t = len(top)
    base = _base(t, len(bottom), variant.m.denominator - 1)
    parts = [v - z for v, z in zip(top + bottom, base)]
    xi, eta = parts[:t], parts[t:]
    for row in (xi, eta):
        if any(v < 0 for v in row) or any(a > b for a, b in zip(row, row[1:])):
            return None
    return Bipartition(tuple(sorted((v for v in xi if v), reverse=True)),
                       tuple(sorted((v for v in eta if v), reverse=True)))


@dataclass(frozen=True)
class CharacterSet:
    """A similarity-closed set of bipartitions with their common a_m value."""

    members: frozenset
    variant: SymbolVariant
    a_value: int

    def __post_init__(self):
        weights = {b.weight for b in self.members}
        if len(weights) > 1:
            raise ValueError("members must share one total weight")

    @property
    def weight(self) -> int:
        return next(iter(self.members)).weight

    def representative(self) -> Bipartition:
        return min(self.members, key=lambda b: (b.first, b.second))


def _singleton_runs(counts: Counter) -> list[tuple[int, int]]:
    """Maximal runs lo..hi of consecutive integers among the entries
    counted once, in increasing order."""
    runs: list[list[int]] = []
    for v in sorted(v for v, c in counts.items() if c == 1):
        if runs and v == runs[-1][1] + 1:
            runs[-1][1] = v
        else:
            runs.append([v, v])
    return [(lo, hi) for lo, hi in runs]


def similarity_class(b: Bipartition, variant: SymbolVariant) -> CharacterSet:
    """All bipartitions whose symbol has the same entry multiset.

    Rows increase with gaps of at least 2, so an entry occurring twice
    sits once in each row and leaves its neighbours empty, and two
    singletons v, v + 1 sit in different rows. Each maximal run of
    singletons therefore alternates rows, and the only choice is the row
    it starts in. An even run splits evenly either way; an odd run puts
    its extra entry in the row it starts in, and the variant's top-row
    length fixes how many odd runs start on top. That leaves
    C(#odd runs, extra) * 2^(#even runs) candidates. A candidate is kept
    if its rows decode to a bipartition reproducing the multiset. Some
    half-variant candidates do not (a 0 in the bottom row never decodes),
    so the class size is counted, not read off that product.
    """
    vals, t = _rows(b, variant)
    target = sorted(vals)
    counts = Counter(target)
    doubles = [v for v, c in counts.items() if c == 2]
    runs = _singleton_runs(counts)
    odd_runs = [r for r in runs if (r[1] - r[0]) % 2 == 0]
    even_runs = [r for r in runs if (r[1] - r[0]) % 2 == 1]
    extra = t - len(doubles) - sum((hi - lo + 1) // 2 for lo, hi in runs)
    members = set()
    for odd_on_top in itertools.combinations(odd_runs, extra):
        for even_on_top in itertools.product(*(((r,), ()) for r in even_runs)):
            on_top = set(odd_on_top).union(*even_on_top)
            top, bottom = list(doubles), list(doubles)
            for lo, hi in runs:
                start, other = (top, bottom) if (lo, hi) in on_top else (bottom, top)
                start.extend(range(lo, hi + 1, 2))
                other.extend(range(lo + 1, hi + 1, 2))
            cand = _decode_member(tuple(sorted(top)), tuple(sorted(bottom)), variant)
            if cand is not None and sorted(_rows(cand, variant)[0]) == target:
                members.add(cand)
    return CharacterSet(frozenset(members), variant, a_m(b, variant))


def _horizontal_strip_additions(lam: Partition, k: int) -> list[Partition]:
    """Partitions containing lam with k more boxes, at most one per column."""
    rows = len(lam)
    out = []

    def rec(i: int, remaining: int, acc: tuple[int, ...]):
        if i == rows + 1:
            # one optional new final row, capped by the old last row
            cap = lam[rows - 1] if rows else remaining
            if remaining <= cap:
                final = acc + ((remaining,) if remaining else ())
                out.append(final)
            return
        lo = lam[i - 1]
        hi = lo + remaining if i == 1 else min(lam[i - 2], lo + remaining)
        for c in range(lo, hi + 1):
            rec(i + 1, remaining - (c - lo), acc + (c,))

    rec(1, k, ())
    return out


def pieri_induct(p: int, b: Bipartition) -> list[Bipartition]:
    """Constituents of inducing the trivial character of S_p: all ways to add
    horizontal strips of total size p across the two components."""
    if p < 1:
        raise ValueError("p must be >= 1")
    out = []
    for a in range(p + 1):
        betas = _horizontal_strip_additions(b.second, p - a)
        for alpha in _horizontal_strip_additions(b.first, a):
            out.extend(Bipartition(alpha, beta) for beta in betas)
    return sorted(out, key=lambda c: (c.first, c.second))


def truncated_induct(parts: Iterable[int], seed: CharacterSet) -> CharacterSet:
    """Fold the strip lengths over the seed class under the seed's variant:
    induce each member with the Pieri rule, keep the a_m-maximal
    constituents, and close the final set under similarity. Parts are
    processed in decreasing order; transitivity makes the result
    independent of that choice."""
    if not seed.members:
        raise ValueError("seed must be nonempty")
    variant = seed.variant
    current = set(seed.members)
    for p in sorted(parts, reverse=True):
        candidates = set()
        for b in current:
            candidates.update(pieri_induct(p, b))
        scored = [(a_m(c, variant), c) for c in candidates]
        best = max(s for s, _ in scored)
        current = {c for s, c in scored if s == best}
    closure = set()
    for b in current:
        if b not in closure:
            closure.update(similarity_class(b, variant).members)
    rep = next(iter(closure))
    return CharacterSet(frozenset(closure), variant, a_m(rep, variant))


def springer_correspondents(xi: InductionDatum) -> CharacterSet:
    """Truncated induction of the similarity class of the split of mu along
    kappa, under the first variant of xi.m (+0 at m = 0; the -0 rows are
    the same, and the tests compare the two inductions)."""
    seed = similarity_class(xi.split_result.bipartition, variants_for_m(xi.m)[0])
    return truncated_induct(xi.kappa, seed) if xi.kappa else seed


def intervals(s: Symbol) -> list[tuple[int, int]]:
    """Maximal runs of consecutive integers among entries occurring exactly
    once. For the m = 1/2 variant a run containing 0 is discarded (entries
    are nonnegative, so such a run is one starting at 0)."""
    runs = _singleton_runs(Counter(s.top) + Counter(s.bottom))
    if s.variant.kind == "half" and abs(s.variant.m) == Fraction(1, 2):
        runs = [r for r in runs if r[0] != 0]
    return runs


def interval_count_check(xi: InductionDatum, full: CharacterSet) -> bool:
    """Interval count of the induced class equals that of the mu-part class
    plus the number of gluable strip-length classes. full is the datum's
    springer_correspondents class."""
    if Fraction(xi.m).denominator > 2:
        raise ValueError("interval counting requires integer or half-integer m")
    i_full = len(intervals(symbol(full.representative(), full.variant)))
    part = xi.split_result.bipartition
    i_part = len(intervals(symbol(part, full.variant)))
    return i_full == i_part + d_value(xi)


def component_group_order_m1(s: Symbol) -> int:
    """Order of the component group read off an m = 1 symbol: one copy of
    Z/2 per interval, restricted to even sums."""
    if not (s.variant.kind == "int" and s.variant.m == 1):
        raise ValueError("component-group order is computed at m = 1 only")
    count = len(intervals(s))
    return 1 << max(count - 1, 0)


def cardinality_check(xi: InductionDatum, full: CharacterSet) -> bool:
    """|induced class| = 2^d * |mu-part class|. full is the datum's
    springer_correspondents class."""
    part = xi.split_result.bipartition
    part_size = len(similarity_class(part, full.variant).members)
    return len(full.members) == (1 << d_value(xi)) * part_size
