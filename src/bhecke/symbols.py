"""m-symbols, similarity classes, the a_m statistic, and truncated induction.

A bipartition is encoded as a two-row symbol by shifting its increasing parts;
bipartitions whose symbols carry the same entry multiset are similar, and the
pairwise-min statistic a_m drives truncated induction: induce with the Pieri
rule, keep the a_m-maximal constituents, and close under similarity. Those
constituents need no search: they fill the lowest free levels of the
symbol's rows, one entry multiset per class (see truncated_induct). Interval
counts of the resulting symbols encode component groups, which is where the
reducibility count 2^d resurfaces independently of the root-system picture.

Every row, here and in truncated induction, is one integer tuple laid by
_lay (the parts increasing on base, base + 2, ...; base 1 only at the bottom
for half m) and read back by _unlay.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .partitions import Bipartition, Partition, fmt_ratio
from .rgroup import InductionDatum

__all__ = [
    "CharacterSet",
    "MINUS_ZERO",
    "PLUS_ZERO",
    "SYMBOL_ROW_BOUND",
    "Symbol",
    "SymbolVariant",
    "a_m",
    "cardinality_check",
    "check_symbol_bound",
    "component_group_order_m1",
    "interval_count_check",
    "intervals",
    "pieri_induct",
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


# Most entries the two rows of one symbol may hold. Rows are padded to a
# length of about |m|; 2^16 is well above m = 20000.
SYMBOL_ROW_BOUND = 1 << 16


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


def _lay(parts: Partition, length: int, base: int) -> tuple[int, ...]:
    """A row of `length` entries: the parts, zero-padded in front and
    increasing, laid on base, base + 2, base + 4, ..."""
    padded = (0,) * (length - len(parts)) + parts[::-1]
    return tuple(map(operator.add, padded, range(base, base + 2 * length, 2)))


def _unlay(row: tuple[int, ...], base: int) -> Optional[Partition]:
    """The partition that _lay put on base, or None when row holds none:
    a part read off it is negative or smaller than the one before."""
    parts = list(map(operator.sub, row, range(base, base + 2 * len(row), 2)))
    if min(parts, default=0) < 0 or any(map(operator.gt, parts, parts[1:])):
        return None
    return tuple(x for x in reversed(parts) if x)


def _rows(b: Bipartition, variant: SymbolVariant) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The symbol's top and bottom rows: the parts laid increasing onto
    the base 0, 2, 4, ..., the bottom base being 1, 3, 5, ... for half m."""
    t, bb = _padded_lengths(variant, len(b.first), len(b.second))
    return _lay(b.first, t, 0), _lay(b.second, bb, variant.m.denominator - 1)


def symbol(b: Bipartition, variant: SymbolVariant) -> Symbol:
    """The m-symbol of a bipartition: parts listed increasing, padded with
    zeros to the variant's row-length offset (minimally, so a first part
    stays nonzero whenever possible), top entries shifted by 0,2,4,... and
    bottom entries by the same for whole m or by 1,3,5,... for half m."""
    top, bottom = _rows(b, variant)
    return Symbol(variant=variant, top=top, bottom=bottom)


def _pair_min_sum(values: Iterable[int]) -> int:
    """Sum of min(x, y) over unordered pairs of positions."""
    values = sorted(values)
    return sum(map(operator.mul, values, range(len(values) - 1, -1, -1)))


def a_m(b: Bipartition, variant: SymbolVariant) -> int:
    """Sum of min(x, y) over unordered pairs of symbol entry positions,
    normalized by the all-zeros symbol of the same padded shape.

    Runs on the integer rows of the symbol, with no Symbol built: the
    pair-min sum of the sorted entries v_0 <= ... <= v_(N-1) is
    sum v_k (N - 1 - k)."""
    top, bottom = _rows(b, variant)
    zeros = _lay((), len(top), 0) + _lay((), len(bottom), variant.m.denominator - 1)
    return _pair_min_sum(top + bottom) - _pair_min_sum(zeros)


def check_symbol_bound(m: Fraction, parts: int) -> None:
    """Refuse the symbols at m of bipartitions with up to `parts` parts in
    each component when their rows would hold more than SYMBOL_ROW_BOUND
    entries in all. Rows are padded to a length of about |m|, so a huge m
    is refused here, before any row is built. m off the half-integers has
    no symbols and passes."""
    mm = Fraction(m)
    if mm.denominator > 2:
        return
    length = sum(_padded_lengths(variants_for_m(mm)[0], parts, parts))
    if length > SYMBOL_ROW_BOUND:
        raise ValueError(
            f"symbol rows at m={fmt_ratio(mm)} would hold up to {length} "
            f"entries, above the bound {SYMBOL_ROW_BOUND}")


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
    if _unlay reads a partition off each row. Some half-variant candidates
    hold none (a 0 in the bottom row, on base 1), so the class size is
    counted, not read off that product. The a-value is a_m of b.

    Every decoded candidate is a member: its rows have the seed's lengths,
    and it re-encodes to them, reproducing the multiset, unless both rows
    start with a zero part, which would make that padding not minimal. The
    seed's padding is minimal, so for whole m the entry 0 occurs at most
    once, and for half m the entries 0 and 1 do not both occur (0 sits on
    top, and 1 would then sit below). Either way no candidate has both
    rows start with a zero part.
    """
    top, bottom = _rows(b, variant)
    odd = variant.m.denominator - 1
    counts = Counter(top + bottom)
    doubles = [v for v, c in counts.items() if c == 2]
    runs = _singleton_runs(counts)
    odd_runs = [r for r in runs if (r[1] - r[0]) % 2 == 0]
    even_runs = [r for r in runs if (r[1] - r[0]) % 2 == 1]
    extra = len(top) - len(doubles) - sum((hi - lo + 1) // 2 for lo, hi in runs)
    members = set()
    for odd_on_top in itertools.combinations(odd_runs, extra):
        for even_on_top in itertools.product(*(((r,), ()) for r in even_runs)):
            on_top = set(odd_on_top).union(*even_on_top)
            up, down = list(doubles), list(doubles)
            for lo, hi in runs:
                start, other = (up, down) if (lo, hi) in on_top else (down, up)
                start.extend(range(lo, hi + 1, 2))
                other.extend(range(lo + 1, hi + 1, 2))
            first = _unlay(tuple(sorted(up)), 0)
            second = _unlay(tuple(sorted(down)), odd)
            if first is not None and second is not None:
                members.add(Bipartition(first, second))
    return CharacterSet(frozenset(members), variant, a_m(b, variant))


def _strips(row: tuple[int, ...], most: int) -> list[list[tuple[int, ...]]]:
    """The rows reached by adding a horizontal strip of at most `most` boxes
    to the partition laid on row, listed by strip size. New parts interlace
    the old ones, so entry j rises by at most row[j + 1] - 2 - row[j] and
    the last entry freely; a strip opens a new part only where row starts
    with a zero part. The recursion visits only the entries that can rise,
    so its depth is at most the number of distinct parts plus one."""
    last = len(row) - 1
    movable = [(j, row[j + 1] - 2 - row[j]) for j in range(last)
               if row[j + 1] - 2 > row[j]]
    by_size: list[list[tuple[int, ...]]] = [[] for _ in range(most + 1)]
    new = list(row)

    def rec(i: int, used: int):
        if i == len(movable):
            for k in range(used, most + 1):
                new[last] = row[last] + k - used
                by_size[k].append(tuple(new))
            return
        j, cap = movable[i]
        for c in range(min(cap, most - used) + 1):
            new[j] = row[j] + c
            rec(i + 1, used + c)

    rec(0, 0)
    return by_size


def pieri_induct(p: int, b: Bipartition) -> list[Bipartition]:
    """Constituents of inducing the trivial character of S_p: all ways to add
    horizontal strips of total size p across the two components."""
    if p < 1:
        raise ValueError("p must be >= 1")
    tops = _strips(_lay(b.first, len(b.first) + 1, 0), p)
    bottoms = _strips(_lay(b.second, len(b.second) + 1, 0), p)
    out = []
    for a in range(p + 1):
        betas = [_unlay(row, 0) for row in bottoms[p - a]]
        for row in tops[a]:
            alpha = _unlay(row, 0)
            out.extend(Bipartition(alpha, beta) for beta in betas)
    return sorted(out, key=lambda c: (c.first, c.second))


def _raised(p: int, b: Bipartition, variant: SymbolVariant) -> Bipartition:
    """The Pieri constituent of a p-strip over b that fills the p lowest
    free levels of its rows (see truncated_induct). Each row gets one more
    zero part; the zero parts below have no free level and are left out."""
    lf, ls = len(b.first) + 1, len(b.second) + 1
    t, bb = _padded_lengths(variant, lf, ls)
    z = (t - lf) - (bb - ls)
    bases = (2 * max(z, 0), 2 * max(-z, 0) + variant.m.denominator - 1)
    rows = [list(_lay(b.first, lf, bases[0])), list(_lay(b.second, ls, bases[1]))]
    levels = sorted((x + c, side, j) for side, row in enumerate(rows)
                    for j, (x, y) in enumerate(zip(row, row[1:] + [row[-1] + p + 2]))
                    for c in range(min(y - 2 - x, p)))
    for _, side, j in levels[:p]:
        rows[side][j] += 1
    return Bipartition(*map(_unlay, map(tuple, rows), bases))


def _one_per_class(members: Iterable[Bipartition], variant: SymbolVariant) -> list[Bipartition]:
    """One member of each similarity class met, keyed by entry multiset."""
    return list({tuple(sorted(itertools.chain(*_rows(b, variant)))): b
                 for b in members}.values())


def truncated_induct(parts: Iterable[int], seed: CharacterSet) -> CharacterSet:
    """Fold the strip lengths over the seed class under the seed's variant:
    induce each member with the Pieri rule, keep the a_m-maximal
    constituents, and close the final set under similarity. Parts are
    processed in decreasing order; transitivity makes the result
    independent of that choice.

    A step needs no search (_raised): the a_m-maximal constituents of a
    member fill the p lowest free levels of its rows and share one entry
    multiset, the same for every member of a class. So a step takes one
    member per class, and reads a_m only to choose between classes.

    Proof. Lay each row one zero part longer than the symbol's padding:
    all members of a class then share row lengths and multiset, and zero
    parts both rows share change neither a_m nor similarity. As
    min(x, y) = #{u >= 0 : u < x, u < y}, the pair-min sum is
    sum_u C(c(u), 2), c(u) being #{entries > u}. A strip raises an entry
    to at most 2 below the next one in its row, so it crosses only levels
    u free in that row: the row holds an entry <= u and none at u + 1 or
    u + 2. Free levels form runs from an entry to 3 below the next (the
    last run has no end), and an entry crosses a prefix of its run. So a
    constituent is a profile, k(u) entries crossing u, with sum p,
    k(u) <= f(u) (the rows free at u) and run prefixes in each row; it
    adds sum_u [k(u) c(u) + C(k(u), 2)]. Each row holds its zero part at
    0 or 1, so f(u) is 2 less the rows meeting {u + 1, u + 2}: a function
    of the multiset, as a double lies in both rows and consecutive
    singletons in different ones.

    Filling the lowest free levels is feasible for every member: a row
    fills all its free levels below some height, so each run from its
    start. Any other feasible k has a lowest level u with k(u) < f(u)
    below its highest filled level w. Moving a unit from w to u stays
    feasible (w tops its prefix; all below u is full) and gains
    g = c(u) - c(w) + k(u) - k(w) + 1, k(w) being 1 or 2. If
    c(u) - c(w) >= 2, g >= 1. If c(u) = c(w), no entry lies in u + 1 .. w,
    so a row filling w runs through u and fills it; u is not full, so
    k(w) = 1 <= k(u) and g >= 1. If c(u) - c(w) = 1, one singleton lies
    there; if k(w) = 2, the other row runs through u and fills it, so
    k(u) >= 1 and g >= 1; else g >= 1 anyway. Each move lowers
    sum_u u k(u), so bottom-up filling is the one a_m-maximal profile. It
    fixes every c(u) + k(u), hence the multiset, and is read off f alone."""
    if not seed.members:
        raise ValueError("seed must be nonempty")
    variant = seed.variant
    current = _one_per_class(seed.members, variant)
    for p in sorted(parts, reverse=True):
        current = [_raised(p, b, variant) for b in current]
        if len(current) > 1:
            scored = [(a_m(b, variant), b) for b in current]
            best = max(s for s, _ in scored)
            current = _one_per_class([b for s, b in scored if s == best], variant)
    classes = [similarity_class(b, variant) for b in current]
    return CharacterSet(frozenset().union(*(c.members for c in classes)), variant,
                        classes[-1].a_value)


def springer_correspondents(xi: InductionDatum) -> CharacterSet:
    """Truncated induction of the similarity class of the split of mu along
    kappa, under the first variant of xi.m (+0 at m = 0; the -0 rows are
    the same, and the tests compare the two inductions). Refuses an m whose
    rows would exceed SYMBOL_ROW_BOUND before building any."""
    check_symbol_bound(xi.m, xi.n)
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
    return i_full == i_part + len(xi.gluable_classes)


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
    return len(full.members) == (1 << len(xi.gluable_classes)) * part_size
