"""m-symbols, similarity classes, the a_m statistic, and truncated induction.

A bipartition is encoded as a two-row symbol by shifting its increasing parts;
bipartitions whose symbols carry the same entry multiset are similar, and the
pairwise-min statistic a_m drives truncated induction: induce with the Pieri
rule, keep the a_m-maximal constituents, and close under similarity. Interval
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
from typing import Collection, Iterable, Optional

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


def _prefix_mins(count: int, start: int, size: int) -> list[int]:
    """[sum(min(x, y) for x in P) for y in range(size)], P being the count
    entries start, start + 2, ...: the sum grows by #{x in P : x >= y}
    from y - 1 to y."""
    return list(itertools.accumulate(
        (count - min(count, max(0, (y - start + 1) // 2)) for y in range(1, size)),
        initial=0))


def _best_constituents(p: int, members: Collection[Bipartition],
                       variant: SymbolVariant) -> set[Bipartition]:
    """The a_m-maximal Pieri constituents of a p-strip over the members,
    scored on integer rows of one shared shape (see truncated_induct)."""
    odd = variant.m.denominator - 1
    lf = 1 + max(len(b.first) for b in members)
    ls = 1 + max(len(b.second) for b in members)
    t, bb = _padded_lengths(variant, lf, ls)
    # Only the last lf top and ls bottom entries can move. Below them the
    # rows hold zero parts; drop those both rows share, which leaves z on
    # top (z > 0) or -z at the bottom (z < 0).
    z = (t - lf) - (bb - ls)
    top_base, bottom_base = 2 * max(z, 0), 2 * max(-z, 0) + odd
    laid = [(_lay(b.first, lf, top_base), _lay(b.second, ls, bottom_base))
            for b in members]
    # Those |z| fixed entries lie below every entry of their own row, and
    # meet each entry y of the other row in near[y] = sum of min(x, y).
    far = 0 if z < 0 else 1
    near = _prefix_mins(abs(z), 0 if z > 0 else odd,
                        max(rows[far][-1] for rows in laid) + p + 1) if z else None

    def weighed(row: tuple[int, ...], side: int) -> list[list[tuple]]:
        """The strips of row by size, each with its sum over near."""
        if near is None or side != far:
            return [[(r, 0) for r in rows] for rows in _strips(row, p)]
        return [[(r, sum(map(near.__getitem__, r))) for r in rows]
                for rows in _strips(row, p)]

    desc = range(lf + ls - 1, -1, -1)
    best, winners = -1, set()
    for top, bottom in laid:
        tops, bottoms = weighed(top, 0), weighed(bottom, 1)
        for a in range(p + 1):
            for t_row, t_near in tops[a]:
                for b_row, b_near in bottoms[p - a]:
                    score = t_near + b_near + sum(map(operator.mul, sorted(t_row + b_row), desc))
                    if score > best:
                        best, winners = score, {(t_row, b_row)}
                    elif score == best:
                        winners.add((t_row, b_row))
    return {Bipartition(_unlay(t_row, top_base), _unlay(b_row, bottom_base))
            for t_row, b_row in winners}


def truncated_induct(parts: Iterable[int], seed: CharacterSet) -> CharacterSet:
    """Fold the strip lengths over the seed class under the seed's variant:
    induce each member with the Pieri rule, keep the a_m-maximal
    constituents, and close the final set under similarity. Parts are
    processed in decreasing order; transitivity makes the result
    independent of that choice.

    Each step scores symbol rows in the one layout that symbol and a_m use
    (_lay, read back by _unlay), and builds a Bipartition only for the
    winners. Lemma: one more zero part in both rows leaves a_m unchanged,
    because it adds 2 * C(N, 2) + odd * N to the pair-min sum of the N
    entries and of the all-zeros symbol alike. So every member and
    constituent of a step can be laid on one shape, the variant's padding
    of 1 + the longest first and second components (a strip adds at most
    one part to each), where a_m is the raw pair-min sum less one constant
    that cancels in the max. A strip moves only the entries from the last
    zero part up; the zero parts below contribute in closed form
    (_prefix_mins), so a candidate costs a sort of about 2n entries
    however long the padding."""
    if not seed.members:
        raise ValueError("seed must be nonempty")
    variant = seed.variant
    current = seed.members
    for p in sorted(parts, reverse=True):
        current = _best_constituents(p, current, variant)
    closure: set[Bipartition] = set()
    for b in current:
        if b not in closure:
            cls = similarity_class(b, variant)
            closure.update(cls.members)
    return CharacterSet(frozenset(closure), variant, cls.a_value)


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
