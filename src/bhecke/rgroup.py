"""R-groups of parabolically induced discrete series, with brute-force oracles.

The fast path is purely combinatorial: a strip length p glues onto mu exactly
when the short-root pole order of the restricted c-function vanishes, the
restricted root system R0(xi) is assembled from the equal-length classes of
kappa, and the R-group is an elementary abelian 2-group with one generator
per gluable class. The brute-force path enumerates W(B_n) directly and
recomputes everything from the definitions; the two must agree on every valid
datum, and the sweep tests hold them to that. Each InductionDatum derives
its split, gluable classes and stabilizer once, and every caller reads them,
except the brute-force R scan, which recounts gluability from the c-function.

A component label glues one strip per length onto mu. Where a strip fits
onto several partitions the least one is taken, and r_group records every
such tie on its result as data.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .cfun import pole_order_short_blockwise, pole_order_short_direct
from .partitions import (
    Partition,
    diagonal_lengths,
    diagonal_step,
    enumerate_partitions,
    from_diagonal_lengths,
    is_partition,
)
from .splitting import (
    SplitResult,
    central_character,
    datum_error,
    residual_partitions,
    split,
)

__all__ = [
    "BRUTE_FORCE_BOUND",
    "InductionDatum",
    "RGroupResult",
    "RestrictedRootSystem",
    "SignedPermutation",
    "WeylSubset",
    "brute_force_R",
    "brute_force_W_xi_xi",
    "can_glue",
    "convert_C_labels",
    "glue_strip_geometric",
    "induction_data",
    "r_group",
    "restricted_root_system",
]

# The largest rank the W(B_n) oracles scan: the image table of W(B_8) takes
# 83 MB, built in one buffer, so `rgroup --oracle` at rank 8 peaks near
# 130 MB (near 190 MB on principal-series data, whose R scan runs over the
# whole group); that of W(B_9) would take 1.7 GB.
BRUTE_FORCE_BOUND = 8


@dataclass(frozen=True)
class InductionDatum:
    """A parabolic induction datum (n, m, kappa, mu).

    kappa lists the strip lengths of the A-part (stored decreasing), mu is
    the residual partition carrying the discrete series of the B-factor, and
    sum(kappa) + sum(mu) = n. Invalid data are rejected on construction.
    The split, gluable classes, scaled character and stabilizer are derived
    once per datum, on first read; the cache is not a field, so == and hash
    ignore it.
    """

    n: int
    m: Fraction
    kappa: Partition
    mu: Partition

    def __post_init__(self):
        object.__setattr__(self, "m", Fraction(self.m))
        object.__setattr__(self, "kappa", tuple(self.kappa))
        object.__setattr__(self, "mu", tuple(self.mu))
        error = datum_error(self.n, self.m, self.kappa, self.mu)
        if error is not None:
            raise ValueError(f"invalid induction datum: {error}")

    @property
    def l(self) -> int:
        return sum(self.mu)

    @property
    def r(self) -> int:
        return len(self.kappa)

    @property
    def offsets(self) -> tuple[int, ...]:
        """0-based first coordinate of each kappa block."""
        out = []
        off = 0
        for part in self.kappa:
            out.append(off)
            off += part
        return tuple(out)

    def length_classes(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(length, block indices) per distinct kappa length, decreasing."""
        out = []
        for length, grp in itertools.groupby(range(self.r),
                                             key=lambda p: self.kappa[p]):
            out.append((length, tuple(grp)))
        return tuple(out)

    @cached_property
    def split_result(self) -> SplitResult:
        """The split of mu at m."""
        return _residual_split(self.mu, self.m)

    @cached_property
    def gluable_classes(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(length, block indices) of each length class whose strip glues
        onto mu, in decreasing length order."""
        return tuple((length, ps) for length, ps in self.length_classes()
                     if _glues(length, self.split_result, self.m))

    @cached_property
    def _gamma2(self) -> tuple[int, ...]:
        """The central character scaled by 2d, where d is the denominator of
        m: integers, and a positive scale keeps the stabilizer's conditions."""
        scale = 2 * self.m.denominator
        return tuple(int(scale * g) for g in central_character(self.kappa, self.mu, self.m))

    @cached_property
    def _stabilizer_indices(self):
        """Sorted group ranks of the W(B_n) stabilizer of the parabolic
        simple roots and the central character; None for the whole group."""
        from . import _wscan
        return _wscan.w_survivor_indices(self.n, self.kappa, self.l, self._gamma2)


def induction_data(n: int, ms: Iterable[Fraction]) -> list[tuple]:
    """Every valid datum (n, m, kappa, mu) of rank n as a plain tuple, for
    each m of ms in turn and each k = |kappa| from 0 to n: mu runs over the
    residual partitions of n - k at m, and kappa over the partitions of k."""
    out = []
    for m in ms:
        for k in range(n + 1):
            kappas = enumerate_partitions(k) if k else [()]
            for mu in residual_partitions(n - k, m):
                for kappa in kappas:
                    out.append((n, m, kappa, mu))
    return out


def _residual_split(mu: Partition, m: Fraction) -> SplitResult:
    sr = split(mu, m)
    if sr is None:
        raise ValueError(f"mu={mu} is not residual at m={Fraction(m)}")
    return sr


def _glues(p: int, sr: SplitResult, m: Fraction) -> bool:
    """The gluing rule on a split mu: the blockwise pole order vanishes."""
    return pole_order_short_blockwise(p, sr, m) == 0


def can_glue(p: int, mu: Partition, m: Fraction) -> bool:
    """Whether a length-p strip glues onto mu: the short-root factor of the
    restricted c-function is regular there.

    Computed blockwise: strip-only pole order plus one contribution per block
    of the splitting of mu must vanish. mu must be residual (or empty). The
    split of (mu, m) is the one `split` shares, so calls for every p on one
    mu split it once.
    """
    if p < 1:
        raise ValueError("strip length must be >= 1")
    return _glues(p, _residual_split(mu, m), m)


def glue_strip_geometric(mu: Partition, p: int, m: Fraction) -> list[Partition]:
    """Partitions mu' containing mu whose m-tableau gains exactly the entry
    multiset of a length-p strip. Pure multiset search, no residual hypothesis;
    descending lexicographic order.

    A box at content x = col - row has the entry |x + m|, and the strip has
    the entries |k - (p - 1)/2| for 0 <= k < p: those of the p contents
    -m - (p - 1)/2, ..., -m + (p - 1)/2 folded about -m. So a gluing adds
    one box at content -m when p is odd and, for each t > 0 of the fold,
    two boxes at the contents -m - t and -m + t: 0, 1 or 2 at either. The
    contents are integers only when p - 1 - 2m is an even integer; otherwise
    nothing glues.

    A partition is fixed by its diagonal lengths D_x, the number of its boxes
    at content x: box (r, c) lies in it exactly when D_(c-r) >= min(r, c).
    So mu' contains mu exactly when D(mu') >= D(mu) on every diagonal, which
    adding boxes keeps, and a sequence D is a partition's exactly when each
    neighbouring pair meets `diagonal_step`. The search walks t outward from
    -m, keeps a choice for the pair at t only when its two new ends meet the
    step rule against their inner neighbours, and at the last pair checks the
    two outer edges against the diagonals of mu that no box reaches.
    """
    if p < 1:
        raise ValueError("strip length must be >= 1")
    if not is_partition(mu):
        raise ValueError(f"not a partition: {mu!r}")
    a, d = Fraction(m).as_integer_ratio()
    if d > 2 or (p - 1 - 2 * a // d) % 2:
        return []
    # The strip's contents lo..hi; mid is -m for odd p, -m + 1/2 for even p.
    lo = (1 - p - 2 * a // d) // 2
    hi = lo + p - 1
    diag = dict.fromkeys(range(lo - 1, hi + 2), 0)
    diag.update(diagonal_lengths(mu))
    mid = lo + p // 2
    if p % 2:
        diag[mid] += 1
        left, right = mid - 1, mid + 1
    else:
        left, right = mid - 1, mid
    out = []

    def chain(t: int) -> None:
        if t == p // 2:
            if (diagonal_step(lo - 1, diag[lo - 1], diag[lo])
                    and diagonal_step(hi, diag[hi], diag[hi + 1])):
                out.append(from_diagonal_lengths(diag))
            return
        x, y = left - t, right + t
        for k in (0, 1, 2):
            diag[x] += k
            diag[y] += 2 - k
            if (diagonal_step(x, diag[x], diag[x + 1])
                    and diagonal_step(y - 1, diag[y - 1], diag[y])):
                chain(t + 1)
            diag[x] -= k
            diag[y] -= 2 - k

    chain(0)
    return sorted(out, reverse=True)


@dataclass(frozen=True)
class RestrictedRootSystem:
    """R0(xi) as one (type, rank) factor per equal-length class of kappa,
    in decreasing length order, with a rank-1 D factor recorded as Empty."""

    factors: tuple[tuple[str, int], ...]

    @property
    def weyl_order(self) -> int:
        out = 1
        for typ, rank in self.factors:
            if typ == "B":
                out *= (1 << rank) * math.factorial(rank)
            elif typ == "D":
                out *= (1 << (rank - 1)) * math.factorial(rank)
        return out


def restricted_root_system(xi: InductionDatum) -> RestrictedRootSystem:
    """Roots E_p +- E_q within each equal-length class, plus E_p on every
    block of a class whose strip length does not glue onto mu."""
    gluable = {length for length, _ in xi.gluable_classes}
    factors = []
    for length, ps in xi.length_classes():
        k = len(ps)
        if length not in gluable:
            factors.append(("B", k))
        elif k == 1:
            factors.append(("Empty", 1))
        else:
            factors.append(("D", k))
    return RestrictedRootSystem(factors=tuple(factors))


@dataclass(frozen=True)
class SignedPermutation:
    """Element of W(B_n): w(e_i) = sign(images[i-1]) * e_|images[i-1]|."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(abs(v) for v in self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a signed permutation: {self.images!r}")

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        out = []
        for v in other.images:
            w = self.images[abs(v) - 1]
            out.append(w if v > 0 else -w)
        return SignedPermutation(tuple(out))


def _flip(xi: InductionDatum, length: int, ps: tuple[int, ...]) -> SignedPermutation:
    """Reverse the last block of the class with sign: e_(a+j) -> -e_(a+length+1-j)."""
    a = xi.offsets[ps[-1]]
    images = list(range(1, xi.n + 1))
    for j in range(1, length + 1):
        images[a + j - 1] = -(a + length + 1 - j)
    return SignedPermutation(tuple(images))


@dataclass(frozen=True)
class RGroupResult:
    """The R-group as an elementary abelian 2-group with labelled components.

    component_labels pairs each subset J of gluable lengths with the partition
    obtained by gluing one strip per length in J onto mu (None when no gluing
    exists, which the consistency checks flag). ambiguous_gluings lists, as
    (p, onto, candidates), each gluing of a p-strip onto a partition that
    admitted several partitions; candidates descend and the least, the last
    one, is the label taken.
    """

    gluable_lengths: tuple[int, ...]
    generators: tuple[SignedPermutation, ...]
    component_labels: tuple[tuple[tuple[int, ...], Optional[Partition]], ...]
    ambiguous_gluings: tuple[tuple[int, Partition, tuple[Partition, ...]], ...]

    @property
    def d(self) -> int:
        return len(self.gluable_lengths)

    @property
    def component_count(self) -> int:
        return 1 << self.d

    def elements(self, n: int) -> set[tuple[int, ...]]:
        """Images of the 2**d products of distinct generators in W(B_n),
        the identity included: the group the generators span."""
        span = [SignedPermutation.identity(n)]
        for g in self.generators:
            span += [w * g for w in span]
        return {w.images for w in span}


def r_group(xi: InductionDatum) -> RGroupResult:
    """R-group data of the induction datum: one commuting involution per
    gluable length class, 2**d components, and a glued partition labelling
    each component.

    The label of J glues J's last length onto the label of J[:-1], taking
    the least partition where several fit; each such tie is recorded in
    ambiguous_gluings.
    """
    classes = xi.gluable_classes
    lengths = tuple(length for length, _ in classes)
    gens = tuple(_flip(xi, length, ps) for length, ps in classes)
    labels: dict[tuple[int, ...], Optional[Partition]] = {(): xi.mu}
    ambiguous = []
    for size in range(1, len(lengths) + 1):
        for J in itertools.combinations(lengths, size):
            onto = labels[J[:-1]]
            exts = [] if onto is None else glue_strip_geometric(onto, J[-1], xi.m)
            if len(exts) > 1:
                ambiguous.append((J[-1], onto, tuple(exts)))
            labels[J] = exts[-1] if exts else None
    return RGroupResult(gluable_lengths=lengths, generators=gens,
                        component_labels=tuple(labels.items()),
                        ambiguous_gluings=tuple(ambiguous))


def convert_C_labels(k1c: Fraction, k2c: Fraction) -> tuple[Fraction, Fraction]:
    """Convert root-label parameters (k1^C, k2^C) of the C_n presentation to
    the (k1, k2) of the B_n one: k2 = k2^C / 2. The effective m is k2 / k1."""
    a = Fraction(k1c)
    b = Fraction(k2c)
    if a == 0:
        raise ValueError("k1^C must be nonzero")
    return (a, b / 2)


def _check_bound(n: int) -> None:
    """Refuse brute force over W(B_n) above BRUTE_FORCE_BOUND, stating the
    size of the image table it would build."""
    if n > BRUTE_FORCE_BOUND:
        from . import _wscan
        nbytes = _wscan.group_order(n) * n
        raise ValueError(
            f"brute force over W(B_{n}) exceeds the bound {BRUTE_FORCE_BOUND}: "
            f"its image table alone needs {nbytes:,} bytes")


def _check_oracle(xi: InductionDatum) -> None:
    """Refuse the W(B_n) oracles on xi before any scan: above
    BRUTE_FORCE_BOUND, or where a difference of two xi._gamma2 entries
    could overflow the scan's int64."""
    _check_bound(xi.n)
    top = 2 * max(map(abs, xi._gamma2))
    if top >= 1 << 63:
        raise ValueError(f"the W(B_{xi.n}) oracle scans the scaled central character in "
                         f"int64: twice its largest entry is {top}, not below the bound 2^63")


class WeylSubset(Sequence):
    """Lazy sorted subset of W(B_n), indexed by group rank.

    Stores the sorted member ranks, an int64 array or, for the whole group,
    a range, and materializes SignedPermutation elements on demand, so the
    full W(B_8) stabilizer never costs 10M objects.
    """

    def __init__(self, n: int, ranks: Sequence[int]):
        self._n = n
        self._ranks = ranks

    def __len__(self) -> int:
        return len(self._ranks)

    def __getitem__(self, k: int) -> SignedPermutation:
        from . import _wscan
        return SignedPermutation(_wscan.unrank(self._n, int(self._ranks[k])))


def brute_force_W_xi_xi(xi: InductionDatum) -> WeylSubset:
    """Elements of W(B_n) stabilizing the parabolic simple roots setwise and
    fixing the projection of the central character onto their span. Direct
    enumeration; refused above rank BRUTE_FORCE_BOUND.

    The character condition removes nothing the simple-root condition keeps
    (see _wscan.w_survivor_indices), so the order is the product of
    2^k * k! over the length classes of k blocks each. The report's
    oracleStabilizerOrder check compares that with weyl_order * 2^d, and
    the gluing does not enter it: a class is B_k, or D_k times 2."""
    _check_oracle(xi)
    from . import _wscan
    ranks = xi._stabilizer_indices
    if ranks is None:
        ranks = range(_wscan.group_order(xi.n))
    return WeylSubset(xi.n, ranks)


def brute_force_R(xi: InductionDatum) -> list[SignedPermutation]:
    """Stabilizer elements that additionally preserve the positive restricted
    roots; the brute-force counterpart of r_group.

    A class carries the short root E_p unless its strip glues, and the flag
    is read off the definition: the short-root pole order of the c-function,
    counted factor by factor (pole_order_short_direct), vanishes. r_group
    takes the blockwise count instead, so a wrong gluing rule there shows
    up as a disagreement."""
    _check_oracle(xi)
    from . import _wscan
    classes = xi.length_classes()
    offsets = xi.offsets
    class_firsts = tuple(tuple(offsets[p] for p in ps) for _, ps in classes)
    gluable_flags = tuple(pole_order_short_direct(length, xi.mu, xi.m) == 0
                          for length, _ in classes)
    indices = _wscan.r_member_indices(xi.n, xi.kappa, xi._stabilizer_indices,
                                      class_firsts, gluable_flags)
    return [SignedPermutation(_wscan.unrank(xi.n, int(k))) for k in indices]
