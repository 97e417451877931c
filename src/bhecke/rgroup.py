"""R-groups of parabolically induced discrete series, with brute-force oracles.

The fast path is purely combinatorial: a strip length p glues onto mu exactly
when the short-root pole order of the restricted c-function vanishes, the
restricted root system R0(xi) is assembled from the equal-length classes of
kappa, and the R-group is an elementary abelian 2-group with one generator
per gluable class. The brute-force path enumerates W(B_n) directly and
recomputes everything from the definitions; the two must agree on every valid
datum, and the sweep tests hold them to that.
"""

from __future__ import annotations

import itertools
import os
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .cfun import pole_order_short_blockwise
from .partitions import (
    Partition,
    addable_boxes,
    enumerate_partitions,
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
    "DEFAULT_BRUTE_BOUND",
    "GluingAmbiguityWarning",
    "InductionDatum",
    "RGroupResult",
    "RestrictedRootSystem",
    "SignedPermutation",
    "WeylSubset",
    "brute_force_R",
    "brute_force_W_xi_xi",
    "can_glue",
    "convert_C_labels",
    "d_value",
    "generator",
    "glue_strip_geometric",
    "induction_data",
    "r_group",
    "restricted_root_system",
]

DEFAULT_BRUTE_BOUND = 8


class GluingAmbiguityWarning(UserWarning):
    """Several partitions realize the same glued strip; the least was chosen."""


@dataclass(frozen=True)
class InductionDatum:
    """A parabolic induction datum (n, m, kappa, mu).

    kappa lists the strip lengths of the A-part (stored decreasing), mu is
    the residual partition carrying the discrete series of the B-factor, and
    sum(kappa) + sum(mu) = n. Invalid data are rejected on construction.
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
    if not is_partition(mu):
        raise ValueError(f"not a partition: {mu!r}")
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
    of the splitting of mu must vanish. mu must be residual (or empty).
    """
    if p < 1:
        raise ValueError("strip length must be >= 1")
    return _glues(p, _residual_split(mu, m), m)


def glue_strip_geometric(mu: Partition, p: int, m: Fraction) -> list[Partition]:
    """Partitions mu' containing mu whose m-tableau gains exactly the entry
    multiset of a length-p strip. Pure multiset search, no residual hypothesis;
    descending lexicographic order.

    Grows mu one addable box at a time and keeps a box only while its entry
    is still left in the strip's multiset. Entries are scaled by 2d, where
    m = a/d in lowest terms: a box at (row, col) has |2(d(col - row) + a)|
    and the strip has {|d(2k - p + 1)| : 0 <= k < p}. Every order of adding
    the same boxes uses up the same entries, so a shape already seen is not
    grown again.
    """
    if p < 1:
        raise ValueError("strip length must be >= 1")
    if not is_partition(mu):
        raise ValueError(f"not a partition: {mu!r}")
    a, d = Fraction(m).as_integer_ratio()
    left: dict[int, int] = {}
    for k in range(p):
        e = abs(d * (2 * k - p + 1))
        left[e] = left.get(e, 0) + 1
    seen = set()
    out = []

    def grow(lam: Partition, todo: int) -> None:
        if todo == 0:
            out.append(lam)
            return
        for row, col in addable_boxes(lam):
            e = abs(2 * (d * (col - row) + a))
            if not left.get(e):
                continue
            bigger = lam[:row - 1] + (col,) + lam[row:]
            if bigger in seen:
                continue
            seen.add(bigger)
            left[e] -= 1
            grow(bigger, todo - 1)
            left[e] += 1

    grow(mu, p)
    return sorted(out, reverse=True)


@dataclass(frozen=True)
class RestrictedRootSystem:
    """R0(xi) in the basis E_1..E_r of strip-block classes.

    positive_roots are integer coefficient vectors of length basis_rank;
    factors lists one (type, rank) per equal-length class in decreasing
    length order, with a rank-1 D factor recorded as Empty.
    """

    basis_rank: int
    positive_roots: tuple[tuple[int, ...], ...]
    factors: tuple[tuple[str, int], ...]

    @property
    def weyl_order(self) -> int:
        out = 1
        for typ, rank in self.factors:
            if typ == "B":
                out *= (1 << rank) * _fact(rank)
            elif typ == "D":
                out *= (1 << (rank - 1)) * _fact(rank)
        return out


def _fact(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def _vec(r: int, entries: dict) -> tuple[int, ...]:
    out = [0] * r
    for idx, coef in entries.items():
        out[idx] = coef
    return tuple(out)


def restricted_root_system(xi: InductionDatum) -> RestrictedRootSystem:
    """Roots E_p +- E_q within each equal-length class, plus E_p on every
    block of a class whose strip length does not glue onto mu."""
    r = xi.r
    sr = _residual_split(xi.mu, xi.m)
    roots = []
    factors = []
    for length, ps in xi.length_classes():
        gluable = _glues(length, sr, xi.m)
        k = len(ps)
        if not gluable:
            factors.append(("B", k))
            for p in ps:
                roots.append(_vec(r, {p: 1}))
        elif k == 1:
            factors.append(("Empty", 1))
        else:
            factors.append(("D", k))
        for i, p in enumerate(ps):
            for q in ps[i + 1:]:
                roots.append(_vec(r, {p: 1, q: -1}))
                roots.append(_vec(r, {p: 1, q: 1}))
    return RestrictedRootSystem(basis_rank=r,
                                positive_roots=tuple(sorted(roots)),
                                factors=tuple(factors))


def _gluable_classes(xi: InductionDatum) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(length, block indices) of each gluable length class; mu is split once."""
    sr = _residual_split(xi.mu, xi.m)
    return tuple((length, ps) for length, ps in xi.length_classes()
                 if _glues(length, sr, xi.m))


def d_value(xi: InductionDatum) -> int:
    """Number of gluable length classes; the R-group has order 2**d_value."""
    return len(_gluable_classes(xi))


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

    def inverse(self) -> "SignedPermutation":
        out = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            out[abs(v) - 1] = i if v > 0 else -i
        return SignedPermutation(tuple(out))

    def apply(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Image of a coordinate vector: (w.gamma)_|img_i| = sign(img_i) * gamma_i."""
        out = [Fraction(0)] * self.n
        for i, v in enumerate(self.images):
            out[abs(v) - 1] = point[i] if v > 0 else -point[i]
        return tuple(out)


def generator(xi: InductionDatum, class_index: int) -> SignedPermutation:
    """R-group generator for the class_index-th gluable class (decreasing
    length order): the sign-reversing flip of the last block of that class."""
    length, ps = _gluable_classes(xi)[class_index]
    return _flip(xi, length, ps)


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
    exists, which the consistency checks flag).
    """

    d: int
    gluable_lengths: tuple[int, ...]
    generators: tuple[SignedPermutation, ...]
    component_count: int
    component_labels: tuple[tuple[tuple[int, ...], Optional[Partition]], ...]

    def elements(self, n: int) -> set[tuple[int, ...]]:
        """Images of the 2**d products of distinct generators in W(B_n),
        the identity included: the group the generators span."""
        span = [SignedPermutation.identity(n)]
        for g in self.generators:
            span += [w * g for w in span]
        return {w.images for w in span}


def _glue_label(mu: Partition, lengths: tuple[int, ...], m: Fraction) -> Optional[Partition]:
    current = mu
    for p in lengths:
        exts = glue_strip_geometric(current, p, m)
        if not exts:
            return None
        if len(exts) > 1:
            least = min(exts)
            warnings.warn(
                f"gluing a {p}-strip onto {current} admits {len(exts)} "
                f"partitions {exts}; using {least}",
                GluingAmbiguityWarning, stacklevel=3)
            current = least
        else:
            current = exts[0]
    return current


def r_group(xi: InductionDatum) -> RGroupResult:
    """R-group data of the induction datum: one commuting involution per
    gluable length class, 2**d components, and a glued partition labelling
    each component."""
    classes = _gluable_classes(xi)
    d = len(classes)
    lengths = tuple(length for length, _ in classes)
    gens = tuple(_flip(xi, length, ps) for length, ps in classes)
    labels = []
    for size in range(d + 1):
        for J in itertools.combinations(lengths, size):
            labels.append((J, _glue_label(xi.mu, J, xi.m)))
    return RGroupResult(d=d, gluable_lengths=lengths, generators=gens,
                        component_count=1 << d,
                        component_labels=tuple(labels))


def convert_C_labels(k1c: Fraction, k2c: Fraction) -> tuple[Fraction, Fraction]:
    """Convert root-label parameters (k1^C, k2^C) of the C_n presentation to
    the (k1, k2) of the B_n one: k2 = k2^C / 2. The effective m is k2 / k1."""
    a = Fraction(k1c)
    b = Fraction(k2c)
    if a == 0:
        raise ValueError("k1^C must be nonzero")
    return (a, b / 2)


def _brute_bound() -> int:
    """HECKE_RGROUP_BOUND_N, an integer >= 1 (default DEFAULT_BRUTE_BOUND)."""
    raw = os.environ.get("HECKE_RGROUP_BOUND_N")
    if raw is None:
        return DEFAULT_BRUTE_BOUND
    try:
        bound = int(raw)
    except ValueError:
        bound = 0
    if bound < 1:
        raise ValueError(
            f"HECKE_RGROUP_BOUND_N must be an integer >= 1, got {raw!r}")
    return bound


def _check_bound(n: int) -> None:
    """Refuse brute force over W(B_n) above the bound, stating the size of
    the image table it would build."""
    bound = _brute_bound()
    if n > bound:
        from . import _wscan
        nbytes = _wscan.group_order(n) * n
        raise ValueError(
            f"brute force over W(B_{n}) exceeds the bound {bound}: its image "
            f"table alone needs {nbytes:,} bytes; "
            f"set HECKE_RGROUP_BOUND_N to raise it")


def _gamma2(xi: InductionDatum) -> tuple[int, ...]:
    gamma = central_character(xi.kappa, xi.mu, xi.m)
    doubled = [2 * g for g in gamma]
    if any(v.denominator != 1 for v in doubled):
        raise ValueError("central character entries must be half-integers")
    return tuple(int(v) for v in doubled)


class WeylSubset(Sequence):
    """Lazy sorted subset of W(B_n), indexed by group rank.

    Stores survivor ranks (or a whole-group flag) and materializes
    SignedPermutation elements on demand, so the full W(B_8) stabilizer never
    costs 10M objects.
    """

    def __init__(self, n: int, indices):
        from . import _wscan
        self._n = n
        self._indices = indices
        self._size = _wscan.group_order(n) if indices is None else len(indices)

    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, k: int) -> SignedPermutation:
        from . import _wscan
        if k < 0:
            k += self._size
        if not 0 <= k < self._size:
            raise IndexError(k)
        rank = k if self._indices is None else int(self._indices[k])
        return SignedPermutation(_wscan.unrank(self._n, rank))

    def __iter__(self) -> Iterator[SignedPermutation]:
        from . import _wscan
        if self._indices is None:
            for k in range(self._size):
                yield SignedPermutation(_wscan.unrank(self._n, k))
        else:
            for k in self._indices:
                yield SignedPermutation(_wscan.unrank(self._n, int(k)))

    def __contains__(self, w) -> bool:
        from . import _wscan
        if not isinstance(w, SignedPermutation) or w.n != self._n:
            return False
        rank = _wscan.rank(w.images)
        if self._indices is None:
            return True
        import numpy as np
        pos = int(np.searchsorted(self._indices, rank))
        return pos < len(self._indices) and int(self._indices[pos]) == rank


def brute_force_W_xi_xi(xi: InductionDatum) -> WeylSubset:
    """Elements of W(B_n) stabilizing the parabolic simple roots setwise and
    fixing the projection of the central character onto their span. Direct
    enumeration; bounded by HECKE_RGROUP_BOUND_N (default 8)."""
    _check_bound(xi.n)
    from . import _wscan
    indices = _wscan.w_survivor_indices(xi.n, xi.kappa, xi.l, _gamma2(xi))
    return WeylSubset(xi.n, indices)


def brute_force_R(xi: InductionDatum) -> list[SignedPermutation]:
    """Stabilizer elements that additionally preserve the positive restricted
    roots; the brute-force counterpart of r_group."""
    _check_bound(xi.n)
    from . import _wscan
    classes = xi.length_classes()
    offsets = xi.offsets
    class_blocks = tuple(tuple((p, offsets[p]) for p in ps)
                         for _, ps in classes)
    sr = _residual_split(xi.mu, xi.m)
    gluable_flags = tuple(_glues(length, sr, xi.m) for length, _ in classes)
    indices = _wscan.r_member_indices(xi.n, xi.kappa, xi.l, _gamma2(xi),
                                      class_blocks, gluable_flags)
    return [SignedPermutation(_wscan.unrank(xi.n, int(k))) for k in indices]
