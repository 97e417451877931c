"""The four benchmark workloads: seeded inputs, one operation, its check.

Each workload turns a seed into a fixed list of operations made of whole
rounds, runs one operation at a time, and checks each output against the
independent computations in `reference` or against a property the method
must have. Inputs are plain tuples with m given as m2 = 2m; the program
sees only them.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable

import bhecke
import reference as ref
from bhecke import InductionDatum, _wscan
from bhecke import report as report_module
from bhecke import symbols as symbols_module

# Operations call the program through module attributes (bhecke.split,
# report_module.build_report), never through names bound here, so that the
# traced run, which rebinds the program's module attributes, sees them.

# The worked example of the paper: rank 36, m = 3.
EXAMPLE = (36, 6, (11, 7, 4, 3), (4, 3, 2, 1, 1))

# Many-strip data on which similarity_class scans C(N, t) top-row position
# subsets per call: C(28, 15) = 37,442,160 and C(26, 12) = 9,657,700. They
# run for minutes (the second one 64 s on a 2-CPU machine), so they fail
# under the time limit in every run.
MANY_STRIP = (
    (34, 3, (3,) * 7 + (2,) * 2 + (1,) * 4, (5,)),
    (33, 3, (3,) * 7 + (2,) * 2 + (1,) * 3, (5,)),
)

# Per-operation time limits in seconds. Each is at least 2.5 times the
# slowest passing operation of its workload on a 2-CPU machine; the
# many-strip data need minutes. The report limit is kept short because a
# failing operation grows memory by about 7 MB/s, and a short limit keeps
# that below the workload's own peak.
REPORT_LIMIT_S = 2.0
LIMIT_S = 5.0

ROUND_SECONDS = 20.0

REPORT_M2 = range(7)            # m in {0, 1/2, ..., 3}
REPORT_RANKS = range(12, 37)
REPORT_PASSES = 2               # passes over the (m, rank) grid per round
# At m = 0 every symbol computation runs under both zero variants, so a
# report costs twice as much; above rank 28 one takes up to 1.2 s, too
# close to the time limit.
REPORT_M0_MAX_RANK = 28
REPORT_MAX_STRIPS = 4
REPORT_MAX_MU = 12
# |mu| plus the gluable strip lengths: glue_strip_geometric enumerates the
# partitions of this size, so the cap keeps gluing from swamping symbols.
REPORT_MAX_GLUED = 16

ORACLE_RANK = 8
ORACLE_M2 = range(9)            # m in {0, 1/2, ..., 4}
ORACLE_SHAPES = 8               # distinct simple-root shapes per round
# Shapes with fewer simple roots leave millions of survivors (the whole
# group when there are none), which makes one datum cost 50-300 ms warm.
ORACLE_MIN_CHAIN = 3
ORACLE_PER_SHAPE = 125         # data per shape per round

GLUING_M2 = range(13)           # m in {0, 1/2, ..., 6}
GLUING_MAX_MU = 10
GLUING_STRIPS = range(1, 13)
GLUING_SHARE = 5                # one case in five per (m, |mu|) stratum

RESIDUAL_WEIGHTS = (13, 14, 15)
RESIDUAL_M2 = range(17)         # m in {0, 1/2, ..., 8}
RESIDUAL_PER_WEIGHT = 34
RESIDUAL_ROOT_CHECK_SHARE = 4   # about one list in four is also root-counted


def frac(m2: int) -> Fraction:
    return Fraction(m2, 2)


def gluable_lengths(kappa, mu, m2: int) -> set[int]:
    """Distinct strip lengths whose short-root pole order is zero."""
    return {p for p in set(kappa) if ref.short_pole_order(p, mu, m2) == 0}


def _datum(op) -> InductionDatum:
    n, m2, kappa, mu = op
    return InductionDatum(n, frac(m2), kappa, mu)


# ------------------------------------------------------------------ report

def _composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return tuple(sorted((b - a for a, b in zip([0] + cuts, cuts + [total])),
                        reverse=True))


@lru_cache(maxsize=None)
def report_population(rnd: int) -> tuple[tuple, ...]:
    """The data round rnd draws from: two distinct data for every (m, rank)
    pair (ranks up to 28 at m = 0), made from a fixed seed so that every
    run draws from the same population. The strip count cycles through
    1..4 with the slot; |mu|, mu and the strip lengths are drawn."""
    rng = random.Random(f"report-population:{rnd}")
    seen = {EXAMPLE}.union(*(report_population(k) for k in range(rnd)))
    drawn = []
    for m2, n, rep in itertools.product(REPORT_M2, REPORT_RANKS,
                                        range(REPORT_PASSES)):
        if m2 == 0 and n > REPORT_M0_MAX_RANK:
            continue
        r = 1 + (n + 3 * m2 + rep) % REPORT_MAX_STRIPS
        while True:
            l = rng.randint(0, min(n - r, REPORT_MAX_MU))
            mus = ref.residual_list(l, m2)
            if not mus:
                continue
            mu = rng.choice(mus)
            kappa = _composition(rng, n - l, r)
            datum = (n, m2, kappa, mu)
            glued = l + sum(gluable_lengths(kappa, mu, m2))
            if glued <= REPORT_MAX_GLUED and datum not in seen:
                break
        seen.add(datum)
        drawn.append(datum)
    return tuple(drawn)


def report_ops(seed: int, rounds: int) -> list[tuple]:
    """Per round: a seeded sample of nine tenths of the round's population
    in seeded order, with the two many-strip data after the first. The
    first round starts with the paper's example. Sampling most of a fixed
    population keeps the mix of cheap and costly reports nearly the same
    from seed to seed, which the heavy-tailed report times need."""
    rng = random.Random(f"report:{seed}")
    ops = []
    for rnd in range(rounds):
        population = report_population(rnd)
        drawn = rng.sample(population, len(population) * 9 // 10)
        if rnd == 0:
            drawn[0] = EXAMPLE
        ops.extend(drawn[:1] + list(MANY_STRIP) + drawn[1:])
    return ops


_captured: list = []


def prepare_report() -> None:
    """Record the class build_report computes, so that its members can be
    checked without computing it again. The call goes through the symbols
    module binding, which the traced run wraps."""
    def springer_correspondents(xi):
        cls = symbols_module.springer_correspondents(xi)
        _captured.append(cls)
        return cls

    report_module.springer_correspondents = springer_correspondents


def run_report(op):
    _captured.clear()
    rep = report_module.build_report(_datum(op))
    return rep, (_captured[-1] if _captured else None)


def check_report(op, out) -> list[str]:
    rep, cls = out
    n, m2, kappa, mu = op
    errors = []
    d = rep["d"]
    own = gluable_lengths(kappa, mu, m2)
    singles = sorted(lbl["J"][0] for lbl in rep["componentLabels"]
                     if len(lbl["J"]) == 1)
    if rep["componentCount"] != 1 << d:
        errors.append(f"componentCount {rep['componentCount']} != 2^{d}")
    if d != len(own) or singles != sorted(own):
        errors.append(f"d={d}, gluable {singles}; pole orders give {sorted(own)}")
    sc = rep["springerClass"]
    if sc is None or cls is None:
        return errors + ["no Springer class"]
    first = tuple(sc["representative"]["first"])
    second = tuple(sc["representative"]["second"])
    rows = (tuple(sc["symbol"]["top"]), tuple(sc["symbol"]["bottom"]))
    if rows != ref.padded_rows(first, second, m2):
        errors.append(f"representative symbol {rows}")
    if len(cls.members) != sc["size"]:
        errors.append(f"class size {sc['size']} but {len(cls.members)} members")
    target = ref.symbol_multiset(first, second, m2)
    for b in cls.members:
        if (ref.symbol_multiset(b.first, b.second, m2) != target
                or ref.a_value(b.first, b.second, m2) != sc["aValue"]):
            errors.append(f"member {b} differs from the representative")
            break
    if op == EXAMPLE and (d, rep["componentCount"], singles, sc["size"],
                          sc["aValue"]) != (2, 4, [7, 11], 20, 153):
        errors.append("rank-36 example differs from the paper")
    return errors


# ------------------------------------------------------------------ oracle

def shape(kappa, l: int, n: int) -> tuple:
    """Simple-root shape of the parabolic: chain positions a of the roots
    e_a - e_(a+1), and whether e_n is simple."""
    chain, off = [], 0
    for part in kappa:
        chain.extend(range(off + 1, off + part))
        off += part
    if l >= 2:
        chain.extend(range(off + 1, n))
    return tuple(chain), l >= 1


@lru_cache(maxsize=None)
def _oracle_shapes() -> dict:
    by_shape = defaultdict(list)
    n = ORACLE_RANK
    for m2 in ORACLE_M2:
        for k in range(n + 1):
            for mu in ref.residual_list(n - k, m2):
                for kappa in ref.partitions(k):
                    by_shape[shape(kappa, n - k, n)].append((n, m2, kappa, mu))
    return dict(sorted(((s, data) for s, data in by_shape.items()
                        if len(s[0]) >= ORACLE_MIN_CHAIN),
                       key=lambda kv: (len(kv[0][0]), kv[0])))


def oracle_shapes(rnd: int) -> list[tuple]:
    """The shapes of round rnd, fixed for every run: one from each of eight
    bins of the shapes (at least three simple roots) ordered by chain
    length. A shape's warm cost is set by its survivor count, so fixing
    the shapes keeps the cost mix the same from seed to seed."""
    rng = random.Random(f"oracle-shapes:{rnd}")
    shapes = list(_oracle_shapes().items())
    return [rng.choice(shapes[i * len(shapes) // ORACLE_SHAPES:
                              (i + 1) * len(shapes) // ORACLE_SHAPES])
            for i in range(ORACLE_SHAPES)]


def oracle_ops(seed: int, rounds: int) -> list[tuple]:
    """Per round: 125 seeded data of each of the round's eight shapes, in
    seeded order. Only a shape's first datum builds its mask."""
    rng = random.Random(f"oracle:{seed}")
    ops = []
    for rnd in range(rounds):
        drawn = [rng.choice(data) for _, data in oracle_shapes(rnd)
                 for _ in range(ORACLE_PER_SHAPE)]
        rng.shuffle(drawn)
        ops.extend(drawn)
    return ops


def prepare_oracle() -> None:
    _wscan.images_table(ORACLE_RANK)


def run_oracle(op):
    xi = _datum(op)
    rg = bhecke.r_group(xi)
    stabilizer = bhecke.brute_force_W_xi_xi(xi)
    members = bhecke.brute_force_R(xi)
    return (rg.d, [g.images for g in rg.generators], len(stabilizer),
            [g.images for g in members])


def check_oracle(op, out) -> list[str]:
    n, m2, kappa, mu = op
    d, gens, stabilizer_order, members = out
    own = gluable_lengths(kappa, mu, m2)
    ident = tuple(range(1, n + 1))
    errors = []
    if d != len(own):
        errors.append(f"d={d}; pole orders give {len(own)}")
    if len(members) != 1 << d or set(members) != ref.generated_group(gens, n):
        errors.append(f"brute-force R of order {len(members)} is not the "
                      f"group generated by {gens}")
    if any(ref.compose(w, w) != ident for w in members):
        errors.append("an element of R is not an involution")
    w_r0 = ref.weyl_order_r0(kappa, {p: p in own for p in set(kappa)})
    if stabilizer_order != w_r0 << d:
        errors.append(f"|W_xi,xi| = {stabilizer_order} != {w_r0} * 2^{d}")
    return errors


# ------------------------------------------------------------------ gluing

@lru_cache(maxsize=None)
def gluing_population(rnd: int) -> tuple[tuple, ...]:
    """The (mu, m) cases round rnd draws from, fixed for every run: from
    every (m, |mu|) stratum of residual mu, a fifth of it (at least one),
    swept by m and then |mu| as the selftest does."""
    rng = random.Random(f"gluing-population:{rnd}")
    cases = []
    for m2 in GLUING_M2:
        for l in range(GLUING_MAX_MU + 1):
            mus = ref.residual_list(l, m2)
            if mus:
                k = max(1, round(len(mus) / GLUING_SHARE))
                cases.extend((mu, m2) for mu in sorted(rng.sample(mus, k)))
    return tuple(cases)


def gluing_ops(seed: int, rounds: int) -> list[tuple]:
    """Per round: a seeded nine tenths of the round's cases, kept in sweep
    order so that the gluing caches fill in the same pattern, each case
    once per strip length 1..12."""
    rng = random.Random(f"gluing:{seed}")
    ops = []
    for rnd in range(rounds):
        population = gluing_population(rnd)
        kept = sorted(rng.sample(range(len(population)), len(population) * 9 // 10))
        ops.extend((*population[i], p) for i in kept for p in GLUING_STRIPS)
    return ops


def run_gluing(op):
    mu, m2, p = op
    m = frac(m2)
    return (bhecke.can_glue(p, mu, m), bhecke.pole_order_short_direct(p, mu, m),
            bhecke.pole_order_short_blockwise(p, bhecke.split(mu, m), m),
            bhecke.glue_strip_geometric(mu, p, m))


def check_gluing(op, out) -> list[str]:
    mu, m2, p = op
    glue, direct, blockwise, geometric = out
    own = ref.short_pole_order(p, mu, m2)
    errors = []
    if not glue == (direct == 0) == bool(geometric):
        errors.append(f"can_glue {glue}, direct {direct}, "
                      f"{len(geometric)} geometric gluings")
    if blockwise != direct or direct != own:
        errors.append(f"blockwise {blockwise}, direct {direct}, exponent count {own}")
    for lam in geometric:
        if sum(lam) != sum(mu) + p or any(
                i >= len(lam) or lam[i] < part for i, part in enumerate(mu)):
            errors.append(f"{lam} is not mu plus {p} boxes")
    return errors


# ---------------------------------------------------------------- residual

def residual_ops(seed: int, rounds: int) -> list[tuple]:
    """Per round: 34 seeded values of m for each weight 13..15, in seeded
    order; about one in four is marked for the root-count check."""
    rng = random.Random(f"residual:{seed}")
    ops = []
    for _ in range(rounds):
        drawn = [(l, rng.choice(RESIDUAL_M2),
                  rng.randrange(RESIDUAL_ROOT_CHECK_SHARE) == 0)
                 for l in RESIDUAL_WEIGHTS for _ in range(RESIDUAL_PER_WEIGHT)]
        rng.shuffle(drawn)
        ops.extend(drawn)
    return ops


def run_residual(op):
    l, m2, _ = op
    return bhecke.residual_partitions(l, frac(m2))


def check_residual(op, out) -> list[str]:
    l, m2, root_check = op
    found = set(out)
    errors = []
    if len(found) != len(out):
        errors.append("the list repeats a partition")
    defined = {lam for lam in ref.partitions(l)
               if bhecke.split(lam, frac(m2)) is not None}
    if found != defined:
        errors.append(f"{len(found ^ defined)} partitions differ from where split is defined")
    if root_check and found != set(ref.residual_list(l, m2)):
        errors.append("the list differs from the root count")
    return errors


# ---------------------------------------------------------------- registry

def _nothing() -> None:
    """Importing bhecke is all the set-up these workloads need."""


def rounds(seconds: float) -> int:
    """Whole rounds in a run of the given length; one round of every
    workload takes about ROUND_SECONDS untraced on a 2-CPU machine."""
    return max(1, round(seconds / ROUND_SECONDS))


@dataclass(frozen=True)
class Workload:
    limit_s: float            # per-operation time limit
    make_ops: Callable[[int, int], list]
    prepare: Callable[[], None]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list]


WORKLOADS = {
    "report": Workload(REPORT_LIMIT_S, report_ops, prepare_report,
                       run_report, check_report),
    "oracle": Workload(LIMIT_S, oracle_ops, prepare_oracle,
                       run_oracle, check_oracle),
    "gluing": Workload(LIMIT_S, gluing_ops, _nothing, run_gluing, check_gluing),
    "residual": Workload(LIMIT_S, residual_ops, _nothing,
                         run_residual, check_residual),
}
