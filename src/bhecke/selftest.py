"""Self-test harness: every invariant sweep the library relies on.

Each suite checks one family of identities against an independent
computation path and reports a count, a timing, and a minimal reproducer
command line for any failure. Each suite is also the only implementation
of its release criterion: the acceptance tests run it at RELEASE_BOUNDS.
A full run takes about 3 s at the default bounds and 15 s at the release
bounds on a 2-CPU Linux VM with Python 3.11. At the release bounds most of
it goes to the rgroup suite (about 11 s); the gluing suite takes about 2 s
and the counting suite about 1.5 s.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .cfun import (
    pole_order_pair,
    pole_order_short_blockwise,
    pole_order_short_direct,
)
from .partitions import Bipartition, enumerate_partitions, fmt_ratio
from .rgroup import (
    InductionDatum,
    brute_force_R,
    brute_force_W_xi_xi,
    can_glue,
    d_value,
    glue_strip_geometric,
    induction_data,
    r_group,
    restricted_root_system,
)
from .splitting import is_residual_point, residual_partitions, split
from .symbols import (
    PLUS_ZERO,
    SymbolVariant,
    a_m,
    cardinality_check,
    component_group_order_m1,
    interval_count_check,
    intervals,
    similarity_class,
    springer_correspondents,
    symbol,
)

SUITE_NAMES = (
    "example",
    "principal",
    "splitting",
    "gluing",
    "rgroup",
    "pairs",
    "counting",
    "symbols",
)

__all__ = [
    "KNOWN_COUNTING_DEVIATIONS",
    "RELEASE_BOUNDS",
    "SUITE_NAMES",
    "Bounds",
    "SuiteResult",
    "map_jobs",
    "run_selftest",
    "run_suite",
]

# Data (n, m, kappa, mu) where the classical counting identities fail: the
# character class is not 2^d times the seed class, and the interval count is
# not additive. Each row was confirmed by exhaustively enumerating the
# a-maximal choices at every induction step, and the d values are backed by
# the gluing and rgroup suites. The counting suite treats these as pinned
# deviations: they must keep deviating, and nothing else may join them.
# See README, "Counting identity counterexamples".
_H = Fraction(1, 2)
KNOWN_COUNTING_DEVIATIONS = frozenset({
    (5, _H, (2,), (1, 1, 1)),
    (6, _H, (2,), (1, 1, 1, 1)),
    (6, _H, (2, 1), (1, 1, 1)),
    (7, _H, (2,), (1, 1, 1, 1, 1)),
    (7, _H, (2, 1), (1, 1, 1, 1)),
    (7, _H, (4,), (1, 1, 1)),
    (7, _H, (2, 2), (1, 1, 1)),
    (7, _H, (2, 1, 1), (1, 1, 1)),
    (7, Fraction(1), (3,), (1, 1, 1, 1)),
    (7, 3 * _H, (2,), (2, 1, 1, 1)),
    (7, 3 * _H, (2,), (1, 1, 1, 1, 1)),
    (8, _H, (2,), (3, 3)),
    (8, _H, (2,), (1, 1, 1, 1, 1, 1)),
    (8, _H, (2, 1), (1, 1, 1, 1, 1)),
    (8, _H, (4,), (1, 1, 1, 1)),
    (8, _H, (2, 2), (1, 1, 1, 1)),
    (8, _H, (2, 1, 1), (1, 1, 1, 1)),
    (8, _H, (4, 1), (1, 1, 1)),
    (8, _H, (3, 2), (1, 1, 1)),
    (8, _H, (2, 2, 1), (1, 1, 1)),
    (8, _H, (2, 1, 1, 1), (1, 1, 1)),
    (8, Fraction(1), (3,), (1, 1, 1, 1, 1)),
    (8, Fraction(1), (3, 1), (1, 1, 1, 1)),
    (8, 3 * _H, (2,), (3, 1, 1, 1)),
    (8, 3 * _H, (2,), (1, 1, 1, 1, 1, 1)),
    (8, 3 * _H, (2, 1), (2, 1, 1, 1)),
    (8, 3 * _H, (2, 1), (1, 1, 1, 1, 1)),
})


@dataclass(frozen=True)
class Bounds:
    bound_n: int = 6
    bound_l: int = 10
    jobs: int = 1


# The bounds the release gate runs every suite at: ranks to 8. The other
# bounds are fixed in the suites: strips to 12, splitting weights to 12,
# gluing weights to 10, m in {0, 1/2, ..., 6}.
RELEASE_BOUNDS = Bounds(bound_n=8)


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    seconds: float = 0.0
    # Data keys of the pinned counting deviations that deviated again.
    deviations: list = field(default_factory=list)

    def ok(self) -> bool:
        """Passed: at least one check ran and none failed."""
        return self.checked > 0 and not self.failures


def _half_integers(lo: int, hi: int) -> list[Fraction]:
    return [Fraction(k, 2) for k in range(2 * lo, 2 * hi + 1)]


def _check(res: SuiteResult, condition: bool, repro: str, count: int = 1) -> None:
    """Record count checks, failing them with one line unless condition holds."""
    res.checked += count
    if not condition:
        res.failures.append(repro)


def _sweep(res: SuiteResult, chunk: Callable[..., SuiteResult], cases: list,
           jobs: int) -> None:
    """Run chunk on every case and merge the parts it returns into res."""
    for part in map_jobs(chunk, cases, jobs):
        res.checked += part.checked
        res.failures.extend(part.failures)
        res.deviations.extend(part.deviations)


def _sweep_data(bounds: Bounds) -> list:
    """Every valid datum of rank 1..bound_n for m in {0, 1/2, ..., 4}."""
    return [case for n in range(1, bounds.bound_n + 1)
            for case in induction_data(n, _half_integers(0, 4))]


def _repro(n, m, kappa, mu, extra: str = "") -> str:
    ka = ",".join(str(p) for p in kappa)
    mus = ",".join(str(p) for p in mu)
    return f'bhecke rgroup -n {n} -m {fmt_ratio(m)} --kappa "{ka}" --mu "{mus}"{extra}'


def _suite_example(bounds: Bounds, res: SuiteResult) -> None:
    from .report import build_report

    xi = InductionDatum(36, Fraction(3), (11, 7, 4, 3), (4, 3, 2, 1, 1))
    repro = _repro(36, 3, (11, 7, 4, 3), (4, 3, 2, 1, 1))
    started = time.perf_counter()
    rep = build_report(xi)
    elapsed = time.perf_counter() - started
    _check(res, r_group(xi).gluable_lengths == (11, 7), repro)
    _check(res, split((4, 3, 2, 1, 1), Fraction(3)).bipartition
           == Bipartition((4, 3, 2), (2,)), repro)
    _check(res, sorted(rep["datum"]["kappa"], reverse=True) == [11, 7, 4, 3], repro)
    _check(res, rep["d"] == 2, repro)
    _check(res, rep["componentCount"] == 4, repro)
    gluable = sorted(lbl["J"][0] for lbl in rep["componentLabels"] if len(lbl["J"]) == 1)
    _check(res, gluable == [7, 11], repro)
    _check(res, all(rep["checks"].values()), repro)
    _check(res, elapsed < 1.0, repro + "  (slower than 1 s)")

    v3 = SymbolVariant("int", Fraction(3))
    seed_sym = symbol(Bipartition((4, 3, 2), (2,)), v3)
    _check(res, (seed_sym.top, seed_sym.bottom) == ((0, 4, 7, 10), (2,)), repro)
    _check(res, len(intervals(seed_sym)) == 5, repro)
    cls = rep["springerClass"]
    _check(res, cls["size"] == 20 and cls["aValue"] == 153, repro)
    _check(res, sorted(cls["symbol"]["top"] + cls["symbol"]["bottom"])
           == [0, 2, 3, 4, 6, 6, 8, 10, 11, 13, 15, 16, 18], repro)
    _check(res, len(cls["intervals"]) == 7, repro)


def _suite_principal(bounds: Bounds, res: SuiteResult) -> None:
    for n in range(2, 7):
        kappa = (1,) * n
        xi = InductionDatum(n, Fraction(0), kappa, ())
        rs = restricted_root_system(xi)
        repro = _repro(n, 0, kappa, ())
        _check(res, rs.factors == (("D", n),), repro)
        _check(res, d_value(xi) == 1, repro)
        _check(res, r_group(xi).component_count == 2, repro)
        for m in (Fraction(1), Fraction(3, 2), Fraction(2)):
            xi = InductionDatum(n, m, kappa, ())
            repro = _repro(n, m, kappa, ())
            factors = restricted_root_system(xi).factors
            _check(res, not any(kind == "D" and rank >= 2 for kind, rank in factors),
                   repro)
            _check(res, d_value(xi) == 0, repro)
            _check(res, r_group(xi).component_count == 1, repro)


def _suite_splitting(bounds: Bounds, res: SuiteResult) -> None:
    top = max(12, bounds.bound_l)
    for l in range(1, top + 1):
        for lam in enumerate_partitions(l):
            for m in _half_integers(0, 6):
                defined = split(lam, m) is not None
                residual = is_residual_point(lam, m)
                lam_s = ",".join(str(p) for p in lam)
                _check(res, defined == residual,
                       f'bhecke split --lam "{lam_s}" -m {fmt_ratio(m)}')


def _gluing_cases(bound_l: int):
    for m in _half_integers(0, 6):
        for l in range(0, bound_l + 1):
            for mu in residual_partitions(l, m):
                yield (mu, m)


def _gluing_chunk(args) -> SuiteResult:
    mu, m = args
    part = SuiteResult("gluing")
    sr = split(mu, m)
    mu_s = ",".join(str(q) for q in mu)
    for p in range(1, 13):
        glue = can_glue(p, mu, m)
        direct = pole_order_short_direct(p, mu, m)
        blockwise = pole_order_short_blockwise(p, sr, m)
        geometric = bool(glue_strip_geometric(mu, p, m))
        repro = f'bhecke rgroup -n {p + sum(mu)} -m {fmt_ratio(m)} --kappa {p} --mu "{mu_s}"'
        for cond in (glue == (direct == 0), glue == geometric, blockwise == direct):
            _check(part, cond, repro)
    return part


def _suite_gluing(bounds: Bounds, res: SuiteResult) -> None:
    _sweep(res, _gluing_chunk, list(_gluing_cases(bounds.bound_l)), bounds.jobs)


def _rgroup_chunk(args) -> SuiteResult:
    n, m, kappa, mu = args
    part = SuiteResult("rgroup")
    xi = InductionDatum(n, m, kappa, mu)
    rs = restricted_root_system(xi)
    rg = r_group(xi)
    survivors = brute_force_W_xi_xi(xi)
    members = brute_force_R(xi)
    repro = _repro(n, m, kappa, mu, " --oracle")
    for cond in (
        len(members) == 1 << rg.d,
        {g.images for g in members} == rg.elements(n),
        all((g * g).is_identity() for g in members),
        len(survivors) == rs.weyl_order * (1 << rg.d),
    ):
        _check(part, cond, repro)
    return part


def _suite_rgroup(bounds: Bounds, res: SuiteResult) -> None:
    _sweep(res, _rgroup_chunk, _sweep_data(bounds), bounds.jobs)


def _suite_pairs(bounds: Bounds, res: SuiteResult) -> None:
    for p1 in range(1, 13):
        for p2 in range(1, 13):
            for sign in ("-", "+"):
                _check(res, pole_order_pair(p1, p2, sign) == (1 if p1 == p2 else 0),
                       f"pole_order_pair({p1}, {p2}, {sign!r})")


def _counting_chunk(args) -> SuiteResult:
    n, m, kappa, mu = args
    part = SuiteResult("counting")
    xi = InductionDatum(n, m, kappa, mu)
    repro = _repro(n, m, kappa, mu)
    full = springer_correspondents(xi)
    conds = [cardinality_check(xi, full), interval_count_check(xi, full)]
    if m == 1:
        seed = similarity_class(xi.split_result.bipartition, full.variant)
        full_symbol = symbol(full.representative(), full.variant)
        seed_symbol = symbol(seed.representative(), full.variant)
        if intervals(full_symbol) and intervals(seed_symbol):
            quotient = component_group_order_m1(full_symbol) \
                / component_group_order_m1(seed_symbol)
            conds.append(quotient == 1 << d_value(xi))
    key = (n, m, kappa, mu)
    deviates = not all(conds)
    if key in KNOWN_COUNTING_DEVIATIONS:
        if deviates:
            part.deviations.append(key)
        _check(part, deviates, repro + "  (pinned deviation no longer deviates)",
               len(conds))
    else:
        _check(part, not deviates, repro, len(conds))
    return part


def _suite_counting(bounds: Bounds, res: SuiteResult) -> None:
    _sweep(res, _counting_chunk, _sweep_data(bounds), bounds.jobs)
    if res.deviations:
        res.notes.append(f"known deviations: {len(res.deviations)} "
                         "(documented counting-identity counterexamples)")


def _suite_symbols(bounds: Bounds, res: SuiteResult) -> None:
    bp = Bipartition((2, 1), (3,))
    goldens = [
        (PLUS_ZERO, ((1, 4), (0, 5))),
        (SymbolVariant("minus0", Fraction(0)), ((1, 4), (0, 5))),
        (SymbolVariant("int", Fraction(-2)), ((1, 4), (0, 2, 4, 9))),
        (SymbolVariant("int", Fraction(2)), ((0, 3, 6), (3,))),
    ]
    for variant, rows in goldens:
        s = symbol(bp, variant)
        _check(res, (s.top, s.bottom) == rows,
               f'bhecke symbols --first 2,1 --second 3 -m {variant.label}')
    for n in range(1, 6):
        got = a_m(Bipartition((), (1,) * n), SymbolVariant("int", Fraction(1)))
        _check(res, got == n * n,
               f'bhecke symbols --first "" --second {",".join("1" * n)} -m 1')


_SUITES: dict[str, Callable[[Bounds, SuiteResult], None]] = {
    "example": _suite_example,
    "principal": _suite_principal,
    "splitting": _suite_splitting,
    "gluing": _suite_gluing,
    "rgroup": _suite_rgroup,
    "pairs": _suite_pairs,
    "counting": _suite_counting,
    "symbols": _suite_symbols,
}


def map_jobs(fn, cases, jobs: int) -> list:
    """[fn(c) for c in cases], spread over worker processes when jobs > 1.

    Raises ValueError for jobs < 1. Starts at most min(jobs, CPU count,
    number of cases) workers, and none when that is 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1, len(cases))
    if workers <= 1:
        return [fn(c) for c in cases]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cases, chunksize=max(1, len(cases) // (8 * workers))))


def _suite(name: str) -> Callable[[Bounds, SuiteResult], None]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return _SUITES[name]


def run_suite(name: str, bounds: Bounds = Bounds()) -> SuiteResult:
    """Run one suite and time it; a run that checked nothing gets a note."""
    suite = _suite(name)
    res = SuiteResult(name)
    started = time.perf_counter()
    suite(bounds, res)
    res.seconds = time.perf_counter() - started
    if not res.checked:
        res.notes.append("no checks ran: the bounds select no cases")
    return res


def run_selftest(suites: Optional[Iterable[str]] = None,
                 bounds: Bounds = Bounds(),
                 emit: Callable[[str], None] = print) -> int:
    """Run the selected suites (all by default); 0 iff everything passed."""
    names = list(suites) if suites else list(SUITE_NAMES)
    for name in names:
        _suite(name)
    total_failures = 0
    failed_suites = []
    for name in names:
        res = run_suite(name, bounds)
        status = "ok" if res.ok() else "FAIL"
        if not res.ok():
            failed_suites.append(name)
        emit(f"suite {name:<10} {status:<4} {res.checked:6d} checks "
             f"{len(res.failures):3d} failures  {res.seconds:7.2f}s")
        for note in res.notes:
            emit(f"  note: {note}")
        for line in res.failures[:10]:
            emit(f"  reproduce: {line}")
        if len(res.failures) > 10:
            emit(f"  ... {len(res.failures) - 10} more")
        total_failures += len(res.failures)
    emit("selftest: " + ("all suites passed" if not failed_suites
                         else f"{total_failures} failures; failed suites: "
                              + ", ".join(failed_suites)))
    return 0 if not failed_suites else 1
