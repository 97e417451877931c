"""Command-line front end for the reducibility toolkit.

Subcommands: rgroup (full diagnostic report for one induction datum),
residual (residual partitions of a weight), split (the splitting map on one
partition), symbols (two-row symbol with a-value, intervals, and class
size), table (sweep every valid datum of a rank), selftest (the invariant
suites), and convert-c (translate type-C label pairs to the parameters used
here).

The parameter m is entered and printed as an exact fraction ("3", "1/2");
decimal input is rejected rather than silently rounded. JSON output is
versioned through a schemaVersion field, renders fractions as strings, and
is byte-identical across runs and worker counts for identical inputs.
Exit codes: 0 success, 1 failed check (selftest, or rgroup --strict),
2 usage or precondition error, 141 (128 + SIGPIPE) when the reader closes
standard output early.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .partitions import (
    ENUMERATION_BOUND,
    RANK_BOUND,
    Bipartition,
    check_enumeration_bound,
    check_rank_bound,
    fmt_ratio,
    parse_partition,
    parse_ratio,
)
from .report import SCHEMA_VERSION, build_report, split_fields
from .rgroup import (
    BRUTE_FORCE_BOUND,
    InductionDatum,
    _check_oracle,
    convert_C_labels,
    induction_data,
)
from .selftest import SUITE_NAMES, Bounds, map_jobs, run_selftest, selected_suites
from .splitting import residual_partitions, split
from .symbols import (
    MINUS_ZERO,
    PLUS_ZERO,
    check_symbol_bound,
    intervals,
    similarity_class,
    symbol,
    variants_for_m,
)

__all__ = ["main"]

_TABLE_COLUMNS = (
    "n", "m", "kappa", "mu", "d", "components", "gluable",
    "classSize", "aValue", "residual", "blockwise", "cardinality",
    "intervalCount",
)


def _arg(parse):
    """An argparse type that turns the parser's ValueError into a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None
    if value < minimum:
        raise ValueError(f"must be an integer >= {minimum}, got {value}")
    return value


def _at_least(minimum: int):
    """An argparse type for an integer >= minimum."""
    return _arg(lambda text: _int_at_least(text, minimum))


def _bounded(minimum: int, check):
    """An argparse type for an integer >= minimum that check accepts."""
    def bounded(text: str) -> int:
        value = _int_at_least(text, minimum)
        check(value)
        return value
    return _arg(bounded)


def _splittable(text: str):
    """A partition whose weight is at most the rank bound."""
    lam = parse_partition(text)
    check_rank_bound(sum(lam))
    return lam


def _parameter(text: str) -> Fraction:
    """An exact fraction m >= 0, the range of the parameter ratio."""
    m = parse_ratio(text)
    if m < 0:
        raise ValueError(f"m={fmt_ratio(m)} is negative")
    return m


def _ratio_list(text: str) -> tuple:
    return tuple(_parameter(p) for p in text.split(","))


def _variant(text: str):
    text = text.strip()
    if text == "+0":
        return PLUS_ZERO
    if text == "-0":
        return MINUS_ZERO
    m = parse_ratio(text)
    if m == 0:
        raise ValueError('m=0 carries two symbol variants; pass "+0" or "-0"')
    if m.denominator > 2:
        raise ValueError(f"symbols need integer or half-integer m, got {text!r}")
    return variants_for_m(m)[0]


def _print(line: str = "") -> None:
    sys.stdout.write(line + "\n")


def _json_out(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _fmt_parts(parts) -> str:
    return ",".join(str(p) for p in parts)


def _fmt_rows(top, bottom) -> str:
    return "(%s)/(%s)" % (" ".join(str(e) for e in top),
                          " ".join(str(e) for e in bottom))


def _pass(flag: Optional[bool]) -> str:
    if flag is None:
        return ""
    return "pass" if flag else "FAIL"


def _print_report(rep: dict) -> None:
    datum = rep["datum"]
    _print(f"datum        n={datum['n']}  m={datum['m']}  "
           f"kappa={_fmt_parts(datum['kappa'])}  mu={_fmt_parts(datum['mu'])}")
    _print(f"character    {' '.join(rep['centralCharacter'])}")
    rd = rep["residualDiagnostics"]
    _print(f"residual     poles={rd['poles']} zeros={rd['zeros']} "
           f"codimension={rd['codimension']} residual={'yes' if rd['isResidual'] else 'NO'}")
    sp = rep["splitResult"]
    _print(f"split        first={_fmt_parts(sp['first'])}  second={_fmt_parts(sp['second'])}")
    for blk in sp["blocks"]:
        _print(f"  block      {blk['orientation']} {blk['entryLow']}..{blk['entryHigh']}"
               f" length {blk['length']}")
    if rep["poleOrders"]:
        orders = " ".join(f"{e['root']}={e['order']}" for e in rep["poleOrders"])
        _print(f"poleOrders   {orders}")
    factors = " x ".join(
        "1" if f["type"] == "Empty" else f"{f['type']}{f['rank']}"
        for f in rep["rootSystemFactors"])
    _print(f"factors      {factors or '(none)'}")
    _print(f"d            {rep['d']}")
    _print(f"components   {rep['componentCount']}")
    for gen in rep["generators"]:
        _print(f"generator    {gen['word']}")
    for lbl in rep["componentLabels"]:
        mu_j = "(unresolved)" if lbl["muJ"] is None else _fmt_parts(lbl["muJ"])
        _print(f"label        J={_fmt_parts(lbl['J']) or '-'}  mu_J={mu_j}")
    cls = rep["springerClass"]
    if cls is not None:
        _print(f"class        variant={cls['variant']}  size={cls['size']}  a={cls['aValue']}")
        member = cls["representative"]
        _print(f"  member     first={_fmt_parts(member['first'])}  "
               f"second={_fmt_parts(member['second'])}")
        _print(f"  symbol     {_fmt_rows(cls['symbol']['top'], cls['symbol']['bottom'])}")
        ivs = " ".join(f"({lo}..{hi})" for lo, hi in cls["intervals"])
        _print(f"  intervals  {ivs or '-'}  count={len(cls['intervals'])}")
    if "oracle" in rep:
        orc = rep["oracle"]
        _print(f"oracle       stabilizer={orc['stabilizerOrder']} "
               f"expected={orc['expectedStabilizerOrder']} rGroup={orc['rGroupOrder']}")
    checks = " ".join(f"{k}={_pass(v)}" for k, v in sorted(rep["checks"].items()))
    _print(f"checks       {checks}")
    for note in rep["notes"]:
        _print(f"note         {note}")


def cmd_rgroup(args) -> int:
    try:
        xi = InductionDatum(args.n, args.m, args.kappa, args.mu)
        check_symbol_bound(xi.m, xi.n)
        if args.oracle:
            _check_oracle(xi)
    except ValueError as exc:
        sys.stderr.write(f"bhecke rgroup: {exc}\n")
        return 2
    rep = build_report(xi, oracle=args.oracle)
    if args.json:
        _json_out(rep)
    else:
        _print_report(rep)
    if args.strict and not all(rep["checks"].values()):
        return 1
    return 0


def _split_doc(lam, m) -> dict:
    sr = split(lam, m)
    doc = {"lam": list(lam), "m": fmt_ratio(m), "defined": sr is not None}
    if sr is not None:
        doc.update(split_fields(sr))
    return doc


def _symbol_docs(bp: Bipartition, m: Fraction) -> list:
    if m.denominator > 2:
        return []
    docs = []
    for variant in variants_for_m(m):
        s = symbol(bp, variant)
        docs.append({
            "variant": variant.label,
            "top": list(s.top),
            "bottom": list(s.bottom),
        })
    return docs


def cmd_residual(args) -> int:
    try:
        check_symbol_bound(args.m, args.l)
    except ValueError as exc:
        sys.stderr.write(f"bhecke residual: {exc}\n")
        return 2
    found = residual_partitions(args.l, args.m)
    docs = []
    for lam in found:
        doc = _split_doc(lam, args.m)
        doc["symbols"] = _symbol_docs(
            Bipartition(tuple(doc.get("first", ())), tuple(doc.get("second", ()))),
            args.m) if doc["defined"] else []
        docs.append(doc)
    if args.json:
        _json_out({
            "schemaVersion": SCHEMA_VERSION,
            "l": args.l,
            "m": fmt_ratio(args.m),
            "partitions": docs,
        })
        return 0
    _print(f"residual partitions of weight {args.l} at m={fmt_ratio(args.m)}: "
           f"{len(docs)} found")
    for doc in docs:
        _print(f"lam={_fmt_parts(doc['lam'])}")
        _print(f"  split      first={_fmt_parts(doc['first'])}  "
               f"second={_fmt_parts(doc['second'])}")
        for sym in doc["symbols"]:
            _print(f"  symbol[{sym['variant']}]  {_fmt_rows(sym['top'], sym['bottom'])}")
        if not doc["symbols"]:
            _print("  symbol     undefined (m is not integer or half-integer)")
    return 0


def cmd_split(args) -> int:
    doc = _split_doc(args.lam, args.m)
    if args.json:
        _json_out({"schemaVersion": SCHEMA_VERSION, **doc})
        return 0
    _print(f"lam={_fmt_parts(doc['lam'])}  m={doc['m']}")
    if not doc["defined"]:
        _print("split undefined: not a residual point at this m")
        return 0
    _print(f"first={_fmt_parts(doc['first'])}  second={_fmt_parts(doc['second'])}")
    for blk in doc["blocks"]:
        _print(f"block {blk['orientation']} {blk['entryLow']}..{blk['entryHigh']}"
               f" length {blk['length']}")
    return 0


def cmd_symbols(args) -> int:
    bp = Bipartition(args.first, args.second)
    variant = args.m
    try:
        check_symbol_bound(variant.m, max(len(bp.first), len(bp.second)))
    except ValueError as exc:
        sys.stderr.write(f"bhecke symbols: {exc}\n")
        return 2
    s = symbol(bp, variant)
    ivs = intervals(s)
    cls = similarity_class(bp, variant)
    if args.json:
        _json_out({
            "schemaVersion": SCHEMA_VERSION,
            "first": list(bp.first),
            "second": list(bp.second),
            "variant": variant.label,
            "top": list(s.top),
            "bottom": list(s.bottom),
            "aValue": cls.a_value,
            "intervals": [list(iv) for iv in ivs],
            "classSize": len(cls.members),
        })
        return 0
    _print(f"first={_fmt_parts(bp.first)}  second={_fmt_parts(bp.second)}  "
           f"variant={variant.label}")
    _print(f"symbol     {_fmt_rows(s.top, s.bottom)}")
    _print(f"a          {cls.a_value}")
    _print(f"intervals  {' '.join(f'({lo}..{hi})' for lo, hi in ivs) or '-'}  "
           f"count={len(ivs)}")
    _print(f"classSize  {len(cls.members)}")
    return 0


def _table_row(case) -> dict:
    n, m, kappa, mu = case
    rep = build_report(InductionDatum(n, m, kappa, mu))
    cls = rep["springerClass"]
    checks = rep["checks"]
    return {
        "n": n,
        "m": fmt_ratio(m),
        "kappa": list(kappa),
        "mu": list(mu),
        "d": rep["d"],
        "components": rep["componentCount"],
        "gluable": [lbl["J"][0] for lbl in rep["componentLabels"]
                    if len(lbl["J"]) == 1],
        "classSize": None if cls is None else cls["size"],
        "aValue": None if cls is None else cls["aValue"],
        "checks": {
            "residual": checks["residual"],
            "blockwise": checks["blockwiseMatchesDirect"],
            "cardinality": checks.get("cardinality"),
            "intervalCount": checks.get("intervalCount"),
        },
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "pass" if value else "fail"
    if isinstance(value, list):
        return _fmt_parts(value)
    return str(value)


def cmd_table(args) -> int:
    try:
        for m in args.m_list:
            check_symbol_bound(m, args.n)
    except ValueError as exc:
        sys.stderr.write(f"bhecke table: {exc}\n")
        return 2
    cases = induction_data(args.n, args.m_list)
    rows = map_jobs(_table_row, cases, args.jobs)
    if args.json:
        _json_out({"schemaVersion": SCHEMA_VERSION, "rows": rows})
        return 0
    flat = [[_csv_cell(cells[name]) for name in _TABLE_COLUMNS]
            for cells in ({**r, **r["checks"]} for r in rows)]
    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_TABLE_COLUMNS)
        writer.writerows(flat)
        return 0
    widths = [max(len(name), *(len(row[i]) for row in flat)) if flat else len(name)
              for i, name in enumerate(_TABLE_COLUMNS)]
    _print("  ".join(name.ljust(widths[i]) for i, name in enumerate(_TABLE_COLUMNS)))
    for row in flat:
        _print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return 0


def cmd_selftest(args) -> int:
    bounds = Bounds(bound_n=args.bound_n, jobs=args.jobs)
    try:
        names = selected_suites(args.suite, bounds)
    except ValueError as exc:
        sys.stderr.write(f"bhecke selftest: {exc}\n")
        return 2
    return run_selftest(names, bounds)


def cmd_convert_c(args) -> int:
    try:
        k1, k2 = convert_C_labels(args.k1c, args.k2c)
    except ValueError as exc:
        sys.stderr.write(f"bhecke convert-c: {exc}\n")
        return 2
    m = k2 / k1
    if args.json:
        _json_out({
            "schemaVersion": SCHEMA_VERSION,
            "k1": fmt_ratio(k1),
            "k2": fmt_ratio(k2),
            "m": fmt_ratio(m),
        })
        return 0
    _print(f"k1 = {fmt_ratio(k1)}")
    _print(f"k2 = {fmt_ratio(k2)}")
    _print(f"m  = {fmt_ratio(m)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhecke",
        description="Reducibility of induced discrete series for type-B "
                    "Hecke algebras with q2 = q1^m.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "rgroup",
        help="component group and diagnostic report for one induction datum",
        description="Report every computed invariant of the datum "
                    "(n, m, kappa, mu): residual diagnostics, splitting, "
                    "pole orders, the component group with labels, the "
                    "symbol class, and consistency checks.")
    p.add_argument("-n", type=_bounded(1, check_rank_bound), required=True,
                   help="rank (1 to %d); must equal |kappa| + |mu|" % RANK_BOUND)
    p.add_argument("-m", type=_arg(parse_ratio), required=True,
                   help="parameter ratio as an exact fraction, e.g. 3 or 1/2")
    p.add_argument("--kappa", type=_arg(parse_partition), default=(),
                   help='induced strip lengths, comma-separated ("" for none)')
    p.add_argument("--mu", type=_arg(parse_partition), default=(),
                   help='residual partition, comma-separated ("" for none)')
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force Weyl group scans "
                        "(n at most %d)" % BRUTE_FORCE_BOUND)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 if any consistency check fails")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cmd_rgroup)

    p = sub.add_parser(
        "residual",
        help="residual partitions of a weight at a parameter",
        description="List every partition of the given weight that is a "
                    "residual point at m, with its split and symbol rows.")
    p.add_argument("-l", type=_bounded(0, check_enumeration_bound), required=True,
                   help="weight to enumerate (0 to %d)" % ENUMERATION_BOUND)
    p.add_argument("-m", type=_arg(_parameter), required=True,
                   help="exact fraction >= 0")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser(
        "split",
        help="splitting map on one partition",
        description="Apply the splitting map to one partition; reports the "
                    "peeled blocks or that the partition is not residual.")
    p.add_argument("--lam", type=_arg(_splittable), required=True,
                   help="partition of weight at most %d, comma-separated parts"
                        % RANK_BOUND)
    p.add_argument("-m", type=_arg(_parameter), required=True,
                   help="exact fraction >= 0")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser(
        "symbols",
        help="two-row symbol, a-value, intervals, class size",
        description="Compute the two-row symbol of a bipartition at one "
                    "variant, its a-value, its intervals, and the size of "
                    "its similarity class.")
    p.add_argument("--first", type=_arg(parse_partition), default=(),
                   help='first row partition ("" for empty)')
    p.add_argument("--second", type=_arg(parse_partition), default=(),
                   help='second row partition ("" for empty)')
    p.add_argument("-m", type=_arg(_variant), required=True,
                   help='variant: an exact fraction, or "+0"/"-0" at zero')
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_symbols)

    p = sub.add_parser(
        "table",
        help="sweep every valid datum of a rank, one row each",
        description="One row per induction datum (kappa, mu) of rank n for "
                    "each requested m. CSV columns, in order: "
                    + ",".join(_TABLE_COLUMNS) + ". kappa, mu and gluable "
                    "are comma-joined part lists; classSize and aValue are "
                    "empty when m is neither integer nor half-integer; "
                    "check columns hold pass/fail (empty when undefined).")
    p.add_argument("-n", type=_bounded(1, check_enumeration_bound), required=True,
                   help="rank to sweep (1 to %d)" % ENUMERATION_BOUND)
    p.add_argument("--m-list", type=_arg(_ratio_list), default=_ratio_list("0,1/2,1,3/2,2"),
                   help="comma-separated exact fractions >= 0 (default 0,1/2,1,3/2,2)")
    p.add_argument("--jobs", type=_at_least(1), default=1,
                   help="worker processes (at most the CPU count)")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true", help="emit CSV")
    fmt.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser(
        "selftest",
        help="run the invariant suites (release gate)",
        description="Run the oracle-equivalence suites; exit 0 iff all "
                    "pass. Available suites: " + ", ".join(SUITE_NAMES) + ". "
                    "The rgroup suite scans W(B_n) and refuses a rank bound "
                    "above %d before any suite runs." % BRUTE_FORCE_BOUND)
    p.add_argument("--suite", action="append", choices=SUITE_NAMES,
                   help="run only this suite (repeatable)")
    p.add_argument("--bound-n", type=_bounded(0, check_enumeration_bound),
                   default=Bounds().bound_n,
                   help="rank bound for the sweep suites (default %(default)s)")
    p.add_argument("--jobs", type=_at_least(1), default=1,
                   help="worker processes (at most the CPU count)")
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser(
        "convert-c",
        help="translate type-C label pairs (k1c, k2c) to (k1, k2, m)",
        description="For a type-C root system with labels k1c on the "
                    "plus/minus e_i +- e_j roots and k2c on the 2e_i roots, "
                    "the equivalent type-B data has k1 = k1c, k2 = k2c/2 "
                    "and parameter ratio m = k2/k1.")
    p.add_argument("--k1c", type=_arg(parse_ratio), required=True,
                   help="label on the e_i +- e_j roots (nonzero fraction)")
    p.add_argument("--k2c", type=_arg(parse_ratio), required=True,
                   help="label on the 2e_i roots (fraction)")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_convert_c)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout (say, `| head -1`). Point stdout at
        # devnull so that the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
