"""build_report: many-strip data, and each per-datum value derived once."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import bhecke
from bhecke import _wscan, report, rgroup, selftest, splitting, symbols
from bhecke.rgroup import InductionDatum, brute_force_W_xi_xi, induction_data, r_group

WORKED = (36, 3, (11, 7, 4, 3), (4, 3, 2, 1, 1))
ORACLE = (6, F(1, 2), (2,), (1, 1, 1, 1))


# Thirteen strips at m = 3/2. The symbols have 28 and 26 entries, so a scan
# of every choice of top-row positions would take minutes per report.
MANY_STRIP = [
    InductionDatum(34, F(3, 2), (3,) * 7 + (2,) * 2 + (1,) * 4, (5,)),
    InductionDatum(33, F(3, 2), (3,) * 7 + (2,) * 2 + (1,) * 3, (5,)),
]


@pytest.mark.parametrize("xi", MANY_STRIP)
def test_many_strip_report(xi):
    start = time.perf_counter()
    rep = report.build_report(xi)
    assert time.perf_counter() - start < 1.0
    assert rep["checks"] == {"residual": True, "blockwiseMatchesDirect": True,
                             "cardinality": True, "intervalCount": True}
    assert rep["springerClass"]["size"] == 2
    assert rep["d"] == 1


def count_calls(monkeypatch, home, name) -> list:
    """Record the arguments of every call to home.name made through any
    bhecke module binding of it."""
    original = getattr(home, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "bhecke" or mod_name.startswith("bhecke."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("xi", [InductionDatum(*WORKED), MANY_STRIP[1],
                                InductionDatum(4, 0, (2,), (1, 1))])
def test_one_springer_class_per_report(xi, monkeypatch):
    calls = count_calls(monkeypatch, symbols, "springer_correspondents")
    report.build_report(xi)
    assert calls == [(xi,)]


def test_one_truncated_induction_per_zero_report(monkeypatch):
    xi = InductionDatum(4, 0, (2,), (1, 1))
    calls = count_calls(monkeypatch, symbols, "truncated_induct")
    rep = report.build_report(xi)
    assert len(calls) == 1
    assert calls[0][1].variant == symbols.PLUS_ZERO
    assert rep["springerClass"]["variantsChecked"] == ["+0", "-0"]


def test_one_springer_class_per_example_suite(monkeypatch):
    calls = count_calls(monkeypatch, symbols, "springer_correspondents")
    res = selftest.run_suite("example")
    assert res.ok() and res.checked == 13
    assert len(calls) == 1


@pytest.mark.parametrize("fields, oracle", [(WORKED, False), (ORACLE, False),
                                            (ORACLE, True)])
def test_one_split_per_report(fields, oracle, monkeypatch):
    xi = InductionDatum(*fields)
    calls = count_calls(monkeypatch, splitting, "split")
    report.build_report(xi, oracle)
    assert calls == [(xi.mu, xi.m)]


def test_one_stabilizer_scan_per_oracle_report(monkeypatch):
    calls = count_calls(monkeypatch, _wscan, "w_survivor_indices")
    report.build_report(InductionDatum(*ORACLE), oracle=True)
    assert len(calls) == 1


def test_derived_values_leave_the_datum_unchanged():
    xi = InductionDatum(*ORACLE)
    before = hash(xi)
    xi.split_result, xi.gluable_classes, brute_force_W_xi_xi(xi)
    assert xi == InductionDatum(*ORACLE)
    assert hash(xi) == before == hash(InductionDatum(*ORACLE))


def test_one_glue_per_component_label(monkeypatch):
    # each label glues one strip onto the label of its prefix: (11,), (7,)
    # and (11, 7), the last onto the label of (11,)
    calls = count_calls(monkeypatch, rgroup, "glue_strip_geometric")
    rg = r_group(InductionDatum(*WORKED))
    assert len(calls) == 3 == rg.component_count - 1
    assert calls[2][:2] == (dict(rg.component_labels)[(11,)], 7)


@pytest.mark.parametrize("fields, notes", [
    (WORKED, [
        "gluing a 11-strip onto (4, 3, 2, 1, 1) admits 4 partitions "
        "[(4, 4, 4, 3, 3, 1, 1, 1, 1), (4, 4, 4, 3, 2, 2, 1, 1, 1), "
        "(4, 4, 4, 2, 2, 2, 2, 1, 1), (4, 4, 2, 2, 2, 2, 2, 2, 2)]; "
        "using (4, 4, 2, 2, 2, 2, 2, 2, 2)",
        "gluing a 7-strip onto (4, 3, 2, 1, 1) admits 3 partitions "
        "[(4, 3, 3, 3, 3, 1, 1), (4, 3, 3, 3, 2, 2, 1), (4, 3, 3, 2, 2, 2, 2)]; "
        "using (4, 3, 3, 2, 2, 2, 2)",
    ]),
    ((7, 0, (5,), (2,)), [
        "gluing a 5-strip onto (2,) admits 2 partitions "
        "[(3, 3, 1), (3, 2, 2)]; using (3, 2, 2)",
    ]),
])
def test_tie_break_notes(fields, notes):
    assert report.build_report(InductionDatum(*fields))["notes"] == notes


def test_only_the_oracle_imports_numpy():
    # A separate interpreter, because this one has imported numpy already.
    src = str(Path(bhecke.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"""
import sys
from fractions import Fraction
from bhecke import InductionDatum, can_glue, residual_partitions
from bhecke.report import build_report
build_report(InductionDatum{WORKED!r})
can_glue(3, (4, 3, 2, 1, 1), 3)
residual_partitions(10, 1)
assert "numpy" not in sys.modules
build_report(InductionDatum{ORACLE!r}, oracle=True)
assert "numpy" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


# sha256 over the oracle reports of every datum with n <= 6 and m in
# {0, 1/2, ..., 4}, each as the JSON that rgroup --json prints: a change to
# any field of any of these 1,055 reports changes it.
REPORTS_DIGEST = "d04b62dce274c4b94db17096c81bac2f22a7adbd0e98a973dc3566034e70e9d3"


def test_reports_are_unchanged():
    digest = hashlib.sha256()
    data = [case for n in range(1, 7)
            for case in induction_data(n, [F(k, 2) for k in range(9)])]
    assert len(data) == 1055
    for case in data:
        rep = report.build_report(InductionDatum(*case), oracle=True)
        digest.update((json.dumps(rep, indent=2, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == REPORTS_DIGEST


# A fixed list of 41 data of rank 16 to 64 at m in {0, 1/2, ..., 4}: 30
# drawn at random (random.Random(20): rank, m, |mu| <= 14, mu among the
# residual partitions at m, kappa a random partition of the rest), nine
# with the largest seed class of weight 10-14 at each m and two strips,
# and the two slowest rank-64 reports of the grid that chose RANK_BOUND.
HIGH_RANK_DATA = [
    (62, "1", (56, 2), (4,)),
    (52, "1", (27, 6, 5, 4, 4, 3, 3), ()),
    (44, "3", (21, 11, 6, 2, 1), (3,)),
    (56, "4", (26, 10, 4, 3, 1), (4, 4, 2, 2)),
    (18, "3/2", (7, 5, 3, 2), (1,)),
    (60, "2", (58,), (2,)),
    (17, "2", (2, 2, 1, 1), (7, 1, 1, 1, 1)),
    (57, "2", (45, 6, 2), (4,)),
    (25, "2", (7, 6, 3, 1), (4, 2, 1, 1)),
    (60, "1", (28, 12, 4, 3, 1), (2, 2, 2, 2, 2, 2)),
    (19, "4", (7, 6, 3), (2, 1)),
    (21, "1/2", (6, 2, 1), (6, 3, 1, 1, 1)),
    (45, "4", (15, 11, 4, 3), (10, 1, 1)),
    (52, "1/2", (22, 17, 6, 3, 3), (1,)),
    (18, "0", (9, 5, 1), (3,)),
    (26, "0", (5, 3, 2, 2), (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
    (33, "1/2", (8, 7, 4, 4, 2, 1, 1), (5, 1)),
    (51, "3", (16, 15, 6), (8, 2, 2, 1, 1)),
    (16, "1", (7, 3, 1, 1, 1), (3,)),
    (55, "2", (29, 18, 4, 1, 1), (2,)),
    (39, "2", (19, 7, 4, 3), (1, 1, 1, 1, 1, 1)),
    (29, "0", (17, 1), (3, 1, 1, 1, 1, 1, 1, 1, 1)),
    (64, "4", (46, 3, 3, 2, 1), (5, 2, 1, 1)),
    (54, "1/2", (20, 14, 14, 4, 1, 1), ()),
    (34, "7/2", (25, 9), ()),
    (41, "3", (30, 5, 1, 1), (4,)),
    (36, "3/2", (10, 8, 3, 2, 1), (7, 2, 1, 1, 1)),
    (55, "0", (24, 8, 6, 5, 4, 2, 1), (4, 1)),
    (25, "2", (6, 3, 3, 1), (12,)),
    (17, "3/2", (8, 2, 1), (3, 2, 1)),
    (34, "1/2", (18, 6), (4, 3, 2, 1)),
    (48, "1", (22, 14), (4, 4, 3, 1)),
    (45, "3/2", (17, 14), (4, 4, 3, 2, 1)),
    (42, "0", (22, 10), (6, 3, 1)),
    (34, "2", (16, 8), (6, 2, 2)),
    (50, "5/2", (30, 8), (3, 3, 3, 2, 1)),
    (39, "3", (21, 8), (4, 2, 2, 2)),
    (50, "7/2", (26, 14), (3, 2, 2, 2, 1)),
    (33, "4", (15, 8), (2, 2, 2, 2, 2)),
    (64, "1", (17, 17), (12, 6, 4, 3, 3, 2)),
    (64, "1/2", (20, 16), (7, 6, 5, 4, 3, 2, 1)),
]

# sha256 over their rgroup --json reports, recorded with the truncation
# step that scored every Pieri constituent of every class member.
HIGH_RANK_DIGEST = "9fb9dd86b9538155b10cbec45472cae6b2f492b43bb326af1661622c9ccbda26"


def test_high_rank_reports_are_unchanged():
    digest = hashlib.sha256()
    for n, m, kappa, mu in HIGH_RANK_DATA:
        rep = report.build_report(InductionDatum(n, F(m), kappa, mu))
        digest.update((json.dumps(rep, indent=2, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == HIGH_RANK_DIGEST
