"""build_report: many-strip data, and each per-datum value derived once."""

import sys
import time
from fractions import Fraction as F

import pytest

from bhecke import _wscan, report, rgroup, selftest, splitting, symbols
from bhecke.rgroup import InductionDatum, brute_force_W_xi_xi, r_group

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
