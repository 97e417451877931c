"""build_report: many-strip data and one Springer class per datum."""

import time
import warnings
from fractions import Fraction as F

import pytest

from bhecke import report, symbols
from bhecke.rgroup import GluingAmbiguityWarning, InductionDatum


def worked_datum():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GluingAmbiguityWarning)
        return InductionDatum(36, 3, (11, 7, 4, 3), (4, 3, 2, 1, 1))


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


@pytest.mark.parametrize("xi", [worked_datum(), MANY_STRIP[1],
                                InductionDatum(4, 0, (2,), (1, 1))])
def test_one_springer_class_per_report(xi, monkeypatch):
    # count calls through the report binding and through the symbols module,
    # where the consistency checks would look the class up
    calls = []
    inner = symbols.springer_correspondents

    def counted(datum):
        calls.append(datum)
        return inner(datum)

    monkeypatch.setattr(report, "springer_correspondents", counted)
    monkeypatch.setattr(symbols, "springer_correspondents", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GluingAmbiguityWarning)
        report.build_report(xi)
    assert calls == [xi]
