"""Acceptance gate: one test per release criterion, at full stated bounds.

Each criterion runs one selftest suite at RELEASE_BOUNDS, the suite being
the only implementation of its checks, and asserts that it failed nowhere,
ran at least as many checks as it did when the gate moved onto the suites,
and kept within the criterion's wall-time bound.

Run with -v to get one pass/fail line per criterion. Two companion tests
are marked strict-xfail: they assert literal display values that are
arithmetically infeasible (entry sums) or classically expected identities
that admit counterexamples; the README documents both families and the
green tests pin the computed values so any drift fails loudly.
"""

from fractions import Fraction

import pytest

from bhecke import Bipartition, InductionDatum, springer_correspondents, symbol
from bhecke.selftest import KNOWN_COUNTING_DEVIATIONS, RELEASE_BOUNDS, run_suite
from bhecke.symbols import SymbolVariant

F = Fraction


def assert_passed(res, min_checked, max_seconds):
    """No failures, no fewer checks than the floor, within the time bound."""
    assert res.failures == []
    assert res.checked >= min_checked
    assert res.seconds < max_seconds


def test_criterion_1_worked_example():
    assert_passed(run_suite("example", RELEASE_BOUNDS), 13, 1.0)


@pytest.mark.xfail(
    strict=True,
    reason="the displayed rows are arithmetically infeasible: an integer "
           "symbol at shift 3 over weight 36 has shape (8, 5) and entry sum "
           "36 + 56 + 20 = 112, but the displayed induced rows sum to 110; "
           "the displayed seed rows sum to 27 where the padding identity "
           "forces 23. The computed rows (pinned in the test above) satisfy "
           "every other stated property. See README, display discrepancies.")
def test_criterion_1_rows_as_displayed():
    xi = InductionDatum(36, F(3), (11, 7, 4, 3), (4, 3, 2, 1, 1))
    v3 = SymbolVariant("int", F(3))
    seed = symbol(Bipartition((4, 3, 2), (2,)), v3)
    assert (seed.top, seed.bottom) == ((0, 4, 7, 14), (2,))
    rep = symbol(springer_correspondents(xi).representative(), v3)
    assert (rep.top, rep.bottom) == ((0, 2, 6, 8, 11, 13, 16, 18),
                                     (1, 4, 6, 10, 15))


def test_criterion_2_principal_series():
    assert_passed(run_suite("principal", RELEASE_BOUNDS), 45, 1.0)


def test_criterion_3_split_iff_residual():
    assert_passed(run_suite("splitting", RELEASE_BOUNDS), 3523, 30.0)


def test_criterion_4_three_way_gluing_agreement():
    assert_passed(run_suite("gluing", RELEASE_BOUNDS), 46188, 30.0)


def test_criterion_5_brute_force_r_group():
    assert_passed(run_suite("rgroup", RELEASE_BOUNDS), 12600, 600.0)


def test_criterion_6_pair_pole_orders():
    assert_passed(run_suite("pairs", RELEASE_BOUNDS), 288, 1.0)


@pytest.fixture(scope="module")
def counting():
    """The counting suite at the release bounds, run once for both tests."""
    return run_suite("counting", RELEASE_BOUNDS)


def test_criterion_7_counting_identities(counting):
    assert_passed(counting, 6597, 30.0)
    clean_m = {F(0), F(2), F(5, 2), F(3), F(7, 2), F(4)}
    assert not {key for key in counting.deviations if key[1] in clean_m}
    assert set(counting.deviations) == KNOWN_COUNTING_DEVIATIONS


@pytest.mark.xfail(
    strict=True,
    reason="the classical counting identities (class size = 2^d times the "
           "seed class; interval count additivity; the m=1 order quotient) "
           "admit exactly 27 counterexamples in this sweep (n <= 8, "
           "m in {0, 1/2, ..., 4}), all at m in {1/2, 1, 3/2}. Entries piled "
           "up near zero do not explain them: at n = 11, m = 0, kappa = (3) "
           "and mu = (4,4) or (2,2,2,2) have d = 0 and an induced class of 4 "
           "and fail both checks; the cause is open. Each pinned "
           "counterexample was confirmed by exhaustively enumerating the "
           "a-maximal choices at "
           "every induction step, and the d values are backed by the "
           "three-way gluing agreement and the brute-force sweep. The green "
           "test above pins the deviation set in both directions. "
           "See README, counting identity counterexamples.")
def test_criterion_7_zero_mismatches_as_stated(counting):
    assert set(counting.deviations) == set()


def test_criterion_8_symbol_goldens():
    assert_passed(run_suite("symbols", RELEASE_BOUNDS), 9, 1.0)
