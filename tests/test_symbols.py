"""Symbols, similarity classes, a_m, and truncated induction."""

from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhecke.partitions import Bipartition, enumerate_partitions
from bhecke.rgroup import InductionDatum, induction_data
from bhecke import symbols
from bhecke.splitting import split
from bhecke.symbols import (
    MINUS_ZERO,
    PLUS_ZERO,
    SymbolVariant,
    a_m,
    cardinality_check,
    component_group_order_m1,
    interval_count_check,
    intervals,
    pieri_induct,
    similar,
    similarity_class,
    springer_correspondents,
    symbol,
    truncated_induct,
    variants_for_m,
)

INT3 = SymbolVariant("int", F(3))


def bipartitions(weight):
    """Every bipartition of the given weight."""
    return [Bipartition(first, second)
            for a in range(weight + 1)
            for first in enumerate_partitions(a)
            for second in enumerate_partitions(weight - a)]


# ------------------------------------------------- Fraction references

def reference_rows(b, variant):
    """The symbol rows by the Fraction padding rule: top length minus
    bottom length is m for whole m, and |m| + 1/2 with the sign of m for
    half m; the parts, padded with zeros, are laid increasing on the base
    0, 2, 4, ... (bottom 1, 3, 5, ... for half m)."""
    xi, eta = sorted(b.first), sorted(b.second)
    m = F(variant.m)
    if variant.kind == "half":
        half = abs(m) + F(1, 2)
        delta = int(half if m > 0 else -half)
        t = max(len(xi), len(eta) + delta)
        bb = t - delta
    else:
        bb = max(len(eta), len(xi) - int(m))
        t = bb + int(m)
    odd = 1 if variant.kind == "half" else 0
    xi = [0] * (t - len(xi)) + xi
    eta = [0] * (bb - len(eta)) + eta
    return ([x + 2 * i for i, x in enumerate(xi)],
            [e + 2 * i + odd for i, e in enumerate(eta)])


def pair_min_sum(values):
    vs = sorted(values)
    return sum(v * (len(vs) - 1 - i) for i, v in enumerate(vs))


def normalized_pair_min(top, bottom, odd):
    base = [2 * i for i in range(len(top))] + [2 * i + odd for i in range(len(bottom))]
    return pair_min_sum(top + bottom) - pair_min_sum(base)


def reference_a_m(b, variant):
    top, bottom = reference_rows(b, variant)
    return normalized_pair_min(top, bottom, 1 if variant.kind == "half" else 0)


# m in {-2, -3/2, -1/2, 0, 1/2, ..., 4}, both zero variants at m = 0
REFERENCE_VARIANTS = [v for m2 in [-4, -3, -1] + list(range(9))
                      for v in variants_for_m(F(m2, 2))]


def worked_datum():
    return InductionDatum(36, 3, (11, 7, 4, 3), (4, 3, 2, 1, 1))


class TestVariants:
    def test_zero_gives_both_forms(self):
        assert variants_for_m(0) == (PLUS_ZERO, MINUS_ZERO)
        assert PLUS_ZERO.label == "+0"
        assert MINUS_ZERO.label == "-0"

    def test_integer_and_half(self):
        (v,) = variants_for_m(2)
        assert v.kind == "int" and v.m == 2 and v.label == "2"
        (w,) = variants_for_m(F(3, 2))
        assert w.kind == "half" and w.label == "3/2"

    def test_third_integer_rejected(self):
        with pytest.raises(ValueError):
            variants_for_m(F(1, 3))

    def test_kind_value_consistency(self):
        with pytest.raises(ValueError):
            SymbolVariant("int", F(1, 2))
        with pytest.raises(ValueError):
            SymbolVariant("int", 0)
        with pytest.raises(ValueError):
            SymbolVariant("plus0", 1)
        with pytest.raises(ValueError):
            SymbolVariant("half", 1)
        with pytest.raises(ValueError):
            SymbolVariant("bogus", 0)


class TestSymbolGoldens:
    """The four displayed variants for the bipartition ((2,1),(3)) of 6."""

    BP = Bipartition((2, 1), (3,))

    def test_plus_zero(self):
        s = symbol(self.BP, PLUS_ZERO)
        assert (s.top, s.bottom) == ((1, 4), (0, 5))

    def test_minus_zero_identical_rows(self):
        s = symbol(self.BP, MINUS_ZERO)
        assert (s.top, s.bottom) == ((1, 4), (0, 5))
        # the zero forms share one row layout on every bipartition, which is
        # why the symbol layer computes only under +0
        for weight in range(10):
            for b in bipartitions(weight):
                plus, minus = symbol(b, PLUS_ZERO), symbol(b, MINUS_ZERO)
                assert (plus.top, plus.bottom) == (minus.top, minus.bottom)

    def test_int_minus_two(self):
        s = symbol(self.BP, SymbolVariant("int", -2))
        assert (s.top, s.bottom) == ((1, 4), (0, 2, 4, 9))

    def test_int_plus_two(self):
        # the classical display prints a bottom entry 1 here; the padding
        # definition forces 3 (see README, display discrepancies)
        s = symbol(self.BP, SymbolVariant("int", 2))
        assert (s.top, s.bottom) == ((0, 3, 6), (3,))

    def test_half_variant_shifts(self):
        s = symbol(Bipartition((2,), (1,)), SymbolVariant("half", F(1, 2)))
        assert s.bottom == tuple(e + 2 * i + 1 for i, e in enumerate((0,) * (len(s.bottom) - 1) + (1,)))

    def test_empty_bipartition(self):
        s = symbol(Bipartition((), ()), PLUS_ZERO)
        assert s.top == () and s.bottom == ()


class TestAm:
    def test_single_row_trivial(self):
        for n in range(1, 6):
            assert a_m(Bipartition((n,), ()), SymbolVariant("int", 1)) == 0

    def test_unit_second_component(self):
        assert a_m(Bipartition((), (1,)), SymbolVariant("int", 1)) == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sign_character_square(self, n):
        assert a_m(Bipartition((), (1,) * n), SymbolVariant("int", 1)) == n * n

    def test_matches_fraction_reference(self):
        for w in range(10):
            for b in bipartitions(w):
                for v in REFERENCE_VARIANTS:
                    s = symbol(b, v)
                    assert [list(s.top), list(s.bottom)] == list(reference_rows(b, v)), \
                        (b, v.label)
                    assert a_m(b, v) == reference_a_m(b, v), (b, v.label)

    def test_invariant_under_one_more_zero(self):
        # padding both rows with one more zero shifts every entry by 2 and
        # puts 0 (1 for half m) in front; the normalization cancels it
        for w in range(8):
            for b in bipartitions(w):
                for v in REFERENCE_VARIANTS:
                    odd = 1 if v.kind == "half" else 0
                    s = symbol(b, v)
                    top = [0] + [x + 2 for x in s.top]
                    bottom = [odd] + [x + 2 for x in s.bottom]
                    assert normalized_pair_min(top, bottom, odd) == a_m(b, v), (b, v.label)

    def test_constant_across_similarity(self):
        v = INT3
        cls = similarity_class(Bipartition((4, 3, 2), (2,)), v)
        assert {a_m(b, v) for b in cls.members} == {cls.a_value}


class TestSimilarity:
    def test_reflexive_and_weight_guard(self):
        v = SymbolVariant("int", 1)
        b = Bipartition((2, 1), (1,))
        assert similar(b, b, v)
        with pytest.raises(ValueError):
            similar(b, Bipartition((1,), ()), v)

    def test_seed_class_frozen(self):
        cls = similarity_class(Bipartition((4, 3, 2), (2,)), INT3)
        got = sorted((b.first, b.second) for b in cls.members)
        assert got == [
            ((1,), (10,)),
            ((4,), (7,)),
            ((4, 3), (4,)),
            ((4, 3, 2), (2,)),
            ((4, 3, 2, 2), ()),
        ]
        assert cls.a_value == 13

    def test_members_pairwise_similar(self):
        cls = similarity_class(Bipartition((4, 3, 2), (2,)), INT3)
        members = sorted(cls.members, key=lambda b: (b.first, b.second))
        for b in members[1:]:
            assert similar(members[0], b, INT3)

    def test_representative_is_least(self):
        cls = similarity_class(Bipartition((4, 3, 2), (2,)), INT3)
        rep = cls.representative()
        assert (rep.first, rep.second) == ((1,), (10,))

    @pytest.mark.parametrize("m2", [-3, -1] + list(range(9)))
    def test_matches_scan_of_all_bipartitions(self, m2):
        # reference: group every bipartition of each weight <= 9 by the
        # entry multiset of its symbol
        for variant in variants_for_m(F(m2, 2)):
            for w in range(10):
                by_multiset = {}
                for b in bipartitions(w):
                    key = symbol(b, variant).entry_multiset()
                    by_multiset.setdefault(key, set()).add(b)
                for key, members in by_multiset.items():
                    for b in members:
                        cls = similarity_class(b, variant)
                        assert cls.members == members, (b, variant.label)
                        assert cls.a_value == a_m(b, variant)


@lru_cache(maxsize=None)
def strips_by_interlacing(lam, k):
    """Partitions alpha of |lam| + k with alpha_1 >= lam_1 >= alpha_2 >=
    lam_2 >= ...: lam plus a horizontal strip of k boxes."""
    out = []
    for alpha in enumerate_partitions(sum(lam) + k):
        padded = lam + (0,) * (len(alpha) - len(lam))
        if len(alpha) >= len(lam) and all(
                x >= y for x, y in zip(alpha, padded)) and all(
                alpha[i + 1] <= padded[i] for i in range(len(alpha) - 1)):
            out.append(alpha)
    return out


def reference_pieri(p, b):
    """The nested loop: every first-row strip of a boxes against every
    second-row strip of p - a boxes."""
    out = []
    for a in range(p + 1):
        for alpha in strips_by_interlacing(b.first, a):
            for beta in strips_by_interlacing(b.second, p - a):
                out.append(Bipartition(alpha, beta))
    return sorted(out, key=lambda c: (c.first, c.second))


class TestPieri:
    def test_matches_nested_loop_reference(self):
        for w in range(9):
            for b in bipartitions(w):
                for p in range(1, 7):
                    assert pieri_induct(p, b) == reference_pieri(p, b), (b, p)

    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_strips_computed_once_per_split(self, monkeypatch, p):
        # one list of first-row strips and one of second-row strips for
        # each way a of dividing p
        calls = []
        original = symbols._horizontal_strip_additions

        def counted(lam, k):
            calls.append((lam, k))
            return original(lam, k)

        monkeypatch.setattr(symbols, "_horizontal_strip_additions", counted)
        pieri_induct(p, Bipartition((3, 2, 2), (4, 1)))
        assert len(calls) <= 2 * (p + 1)

    def test_rank_one_seed_count(self):
        got = pieri_induct(2, Bipartition((1,), ()))
        pairs = [(b.first, b.second) for b in got]
        assert pairs == [
            ((1,), (2,)),
            ((1, 1), (1,)),
            ((2,), (1,)),
            ((2, 1), ()),
            ((3,), ()),
        ]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pieri_induct(0, Bipartition((), ()))

    @given(p=st.integers(1, 5),
           lam=st.lists(st.integers(1, 4), max_size=3).map(
               lambda xs: tuple(sorted(xs, reverse=True))))
    @settings(max_examples=60, deadline=None)
    def test_weights_add(self, p, lam):
        b = Bipartition(lam, ())
        for c in pieri_induct(p, b):
            assert c.weight == b.weight + p

    def test_strips_are_horizontal(self):
        # column growth never exceeds one box
        for c in pieri_induct(3, Bipartition((2, 2), (1,))):
            for new, old in ((c.first, (2, 2)), (c.second, (1,))):
                padded = old + (0,) * (len(new) - len(old))
                assert all(n >= o for n, o in zip(new, padded))
                assert all(new[i + 1] <= padded[i] for i in range(len(new) - 1))


class TestTruncatedInduction:
    def test_worked_example_class(self):
        xi = worked_datum()
        cls = springer_correspondents(xi)
        assert len(cls.members) == 20
        assert cls.a_value == 153
        rep = cls.representative()
        assert (rep.first, rep.second) == ((1, 1), (10, 10, 7, 4, 3))
        s = symbol(rep, INT3)
        assert (s.top, s.bottom) == ((0, 2, 4, 6, 8, 10, 13, 15), (3, 6, 11, 16, 18))
        assert s.entry_multiset() == (0, 2, 3, 4, 6, 6, 8, 10, 11, 13, 15, 16, 18)

    def test_worked_example_similarity_closed(self):
        cls = springer_correspondents(worked_datum())
        rep = cls.representative()
        assert similarity_class(rep, INT3).members == cls.members

    def test_worked_example_common_multiset(self):
        cls = springer_correspondents(worked_datum())
        target = (0, 2, 3, 4, 6, 6, 8, 10, 11, 13, 15, 16, 18)
        for b in cls.members:
            assert symbol(b, INT3).entry_multiset() == target

    def test_appended_pair_postcondition(self):
        # each member of the induced class extends some seed member by
        # exactly one part per row, for each strip in turn
        seed = similarity_class(Bipartition((4, 3, 2), (2,)), INT3)
        current = seed.members
        for p in (11, 7, 4, 3):
            step = set()
            for b in current:
                step.update(pieri_induct(p, b))
            best = max(a_m(c, INT3) for c in step)
            current = {c for c in step if a_m(c, INT3) == best}
        final = springer_correspondents(worked_datum())
        assert current <= final.members

    def test_order_independence(self):
        seed = similarity_class(Bipartition((2,), ()), SymbolVariant("int", 1))
        one = truncated_induct((3, 1), seed)
        two = truncated_induct((1, 3), seed)
        assert one.members == two.members

    def test_empty_kappa_returns_seed_class(self):
        xi = InductionDatum(11, 3, (), (4, 3, 2, 1, 1))
        cls = springer_correspondents(xi)
        assert len(cls.members) == 5
        assert cls.a_value == 13

    def test_zero_variants_agree(self):
        # springer_correspondents induces under +0 only; the -0 induction
        # must give the same class on every m = 0 datum to rank 8
        data = [case for n in range(1, 9) for case in induction_data(n, [F(0)])]
        assert len(data) == 290
        for case in data:
            xi = InductionDatum(*case)
            cls = springer_correspondents(xi)
            assert cls.variant == PLUS_ZERO
            seed = similarity_class(xi.split_result.bipartition, MINUS_ZERO)
            minus = truncated_induct(xi.kappa, seed) if xi.kappa else seed
            assert (minus.members, minus.a_value) == (cls.members, cls.a_value)


class TestIntervals:
    def test_seed_symbol(self):
        s = symbol(Bipartition((4, 3, 2), (2,)), INT3)
        assert (s.top, s.bottom) == ((0, 4, 7, 10), (2,))
        assert intervals(s) == [(0, 0), (2, 2), (4, 4), (7, 7), (10, 10)]

    def test_induced_representative(self):
        rep = springer_correspondents(worked_datum()).representative()
        got = intervals(symbol(rep, INT3))
        assert got == [(0, 0), (2, 4), (8, 8), (10, 11), (13, 13), (15, 16), (18, 18)]

    def test_classical_display_rows(self):
        # interval extraction is a pure function of the rows, so classical
        # printed displays are usable as inputs even where their row data
        # does not decode to a bipartition of the expected weight
        from bhecke.symbols import Symbol
        s = Symbol(INT3, (0, 2, 6, 8, 11, 13, 16, 18), (1, 4, 6, 10, 15))
        assert intervals(s) == [(0, 2), (4, 4), (8, 8), (10, 11),
                                (13, 13), (15, 16), (18, 18)]
        t = Symbol(INT3, (0, 4, 7, 14), (2,))
        assert len(intervals(t)) == 5

    def test_doubled_entries_excluded(self):
        from bhecke.symbols import Symbol
        s = Symbol(SymbolVariant("int", 1), (0, 3), (0, 3))
        assert intervals(s) == []

    def test_half_m_discards_zero_run(self):
        v = SymbolVariant("half", F(1, 2))
        from bhecke.symbols import Symbol
        s = Symbol(v, (0, 1, 5), (3,))
        assert intervals(s) == [(3, 3), (5, 5)]
        w = SymbolVariant("half", F(3, 2))
        assert intervals(Symbol(w, (0, 1, 5), (3,))) == [(0, 1), (3, 3), (5, 5)]


class TestCounting:
    def test_worked_example_interval_relation(self):
        xi = worked_datum()
        assert interval_count_check(xi, springer_correspondents(xi))

    def test_worked_example_cardinality(self):
        xi = worked_datum()
        assert cardinality_check(xi, springer_correspondents(xi))

    def test_discrete_series_interval_relation(self):
        xi = InductionDatum(11, 3, (), (4, 3, 2, 1, 1))
        assert interval_count_check(xi, springer_correspondents(xi))

    def test_no_gluable_strip(self):
        xi = InductionDatum(14, 3, (3,), (4, 3, 2, 1, 1))
        full = springer_correspondents(xi)
        assert interval_count_check(xi, full)
        assert cardinality_check(xi, full)

    @pytest.mark.parametrize("xi,holds", [
        (worked_datum(), True),
        (InductionDatum(8, F(3, 2), (2, 1), (1, 1, 1, 1, 1)), False),  # pinned deviation
    ])
    def test_checks_take_the_class(self, xi, holds):
        full = springer_correspondents(xi)
        assert cardinality_check(xi, full) == holds
        assert interval_count_check(xi, full) == holds

    def test_interval_check_rejects_third_integers(self):
        xi = worked_datum()
        full = springer_correspondents(xi)
        object.__setattr__(xi, "m", F(1, 3))
        with pytest.raises(ValueError):
            interval_count_check(xi, full)


class TestComponentGroup:
    def test_orders(self):
        from bhecke.symbols import Symbol
        v = SymbolVariant("int", 1)
        assert component_group_order_m1(Symbol(v, (0,), ())) == 1
        assert component_group_order_m1(Symbol(v, (0, 2, 4), ())) == 4
        assert component_group_order_m1(Symbol(v, (0, 2, 4), (1,))) == 2
        assert component_group_order_m1(Symbol(v, (0, 0), (0,))) == 1

    def test_variant_guard(self):
        from bhecke.symbols import Symbol
        with pytest.raises(ValueError):
            component_group_order_m1(Symbol(SymbolVariant("int", 2), (0,), ()))
        with pytest.raises(ValueError):
            component_group_order_m1(Symbol(PLUS_ZERO, (0,), ()))


class TestSplitSymbolGoldens:
    """Symbols of split bipartitions at a few residual points, frozen."""

    @pytest.mark.parametrize("mu,m,rows", [
        ((2, 1), 2, ((1, 4), ())),
        ((1, 1, 1, 1), 1, ((0, 3), (3,))),
        ((4, 3, 2, 1, 1), 3, ((0, 4, 7, 10), (2,))),
    ])
    def test_rows(self, mu, m, rows):
        bp = split(mu, F(m)).bipartition
        s = symbol(bp, SymbolVariant("int", m))
        assert (s.top, s.bottom) == rows
