"""R-group construction against the brute-force Weyl-group oracles."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhecke.cfun import pole_order_short_direct
from bhecke.rgroup import (
    InductionDatum,
    SignedPermutation,
    brute_force_R,
    brute_force_W_xi_xi,
    can_glue,
    convert_C_labels,
    d_value,
    glue_strip_geometric,
    induction_data,
    r_group,
    restricted_root_system,
)
from bhecke.splitting import residual_partitions

WORKED = InductionDatum(36, 3, (11, 7, 4, 3), (4, 3, 2, 1, 1))


class TestCanGlue:
    @pytest.mark.parametrize("p,expected", [(3, False), (4, False), (7, True), (11, True)])
    def test_worked_example(self, p, expected):
        assert can_glue(p, (4, 3, 2, 1, 1), 3) is expected

    @pytest.mark.parametrize("m,expected", [
        (0, True), (1, False), (F(3, 2), False), (2, False),
    ])
    def test_unit_strip_empty_mu(self, m, expected):
        assert can_glue(1, (), m) is expected

    def test_half_integer_mismatch(self):
        assert not can_glue(2, (), 0)
        assert can_glue(2, (), F(1, 2))
        assert can_glue(3, (), 1)

    def test_unit_strip_zero_entry_blocks(self):
        # a block starting at entry 0 blocks the unit strip even though no
        # block ends at z = 0
        assert not can_glue(1, (1, 1), 0)
        assert not can_glue(1, (2,), 0)
        assert can_glue(1, (2, 1, 1), 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            can_glue(0, (), 1)
        with pytest.raises(ValueError):
            can_glue(3, (2, 1), 0)  # (2,1) is not residual at m=0


class TestGlueGeometric:
    def test_examples(self):
        assert glue_strip_geometric((2,), 2, F(1, 2)) == [(2, 2)]
        assert glue_strip_geometric((4, 3, 2, 1, 1), 3, 3) == []
        assert glue_strip_geometric((), 3, 1) == [(1, 1, 1)]
        assert glue_strip_geometric((2,), 1, 0) == []

    def test_descending_lex_order(self):
        exts = glue_strip_geometric((4, 3, 2, 1, 1), 11, 3)
        assert exts == sorted(exts, reverse=True)
        assert len(exts) == 4

    def test_three_way_agreement(self):
        # blockwise count, full factor product, and partition search agree
        for l in range(0, 7):
            for m2 in range(0, 7):
                m = F(m2, 2)
                for mu in residual_partitions(l, m):
                    for p in range(1, 7):
                        blockwise = can_glue(p, mu, m)
                        direct = pole_order_short_direct(p, mu, m) == 0
                        geometric = bool(glue_strip_geometric(mu, p, m))
                        assert blockwise == direct == geometric, (p, mu, m)


class TestRestrictedRootSystem:
    def test_worked_example(self):
        rrs = restricted_root_system(WORKED)
        assert rrs.basis_rank == 4
        assert rrs.factors == (("Empty", 1), ("Empty", 1), ("B", 1), ("B", 1))
        assert rrs.positive_roots == ((0, 0, 0, 1), (0, 0, 1, 0))
        assert rrs.weyl_order == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_principal_series(self, n):
        xi0 = InductionDatum(n, 0, (1,) * n, ())
        assert restricted_root_system(xi0).factors == (("D", n),)
        assert d_value(xi0) == 1
        for m in (1, F(3, 2), 2):
            xi = InductionDatum(n, m, (1,) * n, ())
            rrs = restricted_root_system(xi)
            assert rrs.factors == (("B", n),)
            assert len(rrs.positive_roots) == n * n
            assert d_value(xi) == 0

    def test_weyl_order_counts(self):
        xi = InductionDatum(4, 0, (1, 1, 1, 1), ())
        assert restricted_root_system(xi).weyl_order == 8 * 24  # |W(D_4)|
        xi = InductionDatum(4, 1, (1, 1, 1, 1), ())
        assert restricted_root_system(xi).weyl_order == 16 * 24  # |W(B_4)|


class TestSignedPermutation:
    def test_identity_and_validation(self):
        e = SignedPermutation.identity(3)
        assert e.images == (1, 2, 3)
        assert e.is_identity()
        with pytest.raises(ValueError):
            SignedPermutation((1, 1))
        with pytest.raises(ValueError):
            SignedPermutation((0, 1))

    def test_compose_and_invert(self):
        w = SignedPermutation((-2, 1, 3))
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()
        v = SignedPermutation((3, -1, 2))
        # (w*v)(e_1) = w(e_3) = e_3
        assert (w * v).images == (3, 2, 1)

    def test_apply(self):
        w = SignedPermutation((-2, 1, 3))
        assert w.apply((F(5), F(7), F(9))) == (F(7), F(-5), F(9))

    @given(st.permutations(range(1, 5)), st.lists(st.booleans(), min_size=4, max_size=4))
    def test_group_axioms(self, perm, signs):
        w = SignedPermutation(tuple(p if s else -p for p, s in zip(perm, signs)))
        assert (w * w.inverse()).is_identity()
        e = SignedPermutation.identity(4)
        assert w * e == w
        assert e * w == w


class TestGenerators:
    def test_flip_shapes(self):
        xi = InductionDatum(4, F(1, 2), (2, 2), ())
        assert r_group(xi).generators[0].images == (1, 2, -4, -3)
        xi = InductionDatum(1, 0, (1,), ())
        assert r_group(xi).generators[0].images == (-1,)

    def test_worked_example_generators(self):
        g0, g1 = r_group(WORKED).generators
        assert g0.images[:11] == tuple(-(12 - j) for j in range(1, 12))
        assert g0.images[11:] == tuple(range(12, 37))
        assert g1.images[11:18] == tuple(-(30 - j) for j in range(12, 19))
        assert g1.images[:11] == tuple(range(1, 12))
        ident = SignedPermutation.identity(36)
        for g in (g0, g1):
            assert g * g == ident
        assert g0 * g1 == g1 * g0


class TestRGroup:
    def test_worked_example(self):
        rg = r_group(WORKED)
        assert [p for p, _, _ in rg.ambiguous_gluings] == [11, 7]
        assert rg.d == 2
        assert rg.gluable_lengths == (11, 7)
        assert rg.component_count == 4
        labels = dict(rg.component_labels)
        assert labels[()] == (4, 3, 2, 1, 1)
        assert labels[(11,)] == (4, 4, 2, 2, 2, 2, 2, 2, 2)
        assert labels[(7,)] == (4, 3, 3, 2, 2, 2, 2)
        assert labels[(11, 7)] == (4, 4, 3, 3, 3, 3, 3, 3, 3)

    def test_worked_example_ties(self):
        # (11,) and (7,) each glue onto mu with a tie; (11, 7) glues the
        # 7-strip onto the label of (11,), where it fits one way only
        ties = r_group(WORKED).ambiguous_gluings
        assert [(p, onto, len(exts)) for p, onto, exts in ties] == [
            (11, (4, 3, 2, 1, 1), 4), (7, (4, 3, 2, 1, 1), 3)]
        assert ties[1][2] == ((4, 3, 3, 3, 3, 1, 1), (4, 3, 3, 3, 2, 2, 1),
                              (4, 3, 3, 2, 2, 2, 2))

    def test_discrete_series_datum(self):
        xi = InductionDatum(2, F(1, 2), (), (2,))
        rg = r_group(xi)
        assert rg.d == 0
        assert rg.generators == ()
        assert rg.component_labels == (((), (2,)),)
        assert rg.ambiguous_gluings == ()

    def test_label_count(self):
        xi = InductionDatum(6, 0, (2, 1, 1), (2,))
        rg = r_group(xi)
        assert len(rg.component_labels) == rg.component_count == 1 << rg.d

    def test_elements_without_generators_is_the_identity(self):
        rg = r_group(InductionDatum(2, F(1, 2), (), (2,)))
        assert rg.d == 0
        assert rg.elements(2) == {(1, 2)}

    def test_elements_of_the_worked_example(self):
        rg = r_group(WORKED)
        span = rg.elements(36)
        assert len(span) == 4
        for images in span:
            w = SignedPermutation(images)
            assert (w * w).is_identity()
        assert {g.images for g in rg.generators} <= span
        assert tuple(range(1, 37)) in span


class TestInductionData:
    HALVES = [F(k, 2) for k in range(9)]

    @pytest.mark.parametrize("bound, count", [(6, 1055), (8, 3150)])
    def test_counts(self, bound, count):
        assert sum(len(induction_data(n, self.HALVES))
                   for n in range(1, bound + 1)) == count

    def test_every_datum_is_valid_and_distinct(self):
        data = induction_data(5, self.HALVES)
        assert len(set(data)) == len(data)
        for n, m, kappa, mu in data:
            InductionDatum(n, m, kappa, mu)

    def test_order_is_m_then_strip_weight(self):
        data = induction_data(3, [F(1), F(0)])
        assert data[0] == (3, F(1), (), (3,))
        ms = [m for _, m, _, _ in data]
        assert ms == sorted(ms, reverse=True)
        for m in (F(1), F(0)):
            weights = [sum(kappa) for _, mm, kappa, _ in data if mm == m]
            assert weights == sorted(weights)


class TestBruteForce:
    def test_full_group_when_no_parabolic_roots(self):
        xi = InductionDatum(2, 0, (1, 1), ())
        W = brute_force_W_xi_xi(xi)
        assert len(W) == 8
        assert sorted(w.images for w in W) == sorted(
            (a, b) for a in (1, -1, 2, -2) for b in (1, -1, 2, -2)
            if abs(a) != abs(b))

    def test_principal_series_r(self):
        xi = InductionDatum(2, 0, (1, 1), ())
        assert [w.images for w in brute_force_R(xi)] == [(1, 2), (1, -2)]
        xi = InductionDatum(2, 1, (1, 1), ())
        assert [w.images for w in brute_force_R(xi)] == [(1, 2)]

    def test_strip_with_discrete_series(self):
        xi = InductionDatum(4, F(1, 2), (2,), (2,))
        W = brute_force_W_xi_xi(xi)
        assert [w.images for w in W] == [(1, 2, 3, 4), (-2, -1, 3, 4)]
        assert len(brute_force_R(xi)) == 2

    def test_pure_discrete_series_is_rigid(self):
        xi = InductionDatum(2, F(1, 2), (), (2,))
        W = brute_force_W_xi_xi(xi)
        assert [w.images for w in W] == [(1, 2)]
        xi = InductionDatum(4, 1, (), (2, 1, 1))
        assert len(brute_force_W_xi_xi(xi)) == 1

    def test_unit_strip_against_discrete_series(self):
        xi = InductionDatum(5, 1, (1,), (2, 1, 1))
        W = brute_force_W_xi_xi(xi)
        assert len(W) == 2
        assert len(brute_force_R(xi)) == 1  # the 1-strip does not glue at m=1

    def test_weyl_subset_protocol(self):
        xi = InductionDatum(3, 0, (1, 1, 1), ())
        W = brute_force_W_xi_xi(xi)
        assert len(W) == 48
        listed = list(W)
        assert len(listed) == 48
        assert listed[7] == W[7]
        assert W[-1] == listed[-1]
        assert SignedPermutation((3, -1, 2)) in W
        assert SignedPermutation.identity(3) in W
        assert SignedPermutation.identity(2) not in W
        with pytest.raises(IndexError):
            W[48]

    def test_restricted_subset_membership(self):
        xi = InductionDatum(4, F(1, 2), (2,), (2,))
        W = brute_force_W_xi_xi(xi)
        assert SignedPermutation((-2, -1, 3, 4)) in W
        assert SignedPermutation((2, 1, 3, 4)) not in W
        assert SignedPermutation((1, 2, 4, 3)) not in W

    def test_bound_is_enforced(self, monkeypatch):
        monkeypatch.setenv("HECKE_RGROUP_BOUND_N", "3")
        xi = InductionDatum(4, 0, (1, 1, 1, 1), ())
        with pytest.raises(ValueError, match="bound"):
            brute_force_W_xi_xi(xi)
        with pytest.raises(ValueError, match="bound"):
            brute_force_R(xi)
        monkeypatch.setenv("HECKE_RGROUP_BOUND_N", "4")
        assert len(brute_force_W_xi_xi(xi)) == 384

    @pytest.mark.parametrize("n,size", [(4, "1,536"), (8, "82,575,360"),
                                        (9, "1,672,151,040")])
    def test_bound_states_table_size(self, monkeypatch, n, size):
        from bhecke.rgroup import _check_bound
        monkeypatch.setenv("HECKE_RGROUP_BOUND_N", "3")
        with pytest.raises(ValueError, match=f"table alone needs {size} bytes;"):
            _check_bound(n)

    @pytest.mark.parametrize("raw", ["x", "0", "-1", "2.0"])
    def test_bad_bound_is_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("HECKE_RGROUP_BOUND_N", raw)
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            brute_force_W_xi_xi(InductionDatum(2, 0, (1, 1), ()))

    def test_oracle_agreement_small(self):
        # every valid datum with n <= 5: R is elementary abelian of order
        # 2^d, contains the constructed generators, and the stabilizer has
        # order |W0(xi)| * 2^d
        data = [case for n in range(1, 6)
                for case in induction_data(n, [F(k, 2) for k in range(7)])]
        assert len(data) == 428
        for case in data:
            xi = InductionDatum(*case)
            d = d_value(xi)
            R = brute_force_R(xi)
            assert len(R) == 1 << d, (xi, len(R), d)
            ident = SignedPermutation.identity(xi.n)
            assert all(a * a == ident for a in R)
            rg = r_group(xi)
            for g in rg.generators:
                assert any(g == c for c in R), (xi, g)
            W = brute_force_W_xi_xi(xi)
            w0 = restricted_root_system(xi).weyl_order
            assert len(W) == w0 * (1 << d), (xi, len(W))


class TestInductionDatum:
    def test_validation(self):
        with pytest.raises(ValueError):
            InductionDatum(5, 1, (2,), (2,))  # sizes do not sum to n
        with pytest.raises(ValueError):
            InductionDatum(4, 0, (2,), (2, 1))  # (2,1) not residual at m=0
        with pytest.raises(ValueError):
            InductionDatum(4, -1, (2, 2), ())
        with pytest.raises(ValueError):
            InductionDatum(0, 1, (), ())

    def test_bookkeeping(self):
        assert WORKED.l == 11
        assert WORKED.r == 4
        assert WORKED.offsets == (0, 11, 18, 22)
        assert WORKED.length_classes() == (
            (11, (0,)), (7, (1,)), (4, (2,)), (3, (3,)))
        xi = InductionDatum(6, 1, (2, 2, 1), (1,))
        assert xi.length_classes() == ((2, (0, 1)), (1, (2,)))


class TestConvertCLabels:
    @pytest.mark.parametrize("given,expected", [
        ((1, 1), (F(1), F(1, 2))),
        ((1, 2), (F(1), F(1))),
        ((2, 2), (F(2), F(1))),
    ])
    def test_halves_second_label(self, given, expected):
        assert convert_C_labels(*given) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            convert_C_labels(0, 1)


class TestRankRoundTrip:
    @given(st.integers(min_value=2, max_value=6), st.data())
    @settings(max_examples=60)
    def test_unrank_rank(self, n, data):
        from bhecke._wscan import group_order, rank, unrank
        k = data.draw(st.integers(min_value=0, max_value=group_order(n) - 1))
        images = unrank(n, k)
        assert rank(images) == k
        assert sorted(abs(v) for v in images) == list(range(1, n + 1))

    def test_table_consistent_with_unrank(self):
        import numpy as np
        from bhecke._wscan import group_order, images_table, unrank
        for n in (1, 2, 3):
            tab = images_table(n)
            assert tab.shape == (group_order(n), n)
            for k in range(group_order(n)):
                assert tuple(int(v) for v in tab[k]) == unrank(n, k)
