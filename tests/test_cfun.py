from fractions import Fraction

import pytest
from exponent_counts import FactorProduct, order, pair_factors

from bhecke.cfun import (
    pole_order_A_part,
    pole_order_block,
    pole_order_pair,
    pole_order_short_blockwise,
    pole_order_short_direct,
)
from bhecke.splitting import residual_partitions, split

F = Fraction


def test_order_counting():
    assert order(FactorProduct((F(1),), (F(0),))) == 1
    assert order(FactorProduct((F(0),), (F(0),))) == 0
    assert order(FactorProduct((F(0), F(0)), ())) == -2
    assert order(FactorProduct((), ())) == 0


@pytest.mark.parametrize("sign", ["+", "-"])
def test_pole_order_pair_examples(sign):
    assert pole_order_pair(2, 2, sign) == 1
    assert pole_order_pair(2, 3, sign) == 0
    assert pole_order_pair(1, 1, sign) == 1


@pytest.mark.parametrize("sign", ["+", "-"])
def test_pole_order_pair_diagonal_rule(sign):
    for p1 in range(1, 9):
        for p2 in range(1, 9):
            expect = 1 if p1 == p2 else 0
            assert pole_order_pair(p1, p2, sign) == expect, (p1, p2, sign)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_pole_order_pair_counts_fraction_exponents(sign):
    for p1 in range(1, 17):
        for p2 in range(1, 17):
            assert pole_order_pair(p1, p2, sign) == order(pair_factors(p1, p2, sign)), \
                (p1, p2, sign)


def test_pole_order_pair_rejects():
    with pytest.raises(ValueError):
        pole_order_pair(0, 2, "+")
    with pytest.raises(ValueError):
        pole_order_pair(2, 2, "*")


A_PART_CASES = [
    (3, F(1), 0),
    (3, F(2), 1),
    (1, F(0), 0),
    (2, F(0), 1),
    (2, F(1, 2), 0),
    (3, F(0), 0),
    (3, F(3), 1),
    (4, F(3), 1),
    (7, F(3), 0),
    (11, F(3), 0),
]


@pytest.mark.parametrize("p, m, expect", A_PART_CASES)
def test_pole_order_A_part_frozen(p, m, expect):
    assert pole_order_A_part(p, m) == expect


def test_pole_order_A_part_closed_form():
    # 0 iff m is in {(p-1)/2, (p-3)/2, ...}, i.e. m <= z with z - m integral
    for p in range(1, 13):
        z = F(p - 1, 2)
        for k in range(0, 13):
            m = F(k, 2)
            expect = 0 if (m <= z and (z - m).denominator == 1) else 1
            assert pole_order_A_part(p, m) == expect, (p, m)


def test_pole_order_block():
    assert pole_order_block(3, (F(2), F(4))) == -1
    assert pole_order_block(7, (F(1), F(3))) == 1
    assert pole_order_block(4, (F(1), F(2))) == 0
    assert pole_order_block(3, (F(0), F(4))) == 0
    assert pole_order_block(3, (F(1, 2), F(3, 2))) == 0
    with pytest.raises(ValueError):
        pole_order_block(3, (F(3), F(2)))
    with pytest.raises(ValueError):
        pole_order_block(3, (F(-1), F(2)))


def test_pole_order_block_length_one_strip():
    # z=0 vs a block starting at 0: the generic pairing needs strip entries
    # +-1 that do not exist, leaving a net pole
    assert pole_order_block(1, (F(0), F(1))) == 1
    assert pole_order_block(1, (F(0), F(5))) == 1
    assert pole_order_block(1, (F(1), F(2))) == -1
    assert pole_order_block(1, (F(2), F(3))) == 0


def test_short_orders_length_one_strip_corner():
    # the full product and the blockwise sum must agree on p=1 at m=0
    assert pole_order_short_direct(1, (2,), F(0)) == 1
    assert pole_order_short_blockwise(1, split((2,), F(0)), F(0)) == 1
    assert pole_order_short_direct(1, (2, 1, 1), F(0)) == 0
    assert pole_order_short_blockwise(1, split((2, 1, 1), F(0)), F(0)) == 0


def test_pole_order_short_direct_frozen():
    assert pole_order_short_direct(3, (), F(1)) == 0
    assert pole_order_short_direct(2, (2,), F(1, 2)) == 0
    mu = (4, 3, 2, 1, 1)
    assert pole_order_short_direct(3, mu, F(3)) == 1
    assert pole_order_short_direct(4, mu, F(3)) == 1
    assert pole_order_short_direct(7, mu, F(3)) == 0
    assert pole_order_short_direct(11, mu, F(3)) == 0


def test_pole_order_short_blockwise_frozen():
    res = split((4, 3, 2, 1, 1), F(3))
    assert pole_order_short_blockwise(3, res, F(3)) == 1
    assert pole_order_short_blockwise(4, res, F(3)) == 1
    assert pole_order_short_blockwise(7, res, F(3)) == 0
    assert pole_order_short_blockwise(11, res, F(3)) == 0


def test_direct_equals_blockwise_small():
    for l in range(1, 7):
        for k in range(0, 9):
            m = F(k, 2)
            for mu in residual_partitions(l, m):
                res = split(mu, m)
                for p in range(1, 9):
                    direct = pole_order_short_direct(p, mu, m)
                    assert direct == pole_order_short_blockwise(p, res, m), (p, mu, m)
                    assert direct in (0, 1)
