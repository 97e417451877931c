"""Pole orders counted from Fraction exponent lists: the test references.

Every factor is (1 - q1^a) for an exact rational exponent a, so the pole
order of a quotient of such products is the number of zero denominators
less the number of zero numerators. The library counts the same zeros on
integers; these lists are the slow, literal form it is checked against.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class FactorProduct:
    """Quotient of products of (1 - q1^a): exponent multisets for num and den."""

    numerator_exponents: tuple[Fraction, ...]
    denominator_exponents: tuple[Fraction, ...]


def order(fp: FactorProduct) -> int:
    """Pole order at the evaluation point: zero denominators minus zero numerators."""
    return (list(fp.denominator_exponents).count(0)
            - list(fp.numerator_exponents).count(0))


def pair_factors(p1: int, p2: int, sign: str) -> FactorProduct:
    """The two-factor-class product for strips of lengths p1, p2."""
    z1 = Fraction(p1 - 1, 2)
    z2 = Fraction(p2 - 1, 2)
    num, den = [], []
    for d1 in range(1, p1 + 1):
        for d2 in range(1, p2 + 1):
            if sign == "+":
                e = -z1 + (d1 - 1) - z2 + (d2 - 1)
            else:
                e = z1 - z2 - (d1 - d2)
            num.append(e - 1)
            den.append(e)
    return FactorProduct(tuple(num), tuple(den))
