from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strangeval.poly import Poly, RatFunc, exponent_split

coeffs = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=5
)


def ratfuncs():
    return st.builds(
        lambda n, d: RatFunc(Poly(n), Poly(d) if Poly(d) else Poly.one()),
        coeffs,
        coeffs,
    )


class TestPoly:
    def test_zero_degree_is_sentinel(self):
        assert Poly.zero().degree is None
        assert Poly((0, 0)).degree is None
        assert Poly((5,)).degree == 0

    def test_trailing_zeros_trimmed(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)

    def test_arith(self):
        x = Poly.x()
        p = (1 + x) * (1 - x)
        assert p == Poly((1, 0, -1))
        assert p - p == Poly.zero()
        assert (x**3).degree == 3

    def test_divmod(self):
        p = Poly((-1, 0, 1))  # x^2 - 1
        q, r = divmod(p, Poly((-1, 1)))  # x - 1
        assert q == Poly((1, 1)) and r.is_zero()

    def test_gcd_monic(self):
        p = Poly((-1, 0, 1)) * 3
        q = Poly((-1, 1)) * 5
        assert p.gcd(q) == Poly((-1, 1))

    def test_eval_exact(self):
        p = Poly((1, 4))
        assert p(Fraction(-1, 4)) == 0

    def test_valuations(self):
        p = Poly((0, 0, 3, -3))  # 3x^2 (1 - x)
        assert p.valuation_at_zero() == 2
        assert exponent_split(p) == (2, 1, Poly((3,)))

    def test_monomial_split(self):
        p = Poly((0, 0, 2)) * Poly((-1, 1)) ** 2  # 2 x^2 (x-1)^2
        assert exponent_split(p) == (2, 2, Poly((2,)))
        assert exponent_split(Poly((1, 1))) == (0, 0, Poly((1, 1)))

    def test_str(self):
        assert str(Poly((Fraction(7, 2), 3))) == "7/2 + 3*x"
        assert str(Poly((1, 0, -1))) == "1 - x^2"
        assert str(Poly.zero()) == "0"


class TestRatFunc:
    def test_common_denominator_addition(self):
        one_minus_x = Poly((1, -1))
        f = RatFunc(Poly.x(), one_minus_x)
        g = RatFunc(Poly((0, 0, 1)), one_minus_x)
        total = f + g
        assert total == RatFunc(Poly.x() * Poly((1, 1)), one_minus_x)

    def test_derivative(self):
        f = RatFunc(Poly((0, 0, 1)))
        assert f.derivative() == RatFunc(Poly((0, 2)))

    def test_quotient_rule(self):
        f = RatFunc(Poly.one(), Poly((1, -1)))  # 1/(1-x)
        assert f.derivative() == RatFunc(Poly.one(), Poly((1, -1)) ** 2)

    def test_gcd_cancellation(self):
        f = RatFunc(Poly((-1, 0, 1)), Poly((-1, 1)))  # (x^2-1)/(x-1)
        assert f == RatFunc(Poly((1, 1)))
        assert f.is_poly() and f.as_poly() == Poly((1, 1))

    def test_monic_denominator(self):
        f = RatFunc(Poly((1,)), Poly((2, 4)))
        assert f.den.leading_coefficient() == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(Poly.one(), Poly.zero())
        with pytest.raises(ZeroDivisionError):
            RatFunc(Poly.one()) / RatFunc.zero()

    @given(ratfuncs(), ratfuncs())
    def test_field_consistency(self, f, g):
        assert (f + g) - g == f

    @given(ratfuncs())
    def test_normalization_idempotent(self, f):
        again = RatFunc(f.num, f.den)
        assert again.num == f.num and again.den == f.den

    @given(ratfuncs(), ratfuncs(), ratfuncs())
    def test_distributivity(self, f, g, h):
        assert f * (g + h) == f * g + f * h
