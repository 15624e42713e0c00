import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strangeval.errors import InternalInconsistencyError
from strangeval.hyp import HypParams, binomial_series, hyp_series
from strangeval.poly import Poly
from strangeval.series import GenSeries, TruncatedSeries

series_strategy = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    min_size=1,
    max_size=6,
).map(lambda cs: TruncatedSeries(cs, 8))


class TestTruncatedSeries:
    def test_product_truncates(self):
        f = TruncatedSeries((1, 1), 2)
        g = TruncatedSeries((1, -1), 2)
        assert (f * g).coeffs == (1, 0, -1)

    def test_geometric_inverse(self):
        geom = TruncatedSeries([1] * 6, 5)
        one_minus_x = TruncatedSeries((1, -1), 5)
        assert (geom * one_minus_x).coeffs == (1, 0, 0, 0, 0, 0)

    def test_zero_absorbs(self):
        f = TruncatedSeries((3, 1, 4), 4)
        assert (f * TruncatedSeries.zero(4)).is_zero()

    def test_shift_up_extends_knowledge(self):
        f = TruncatedSeries((1, 2), 1)
        sh = f.shift_up(2)
        assert sh.order == 3 and sh.coeffs == (0, 0, 1, 2)

    def test_shift_down_requires_divisibility(self):
        f = TruncatedSeries((0, 1, 2), 2)
        assert f.shift_down(1).coeffs == (1, 2)
        with pytest.raises(InternalInconsistencyError):
            TruncatedSeries((1, 1), 1).shift_down(1)

    def test_derivative_drops_order(self):
        f = TruncatedSeries((5, 1, 3), 2)
        d = f.derivative()
        assert d.order == 1 and d.coeffs == (1, 6)

    def test_mul_poly_tracks_valuation(self):
        f = TruncatedSeries((1, 1, 1), 2)
        g = f.mul_poly(Poly((0, 1)))  # times x
        assert g.order == 3 and g.coeffs == (0, 1, 1, 1)

    @given(series_strategy, st.integers(0, 4), st.integers(0, 4))
    def test_mul_factors_matches_mul_poly(self, f, s, k):
        x_s = Poly((0,) * s + (1,))
        assert f.mul_factors(s, k) == f.mul_poly(x_s * Poly((1, -1)) ** k)

    def test_truncate(self):
        f = TruncatedSeries((1, 2, 3), 2)
        assert f.truncate(1).coeffs == (1, 2)
        with pytest.raises(ValueError):
            f.truncate(5)

    @given(series_strategy, series_strategy)
    def test_mul_commutative(self, f, g):
        assert f * g == g * f

    @given(series_strategy, series_strategy, series_strategy)
    @settings(max_examples=60)
    def test_mul_associative_to_truncation(self, f, g, h):
        assert (f * g) * h == f * (g * h)


class TestCanonicalForm:
    """A series is a Poly (integer numerators over one positive denominator,
    in lowest terms, no trailing zero) cut at its order: equal values have
    equal fields, whatever built them."""

    @staticmethod
    def assert_canonical(s):
        p = s.poly
        assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
        assert len(p.nums) <= s.order + 1 and (not p.nums or p.nums[-1])

    def test_scale_round_trip(self):
        s = TruncatedSeries((Fraction(3, 4), Fraction(-5, 6), 2), 4)
        t = s.scale(2).scale(Fraction(1, 2))
        assert t == s and hash(t) == hash(s)

    def test_same_value_different_routes(self):
        # (1-x)^(1/2) from its ratio recurrence and from Fraction coefficients
        direct = binomial_series(Fraction(1, 2), 3)
        built = TruncatedSeries(
            (1, Fraction(-1, 2), Fraction(-1, 8), Fraction(-1, 16)), 3
        )
        assert direct == built and hash(direct) == hash(built)
        doubled = built + built
        assert doubled == built.scale(2) and hash(doubled) == hash(built.scale(2))

    def test_zero_is_unique(self):
        z = TruncatedSeries((Fraction(1, 3), 1), 2).scale(0)
        assert z == TruncatedSeries.zero(2) and (z.poly.nums, z.poly.den) == ((), 1)

    def test_coefficients_are_fractions(self):
        s = TruncatedSeries((Fraction(1, 2), 3), 2)
        assert all(type(c) is Fraction for c in s.coeffs)
        assert type(s.coefficient(1)) is Fraction and s.coefficient(1) == 3
        with pytest.raises(IndexError):
            s.coefficient(3)

    @given(series_strategy, series_strategy, st.integers(0, 8))
    @settings(max_examples=60)
    def test_product_commutes_with_truncation(self, f, g, k):
        before = (f * g).truncate(k)
        after = f.truncate(k) * g.truncate(k)
        assert before == after and hash(before) == hash(after)

    @given(series_strategy, series_strategy, st.fractions(max_denominator=9))
    @settings(max_examples=60)
    def test_operations_stay_canonical(self, f, g, s):
        for out in (f + g, f - g, -f, f * g, f.scale(s), f.mul_poly(Poly((s, 1))),
                    f.shift_up(2), f.derivative(), f.truncate(3)):
            self.assert_canonical(out)

    @given(series_strategy, series_strategy)
    @settings(max_examples=60)
    def test_matches_fraction_arithmetic(self, f, g):
        # the integer representation computes the same values as Fractions
        fc, gc = f.coeffs, g.coeffs
        prod = [sum(fc[i] * gc[k - i] for i in range(k + 1)) for k in range(9)]
        assert (f * g).coeffs == tuple(prod)
        assert (f + g).coeffs == tuple(x + y for x, y in zip(fc, gc))


class TestBinomialSeries:
    def test_alpha_zero(self):
        assert binomial_series(0, 4).coeffs == (1, 0, 0, 0, 0)

    def test_alpha_one(self):
        assert binomial_series(1, 3).coeffs == (1, -1, 0, 0)

    def test_alpha_half(self):
        assert binomial_series(Fraction(1, 2), 2).coeffs == (
            1,
            Fraction(-1, 2),
            Fraction(-1, 8),
        )

    @pytest.mark.parametrize("alpha", [0, 1, Fraction(1, 2), 3, Fraction(-7, 3)])
    def test_is_the_hypergeometric_series(self, alpha):
        # (1-x)^alpha = F(-alpha, 1; 1; x) (DLMF 15.4.6), with the
        # coefficients of c_(n+1) = c_n (n - alpha)/(n + 1); at alpha = 3,
        # below the order, the sum stops after x^3
        order = 8
        coeffs = [Fraction(1)]
        for n in range(order):
            coeffs.append(coeffs[-1] * (n - alpha) / (n + 1))
        series = binomial_series(alpha, order)
        assert series == hyp_series(HypParams(-alpha, 1, 1), order)
        assert series.coeffs == tuple(coeffs)

    @given(
        st.fractions(min_value=-6, max_value=6, max_denominator=12),
        st.integers(1, 64),
    )
    @settings(max_examples=40)
    def test_inverse_pair(self, alpha, order):
        prod = binomial_series(alpha, order) * binomial_series(-alpha, order)
        assert prod.coeffs[0] == 1
        assert all(c == 0 for c in prod.coeffs[1:])


class TestGenSeries:
    def test_normalize_extracts_x_divisibility(self):
        g = GenSeries(Fraction(1, 2), 0, TruncatedSeries((0, 1), 4))
        n = g.normalized()
        assert n.mu == Fraction(3, 2) and n.body.coeffs[0] == 1

    def test_normalize_identity(self):
        g = GenSeries(0, 0, TruncatedSeries((1, 2), 3))
        n = g.normalized()
        assert n.mu == 0 and n.nu == 0 and n.body == g.body

    def test_matches_across_representations(self):
        # x^1 * [1 + ...] and x^0 * [x + ...] are the same value
        a = GenSeries(1, 0, TruncatedSeries((1, 2), 3))
        b = GenSeries(0, 0, TruncatedSeries((0, 1, 2), 4))
        assert a.matches(b)

    def test_matches_resolves_nu_against_body(self):
        # (1-x)^1 * f == (1-x)^0 * ((1-x) f)
        f = TruncatedSeries((1, 1, 1), 6)
        a = GenSeries(0, 1, f)
        b = GenSeries(0, 0, f.mul_poly(Poly((1, -1))))
        assert a.matches(b)

    def test_add_aligns_integer_gaps(self):
        f = TruncatedSeries((1,), 4)
        a = GenSeries(Fraction(1, 2), 1, f)
        b = GenSeries(Fraction(3, 2), 0, f)
        total = a + b
        # x^(1/2) (1-x) + x^(3/2) = x^(1/2) (1 - x + x) = x^(1/2)
        assert total.matches(GenSeries(Fraction(1, 2), 0, TruncatedSeries((1,), 4)))

    def test_add_rejects_fractional_gap(self):
        f = TruncatedSeries((1,), 3)
        with pytest.raises(InternalInconsistencyError):
            GenSeries(Fraction(1, 2), 0, f) + GenSeries(Fraction(1, 3), 0, f)

    def test_deriv_power_rule(self):
        # d/dx x^mu = mu x^(mu-1)
        mu = Fraction(1, 3)
        g = GenSeries(mu, 0, TruncatedSeries((1,), 5))
        d = g.deriv().normalized()
        assert d.mu == mu - 1
        assert d.body.coeffs[0] == mu

    def test_deriv_matches_polynomial_derivative(self):
        # mu = nu = 0: plain series derivative
        g = GenSeries(0, 0, TruncatedSeries((1, 2, 3), 4))
        d = g.deriv()
        expect = GenSeries(0, 0, TruncatedSeries((2, 6), 3))
        assert d.matches(expect, 1)
