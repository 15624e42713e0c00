import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from strangeval.errors import UnsupportedOperatorError
from strangeval.poly import ONE_MINUS_X, Poly, RatFunc, exponent_split

coeffs = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=5
)


def ratfuncs():
    """P / (k x^i (1-x)^j), the denominators RatFunc admits."""
    return st.builds(
        lambda n, k, i, j: RatFunc(Poly(n), Poly.x() ** i * ONE_MINUS_X ** j * k),
        coeffs,
        st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
        st.integers(0, 3),
        st.integers(0, 3),
    )


X_SYM = sympy.Symbol("x")


def to_sympy(f: RatFunc):
    """The function the triple (P, i, j) stands for, P / (x^i (1-x)^j)."""
    num = sum(
        sympy.Rational(c.numerator, c.denominator) * X_SYM**k
        for k, c in enumerate(f.poly.coeffs)
    )
    return num / (X_SYM**f.i * (1 - X_SYM) ** f.j)


def sympy_poly(p: Poly):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
        X_SYM,
        domain="QQ",
    )


def from_sympy(p) -> Poly:
    return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def sympy_num_den(expr):
    """Reduced numerator and monic denominator, computed by sympy."""
    num, den = sympy.fraction(sympy.cancel(expr))
    lead = sympy.Poly(den, X_SYM).LC()
    return tuple(
        Poly(
            Fraction(int(c.p), int(c.q))
            for c in reversed(sympy.Poly(e / lead, X_SYM).all_coeffs())
        )
        for e in (num, den)
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

    @seed(20261018)
    @settings(max_examples=80, deadline=None)
    @given(st.builds(Poly, coeffs), st.builds(Poly, coeffs).filter(bool))
    def test_divmod_property(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    @seed(20261018)
    @settings(max_examples=80, deadline=None)
    @given(st.builds(Poly, coeffs), st.builds(Poly, coeffs), st.builds(Poly, coeffs))
    def test_gcd_matches_sympy(self, f, g, h):
        # a common factor f makes most gcds nontrivial
        a, b = f * g, f * h
        want = sympy.gcd(sympy_poly(a), sympy_poly(b))
        ours = a.gcd(b)
        assert ours == (from_sympy(want.monic()) if not want.is_zero else Poly.zero())
        assert ours.is_zero() or ours.leading_coefficient() == 1

    def test_str(self):
        assert str(Poly((Fraction(7, 2), 3))) == "7/2 + 3*x"
        assert str(Poly((1, 0, -1))) == "1 - x^2"
        assert str(Poly.zero()) == "0"


class TestRatFunc:
    def test_common_denominator_addition(self):
        f = RatFunc(Poly.x(), ONE_MINUS_X)
        g = RatFunc(Poly((0, 0, 1)), ONE_MINUS_X)
        total = f + g
        assert total == RatFunc(Poly.x() * Poly((1, 1)), ONE_MINUS_X)

    def test_derivative(self):
        f = RatFunc(Poly((0, 0, 1)))
        assert f.derivative() == RatFunc(Poly((0, 2)))

    def test_quotient_rule(self):
        f = RatFunc(Poly.one(), ONE_MINUS_X)  # 1/(1-x)
        assert f.derivative() == RatFunc(Poly.one(), ONE_MINUS_X**2)

    def test_x_and_one_minus_x_cancellation(self):
        x = Poly.x()
        f = RatFunc(x * ONE_MINUS_X**2, x**2 * ONE_MINUS_X)  # (1-x)/x
        assert (f.poly, f.i, f.j) == (ONE_MINUS_X, 1, 0)
        assert f == RatFunc(ONE_MINUS_X, x)
        g = RatFunc(x * ONE_MINUS_X**2, 3 * ONE_MINUS_X)
        assert (g.poly, g.i, g.j) == (x * ONE_MINUS_X * Fraction(1, 3), 0, 0)

    def test_monic_denominator(self):
        f = RatFunc(Poly((1,)), Poly((0, 2, -2)))  # 1/(2x(1-x))
        assert f.den.leading_coefficient() == 1
        assert (f.num, f.den) == (Poly((Fraction(-1, 2),)), Poly((0, -1, 1)))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(Poly.one(), Poly.zero())

    def test_foreign_denominator_rejected(self):
        with pytest.raises(UnsupportedOperatorError):
            RatFunc(Poly.one(), Poly((0, 1, 1)))  # 1/(x(1+x))

    @given(ratfuncs(), ratfuncs())
    def test_field_consistency(self, f, g):
        assert (f + g) - g == f

    @given(ratfuncs())
    def test_normalization_idempotent(self, f):
        again = RatFunc(f.num, f.den)
        assert again.num == f.num and again.den == f.den
        assert (again.poly, again.i, again.j) == (f.poly, f.i, f.j)
        assert f.i == 0 or f.poly.coefficient(0) != 0
        assert f.j == 0 or f.poly(1) != 0
        assert f.poly or (f.i, f.j) == (0, 0)

    @given(ratfuncs(), ratfuncs(), ratfuncs())
    def test_distributivity(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(ratfuncs(), ratfuncs())
    def test_matches_sympy(self, f, g):
        F, G = to_sympy(f), to_sympy(g)
        for ours, expr in (
            (f + g, F + G),
            (f * g, F * G),
            (f.derivative(), sympy.diff(F, X_SYM)),
        ):
            assert (ours.num, ours.den) == sympy_num_den(expr)


def _split_by_division(p: Poly, i=None, j=None):
    """exponent_split by the general route: shift_down for x, exact_div by
    1-x while the value at 1 is 0, each stopped at its bound."""
    s = p.valuation_at_zero() if i is None else min(i, p.valuation_at_zero())
    rest, t = p.shift_down(s), 0
    while (j is None or t < j) and rest(1) == 0:
        rest, t = rest.exact_div(ONE_MINUS_X), t + 1
    return s, t, rest


def _seeded_factored_polys(seed: int, count: int):
    """(x^s (1-x)^t core, s, t) with s, t in 0..4 and core(0) core(1) != 0,
    cores with integer and with rational coefficients."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        den = 1 if len(out) % 2 else rng.randint(2, 12)
        core = Poly([Fraction(rng.randint(-30, 30), den) for _ in range(rng.randint(1, 7))])
        if core.is_zero() or core(0) == 0 or core(1) == 0:
            continue
        s, t = rng.randint(0, 4), rng.randint(0, 4)
        out.append((core * Poly.x() ** s * ONE_MINUS_X**t, s, t))
    return out


class TestFactorsOnNumerators:
    """exponent_split (leading zeros, numerator sum, prefix sums) and
    mul_factors (rounds of differences) against the general route."""

    def test_split_matches_division(self):
        rng = random.Random(7)
        for p, s, t in _seeded_factored_polys(7, 400):
            assert exponent_split(p) == _split_by_division(p)
            assert exponent_split(p)[:2] == (s, t)
            i, j = rng.randint(0, 5), rng.randint(0, 5)
            assert exponent_split(p, i, j) == _split_by_division(p, i, j), (p, i, j)
            assert exponent_split(p, i, j)[:2] == (min(s, i), min(t, j))

    def test_split_leaves_canonical_fields(self):
        for p, _, _ in _seeded_factored_polys(11, 200):
            rest = exponent_split(p)[2]
            assert (rest.nums, rest.den) == (Poly(rest.coeffs).nums, Poly(rest.coeffs).den)

    def test_mul_factors_matches_powers(self):
        rng = random.Random(13)
        for p, _, _ in _seeded_factored_polys(13, 300):
            s, k = rng.randint(0, 4), rng.randint(0, 4)
            assert p.mul_factors(s, k) == p * Poly.x() ** s * ONE_MINUS_X**k, (p, s, k)
        assert Poly.zero().mul_factors(2, 3) == Poly.zero()

    def test_ratfunc_normal_form_matches_division(self):
        rng = random.Random(17)
        for p, _, _ in _seeded_factored_polys(17, 300):
            i, j = rng.randint(0, 5), rng.randint(0, 5)
            f = RatFunc._of(p, i, j)
            s, t, rest = _split_by_division(p, i, j)
            assert (f.poly, f.i, f.j) == (rest, i - s, j - t)
            assert f.den == Poly.x() ** (i - s) * Poly((-1, 1)) ** (j - t)

    def test_mul_factors_refuses_negative_powers(self):
        for s, k in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="negative power"):
                Poly((1, 2)).mul_factors(s, k)
