import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strangeval.errors import ParameterError
from strangeval.hyp import (
    HypParams,
    binomial_series,
    euler_transform_series,
    hyp_series,
    q0_r0_by_series,
)
from strangeval.operators import build_H
from strangeval.poly import Poly
from strangeval.scalars import (
    format_rational,
    is_integer,
    is_nonpos_integer,
    nonnegative_int,
    parse_rational,
    poch,
    positive_int,
    rational,
    rising_product,
)
from strangeval.series import GenSeries, TruncatedSeries
from strangeval.verify import compute_q0_all_methods, incomplete_beta_check

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=20)


def test_poch_empty_product():
    assert poch(Fraction(5, 2), 0) == 1


def test_poch_factorial():
    assert poch(1, 3) == 6


def test_poch_rising():
    assert poch(3, 4) == 360  # 3*4*5*6


def test_poch_rejects_negative_index():
    with pytest.raises(ValueError):
        poch(1, -1)


@given(rationals, st.integers(0, 20), st.integers(0, 20))
def test_poch_composition(a, m, n):
    assert poch(a, m + n) == poch(a, m) * poch(a + m, n)


def test_integer_predicates():
    assert is_integer(Fraction(4, 2))
    assert not is_integer(Fraction(1, 3))
    assert is_nonpos_integer(0)
    assert is_nonpos_integer(-3)
    assert not is_nonpos_integer(2)
    assert not is_nonpos_integer(Fraction(-1, 2))


def test_parse_and_format_roundtrip():
    for text in ["3/2", "-7", "0", "22/7"]:
        assert format_rational(parse_rational(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("three halves")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_rational_keeps_ints_and_fractions_exact():
    assert rational(3, "x") == 3 and type(rational(3, "x")) is Fraction
    half = Fraction(1, 2)
    assert rational(half, "x") is half


def test_exact_layer_refuses_floats():
    # Fraction(0.1) is 3602879701896397/2^55, not 1/10: every exact-layer
    # entry refuses a float, as the numeric and report entries do
    body = TruncatedSeries((1,), 2)
    for call in (
        lambda: rational(0.1, "x"),
        lambda: HypParams(0.1, 1, Fraction(3, 10)),
        lambda: HypParams(Fraction(1, 10), 1, 0.3),
        lambda: Poly([0.5, 1]),
        lambda: Poly([Fraction(1, 2), -1.0, Fraction(3, 10)]),
        lambda: build_H(0.5, 1),
        lambda: GenSeries(0.5, 0, body),
        lambda: GenSeries(0, 0.5, body),
        lambda: binomial_series(0.5, 3),
        lambda: poch(0.1, 1),
        lambda: is_integer(2.0),
        lambda: is_nonpos_integer(-1.0),
        lambda: format_rational(0.1),
    ):
        with pytest.raises(ParameterError, match="must be an int or Fraction"):
            call()


def test_positive_int():
    assert positive_int(4, "n") == 4
    for n in (0, -2, 1.5, 2.0, Fraction(3)):
        with pytest.raises(ParameterError, match="n must be a positive integer"):
            positive_int(n, "n")


def test_nonnegative_int():
    assert nonnegative_int(0, "n") == 0 and nonnegative_int(4, "n") == 4
    for n in (-1, 1.5, 2.0, Fraction(3)):
        with pytest.raises(ParameterError, match="n must be a nonnegative integer"):
            nonnegative_int(n, "n")


def test_non_int_counts_are_parameter_errors():
    # a series order or Pochhammer index that is not an int is refused by
    # the count rule, never met as a TypeError inside range()
    p = HypParams(Fraction(1, 3), 1, Fraction(5, 7))
    for call in (
        lambda: hyp_series(p, 2.5),
        lambda: binomial_series(Fraction(1, 2), 2.5),
        lambda: euler_transform_series(p, 2.5),
        lambda: q0_r0_by_series(p, 3, 40.5),
        lambda: compute_q0_all_methods(Fraction(1, 3), Fraction(5, 7), 3, 40.0),
        lambda: incomplete_beta_check(2, 3, Fraction(1, 2), order=2.5),
        lambda: TruncatedSeries((1, 2, 3), 2.5),
        lambda: TruncatedSeries.from_poly(Poly((1, 2)), -1),
        lambda: hyp_series(p, -1),
        lambda: poch(Fraction(1, 2), 2.5),
        lambda: poch(1, -1),
    ):
        with pytest.raises(ParameterError, match="must be a nonnegative integer"):
            call()


def _rising_by_fractions(a: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def test_rising_product_and_poch_match_a_fraction_loop():
    rng = random.Random(29)
    bases = [Fraction(0), Fraction(-3), Fraction(5), Fraction(-7, 2), Fraction(1, 3)]
    bases += [Fraction(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(300)]
    for a in bases:
        for n in (0, 1, 2, rng.randint(3, 60)):
            want = _rising_by_fractions(a, n)
            q = a.denominator
            assert rising_product(a.numerator, q, n) == want * q**n, (a, n)
            assert poch(a, n) == want, (a, n)
    assert rising_product(-3, 1, 5) == 0 and rising_product(-3, 1, 3) == -6
    assert rising_product(1, 2, 3) == 15  # (1/2)_3 2^3 = 1 3 5
