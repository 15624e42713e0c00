from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strangeval.errors import ParameterError
from strangeval.hyp import HypParams, binomial_series
from strangeval.operators import build_H
from strangeval.poly import Poly
from strangeval.scalars import (
    format_rational,
    is_integer,
    is_nonpos_integer,
    parse_rational,
    poch,
    positive_int,
    rational,
)
from strangeval.series import GenSeries, TruncatedSeries

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
