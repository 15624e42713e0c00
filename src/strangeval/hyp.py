"""Gauss hypergeometric series and the reduced-remainder polynomials.

The central objects are the two polynomials q0(x), r0(x) of degree at most
ell-1 that encode the order-ell contiguity reduction of F(a, b, c; x).
They are computed here from explicit two-series combinations whose tails
must cancel identically; the cancellation is asserted coefficient by
coefficient, which doubles as the strongest internal correctness check the
series engine has.  An independent route, the operator remainder
recurrence, lives in ``operators`` and must agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistencyError, ParameterError
from .poly import Poly
from .scalars import is_integer, is_nonpos_integer, poch
from .series import TruncatedSeries, binomial_series


@dataclass(frozen=True)
class HypParams:
    """Parameter triple (a, b, c) of F(a, b, c; x), exact rationals."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __init__(self, a, b, c):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "c", Fraction(c))

    def require_c_non_integer(self) -> "HypParams":
        if is_integer(self.c):
            raise ParameterError(f"c = {self.c} must not be an integer")
        return self


@dataclass(frozen=True)
class QRPair:
    """The reduction polynomials q0, r0, each of degree <= ell - 1."""

    q0: Poly
    r0: Poly
    ell: int

    def __post_init__(self):
        for name, p in (("q0", self.q0), ("r0", self.r0)):
            if not p.is_zero() and p.degree > self.ell - 1:
                raise InternalInconsistencyError(
                    f"{name} has degree {p.degree} > ell-1 = {self.ell - 1}"
                )


def _check_ell(ell: int) -> int:
    if not isinstance(ell, int) or ell < 1:
        raise ParameterError(f"contiguity order must be a positive integer, got {ell}")
    return ell


def hyp_series(p: HypParams, order: int) -> TruncatedSeries:
    """Series of F(a, b, c; x) through x^order.

    Coefficients follow c_{n+1} = c_n (a+n)(b+n) / ((c+n)(n+1)).  If a or b
    is a nonpositive integer the series terminates and the trailing
    coefficients are exactly zero; a pole of the lower parameter hit before
    termination is a parameter error.
    """
    if order < 0:
        raise ParameterError("series order must be >= 0")
    # Over the common denominator d of a, b, c (a = A/d, ...) the ratio is
    # (A + n d)(B + n d) / ((C + n d)(n + 1) d), all integers.
    d = math.lcm(p.a.denominator, p.b.denominator, p.c.denominator)
    A, B, C = (int(v * d) for v in (p.a, p.b, p.c))
    ups, downs = [], []
    for n in range(order):
        if C + n * d == 0:
            raise ParameterError(
                f"lower parameter pole: c = {p.c} reaches zero at term {n + 1}"
            )
        ups.append((A + n * d) * (B + n * d))
        downs.append((C + n * d) * (n + 1) * d)
        if not ups[-1]:
            break
    return TruncatedSeries.from_ratios(ups, downs, order)


def terminating_poly(p: HypParams) -> Poly:
    """Exact polynomial F(a, -m, c; x) for nonpositive-integer b = -m.

    The degree is at most m, and exactly m iff (a, m) != 0.
    """
    if not is_nonpos_integer(p.b):
        raise ParameterError(f"second parameter {p.b} is not a nonpositive integer")
    m = -int(p.b)
    for n in range(m):
        if p.c + n == 0:
            raise ParameterError(
                f"lower parameter pole: c = {p.c} inside summation range 0..{m}"
            )
    return Poly(hyp_series(p, m).coeffs)


def euler_transform_series(p: HypParams, order: int) -> TruncatedSeries:
    """Series of (1-x)^(c-a-b) F(c-a, c-b, c; x), the transformed side of
    F(a, b, c; x) = (1-x)^(c-a-b) F(c-a, c-b, c; x)."""
    a, b, c = p.a, p.b, p.c
    return binomial_series(c - a - b, order) * hyp_series(
        HypParams(c - a, c - b, c), order
    )


def _extract_poly(series: TruncatedSeries, ell: int, what: str) -> Poly:
    """Assert all coefficients from index ell on vanish, return the head."""
    for i in range(ell, series.order + 1):
        if series.nums[i]:
            raise InternalInconsistencyError(
                f"{what}: coefficient of x^{i} is {series.coefficient(i)}, "
                f"expected exact 0 (tail must vanish through x^{series.order})"
            )
    return Poly(series.coeffs[:ell])


def q0_r0_by_series(p: HypParams, ell: int, order: int | None = None) -> QRPair:
    """q0, r0 for the b = 1 reduction, from the explicit series combinations

        q0 = -(1,l)/(1-c) (1-x)^(c-a-1) F(c-a, c-1-l, c; x)
             + (2-c,l)/(1-c) F(a, 1, c; x) F(1-a, -l, 2-c; x)
        r0 = (1,l) F(c-a, c-1-l, c; x) F(a+1-c, 2-c, 1-c; x)
             - a (2-c,l)/(c(1-c)) x F(a+1, 2, c+1; x) F(1-a, -l, 2-c; x)

    Both right-hand sides are polynomials of degree <= ell-1; every
    computed coefficient past that is asserted to vanish exactly.
    """
    _check_ell(ell)
    p.require_c_non_integer()
    if p.b != 1:
        raise ParameterError(f"this reduction requires b = 1, got b = {p.b}")
    if order is None:
        order = ell + 32
    if order < ell + 16:
        raise ParameterError(f"series order {order} too small; need >= ell + 16")
    a, c = p.a, p.c
    tpoly = TruncatedSeries.from_poly(
        terminating_poly(HypParams(1 - a, -ell, 2 - c)), order
    )
    one_minus_c = 1 - c

    q0_series = binomial_series(c - a - 1, order) * hyp_series(
        HypParams(c - a, c - 1 - ell, c), order
    )
    q0_series = q0_series.scale(-poch(1, ell) / one_minus_c)
    q0_series = q0_series + (hyp_series(HypParams(a, 1, c), order) * tpoly).scale(
        poch(2 - c, ell) / one_minus_c
    )

    r0_series = (
        hyp_series(HypParams(c - a, c - 1 - ell, c), order)
        * hyp_series(HypParams(a + 1 - c, 2 - c, 1 - c), order)
    ).scale(poch(1, ell))
    r0_series = r0_series + (
        hyp_series(HypParams(a + 1, 2, c + 1), order) * tpoly
    ).shift_up(1).scale(-a * poch(2 - c, ell) / (c * one_minus_c))

    return QRPair(
        _extract_poly(q0_series, ell, "q0 series combination"),
        _extract_poly(r0_series, ell, "r0 series combination"),
        ell,
    )


def q0_r0_general_b(p: HypParams, ell: int, order: int | None = None) -> QRPair:
    """q0, r0 for general b, from

        q0 = -(b,l)/(1-c) F(c-a, c-b-l, c; x) F(a+1-c, b+1-c, 2-c; x)
             + (b+1-c,l)/(1-c) F(a, b, c; x) F(1-a, 1-b-l, 2-c; x)
        r0 = (b,l) F(c-a, c-b-l, c; x) F(a+1-c, b+1-c, 1-c; x)
             - ab (b+1-c,l)/(c(1-c)) x F(a+1, b+1, c+1; x) F(1-a, 1-b-l, 2-c; x)

    For b = 1 this agrees exactly with ``q0_r0_by_series``: the two-series
    form of the first term turns into the (1-x)-power form under the Euler
    transformation, since F(a+1-c, 2-c, 2-c; x) = (1-x)^(c-a-1).
    """
    _check_ell(ell)
    p.require_c_non_integer()
    if order is None:
        order = ell + 32
    if order < ell + 16:
        raise ParameterError(f"series order {order} too small; need >= ell + 16")
    a, b, c = p.a, p.b, p.c
    one_minus_c = 1 - c

    f1 = hyp_series(HypParams(c - a, c - b - ell, c), order)
    f4 = hyp_series(HypParams(1 - a, 1 - b - ell, 2 - c), order)

    q0_series = (f1 * hyp_series(HypParams(a + 1 - c, b + 1 - c, 2 - c), order)).scale(
        -poch(b, ell) / one_minus_c
    )
    q0_series = q0_series + (hyp_series(HypParams(a, b, c), order) * f4).scale(
        poch(b + 1 - c, ell) / one_minus_c
    )

    r0_series = (f1 * hyp_series(HypParams(a + 1 - c, b + 1 - c, 1 - c), order)).scale(
        poch(b, ell)
    )
    r0_series = r0_series + (
        hyp_series(HypParams(a + 1, b + 1, c + 1), order) * f4
    ).shift_up(1).scale(-a * b * poch(b + 1 - c, ell) / (c * one_minus_c))

    return QRPair(
        _extract_poly(q0_series, ell, "general-b q0 series combination"),
        _extract_poly(r0_series, ell, "general-b r0 series combination"),
        ell,
    )


def q0_by_reversal(p: HypParams, ell: int) -> Poly:
    """q0 via the reversed expansion, valid only for a not an integer:

        q0(x) = (2-a, l-1) (-x)^(l-1) * [partial sum through (1/x)^(l-1) of
                F(2-c, 1, 2-a; 1/x) F(c-1-l, -l, a-l; 1/x)]

    The partial sum in u = 1/x becomes a polynomial in x by reversing the
    coefficient order; the leading coefficient is (2-a, l-1) times the
    constant term 1, hence nonzero, so the degree is exactly l-1.
    """
    _check_ell(ell)
    p.require_c_non_integer()
    if p.b != 1:
        raise ParameterError(f"the reversal form requires b = 1, got b = {p.b}")
    if is_integer(p.a):
        raise ParameterError(f"reversal form needs a not an integer, got a = {p.a}")
    a, c = p.a, p.c
    # Series in u = 1/x; TruncatedSeries is reused with its variable
    # reinterpreted, and only the head through u^(l-1) is needed.
    u_order = ell - 1
    prod = hyp_series(HypParams(2 - c, 1, 2 - a), u_order) * hyp_series(
        HypParams(c - 1 - ell, -ell, a - ell), u_order
    )
    scale = poch(2 - a, ell - 1) * (-1) ** (ell - 1)
    return Poly([scale * prod.coefficient(ell - 1 - j) for j in range(ell)])
