"""Gauss hypergeometric series and the reduced-remainder polynomials.

The central objects are the two polynomials q0(x), r0(x) of degree at most
ell-1 that encode the order-ell contiguity reduction of F(a, b, c; x).
They are computed here, for every b, from one pair of explicit
two-series combinations (at b = 1 they are the paper's theorem) whose
tails must cancel identically; the cancellation is asserted coefficient by
coefficient, which doubles as the strongest internal correctness check the
series engine has.  Two independent routes must agree exactly: the
operator remainder recurrence in ``operators`` and, for b = 1 and a not an
integer, the reversed expansion ``q0_by_reversal``.

Every series is held as ``_hyp_poly`` gives it: canonical integer
numerators over one denominator.  The series route convolves these integer
vectors (``poly._convolve``), forms each combination over one common
denominator with the Pochhammer factors as integer multipliers, asserts the
tail on those integers, and canonicalises only the polynomial it returns;
the reversal route convolves its two series the same way and reverses the
head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import InternalInconsistencyError, ParameterError
from .poly import Poly, _convolve
from .scalars import (
    is_integer,
    is_nonpos_integer,
    nonnegative_int,
    over_common_denominator,
    poch,
    positive_int,
    rational,
)
from .series import TruncatedSeries


@dataclass(frozen=True)
class HypParams:
    """Parameter triple (a, b, c) of F(a, b, c; x), exact rationals: each
    is an int or Fraction (``scalars.rational``), and a float raises
    ``ParameterError``."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __init__(self, a, b, c):
        object.__setattr__(self, "a", rational(a, "a"))
        object.__setattr__(self, "b", rational(b, "b"))
        object.__setattr__(self, "c", rational(c, "c"))

    def require_c_non_integer(self) -> "HypParams":
        """This triple, when c is not an integer, else ``ParameterError``."""
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
    return positive_int(ell, "contiguity order")


def _hyp_poly(p: HypParams, order: int) -> Poly:
    """F(a, b, c; x) through x^order, as its canonical integer numerators
    over one denominator.

    Coefficients follow c_{n+1} = c_n (a+n)(b+n) / ((c+n)(n+1)).  If a or b
    is a nonpositive integer the series terminates and the trailing
    coefficients are exactly zero.  The sum stops at the first vanishing
    upper factor before it tests c + n, so only a pole of c met before
    termination is a parameter error (DLMF 15.2(ii)).
    """
    nonnegative_int(order, "series order")
    # Over the common denominator d of a, b, c (a = A/d, ...) the ratio is
    # ups[n] / downs[n] = (A + n d)(B + n d) / ((C + n d)(n + 1) d), all
    # integers; over prod(downs), c_k has numerator prod(ups[:k]) *
    # prod(downs[k:]), a prefix times a suffix product.
    (A, B, C), d = over_common_denominator(p.a, p.b, p.c)
    ups, downs = [], []
    for n in range(order):
        up = (A + n * d) * (B + n * d)
        if not up:
            break
        if C + n * d == 0:
            raise ParameterError(
                f"lower parameter pole: c = {p.c} reaches zero at term {n + 1}"
            )
        ups.append(up)
        downs.append((C + n * d) * (n + 1) * d)
    prefix = accumulate(ups, mul, initial=1)
    suffix = list(accumulate(reversed(downs), mul, initial=1))[::-1]
    return Poly.from_numerators([u * v for u, v in zip(prefix, suffix)], suffix[0])


def hyp_series(p: HypParams, order: int) -> TruncatedSeries:
    """Series of F(a, b, c; x) through x^order, by ``_hyp_poly``'s rules."""
    return TruncatedSeries.from_poly(_hyp_poly(p, order), order)


def binomial_series(alpha, order: int) -> TruncatedSeries:
    """Expansion of (1-x)^alpha through x^order: F(-alpha, 1; 1; x)
    (DLMF 15.4.6), so c_(n+1) = c_n (n - alpha)/(n + 1), and the sum stops
    where ``_hyp_poly`` stops it, when alpha is a nonnegative integer below
    order."""
    return hyp_series(HypParams(-rational(alpha, "alpha"), 1, 1), order)


def terminating_poly(p: HypParams) -> Poly:
    """Exact polynomial F(a, -m, c; x) for nonpositive-integer b = -m.

    The degree is at most m, and exactly m iff (a, m) != 0.  The sum stops
    where a or b ends it, and a pole of c is ``_hyp_poly``'s rule, so
    F(-1, -3, -1; x) = F(-3, -1, -1; x) = 1 - 3x.
    """
    if not is_nonpos_integer(p.b):
        raise ParameterError(f"second parameter {p.b} is not a nonpositive integer")
    return _hyp_poly(p, -int(p.b))


def euler_transform_series(p: HypParams, order: int) -> TruncatedSeries:
    """Series of (1-x)^(c-a-b) F(c-a, c-b, c; x), the transformed side of
    F(a, b, c; x) = (1-x)^(c-a-b) F(c-a, c-b, c; x)."""
    a, b, c = p.a, p.b, p.c
    return binomial_series(c - a - b, order) * hyp_series(
        HypParams(c - a, c - b, c), order
    )


def _extract_poly(p, ell: int, what: str, order: int | None = None) -> Poly:
    """Assert every coefficient of the polynomial ``p`` from x^ell through
    x^order vanishes, that is its degree is below ell, and return it; a
    ``TruncatedSeries`` ``p`` gives its polynomial and order."""
    if order is None:
        p, order = p.poly, p.order
    d = p.degree
    if d is not None and d >= ell:
        raise InternalInconsistencyError(
            f"{what}: coefficient of x^{d} is {p.leading_coefficient()}, "
            f"expected exact 0 (tail must vanish through x^{order})"
        )
    return p


def series_order(ell: int) -> int:
    """The series truncation order of the q0/r0 routes by default, and of
    every report: ell + 32, sixteen terms past the ell + 16 they need."""
    return ell + 32


def q0_r0_by_series(p: HypParams, ell: int, order: int | None = None) -> QRPair:
    """q0, r0 of the order-ell reduction of F(a, b, c; x), from the explicit
    series combinations

        q0 = -(b,l)/(1-c) F(c-a, c-b-l, c; x) F(a+1-c, b+1-c, 2-c; x)
             + (b+1-c,l)/(1-c) F(a, b, c; x) F(1-a, 1-b-l, 2-c; x)
        r0 = (b,l) F(c-a, c-b-l, c; x) F(a+1-c, b+1-c, 1-c; x)
             - ab (b+1-c,l)/(c(1-c)) x F(a+1, b+1, c+1; x) F(1-a, 1-b-l, 2-c; x)

    At b = 1 these are the paper's theorem, since
    F(a+1-c, 2-c, 2-c; x) = (1-x)^(c-a-1) and F(1-a, -l, 2-c; x) is the
    terminating polynomial.  Both right-hand sides are polynomials of
    degree <= ell-1; every computed coefficient past that is asserted to
    vanish exactly.
    """
    _check_ell(ell)
    p.require_c_non_integer()
    if order is None:
        order = series_order(ell)
    if order < ell + 16:
        raise ParameterError(f"series order {order} too small; need >= ell + 16")
    a, b, c = p.a, p.b, p.c
    one_minus_c = 1 - c
    pb, pbc = poch(b, ell), poch(b + 1 - c, ell)

    f1 = _hyp_poly(HypParams(c - a, c - b - ell, c), order)
    f4 = _hyp_poly(HypParams(1 - a, 1 - b - ell, 2 - c), order)
    g2 = _hyp_poly(HypParams(a + 1 - c, b + 1 - c, 2 - c), order)
    f3 = _hyp_poly(HypParams(a, b, c), order)
    g5 = _hyp_poly(HypParams(a + 1 - c, b + 1 - c, 1 - c), order)
    f6 = _hyp_poly(HypParams(a + 1, b + 1, c + 1), order)

    q0 = _combination(
        -pb / one_minus_c, _product(f1, g2, order),
        pbc / one_minus_c, _product(f3, f4, order),
        order, ell, "q0 series combination",
    )
    r0 = _combination(
        pb, _product(f1, g5, order),
        -a * b * pbc / (c * one_minus_c), _product(f6, f4, order, 1),
        order, ell, "r0 series combination",
    )
    return QRPair(q0, r0, ell)


def _product(f: Poly, g: Poly, order: int, shift: int = 0) -> tuple:
    """x^shift f g through x^order: its integer numerators, uncancelled,
    over f.den g.den."""
    return [0] * shift + _convolve(f.nums, g.nums, order - shift), f.den * g.den


def _combination(s: Fraction, fg: tuple, t: Fraction, uv: tuple, order: int,
                 ell: int, what: str) -> Poly:
    """s fg + t uv for two ``_product``s, formed on integers over one
    denominator and canonicalised once, after ``_extract_poly`` has found
    every coefficient from x^ell through x^order exactly 0 (the trailing
    zeros are trimmed before any gcd is taken)."""
    (p, dp), (q, dq) = fg, uv
    dp, dq = s.denominator * dp, t.denominator * dq
    den = math.lcm(dp, dq)
    m, n = s.numerator * (den // dp), t.numerator * (den // dq)
    combo = Poly.from_numerators([m * x + n * y for x, y in zip(p, q)], den)
    return _extract_poly(combo, ell, what, order)


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
    # The two series in u = 1/x as integer numerators, convolved through
    # u^(l-1); x^j takes the coefficient of u^(l-1-j), and the scale joins
    # the one denominator.
    f = _hyp_poly(HypParams(2 - c, 1, 2 - a), ell - 1)
    g = _hyp_poly(HypParams(c - 1 - ell, -ell, a - ell), ell - 1)
    scale = poch(2 - a, ell - 1) * (-1) ** (ell - 1)
    head = _convolve(f.nums, g.nums, ell - 1)
    return Poly.from_numerators(
        [scale.numerator * x for x in reversed(head)], scale.denominator * f.den * g.den
    )
