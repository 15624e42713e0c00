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

Where a 2F1 sum ends is stated once, by ``series_end`` on the integer
numerators of its parameters over one denominator: at the first vanishing
upper factor, with a pole of c met before that end a ``ParameterError``.
The exact series here and every map of the numeric engine
(``numeric.hyp2f1_num``) read it.
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


def vanishes_at(x: int, d: int):
    """The index k >= 0 at which the factor (x/d + k), d > 0, is zero, when
    x/d is a nonpositive integer, else None."""
    return -x // d if x <= 0 and not x % d else None


def series_end(A: int, B: int, C: int, d: int, order: int | None = None):
    """Where the sum F(A/d, B/d, C/d; x), d > 0, ends: the first index k
    with (a+k)(b+k) = 0, after which every coefficient is zero, or None.

    This is the one statement of the termination and pole rules
    (DLMF 15.2(ii)): the coefficient of x^(k+1) divides by c + k, so a
    pole c + k = 0 met before the sum ends, and before ``order`` when one
    is given, raises ``ParameterError``; one at or past the end is never
    reached."""
    ka, kb, kc = vanishes_at(A, d), vanishes_at(B, d), vanishes_at(C, d)
    end = kb if ka is None or kb is not None and kb < ka else ka
    if kc is not None and (end is None or kc < end) and (order is None or kc < order):
        raise ParameterError(
            f"lower parameter c = {Fraction(C, d)} is a nonpositive integer "
            "and the series does not terminate before the pole"
        )
    return end


def _hyp_poly(p: HypParams, order: int) -> Poly:
    """F(a, b, c; x) through x^order, as its canonical integer numerators
    over one denominator.

    Coefficients follow c_(k+1) = c_k (a+k)(b+k) / ((c+k)(k+1)).  The sum
    ends where ``series_end`` ends it, so the coefficients past a
    vanishing upper factor are exactly zero, and only a pole of c met
    before that end is a parameter error.
    """
    nonnegative_int(order, "series order")
    # Over the common denominator d of a, b, c (a = A/d, ...) the ratio is
    # ups[k] / downs[k] = (A + k d)(B + k d) / ((C + k d)(k + 1) d), all
    # integers, none of the n downs zero; over prod(downs), c_k has
    # numerator prod(ups[:k]) * prod(downs[k:]), a prefix times a suffix
    # product.
    (A, B, C), d = over_common_denominator(p.a, p.b, p.c)
    end = series_end(A, B, C, d, order)
    n = order if end is None else min(end, order)
    ups = [(A + k * d) * (B + k * d) for k in range(n)]
    downs = [(C + k * d) * (k + 1) * d for k in range(n)]
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
    """Exact polynomial F(a, b, c; x) when a or b is a nonpositive integer,
    in either slot.

    The sum ends at the first k with (a+k)(b+k) = 0 (``series_end``), so
    the degree is at most k, and a pole of c met before that end raises
    ``ParameterError``: F(-1, -3, -1; x) = F(-3, -1, -1; x) = 1 - 3x.
    """
    (A, B, C), d = over_common_denominator(p.a, p.b, p.c)
    end = series_end(A, B, C, d)
    if end is None:
        raise ParameterError(f"neither upper parameter {p.a}, {p.b} is a nonpositive integer")
    return _hyp_poly(p, end)


def theorem_poly(a, c, ell: int) -> Poly:
    """The paper's terminating polynomial F(1-a, -ell, 2-c; x), whose
    roots are where both identities are checked, for a positive integer
    ell (``_check_ell``)."""
    return terminating_poly(HypParams(1 - a, -_check_ell(ell), 2 - c))


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
