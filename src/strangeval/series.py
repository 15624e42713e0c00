"""Exact truncated power series in x, plus x^mu (1-x)^nu carriers.

A ``TruncatedSeries`` of order N knows coefficients c_0..c_N and nothing
else: arithmetic never reads or invents coefficients past the order, and
every operation reports the honest order of its result (shifting by x^k
raises it, differentiation lowers it, binary operations take the minimum).
It is a ``Poly`` of c_0..c_N plus the order, each operation the ``Poly``
one cut at the honest order (a product convolves only through it), so a
vanishing coefficient is an integer 0; ``coeffs`` hands out Fractions.

``GenSeries`` wraps a series with a prefactor x^mu (1-x)^nu carrying exact
rational exponents, which is how objects like x^(1-c) (1-x)^(c-a-1) enter
operator computations without leaving exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import InternalInconsistencyError
from .poly import Poly
from .scalars import nonnegative_int, rational


class TruncatedSeries:
    """Power series known exactly through x^order: the polynomial ``poly``
    of its coefficients c_0..c_order, so equal values have equal fields."""

    __slots__ = ("poly", "order")

    def __init__(self, coeffs: Iterable, order: int | None = None):
        cs = list(coeffs)
        if order is None:
            order = len(cs) - 1
        order = nonnegative_int(order, "series order")
        self.poly, self.order = Poly(cs[: order + 1]), order

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "TruncatedSeries":
        """p cut after x^order."""
        order = nonnegative_int(order, "series order")
        s = object.__new__(cls)
        s.poly = p if len(p.nums) <= order + 1 else p.truncate(order)
        s.order = order
        return s

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,), order)

    @property
    def coeffs(self) -> tuple:
        """The coefficients c_0..c_order as Fractions."""
        pad = self.order + 1 - len(self.poly.nums)
        return self.poly.coeffs + (Fraction(0),) * pad

    def coefficient(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient {i} beyond truncation order {self.order}")
        return self.poly.coefficient(i)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries.from_poly(self.poly, order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries.from_poly(
            self.poly + other.poly, min(self.order, other.order)
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries.from_poly(-self.poly, self.order)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        n = min(self.order, other.order)
        return TruncatedSeries.from_poly(self.poly.mul_trunc(other.poly, n), n)

    __rmul__ = __mul__

    def scale(self, s) -> "TruncatedSeries":
        return TruncatedSeries.from_poly(self.poly * Fraction(s), self.order)

    def mul_poly(self, p: Poly) -> "TruncatedSeries":
        """Multiply by an exact polynomial.

        The result is known through order + v where v is p's valuation at
        zero (a polynomial with p(0) != 0 contributes full knowledge at
        every order; a factor x^v shifts knowledge up by v).
        """
        n = self.order + (p.valuation_at_zero() if p else 0)
        return TruncatedSeries.from_poly(self.poly.mul_trunc(p, n), n)

    def mul_factors(self, s: int, k: int) -> "TruncatedSeries":
        """Multiply by x^s (1-x)^k (``Poly.mul_factors``); knowledge
        extends to order + s."""
        return TruncatedSeries.from_poly(self.poly.mul_factors(s, k), self.order + s)

    def shift_up(self, k: int) -> "TruncatedSeries":
        """Multiply by x^k; knowledge extends to order + k."""
        return self.mul_factors(k, 0)

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by x^k; requires the low k coefficients to vanish."""
        if k > self.order:
            raise ValueError("shift below constant term")
        return TruncatedSeries.from_poly(self.poly.shift_down(k), self.order - k)

    def derivative(self) -> "TruncatedSeries":
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries.from_poly(self.poly.derivative(), self.order - 1)

    def matches(self, other: "TruncatedSeries", through: int | None = None) -> bool:
        """Coefficientwise equality through min(orders, through)."""
        n = min(self.order, other.order)
        if through is not None:
            n = min(n, through)
        return self.poly.truncate(n) == other.poly.truncate(n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.poly == other.poly

    def __hash__(self):
        return hash(("TruncatedSeries", self.order, self.poly))

    def __str__(self) -> str:
        return f"{self.poly.truncate(6)} + O(x^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self})"


class GenSeries:
    """x^mu (1-x)^nu times a truncated series, exponents exact rationals
    (ints or Fractions, ``scalars.rational``; a float is a ``ParameterError``).

    The canonical form pulls every factor of x out of the body, so a
    normalized nonzero body has nonzero constant coefficient and equal
    values have identical normal forms (up to truncation order).  The
    body's constant term may be zero only transiently, between operations.
    """

    __slots__ = ("mu", "nu", "body")

    def __init__(self, mu, nu, body: TruncatedSeries):
        self.mu = rational(mu, "exponent mu")
        self.nu = rational(nu, "exponent nu")
        self.body = body

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def normalized(self) -> "GenSeries":
        if self.is_zero():
            return GenSeries(0, 0, self.body)
        v = self.body.poly.valuation_at_zero()
        if v == 0:
            return self
        return GenSeries(self.mu + v, self.nu, self.body.shift_down(v))

    def deriv(self) -> "GenSeries":
        """d/dx of x^mu (1-x)^nu f = x^(mu-1) (1-x)^(nu-1) *
        [mu (1-x) f - nu x f + x (1-x) f']."""
        f = self.body
        bracket = f.mul_factors(0, 1).scale(self.mu)
        bracket = bracket + f.shift_up(1).scale(-self.nu)
        if f.order >= 1:
            bracket = bracket + f.derivative().mul_factors(1, 1)
        return GenSeries(self.mu - 1, self.nu - 1, bracket)

    def __add__(self, other: "GenSeries") -> "GenSeries":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        dmu = self.mu - other.mu
        dnu = self.nu - other.nu
        if dmu.denominator != 1 or dnu.denominator != 1:
            raise InternalInconsistencyError(
                "cannot add generalized series with non-integer exponent gap"
            )
        mu, nu = min(self.mu, other.mu), min(self.nu, other.nu)
        a = self.body.mul_factors(int(self.mu - mu), int(self.nu - nu))
        b = other.body.mul_factors(int(other.mu - mu), int(other.nu - nu))
        return GenSeries(mu, nu, a + b)

    def matches(self, other: "GenSeries", through: int | None = None) -> bool:
        """Equality of values through the common truncation order.

        Normalization fixes mu; an integer gap in nu is absorbed by
        multiplying the higher-nu body with the matching (1-x) power.
        """
        a, b = self.normalized(), other.normalized()
        if a.is_zero() or b.is_zero():
            return a.is_zero() and b.is_zero()
        if a.mu != b.mu:
            return False
        dnu = a.nu - b.nu
        if dnu.denominator != 1:
            return False
        if dnu > 0:
            a = GenSeries(a.mu, b.nu, a.body.mul_factors(0, int(dnu)))
        elif dnu < 0:
            b = GenSeries(b.mu, a.nu, b.body.mul_factors(0, int(-dnu)))
        return a.body.matches(b.body, through)

    def __str__(self) -> str:
        return f"x^({self.mu}) * (1-x)^({self.nu}) * [{self.body}]"

    def __repr__(self) -> str:
        return f"GenSeries({self})"
