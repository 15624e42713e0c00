"""Exact truncated power series in x, plus x^mu (1-x)^nu carriers.

A ``TruncatedSeries`` of order N knows coefficients c_0..c_N and nothing
else: arithmetic never reads or invents coefficients past the order, and
every operation reports the honest order of its result (shifting by x^k
raises it, differentiation lowers it, binary operations take the minimum).
The coefficients are stored as integer numerators over one positive
denominator in lowest terms, so a product is an integer convolution, sums
and scalings work over a common denominator, and a vanishing coefficient
is an integer equal to 0; ``coeffs`` and ``coefficient`` hand out
Fractions.

``GenSeries`` wraps a series with a prefactor x^mu (1-x)^nu carrying exact
rational exponents, which is how objects like x^(1-c) (1-x)^(c-a-1) enter
operator computations without leaving exact arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import InternalInconsistencyError
from .poly import Poly


class TruncatedSeries:
    """Power series known exactly through x^order.

    Stored as integer numerators ``nums`` (one per coefficient) over one
    positive denominator ``den`` with gcd(den, *nums) = 1, so equal values
    have equal fields and products are integer convolutions.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, coeffs: Iterable, order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("series order must be >= 0")
        del cs[order + 1 :]
        # den = lcm of the reduced denominators is already in lowest terms
        den = math.lcm(*(c.denominator for c in cs)) if cs else 1
        nums = [c.numerator * (den // c.denominator) for c in cs]
        nums.extend([0] * (order + 1 - len(nums)))
        self.order, self.nums, self.den = order, tuple(nums), den

    @classmethod
    def _of(cls, nums: list, den: int, order: int) -> "TruncatedSeries":
        """nums / den (len(nums) == order + 1, den != 0), put in lowest terms."""
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
        s = object.__new__(cls)
        s.order, s.nums, s.den = order, tuple(nums), den
        return s

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,), order)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "TruncatedSeries":
        return cls(p.coeffs, order)

    @classmethod
    def from_ratios(cls, ups: list, downs: list, order: int) -> "TruncatedSeries":
        """The series with c_0 = 1 and c_(n+1) = c_n ups[n] / downs[n].

        Every downs[n] is a nonzero int and coefficients past len(ups) are
        zero, so a terminating caller stops both lists at the vanishing
        upper factor.  Over the common denominator prod(downs), c_k has
        numerator prod(ups[:k]) * prod(downs[k:]): prefix products of the
        upper factors times suffix products of the lower ones.
        """
        steps = len(ups)
        suffix = [1] * (steps + 1)
        for n in range(steps - 1, -1, -1):
            suffix[n] = downs[n] * suffix[n + 1]
        nums = [0] * (order + 1)
        prefix = 1
        for k in range(steps + 1):
            nums[k] = prefix * suffix[k]
            if k < steps:
                prefix *= ups[k]
        return cls._of(nums, suffix[0], order)

    @property
    def coeffs(self) -> tuple:
        """The coefficients c_0..c_order as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    def coefficient(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient {i} beyond truncation order {self.order}")
        return Fraction(self.nums[i], self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return TruncatedSeries._of(self.nums[: order + 1], self.den, order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return TruncatedSeries._of(
            [fa * x + fb * y for x, y in zip(self.nums[: n + 1], other.nums)], den, n
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._of([-x for x in self.nums], self.den, self.order)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        n = min(self.order, other.order)
        return TruncatedSeries._of(
            _convolve(self.nums, other.nums, n), self.den * other.den, n
        )

    __rmul__ = __mul__

    def scale(self, s) -> "TruncatedSeries":
        s = Fraction(s)
        return TruncatedSeries._of(
            [s.numerator * x for x in self.nums], s.denominator * self.den, self.order
        )

    def mul_poly(self, p: Poly) -> "TruncatedSeries":
        """Multiply by an exact polynomial.

        The result is known through order + v where v is p's valuation at
        zero (a polynomial with p(0) != 0 contributes full knowledge at
        every order; a factor x^v shifts knowledge up by v).
        """
        if p.is_zero():
            return TruncatedSeries.zero(self.order)
        n = self.order + p.valuation_at_zero()
        pden = math.lcm(*(c.denominator for c in p.coeffs))
        pnums = [c.numerator * (pden // c.denominator) for c in p.coeffs]
        return TruncatedSeries._of(
            _convolve(pnums, self.nums, n), pden * self.den, n
        )

    def shift_up(self, k: int) -> "TruncatedSeries":
        """Multiply by x^k; knowledge extends to order + k."""
        if k < 0:
            raise ValueError("negative shift; use shift_down")
        if k == 0:
            return self
        return TruncatedSeries._of((0,) * k + self.nums, self.den, self.order + k)

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by x^k; requires the low k coefficients to vanish."""
        if k == 0:
            return self
        if k > self.order:
            raise ValueError("shift below constant term")
        if any(self.nums[:k]):
            raise InternalInconsistencyError("series not divisible by x^k")
        return TruncatedSeries._of(self.nums[k:], self.den, self.order - k)

    def derivative(self) -> "TruncatedSeries":
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries._of(
            [i * self.nums[i] for i in range(1, self.order + 1)],
            self.den,
            self.order - 1,
        )

    def matches(self, other: "TruncatedSeries", through: int | None = None) -> bool:
        """Coefficientwise equality through min(orders, through)."""
        n = min(self.order, other.order)
        if through is not None:
            n = min(n, through)
        da, db = self.den, other.den
        return all(
            x * db == y * da for x, y in zip(self.nums[: n + 1], other.nums[: n + 1])
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.order, self.den, self.nums) == (other.order, other.den, other.nums)

    def __hash__(self):
        return hash(("TruncatedSeries", self.order, self.den, self.nums))

    def __str__(self) -> str:
        head = str(Poly(self.coeffs[: min(self.order, 6) + 1]))
        return f"{head} + O(x^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self})"


def _convolve(a, b, n: int) -> list:
    """Coefficients 0..n of the product of the integer vectors a and b."""
    out = [0] * (n + 1)
    b = b[: n + 1]
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i], i):
                out[j] += x * y
    return out


def binomial_series(alpha, order: int) -> TruncatedSeries:
    """Expansion of (1-x)^alpha: c_0 = 1, c_{n+1} = c_n (n - alpha)/(n + 1).

    With alpha = p/q the ratio is (n q - p) / ((n + 1) q); it stops at the
    first vanishing factor, when alpha is a nonnegative integer below order.
    """
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    ups, downs = [], []
    for n in range(order):
        ups.append(n * q - p)
        downs.append((n + 1) * q)
        if not ups[-1]:
            break
    return TruncatedSeries.from_ratios(ups, downs, order)


class GenSeries:
    """x^mu (1-x)^nu times a truncated series, exponents exact rationals.

    The canonical form pulls every factor of x out of the body, so a
    normalized nonzero body has nonzero constant coefficient and equal
    values have identical normal forms (up to truncation order).  The
    body's constant term may be zero only transiently, between operations.
    """

    __slots__ = ("mu", "nu", "body")

    def __init__(self, mu, nu, body: TruncatedSeries):
        self.mu = Fraction(mu)
        self.nu = Fraction(nu)
        self.body = body

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def normalized(self) -> "GenSeries":
        if self.is_zero():
            return GenSeries(0, 0, self.body)
        v = 0
        while self.body.nums[v] == 0:
            v += 1
        if v == 0:
            return self
        return GenSeries(self.mu + v, self.nu, self.body.shift_down(v))

    def scale(self, s) -> "GenSeries":
        return GenSeries(self.mu, self.nu, self.body.scale(s))

    def mul_poly(self, p: Poly) -> "GenSeries":
        return GenSeries(self.mu, self.nu, self.body.mul_poly(p))

    def deriv(self) -> "GenSeries":
        """d/dx of x^mu (1-x)^nu f = x^(mu-1) (1-x)^(nu-1) *
        [mu (1-x) f - nu x f + x (1-x) f']."""
        f = self.body
        bracket = f.mul_poly(Poly((1, -1))).scale(self.mu)
        bracket = bracket + f.shift_up(1).scale(-self.nu)
        if f.order >= 1:
            bracket = bracket + f.derivative().mul_poly(Poly((0, 1, -1)))
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
        a = self.body.shift_up(int(self.mu - mu))
        b = other.body.shift_up(int(other.mu - mu))
        if self.nu != nu:
            a = a.mul_poly(Poly((1, -1)) ** int(self.nu - nu))
        if other.nu != nu:
            b = b.mul_poly(Poly((1, -1)) ** int(other.nu - nu))
        return GenSeries(mu, nu, a + b)

    def __sub__(self, other: "GenSeries") -> "GenSeries":
        return self + other.scale(-1)

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
            a = GenSeries(a.mu, b.nu, a.body.mul_poly(Poly((1, -1)) ** int(dnu)))
        elif dnu < 0:
            b = GenSeries(b.mu, a.nu, b.body.mul_poly(Poly((1, -1)) ** int(-dnu)))
        return a.body.matches(b.body, through)

    def __str__(self) -> str:
        return f"x^({self.mu}) * (1-x)^({self.nu}) * [{self.body}]"

    def __repr__(self) -> str:
        return f"GenSeries({self})"
