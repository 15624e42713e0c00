"""Dense univariate polynomials over the rationals, and the rational
functions with poles only at x = 0 and x = 1 that operator coefficients need.

``Poly`` stores integer numerators ``nums`` by ascending degree over one
denominator ``den > 0`` with gcd(den, *nums) = 1 and no trailing zero, so
equal values have equal fields, a product is an integer convolution and
division and gcd are pseudo-division on the numerators.  Zero is
``nums == ()``, ``den == 1``, with ``degree is None`` (a sentinel rather
than -1, so degree arithmetic cannot treat zero as an ordinary
polynomial); ``coeffs`` hands out Fractions.  ``RatFunc`` stores
P / (x^i (1-x)^j) as the tuple (P, i, j), and any other denominator is
refused at construction.  Its x and 1-x factors never go through general
division: ``exponent_split`` reads the power of x from the leading zero
numerators, finds a factor 1-x exactly when the numerators sum to 0 and
divides it out by prefix sums, and ``Poly.mul_factors`` restores
x^s (1-x)^k by s leading zeros and k rounds of differences; so a
``RatFunc`` never divides polynomials or takes their gcd.  Both are
immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterable

from .errors import InternalInconsistencyError, UnsupportedOperatorError
from .scalars import format_rational, rational


class Poly:
    """Polynomial in x, integer numerators ``nums`` over ``den``.  The
    coefficients given to the constructor are ints or Fractions
    (``scalars.rational``); a float is a ``ParameterError``."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = ()):
        cs = [rational(c, "polynomial coefficient") for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self.nums, self.den = _canonical(
            [c.numerator * (den // c.denominator) for c in cs], den
        )

    @classmethod
    def from_numerators(cls, nums, den: int) -> "Poly":
        """The polynomial with coefficients nums[i] / den (den != 0)."""
        p = object.__new__(cls)
        p.nums, p.den = _canonical(nums, den)
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple:
        """The coefficients by ascending degree, as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else None

    def is_zero(self) -> bool:
        return not self.nums

    def leading_coefficient(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def coefficient(self, i: int) -> Fraction:
        inside = 0 <= i < len(self.nums)
        return Fraction(self.nums[i] if inside else 0, self.den)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.nums, self.den))

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        den = math.lcm(self.den, other.den)
        a, fa = self.nums, den // self.den
        b, fb = other.nums, den // other.den
        if len(a) < len(b):
            a, fa, b, fb = b, fb, a, fa
        out = [fa * x for x in a]
        for i, y in enumerate(b):
            out[i] += fb * y
        return Poly.from_numerators(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly.from_numerators([-x for x in self.nums], self.den)

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return Poly.from_numerators(
                [s.numerator * x for x in self.nums], s.denominator * self.den
            )
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        return self.mul_trunc(other, len(self.nums) + len(other.nums) - 2)

    __rmul__ = __mul__

    def mul_trunc(self, other: "Poly", n: int) -> "Poly":
        """The product with ``other`` cut after x^n; only coefficients 0..n
        are convolved."""
        return Poly.from_numerators(
            _convolve(self.nums, other.nums, n), self.den * other.den
        )

    def truncate(self, n: int) -> "Poly":
        """The coefficients through x^n."""
        return Poly.from_numerators(self.nums[: n + 1], self.den)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other: "Poly"):
        """(q, r) with self = q other + r and deg r < deg other: for
        self = A / da, other = B / db and s A = Q B + R on integers,
        q = Q db / (s da) and r = R / (s da)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem, s = _pseudo_divmod(self.nums, other.nums)
        den = s * self.den
        return (
            Poly.from_numerators([other.den * x for x in quot], den),
            Poly.from_numerators(rem, den),
        )

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise InternalInconsistencyError(
                f"inexact polynomial division: {self} by {other}"
            )
        return q

    def derivative(self) -> "Poly":
        return Poly.from_numerators(
            [i * x for i, x in enumerate(self.nums)][1:], self.den
        )

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd by the Euclidean algorithm on integer numerators, each
        pseudo-remainder divided by its content (what ``_canonical`` leaves
        of a zero denominator); gcd(0, 0) = 0."""
        a, b = self.nums, _canonical(other.nums, 0)[0]
        while b:
            a, b = b, _canonical(_pseudo_divmod(a, b)[1], 0)[0]
        return Poly.from_numerators(a, a[-1] if a else 1)

    def valuation_at_zero(self) -> int:
        """Multiplicity of the root x = 0 (0 for nonzero constant term)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no finite valuation")
        return next(i for i, n in enumerate(self.nums) if n)

    def __call__(self, x):
        """Horner evaluation on the numerators, then one division by den; x
        may be any ring element that mixes with Fraction."""
        out = 0 * x
        for n in reversed(self.nums):
            out = out * x + n
        return out * Fraction(1, self.den)

    def mul_factors(self, s: int, k: int) -> "Poly":
        """x^s (1-x)^k times self: k rounds of differences of the
        numerators, n_i - n_(i-1), then s leading zeros."""
        if s < 0 or k < 0:
            raise ValueError("negative power of x or 1-x; use exponent_split")
        nums = self.nums
        for _ in range(k):
            nums = [a - b for a, b in zip(chain(nums, (0,)), chain((0,), nums))]
        return Poly.from_numerators([0] * s + list(nums), self.den)

    def shift_down(self, k: int) -> "Poly":
        """Divide by x^k; requires the low k coefficients to vanish."""
        if any(self.nums[:k]):
            raise InternalInconsistencyError(f"{self} not divisible by x^{k}")
        return Poly.from_numerators(self.nums[k:], self.den)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = format_rational(c)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    term = xpow
                elif c == -1:
                    term = f"-{xpow}"
                else:
                    term = f"{format_rational(c)}*{xpow}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


def _canonical(nums, den: int):
    """(nums, den) with trailing zeros trimmed and gcd(den, *nums) divided
    out, den > 0; den = 0 divides the numerators by their content."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    g = math.gcd(den, *nums[:end]) or 1
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums[:end]), den
    return tuple([n // g for n in nums[:end]]), den // g


def _convolve(a, b, n: int) -> list:
    """Coefficients 0..n of the product of the integer vectors a and b."""
    out = [0] * (n + 1)
    b = b[: n + 1]
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i], i):
                out[j] += x * y
    return out


def _pseudo_divmod(a, b):
    """(q, r, s) with s a = q b + r and len(r) < len(b) for integer vectors,
    b trimmed and nonzero; s > 0 gathers only the part of lead(b) each
    cancellation needs, so lead(b) = +-1 gives s = 1."""
    m, lead = len(b), b[-1]
    rem = list(a)
    quot = [0] * (len(rem) - m + 1)
    s = 1
    for i in range(len(rem) - m, -1, -1):
        t = rem[i + m - 1]
        g = math.gcd(t, lead)
        if lead < 0:
            g = -g
        f, u = lead // g, t // g  # f t = lead u, f > 0
        if f != 1:
            s *= f
            rem = [f * x for x in rem]
            quot = [f * x for x in quot]
        quot[i] = u
        for j in range(m - 1):
            rem[i + j] -= u * b[j]
    return quot, rem[: m - 1], s


ONE_MINUS_X = Poly((1, -1))


def exponent_split(p: Poly, i=math.inf, j=math.inf):
    """Write a nonzero ``p`` as x^s (1-x)^t rest with s <= i, t <= j and,
    short of a bound, rest(0) rest(1) != 0.

    Returns (s, t, rest), on the numerators: s counts the leading zeros, a
    factor 1-x is there when the numerators sum to 0 (rest(1) = 0), and
    rest / (1-x) has the prefix sums as numerators, over the same
    denominator.  Unbounded, ``rest`` has degree 0 exactly when p has no
    irreducible factor besides x and 1-x."""
    s = min(p.valuation_at_zero(), i)
    rest, t = p.nums[s:], 0
    while t < j and not sum(rest):
        rest, t = list(accumulate(rest))[:-1], t + 1
    return s, t, Poly.from_numerators(rest, p.den) if s or t else p


class RatFunc:
    """poly / (x^i (1-x)^j), the only coefficient shape operators need.

    Normal form: poly(0) != 0 when i > 0, poly(1) != 0 when j > 0, and
    zero is (0, 0, 0), so equal functions have equal tuples.  Every
    operation keeps it with ``exponent_split`` bounded by (i, j), which
    strips common factors off the numerators, and ``Poly.mul_factors``,
    which lifts a numerator to larger exponents; neither divides.
    """

    __slots__ = ("poly", "i", "j")

    def __init__(self, num, den=None):
        """num / den for a scalar or Poly num and a den of the form
        k x^i (1-x)^j; any other denominator raises
        UnsupportedOperatorError."""
        if not isinstance(num, Poly):
            num = Poly((num,))
        i = j = 0
        if den is not None:
            if not isinstance(den, Poly):
                den = Poly((den,))
            if den.is_zero():
                raise ZeroDivisionError("rational function with zero denominator")
            i, j, rest = exponent_split(den)
            if rest.degree:
                raise UnsupportedOperatorError(
                    f"denominator {den} is not of the form k x^i (1-x)^j"
                )
            num = num * (1 / rest.coeffs[0])
        self.poly, self.i, self.j = _normal_form(num, i, j)

    @classmethod
    def _of(cls, poly: Poly, i: int, j: int) -> "RatFunc":
        f = object.__new__(cls)
        f.poly, f.i, f.j = _normal_form(poly, i, j)
        return f

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(Poly.zero())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(Poly.one())

    @property
    def num(self) -> Poly:
        """Numerator over the monic denominator ``den``."""
        return -self.poly if self.j % 2 else self.poly

    @property
    def den(self) -> Poly:
        """The monic denominator x^i (x-1)^j."""
        return Poly(((-1) ** self.j,)).mul_factors(self.i, self.j)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.poly, self.i, self.j) == (other.poly, other.i, other.j)

    def __hash__(self):
        return hash(("RatFunc", self.poly, self.i, self.j))

    def _lift(self, i: int, j: int) -> Poly:
        """The numerator over x^i (1-x)^j, for i >= self.i and j >= self.j."""
        return self.poly.mul_factors(i - self.i, j - self.j)

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        i, j = max(self.i, other.i), max(self.j, other.j)
        return RatFunc._of(self._lift(i, j) + other._lift(i, j), i, j)

    def __neg__(self):
        return RatFunc._of(-self.poly, self.i, self.j)

    def __sub__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc._of(
            self.poly * other.poly, self.i + other.i, self.j + other.j
        )

    def derivative(self) -> "RatFunc":
        """(x(1-x) P' - (i - (i+j) x) P) / (x^(i+1) (1-x)^(j+1))."""
        i, j, p = self.i, self.j, self.poly
        return RatFunc._of(
            p.derivative().mul_factors(1, 1) - Poly((i, -(i + j))) * p, i + 1, j + 1
        )

    def __str__(self) -> str:
        if not (self.i or self.j):
            return str(self.poly)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _normal_form(poly: Poly, i: int, j: int):
    """Cancel the x and 1-x factors poly shares with x^i (1-x)^j."""
    if poly.is_zero():
        return poly, 0, 0
    s, t, rest = exponent_split(poly, i, j)
    return rest, i - s, j - t
