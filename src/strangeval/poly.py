"""Dense univariate polynomials over Fraction, and the rational functions
with poles only at x = 0 and x = 1 that operator coefficients need.

``Poly`` stores coefficients by ascending degree with the trailing zeros
trimmed; the zero polynomial has an empty tuple and ``degree is None``
(a sentinel rather than -1, so degree arithmetic cannot silently treat
zero as an ordinary polynomial).  ``RatFunc`` stores P / (x^i (1-x)^j) as
the tuple (P, i, j), cancelling common x and 1-x factors by exact
division, so its arithmetic never takes a gcd; any other denominator is
refused at construction.  Both are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import InternalInconsistencyError, UnsupportedOperatorError


class Poly:
    """Polynomial in x with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            (self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly((-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly((Fraction(other) * c for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

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
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlen = len(other.coeffs)
        lead = other.coeffs[-1]
        if len(rem) < dlen:
            return Poly.zero(), self
        quot = [Fraction(0)] * (len(rem) - dlen + 1)
        for i in range(len(rem) - dlen, -1, -1):
            factor = rem[i + dlen - 1] / lead
            quot[i] = factor
            if factor:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= factor * b
        return Poly(quot), Poly(rem[: dlen - 1])

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise InternalInconsistencyError(
                f"inexact polynomial division: {self} by {other}"
            )
        return q

    def derivative(self) -> "Poly":
        return Poly((i * c for i, c in enumerate(self.coeffs) if i))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly((c / lead for c in self.coeffs))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def valuation_at_zero(self) -> int:
        """Multiplicity of the root x = 0 (0 for nonzero constant term)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no finite valuation")
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise AssertionError("unreachable: trimmed polynomial was zero")

    def __call__(self, x):
        """Horner evaluation; works for any ring element x that mixes with
        Fraction (exact inputs stay exact)."""
        out = 0 * x
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def shift_up(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("negative shift; use exact_div")
        if self.is_zero() or k == 0:
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = _frac_str(c)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    term = xpow
                elif c == -1:
                    term = f"-{xpow}"
                else:
                    term = f"{_frac_str(c)}*{xpow}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


ONE_MINUS_X = Poly((1, -1))


def exponent_split(p: Poly):
    """Write a nonzero ``p`` as x^i (1-x)^j rest with rest(0) rest(1) != 0.

    Returns (i, j, rest); ``rest`` has degree 0 exactly when p has no
    irreducible factor besides x and 1-x."""
    i = p.valuation_at_zero()
    rest = Poly(p.coeffs[i:])
    j = 0
    while rest(Fraction(1)) == 0:
        rest = rest.exact_div(ONE_MINUS_X)
        j += 1
    return i, j, rest


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


class RatFunc:
    """poly / (x^i (1-x)^j), the only coefficient shape operators need.

    Normal form: poly(0) != 0 when i > 0, poly(1) != 0 when j > 0, and
    zero is (0, 0, 0), so equal functions have equal tuples.
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
        return (Poly((-1, 1)) ** self.j).shift_up(self.i)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.poly, self.i, self.j) == (other.poly, other.i, other.j)

    def __hash__(self):
        return hash(("RatFunc", self.poly.coeffs, self.i, self.j))

    def _lift(self, i: int, j: int) -> Poly:
        """The numerator over x^i (1-x)^j, for i >= self.i and j >= self.j."""
        return self.poly.shift_up(i - self.i) * ONE_MINUS_X ** (j - self.j)

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
            _X_ONE_MINUS_X * p.derivative() - Poly((i, -(i + j))) * p, i + 1, j + 1
        )

    def __str__(self) -> str:
        if not (self.i or self.j):
            return str(self.poly)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


_X_ONE_MINUS_X = Poly((0, 1, -1))


def _normal_form(poly: Poly, i: int, j: int):
    """Cancel the x and 1-x factors poly shares with x^i (1-x)^j."""
    if poly.is_zero():
        return poly, 0, 0
    v = min(i, poly.valuation_at_zero())
    if v:
        poly, i = Poly(poly.coeffs[v:]), i - v
    while j and poly(1) == 0:
        poly, j = poly.exact_div(ONE_MINUS_X), j - 1
    return poly, i, j
