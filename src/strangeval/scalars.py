"""Exact rational scalars.

Everything exact in this package is computed over ``fractions.Fraction``,
which already guarantees lowest terms and a positive denominator.  This
module adds the recurring idioms on top: rising factorials, integer
membership tests, and the "p/q" string form used at the CLI boundary.
"""

from __future__ import annotations

from fractions import Fraction

def poch(a, n: int) -> Fraction:
    """Rising factorial a(a+1)...(a+n-1); the empty product 1 for n = 0."""
    if n < 0:
        raise ValueError("pochhammer index must be a natural number")
    a = Fraction(a)
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def is_integer(x) -> bool:
    return Fraction(x).denominator == 1


def is_nonpos_integer(x) -> bool:
    x = Fraction(x)
    return x.denominator == 1 and x <= 0


def parse_rational(text: str) -> Fraction:
    """Parse an exact "p/q" (or plain integer) command-line value."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
