"""Exact rational scalars.

Everything exact in this package is computed over ``fractions.Fraction``,
which already guarantees lowest terms and a positive denominator.  This
module states the exact-input rule (``rational``), which every entry
taking a rational parameter applies, and the two count rules
(``positive_int``, ``nonnegative_int``), and adds the recurring idioms:
the rising factorial, once on integers (``rising_product``, the
p (p+q) ... (p+(n-1)q) that ``poch`` divides by q^n once and the gamma
shift reads directly), integer membership tests, the integer form of
rationals over their common denominator, and the "p/q" string form of the
CLI.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParameterError


def rational(x, name: str) -> Fraction:
    """x as a Fraction when it is an int or Fraction, else ``ParameterError``
    naming it ``name``: ``Fraction(0.1)`` is 3602879701896397/2^55, not
    1/10, so a float is refused rather than expanded."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, int):
        raise ParameterError(f"{name} must be an int or Fraction, got {x!r}")
    return Fraction(x)


def positive_int(n, name: str) -> int:
    """n when it is an int >= 1, else ``ParameterError`` naming it ``name``."""
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"{name} must be a positive integer, got {n}")
    return n


def nonnegative_int(n, name: str) -> int:
    """n when it is an int >= 0, else ``ParameterError`` naming it ``name``."""
    if not isinstance(n, int) or n < 0:
        raise ParameterError(f"{name} must be a nonnegative integer, got {n}")
    return n


def rising_product(p: int, q: int, n: int) -> int:
    """p (p+q) ... (p+(n-1)q), the integer q^n (p/q)_n; 1 for n = 0."""
    out = 1
    for k in range(n):
        out *= p + k * q
    return out


def poch(a, n: int) -> Fraction:
    """Rising factorial a(a+1)...(a+n-1); the empty product 1 for n = 0."""
    n = nonnegative_int(n, "Pochhammer index")
    a = rational(a, "Pochhammer base")
    q = a.denominator
    return Fraction(rising_product(a.numerator, q, n), q**n)


def is_integer(x) -> bool:
    return rational(x, "integer test argument").denominator == 1


def is_nonpos_integer(x) -> bool:
    x = rational(x, "integer test argument")
    return x.denominator == 1 and x <= 0


def over_common_denominator(*xs: Fraction) -> tuple[list[int], int]:
    """Fractions x_i as integer numerators n_i over their least common
    denominator d, x_i = n_i / d: ([n_1, ...], d)."""
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def parse_rational(text: str) -> Fraction:
    """Parse an exact "p/q" (or plain integer) command-line value."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(x) -> str:
    x = rational(x, "formatted value")
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
