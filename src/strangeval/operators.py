"""Non-commutative differential operator arithmetic.

Operators are polynomials in D = d/dx with rational-function coefficients,
multiplied under the commutation rule D f = f D + f'.  This module builds
the hypergeometric operator L(a, b, c) and the contiguity composition
H(ell), and factors the order-one remainder q(x) D + r(x) of H(ell) modulo
L into x/(1-x) powers times the polynomials q0, r0.

The remainder comes from ``h_remainder``, a recurrence on two polynomials
that follows H(k+1) = (xD + b + k) H(k) and never forms H(ell).  Full right
division (``right_reduce``) also returns the quotient, for the ``reduce``
command, and is the oracle the recurrence is tested against.  The
recurrence runs on integer coefficient vectors over the running
denominator d^(2k), d the common denominator of a, b, c, and builds one
canonical ``RatFunc`` per output.  The remainder route shares nothing with
the series formulas in ``hyp`` beyond ``Poly``, and the two must agree
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import InternalInconsistencyError, ParameterError
from .hyp import HypParams, QRPair, _check_ell
from .poly import Poly, RatFunc, exponent_split
from .scalars import is_integer, over_common_denominator, poch, rational
from .series import GenSeries


class DiffOp:
    """Differential operator sum_k f_k(x) D^k with RatFunc coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, RatFunc) else RatFunc(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "DiffOp":
        return cls(())

    @classmethod
    def one(cls) -> "DiffOp":
        return cls((RatFunc.one(),))

    @classmethod
    def monomial(cls, coeff: RatFunc, k: int) -> "DiffOp":
        """coeff * D^k."""
        return cls((RatFunc.zero(),) * k + (coeff,))

    @property
    def order(self):
        """Highest power of D with nonzero coefficient; None for the zero
        operator (whose coefficient sequence is empty)."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> RatFunc:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else RatFunc.zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("DiffOp", self.coeffs))

    def __add__(self, other: "DiffOp") -> "DiffOp":
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp((self.coefficient(k) + other.coefficient(k) for k in range(n)))

    def __neg__(self) -> "DiffOp":
        return DiffOp((-c for c in self.coeffs))

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def scale(self, f) -> "DiffOp":
        f = f if isinstance(f, RatFunc) else RatFunc(f)
        return DiffOp((f * c for c in self.coeffs))

    def __mul__(self, other: "DiffOp") -> "DiffOp":
        return ore_mul(self, other)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            f = self.coeffs[k]
            if f.is_zero():
                continue
            dpow = "" if k == 0 else ("D" if k == 1 else f"D^{k}")
            fs = str(f)
            needs_parens = ("+" in fs[1:] or "-" in fs[1:] or "/" in fs) and dpow
            if dpow and fs == "1":
                parts.append(dpow)
            elif dpow and fs == "-1":
                parts.append(f"-{dpow}")
            elif dpow:
                parts.append(f"({fs})*{dpow}" if needs_parens else f"{fs}*{dpow}")
            else:
                parts.append(fs)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"DiffOp({self})"


def _d_compose(op: DiffOp) -> DiffOp:
    """D o op, one application of the commutation rule D f = f D + f'."""
    n = len(op.coeffs)
    out = [RatFunc.zero()] * (n + 1)
    for j, g in enumerate(op.coeffs):
        if g.is_zero():
            continue
        out[j + 1] = out[j + 1] + g
        out[j] = out[j] + g.derivative()
    return DiffOp(out)


def ore_mul(lhs: DiffOp, rhs: DiffOp) -> DiffOp:
    """Composition lhs o rhs in the Ore algebra over rational functions."""
    if lhs.is_zero() or rhs.is_zero():
        return DiffOp.zero()
    out = DiffOp.zero()
    power = rhs  # D^i o rhs, starting at i = 0
    for i, f in enumerate(lhs.coeffs):
        if not f.is_zero():
            out = out + power.scale(f)
        if i + 1 < len(lhs.coeffs):
            power = _d_compose(power)
    return out


def build_L(p: HypParams) -> DiffOp:
    """The hypergeometric operator
    D^2 + (c - (a+b+1) x)/(x(1-x)) D - ab/(x(1-x))."""
    a, b, c = p.a, p.b, p.c
    den = Poly((0, 1, -1))  # x(1-x)
    return DiffOp(
        (
            RatFunc(Poly((-a * b,)), den),
            RatFunc(Poly((c, -(a + b + 1))), den),
            RatFunc.one(),
        )
    )


def build_H(b, ell: int) -> DiffOp:
    """The contiguity composition (xD + b + ell - 1) ... (xD + b + 1) (xD + b),
    for an exact rational b (``scalars.rational``)."""
    _check_ell(ell)
    b = rational(b, "b")
    out = DiffOp.one()
    for k in range(ell):
        factor = DiffOp((RatFunc(Poly((b + k,))), RatFunc(Poly.x())))
        out = ore_mul(factor, out)
    return out


def h_remainder(p: HypParams, ell: int) -> tuple[RatFunc, RatFunc]:
    """The order-one remainder q D + r of H(ell) modulo the left ideal of
    L(a, b, c), without forming H(ell) or a quotient.

    H(k+1) = (xD + b + k) H(k), and modulo L, D^2 = -p1 D - p0 with
    x p1 = (c - (a+b+1) x)/(1-x) and x p0 = -ab/(1-x), so the remainder of
    H(k) maps to that of H(k+1) by

        q <- x q' + x r - x p1 q + (b+k) q,    r <- x r' - x p0 q + (b+k) r.

    With q = Q/(1-x)^k and r = R/(1-x)^k this is a step on polynomials,

        Q <- x(1-x)(Q' + R) + ((b+k-c) + (a+1) x) Q
        R <- x(1-x) R' + ((b+k) - b x) R + ab Q,

    started from Q = 0, R = 1 (H(0) = 1).  Over the common denominator d
    of a = A/d, b = B/d, c = C/d, a step's factors b+k-c, a+1, b+k and b
    are integers over d and ab is one over d^2, so after k steps Q and R
    are integer vectors over d^(2k); only the two results are
    canonicalised.  Returns (q, r) after ell steps.
    """
    _check_ell(ell)
    (A, B, C), d = over_common_denominator(p.a, p.b, p.c)
    dd, ab = d * d, A * B
    Q, R = [], [1]
    for k in range(ell):
        qc, qx = d * (B + k * d - C), d * (A + d)  # d^2 ((b+k-c) + (a+1) x)
        rc, rx = d * (B + k * d), -d * B  # d^2 ((b+k) - b x)
        n = max(len(Q), len(R) + 1) + 1
        q, r = [0] * n, [0] * n
        for i, y in enumerate(Q):  # the Q terms of both steps, times d^2
            q[i] += (dd * i + qc) * y
            q[i + 1] += (qx - dd * i) * y
            r[i] += ab * y
        for i, y in enumerate(R):  # the R terms of both steps, times d^2
            q[i + 1] += dd * y
            q[i + 2] -= dd * y
            r[i] += (dd * i + rc) * y
            r[i + 1] += (rx - dd * i) * y
        Q, R = _trim(q), _trim(r)
    den = d ** (2 * ell)
    return (
        RatFunc._of(Poly.from_numerators(Q, den), 0, ell),
        RatFunc._of(Poly.from_numerators(R, den), 0, ell),
    )


def _trim(v: list) -> list:
    """v without its trailing zeros."""
    while v and not v[-1]:
        v.pop()
    return v


@dataclass(frozen=True)
class ReductionData:
    """H = quotient o L + q D + r, with the reconstruction held exactly."""

    quotient: DiffOp
    q: RatFunc
    r: RatFunc

    def reconstruct(self, L: DiffOp) -> DiffOp:
        return ore_mul(self.quotient, L) + DiffOp((self.r, self.q))


def right_reduce(H: DiffOp, L: DiffOp) -> ReductionData:
    """Right division of H by an order-2 operator L that is monic in D.

    Repeatedly cancels the top term of the running remainder against
    (leading coeff) D^(k-2) o L until the order drops below 2.  The
    quotient is kept and the exact reconstruction is asserted before
    returning; orders in scope are small, so no cleverness is attempted.
    """
    if L.order != 2:
        raise ParameterError(f"divisor must have order 2, got {L.order}")
    if L.coefficient(2) != RatFunc.one():
        raise ParameterError("divisor must be monic in D")
    quotient = DiffOp.zero()
    rem = H
    while not rem.is_zero() and rem.order >= 2:
        k = rem.order
        mono = DiffOp.monomial(rem.coefficient(k), k - 2)
        quotient = quotient + mono
        rem = rem - ore_mul(mono, L)
        if not rem.is_zero() and rem.order >= k:
            raise InternalInconsistencyError("right division failed to reduce order")
    data = ReductionData(quotient, rem.coefficient(1), rem.coefficient(0))
    if data.reconstruct(L) != H:
        raise InternalInconsistencyError("division reconstruction mismatch")
    return data


@dataclass(frozen=True)
class FactoredRemainder:
    """Remainder pair factored as q = x^v0 (1-x)^v1 q0, r = x^w0 (1-x)^w1 r0.

    The exponents are integers, and the actual ones: q0(0) q0(1) != 0 and
    likewise for r0 (for a nonzero remainder), so degenerate inputs report
    shifted exponents or dropped degrees rather than failing.  g and h are
    the degrees of q0 and r0 (None for a zero one).  In the generic case
    (v0, v1, g) = (1, 1-ell, ell-1) and (w0, w1, h) = (0, 1-ell, ell-1).
    """

    v0: int
    v1: int
    w0: int
    w1: int
    q0: Poly
    r0: Poly
    ell: int

    @property
    def g(self) -> int | None:
        return self.q0.degree

    @property
    def h(self) -> int | None:
        return self.r0.degree

    def canonical_qr(self) -> QRPair:
        """The degree <= ell-1 polynomials with the exponent pattern pinned
        to (1, 1-ell) and (0, 1-ell): q0 x^(v0-1) (1-x)^(v1-(1-ell)) and
        r0 x^w0 (1-x)^(w1-(1-ell)).  These are the polynomials the series
        route produces, so cross-method comparison happens here."""
        ell = self.ell
        q0 = _repack(self.q0, self.v0 - 1, self.v1 - (1 - ell))
        r0 = _repack(self.r0, self.w0, self.w1 - (1 - ell))
        return QRPair(q0, r0, ell)


def _repack(p0: Poly, dx: int, d1mx: int) -> Poly:
    if p0.is_zero():
        return p0
    if dx < 0 or d1mx < 0:
        raise InternalInconsistencyError(
            f"remainder exponents off pattern by x^{dx} (1-x)^{d1mx}"
        )
    return p0.mul_factors(dx, d1mx)


def factor_remainder(q: RatFunc, r: RatFunc, ell: int) -> FactoredRemainder:
    """Factor the remainder pair of an order-ell reduction."""
    _check_ell(ell)
    parts = []
    for f in (q, r):
        if f.is_zero():
            parts.append((0, 0, Poly.zero()))
            continue
        s, t, rest = exponent_split(f.poly)
        parts.append((s - f.i, t - f.j, rest))
    (v0, v1, q0), (w0, w1, r0) = parts
    return FactoredRemainder(v0=v0, v1=v1, w0=w0, w1=w1, q0=q0, r0=r0, ell=ell)


def apply_to_genseries(op: DiffOp, g: GenSeries, order: int | None = None) -> GenSeries:
    """Apply an operator to x^mu (1-x)^nu f(x), term by term.

    Coefficient denominators are powers of x and 1-x (the only ones a
    RatFunc admits); they turn into exact shifts of mu and nu.  The
    returned series carries the honest truncation order that survives the
    differentiations.
    """
    if order is not None and g.body.order > order:
        g = GenSeries(g.mu, g.nu, g.body.truncate(order))
    if op.is_zero():
        return GenSeries(0, 0, g.body.scale(0))
    total = None
    derived = g  # D^k applied to g
    for k, f in enumerate(op.coeffs):
        if not f.is_zero():
            term = GenSeries(
                derived.mu - f.i, derived.nu - f.j, derived.body.mul_poly(f.poly)
            )
            total = term if total is None else total + term
        if k + 1 < len(op.coeffs):
            derived = derived.deriv()
    assert total is not None
    if order is not None and total.body.order > order:
        total = GenSeries(total.mu, total.nu, total.body.truncate(order))
    return total.normalized()


@dataclass(frozen=True)
class GenericityFlags:
    """The non-degeneracy conditions under which the remainder factor
    shapes are exact, evaluated in exact rational arithmetic:

        A1: a, b, c-a, c-b all non-integers
        A2: c, c-a-b, a-b all non-integers
        E1: (b, l) != (b+1-c, l)
        E2': l != 1, or (b+1, l-1)/a != (c-a, l-1)/(c-b-1)
    """

    a1: bool
    a2: bool
    e1: bool
    e2p: bool
    details: dict = field(default_factory=dict)
    note: str | None = None

    def generic_apart_from_b(self) -> bool:
        """A1 with the two conditions involving b dropped, plus the rest.

        With b pinned to an integer (the b = 1 pipelines) A1 is false by
        construction; this is the meaningful residue of the conditions.
        """
        return (
            self.details["a"]
            and self.details["c-a"]
            and self.a2
            and self.e1
            and self.e2p
        )


def genericity_flags(p: HypParams, ell: int) -> GenericityFlags:
    _check_ell(ell)
    a, b, c = p.a, p.b, p.c
    details = {
        "a": not is_integer(a),
        "b": not is_integer(b),
        "c-a": not is_integer(c - a),
        "c-b": not is_integer(c - b),
        "c": not is_integer(c),
        "c-a-b": not is_integer(c - a - b),
        "a-b": not is_integer(a - b),
    }
    note = None
    if ell != 1:
        e2p = True
    elif a == 0 or c - b - 1 == 0:
        e2p = False
        note = "E2' denominator vanishes (a = 0 or c-b-1 = 0)"
    else:
        e2p = 1 / a - 1 / (c - b - 1) != 0
    return GenericityFlags(
        a1=details["a"] and details["b"] and details["c-a"] and details["c-b"],
        a2=details["c"] and details["c-a-b"] and details["a-b"],
        e1=poch(b, ell) - poch(b + 1 - c, ell) != 0,
        e2p=e2p,
        details=details,
        note=note,
    )
