"""High-precision complex numerics: gamma, 2F1 evaluation, root finding.

Everything runs inside an ``EvalContext``, which carries the mpmath
context of its mantissa precision (default 192 bits; one context per
precision, apart from the global one), so precision is passed explicitly
and never leaks through global state.  Conventions that matter:

* 2F1 parameters are exact rationals; only the argument is floating-point,
  so every path decision is exact and no integer test needs a tolerance;
* the 2F1 evaluation maps (direct series, the two Pfaff maps, the 1-z
  connection) are described once per call, in a table of effective
  argument modulus, term count when the map's series terminates, and term
  budget; the path choice and the evaluation both read it.  The table
  holds only the maps defined at the input: the Pfaff maps and the
  connection need z != 1 and c not a nonpositive integer, and a forced
  method outside the table raises ``ParameterError``.  A terminating sum
  is the table's direct map, with its tail estimate as the error;
* every fractional power takes the principal branch (log with imaginary
  part in (-pi, pi]); arguments on [1, oo) are rejected, not guessed;
* a sum that terminates at a rational argument is evaluated exactly, by
  ``hyp.terminating_poly``; when no evaluation map converges within the
  term budget, ``hyp2f1_num`` raises ``NonConvergenceError`` rather than
  returning a value;
* series are summed in fixed point on Python ints: with the parameters
  over a common denominator every term ratio is a ratio of integers, so
  a step is one exact product with the fixed-point argument and one floor
  division, at the working precision plus at least GUARD_BITS bits (more
  when a or b sits near a nonpositive integer); the rounding this adds
  stays below the roundoff allowance in every error estimate;
* gamma takes only an int or Fraction argument p/q, which is a pole
  exactly when it is a nonpositive integer.  It sums Spouge's series in
  fixed point too: the coefficients are integers C_k = c_k 2^W, held once
  per precision, W = precision + 64 + 32, and a term is
  C_k q // (p + (k-1) q), one product and one floor division; the sum is
  within 3 units of 2^-W per term, so 32 - log2(3 terms / 2) bits below
  the delivered precision + 64.  The exp/log of t^(z-1/2) e^-t run at W
  plus the bits of |(z-1/2) log t| + t, worked out from p and q;
* error estimates bound the tail by the last term and the term ratio at
  the stopping index, add a roundoff allowance and path-specific
  amplification; they hold against an independent 320-bit reference on
  every path, but are not certified enclosures;
* roots are found on the integer numerators of each squarefree factor:
  Aberth in Python ``complex`` from Newton-polygon circles, Newton in
  fixed-point Gaussian integers at doubling precision, and certification
  from the exact values of P and P' at the dyadic result (disjoint
  inclusion discs); where that fails, Aberth reruns in fixed point at
  doubling precision.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_man_exp, from_rational, round_ceiling, to_fixed

from .errors import (
    BranchCutError,
    DegenerateConnectionError,
    GammaPoleError,
    NonConvergenceError,
    ParameterError,
)
from .hyp import HypParams, terminating_poly
from .poly import Poly

GUARD_BITS = 32
# A path is usable when its series needs at most this many terms; the
# effective argument modulus can approach 1 (large roots push every
# transformation that way), so usability is budgeted rather than cut off
# at a fixed modulus.
_MAX_TERMS_CAP = 300_000


@functools.cache
def _mp_context(precision: int) -> MPContext:
    ctx = MPContext()
    ctx.prec = precision
    return ctx


class EvalContext:
    """An mpmath context at a fixed mantissa precision, apart from the
    global one.  Every EvalContext of one precision shares one MPContext,
    since building one costs ~0.6 ms and every mpf keeps its context
    alive; so its precision is changed only inside ``workprec``."""

    def __init__(self, precision: int = 192):
        if not isinstance(precision, int) or precision < 24:
            raise ParameterError(f"precision must be an integer >= 24 bits: {precision}")
        self.precision = precision
        self.mp = _mp_context(precision)

    @property
    def eps(self):
        return self.mp.mpf(2) ** (-self.precision)

    def workprec(self, extra: int = GUARD_BITS):
        return self.mp.workprec(self.precision + extra)

    def to_mp(self, x):
        """Convert ints, Fractions, floats, complex, mpf/mpc to this context."""
        if isinstance(x, Fraction):
            return self.mp.mpf(x.numerator) / self.mp.mpf(x.denominator)
        if isinstance(x, complex):
            return self.mp.mpc(x.real, x.imag)
        return self.mp.convert(x)


def _rational_param(x, name: str) -> Fraction:
    if not isinstance(x, (int, Fraction)):
        raise ParameterError(f"{name} must be an int or Fraction, got {x!r}")
    return Fraction(x)


def _vanishes_at(x: Fraction):
    """The index k >= 0 at which the factor (x+k) is zero, when x is a
    nonpositive integer, else None."""
    return -int(x) if x.denominator == 1 and x <= 0 else None


@dataclass
class EvalResult:
    """A numeric value with a heuristic absolute error bound, the tag of
    the evaluation path that produced it and the number of series terms
    summed (both inner sums on the connection path; 0 when none ran)."""

    value: object
    est_error: object
    path: str
    n_terms: int


# ---------------------------------------------------------------------------
# gamma

# precision -> (terms, wbits, (C_0, ..., C_{terms-1})), C_k = c_k 2^wbits
_SPOUGE_CACHE: dict = {}


def _spouge_table(ctx: EvalContext):
    """Spouge's coefficients for the context's precision, in fixed point.

    The result is delivered at precision + 64 bits.  Its error budget,
    relative to the value, with a terms and wbits = precision + 64 + 32:

    * truncation: below a^(-1/2) (2 pi)^-(a + 1/2) (Spouge 1994), which the
      term count a = 0.3775 (precision + 64) + 8 keeps below
      2^-(precision + 64 + 20);
    * coefficients: c_0 = sqrt(2 pi) and
      c_k = (-1)^(k-1) (a-k)^(k-1/2) e^(a-k) / (k-1)!
      are held as the integers C_k = floor(c_k 2^wbits), each computed
      with 2a + 16 bits beyond wbits (|c_k| stays below 2^(1.9 a)), so C_k
      is within one unit of c_k 2^wbits;
    * the fixed-point sum (``_spouge_sum``): within 3a units of
      2^-wbits, and the sum exceeds sqrt(2 pi) > 2, so below
      3a 2^-(wbits + 1), that is 32 - log2(3a / 2) bits (more than 23 up
      to 512-bit precision) below the delivered precision + 64;
    * the mp stage (``_spouge_rational`` and the reflection formula): a
      few units of 2^-wbits, once the exp/log carry the bits that
      ``_spouge_rational`` works out from the argument.

    Cached per precision as plain ints, never as mpf objects: an mpf is
    bound to the context that created it."""
    table = _SPOUGE_CACHE.get(ctx.precision)
    if table is None:
        mp = ctx.mp
        deliver = ctx.precision + 64
        terms = int(deliver * 0.3775) + 8
        wbits = deliver + 32
        with mp.workprec(wbits + 2 * terms + 16):
            coeffs = [mp.sqrt(2 * mp.pi)]
            fact = 1
            for k in range(1, terms):
                ak = mp.mpf(terms - k)
                ck = ak ** (k - 1) * mp.sqrt(ak) * mp.exp(ak) / fact
                coeffs.append(ck if k % 2 else -ck)
                fact *= k
            fixed = tuple(to_fixed(c._mpf_, wbits) for c in coeffs)
        table = _SPOUGE_CACHE[ctx.precision] = (terms, wbits, fixed)
    return table


def _spouge_sum(p: int, q: int, coeffs) -> int:
    """Spouge's sum c_0 + sum_k c_k / (z - 1 + k) at z = p/q >= 1/2, times
    2^wbits, on the fixed-point coefficients:
    C_0 + sum_k C_k q // (p + (k-1) q), one integer product and one floor
    division per term.

    Each term is off by less than one unit for its floor plus at most two
    for its coefficient (q / (p + (k-1) q) <= 2 when z >= 1/2), so the
    result is within 3a units of the exact sum times 2^wbits."""
    s = coeffs[0]
    d = p - q
    for ck in islice(coeffs, 1, None):
        d += q
        s += ck * q // d
    return s


def _spouge_rational(z: Fraction, mp, table):
    """Spouge's series for gamma at a rational z >= 1/2: the sum in fixed
    point, and only t^(z-1/2) e^(-t) = exp(y), y = (z-1/2) log t - t,
    t = z + a - 1, in mp arithmetic.  Rounding y's parts (z-1/2) log t and
    t to W bits leaves an absolute error in y of their size times 2^-W,
    which exp turns into a relative error of that size, so the exp/log run
    at wbits plus the bits of a bound on |(z-1/2) log t| + t: with
    T = ceil(t) >= |z - 1/2| and log t < bit_length(T), that is
    T (bit_length(T) + 1)."""
    terms, wbits, coeffs = table
    p, q = z.numerator, z.denominator
    big_t = -(-(p + (terms - 1) * q) // q)
    headroom = (big_t * (big_t.bit_length() + 1)).bit_length()
    with mp.workprec(wbits + headroom):
        s = mp.mpf((_spouge_sum(p, q, coeffs), -wbits))
        t = mp.mpf(p + (terms - 1) * q) / q
        return mp.exp(mp.mpf(2 * p - q) / (2 * q) * mp.log(t) - t) * s


def gamma_c(z, ctx: EvalContext | None = None):
    """Gamma at an exact rational argument by Spouge's series, with the
    reflection formula for z < 1/2, delivered at precision + 64 bits.

    z must be an int or Fraction; anything else raises ``ParameterError``.
    z is a pole exactly when it is a nonpositive integer.  The series is
    summed in fixed point (``_spouge_rational``) and the sine of the
    reflection formula is taken at the exact distance to the nearest
    integer, so arguments however close to a pole keep their accuracy."""
    z = _rational_param(z, "gamma argument")
    if z.denominator == 1 and z <= 0:
        raise GammaPoleError(f"gamma pole at {z}")
    ctx = ctx or EvalContext()
    mp = ctx.mp
    table = _spouge_table(ctx)
    if z >= Fraction(1, 2):
        value = _spouge_rational(z, mp, table)
    else:
        with mp.workprec(table[1]):
            n = round(z)
            r = z - n
            sin = mp.sinpi(mp.mpf(r.numerator) / r.denominator)
            if n % 2:
                sin = -sin
            value = mp.pi / (sin * _spouge_rational(1 - z, mp, table))
    with mp.workprec(ctx.precision + 64):
        return +value


def rgamma_c(z, ctx: EvalContext | None = None):
    """1/Gamma, defined as exact 0 at the poles ``gamma_c`` rejects, the
    nonpositive integers."""
    ctx = ctx or EvalContext()
    try:
        return 1 / gamma_c(z, ctx)
    except GammaPoleError:
        return ctx.mp.mpf(0)


# ---------------------------------------------------------------------------
# 2F1

_PATH_DIRECT = "direct-series"
_PATH_PFAFF_A = "pfaff-a"
_PATH_PFAFF_B = "pfaff-b"
_PATH_CONNECTION = "connection-1mz"

# the maps a series is summed on; the connection formula sums two of them
_SERIES_PATHS = (_PATH_DIRECT, _PATH_PFAFF_A, _PATH_PFAFF_B)
KNOWN_PATHS = _SERIES_PATHS + (_PATH_CONNECTION,)


def _dip_bits(x: Fraction) -> int:
    """Bits by which the factor (x+k) nearest zero, k >= 0, can shrink a
    term below the scale of the terms after it: log2(1/d) for
    d = min(1, min_k |x+k|), and 0 when x is a nonpositive integer (the
    series then ends at that factor)."""
    if x >= 1 or (x.denominator == 1 and x <= 0):
        return 0
    d = x if x > 0 else min(x - math.floor(x), math.ceil(x) - x)
    return (d.denominator // d.numerator).bit_length()


def _series_2f1(mp, a: Fraction, b: Fraction, c: Fraction, z, target_bits, max_terms):
    """Sum the defining series of F(a, b, c; z) in fixed point on Python ints.

    With D the common denominator of a, b, c, so a = A/D, b = B/D, c = C/D,
    the term ratio is the ratio of integers (A+nD)(B+nD) / ((C+nD)(n+1)D).
    A term is held as the integers (tr, ti) = t * 2^wp and each step costs
    one exact complex product with the fixed-point z and one floor division
    per component; a real z carries the real part only.

    Returns (total, last_term_abs, n_terms, peak_abs) as mp values, where
    peak is the largest |partial sum| seen (at least 1, since t_0 = 1).  It
    stops after three consecutive terms with |t| * 2^target_bits <= peak,
    tested exactly on integers, so an incidental zero term cannot end the
    sum early and a cancelling sum (|total| far below peak) cannot stall.

    Error model: each step floors once per component (the floor division
    by the small integer and the shift by wp compose to a single floor),
    an absolute error below 2^-wp, and z itself is rounded by less than
    2^-wp per component.
    A rounding at step k reaches the n-th term scaled by |t_n / t_k|.  No
    term exceeds 2 peak (each is the difference of two partial sums), and
    a term falls below the scale of those after it only at a factor (a+k)
    or (b+k) near zero -- early, when a or b sits just above (or below) a
    nonpositive integer -- and then by at most d, that factor's modulus.
    So the fixed-point sum is within about n^2 (2 peak / d) 2^-wp of the
    sum over the rounded z, and wp = working precision + GUARD_BITS +
    log2(1/d) keeps that below the n peak 2^-prec roundoff allowance of
    ``_tail_estimate`` for every n below 2^31."""
    den = math.lcm(a.denominator, b.denominator, c.denominator)
    an, bn = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    cn, kn = c.numerator * (den // c.denominator), den  # (c+n) D, (n+1) D
    wp = mp.prec + GUARD_BITS + max(_dip_bits(a), _dip_bits(b))
    zr = to_fixed(mp.re(z)._mpf_, wp)
    zi = to_fixed(mp.im(z)._mpf_, wp)
    tr = sr = peak = 1 << wp
    ti = si = 0
    small = n = 0
    # an exactly zero term ends a terminating series; the zero terms that
    # would follow count as small, so the loop stops and adds them to n.
    # A nonpositive-integer c is reached at most together with the upper
    # factor that ends the sum (hyp2f1_num checks this); that term is 0
    # whatever it is divided by, so a zero divisor is taken as 1.
    if zi == 0:
        limit = peak >> target_bits
        while n < max_terms:
            tr = tr * zr * (an * bn) // (cn * kn or 1) >> wp
            an += den
            bn += den
            cn += den
            kn += den
            sr += tr
            n += 1
            if abs(sr) > peak:
                peak = abs(sr)
                limit = peak >> target_bits
            if abs(tr) <= limit:
                small += 1
                if small == 3 or tr == 0:
                    break
            else:
                small = 0
    else:
        peak2 = peak * peak
        limit = peak2 >> 2 * target_bits
        while n < max_terms:
            p, q = an * bn, cn * kn or 1
            tr, ti = (
                (tr * zr - ti * zi) * p // q >> wp,
                (tr * zi + ti * zr) * p // q >> wp,
            )
            an += den
            bn += den
            cn += den
            kn += den
            sr += tr
            si += ti
            n += 1
            s2 = sr * sr + si * si
            if s2 > peak2:
                peak2 = s2
                limit = peak2 >> 2 * target_bits
            if tr * tr + ti * ti <= limit:
                small += 1
                if small == 3 or tr == ti == 0:
                    break
            else:
                small = 0
        peak = math.isqrt(peak2)
    if small < 3 and (tr or ti):  # no break: the budget ran out
        raise NonConvergenceError(
            f"2F1 series did not converge within {max_terms} terms"
        )
    total = mp.mpc(mp.mpf((sr, -wp)), mp.mpf((si, -wp)))
    last = mp.hypot(mp.mpf((tr, -wp)), mp.mpf((ti, -wp)))
    return total, last, n + 3 - small, mp.mpf((peak, -wp))


def _max_terms_for(modulus, prec: int, terminating: int | None):
    """Term budget for a series at the given argument modulus, or None
    when convergence to full precision is out of budget.

    The 1.3 factor plus additive headroom covers the initial hump and the
    polynomial growth of the coefficient ratio that a pure geometric
    estimate ignores."""
    if terminating is not None:
        return terminating + 8
    m = float(modulus)
    if m <= 0:
        return 16
    if m >= 1 - 2**-14:
        return None
    need = int(1.3 * (prec + 64) * math.log(2) / -math.log(m)) + 256
    return need if need <= _MAX_TERMS_CAP else None


def hyp2f1_num(
    a, b, c, z, ctx: EvalContext | None = None, method: str | None = None
) -> EvalResult:
    """Evaluate F(a, b, c; z) at the context precision.

    a, b, c are exact rationals (int or Fraction; anything else raises
    ``ParameterError``), so every path decision -- termination, the c pole,
    the Pfaff choice, connection degeneracy -- is made exactly; only z may
    be floating-point.  The effective argument modulus is |z| on the direct
    series, |z/(z-1)| on the two Pfaff maps, and min(|1-z|, |1-1/z|) on the
    1-z connection formula, whose two inner series take the best of the
    other maps; that covers Re z > 1/2, where neither |z| nor |z/(z-1)|
    falls below 1.  A map whose series terminates is taken first (the
    direct series before the Pfaff maps), then the direct series while
    |z| <= 0.7, else the map of least modulus.  A sum that terminates
    directly is finite whatever |z|, and exact at a rational z; otherwise
    its error estimate is the direct map's, as for a forced direct-series.
    ``method``, one of ``KNOWN_PATHS``, forces a path, mainly for
    cross-path agreement tests; it must be a map defined at the input (the
    Pfaff maps and the connection need z != 1 and c not a nonpositive
    integer), else ``ParameterError`` is raised.  ``NonConvergenceError``
    is raised when no path, or the forced one, converges within the term
    budget.  A value whose imaginary part is exactly 0 is returned as an
    mpf.
    """
    ctx = ctx or EvalContext()
    a, b, c = (_rational_param(x, f"2F1 parameter {n}") for x, n in zip((a, b, c), "abc"))
    if method is not None and method not in KNOWN_PATHS:
        raise ParameterError(f"unknown evaluation method {method!r}")
    ez = Fraction(z) if isinstance(z, (int, Fraction)) else None
    with ctx.workprec(GUARD_BITS + 32):
        return _hyp2f1(ctx, a, b, c, ctx.to_mp(z), ez, method, KNOWN_PATHS)


def _hyp2f1(ctx: EvalContext, a, b, c, zz, ez, method, paths) -> EvalResult:
    """``hyp2f1_num`` at the working precision it sets: zz is z in the
    context, ez the exact rational z or None, and the path is the forced
    ``method`` or the best of ``paths``."""
    mp = ctx.mp
    prec = ctx.precision
    target_bits = prec + GUARD_BITS

    m_term = min(
        (k for k in (_vanishes_at(a), _vanishes_at(b)) if k is not None), default=None
    )
    c_pole = _vanishes_at(c)
    if c_pole is not None and (m_term is None or m_term > c_pole):
        raise ParameterError(
            f"lower parameter c = {c} is a nonpositive integer "
            "and the series does not terminate before the pole"
        )

    if m_term is not None and method is None and ez is not None:
        # the parameter that ends the sum first goes in the b slot, so the
        # c-pole check sees only the terms that are summed
        other = b if _vanishes_at(a) == m_term else a
        exact = terminating_poly(HypParams(other, -m_term, c))(ez)
        val = ctx.to_mp(exact)
        return EvalResult(+val, abs(val) * ctx.eps * 4, _PATH_DIRECT, m_term)

    if zz == 0:
        return EvalResult(mp.mpf(1), ctx.eps, _PATH_DIRECT, 0)

    on_cut = (
        abs(mp.im(zz)) <= mp.mpf(2) ** (-prec + 8) * (1 + abs(mp.re(zz)))
        and mp.re(zz) >= 1 - mp.mpf(2) ** -40
    )
    if on_cut and m_term is None:
        raise BranchCutError(f"z = {mp.nstr(zz, 15)} lies on the branch cut [1, oo)")

    cab = c - a - b
    # path -> (effective argument modulus, term count when the map's series
    # terminates, term budget), for the maps defined at the input: the
    # Pfaff maps (DLMF 15.8.1) move c-b or c-a with c, so they and the
    # connection formula (15.8.4) need z != 1 and c not a nonpositive
    # integer.  A Pfaff series terminates when c-b or c-a is a nonpositive
    # integer; the connection's inner series fall back to their own Pfaff
    # map, of argument (1-z)/(-z) = 1 - 1/z
    defined = [(_PATH_DIRECT, abs(zz), m_term)]
    if zz != 1 and c_pole is None:
        w = zz / (zz - 1)
        mw = abs(w)
        defined += [
            (_PATH_PFAFF_A, mw, _vanishes_at(c - b)),
            (_PATH_PFAFF_B, mw, _vanishes_at(c - a)),
        ]
        if _PATH_CONNECTION in paths:
            defined.append((_PATH_CONNECTION, min(abs(1 - zz), abs(1 - 1 / zz)), None))
    maps = {
        path: (modulus, terms, _max_terms_for(modulus, prec, terms))
        for path, modulus, terms in defined
    }

    if method is None:
        ending = [p for p, (_, terms, _) in maps.items() if terms is not None]
        if ending:
            method = ending[0]
        elif abs(zz) <= mp.mpf(7) / 10:
            method = _PATH_DIRECT
        else:
            # least modulus among the maps in budget, ties in table order;
            # a degenerate connection only when nothing else converges
            pfaff = _PATH_PFAFF_A if abs(a) <= abs(b) else _PATH_PFAFF_B
            method = min(
                (p for p in (_PATH_DIRECT, pfaff, _PATH_CONNECTION) if p in maps),
                key=lambda p: (
                    maps[p][2] is None,
                    p == _PATH_CONNECTION and cab.denominator == 1,
                    maps[p][0],
                ),
            )
    elif method not in maps:
        raise ParameterError(
            f"the {method} map of 2F1 is not defined at c = {c}, "
            f"z = {mp.nstr(zz, 15)}; it needs z != 1 and c not a nonpositive integer"
        )

    modulus, _, max_terms = maps[method]
    if method == _PATH_CONNECTION and cab.denominator == 1:
        raise DegenerateConnectionError(
            f"c-a-b = {cab} is an integer; the two-term connection formula degenerates"
        )
    if max_terms is None:
        raise NonConvergenceError(
            f"the {method} map of 2F1 does not converge at z = {mp.nstr(zz, 15)} "
            f"within the {_MAX_TERMS_CAP}-term budget"
        )

    if method == _PATH_CONNECTION:
        u = 1 - zz
        gc = gamma_c(c, ctx)
        coef1 = gc * gamma_c(cab, ctx) * rgamma_c(c - a, ctx) * rgamma_c(c - b, ctx)
        coef2 = (
            _principal_power(ctx, u, cab) * gc * gamma_c(-cab, ctx)
            * rgamma_c(a, ctx) * rgamma_c(b, ctx)
        )
        # the inner series run at 1 - z, exactly when z is rational
        eu = None if ez is None else 1 - ez
        uu = u if eu is None else ctx.to_mp(eu)
        parts, errs, n = [], [], 0
        for coef, pa, pb, pc in ((coef1, a, b, 1 - cab), (coef2, c - a, c - b, 1 + cab)):
            if coef != 0:
                inner = _hyp2f1(ctx, pa, pb, pc, uu, eu, None, _SERIES_PATHS)
                parts.append(coef * inner.value)
                errs.append(abs(coef) * inner.est_error)
                n += inner.n_terms
        zero = mp.mpf(0)
        value = sum(parts, zero)
        est = sum(errs, zero) + sum(map(abs, parts), zero) * ctx.eps * 16
    else:
        if method == _PATH_DIRECT:
            pref, pa, pb, arg = 1, a, b, zz
        else:
            pa, pb = (a, c - b) if method == _PATH_PFAFF_A else (b, c - a)
            pref, arg = _principal_power(ctx, 1 - zz, -pa), w
        total, last, n, peak = _series_2f1(mp, pa, pb, c, arg, target_bits, max_terms)
        est = abs(pref) * _tail_estimate(mp, last, modulus, peak, n, pa, pb, c)
        value = pref * total

    if mp.im(value) == 0:
        value = mp.re(value)
    return EvalResult(+value, +est, method, n)


def _principal_power(ctx: EvalContext, base, expo: Fraction):
    """base**expo on the principal branch; exact for integer exponents."""
    if expo.denominator == 1:
        return ctx.mp.power(base, int(expo))
    return ctx.mp.power(base, ctx.to_mp(expo))


def _tail_estimate(mp, last, modulus, peak, n_terms, a, b, c):
    """Tail bound plus accumulated roundoff, as an absolute error.

    Past the last term t_n the term ratios are |w| |(a+k)(b+k)| /
    |(c+k)(k+1)|, k >= n, with w the series argument of modulus
    ``modulus``.  Once k exceeds the parameters the factor after |w| moves
    monotonically to 1 -- from above when a+b-c-1 > 0 -- so
    rho = modulus * max(1, that factor at k = n) bounds the ratios and the
    tail is at most |t_n| rho / (1 - rho).  |w| alone would understate
    the tail whenever a+b > c+1, where that factor exceeds 1.  A
    nonpositive-integer c gives c+n = 0 only together with the upper
    factor that ends the sum at t_n, so that divisor is taken as 1, as in
    ``_series_2f1``."""
    geom = last
    if last:  # else a terminating series ended in an exact zero term
        n = n_terms
        r = abs((a + n) * (b + n) / ((c + n) * (n + 1) or 1))
        rho = modulus * max(1, mp.mpf(r.numerator) / r.denominator)
        if rho < 1:
            geom = last * rho / (1 - rho)
    return geom + peak * mp.mpf(n_terms + 8) * mp.mpf(2) ** (-mp.prec)


# ---------------------------------------------------------------------------
# polynomial roots

# Aberth sweeps per stage; a stage that has not converged by then hands
# its approximations on, and certification decides.
_ABERTH_SWEEPS = 100
# Fixed-point Aberth reruns, at 106, 212, ... bits, before giving up.
_ESCALATIONS = 6
# Newton steps per precision level of the polish, and exact steps at the end.
_LEVEL_STEPS = 4
_EXACT_STEPS = 3
# Offset of the starting angles, so no starting point lies on the real axis.
_START_ANGLE = 0.4


@dataclass
class RootSet:
    """Roots of an exact polynomial with their exact multiplicities.

    len(roots) == number of distinct roots; multiplicities sum to the
    degree.  Every root is an exact dyadic centre of a certified inclusion
    disc of radius at most ``inclusion_radius``: the discs of one
    squarefree factor are pairwise disjoint and each holds exactly one of
    its roots.  A root with zero imaginary part is proved real, and a
    non-real root's conjugate is reported as its exact conjugate.
    ``residual_bound`` majorizes |P(root)| over all reported roots.
    """

    roots: tuple
    multiplicities: tuple
    residual_bound: object
    inclusion_radius: object


def _squarefree_factors(poly: Poly) -> list:
    """Yun's squarefree decomposition: [(f_k, k)] with monic, squarefree,
    pairwise coprime f_k of positive degree and poly = lead * prod f_k^k."""
    dpoly = poly.derivative()
    g = poly.gcd(dpoly)
    b = poly.exact_div(g)
    d = dpoly.exact_div(g) - b.derivative()
    out = []
    k = 1
    while b.degree:
        f = b.gcd(d)
        if f.degree:
            out.append((f, k))
        b = b.exact_div(f)
        d = d.exact_div(f) - b.derivative()
        k += 1
    return out


def find_roots(poly: Poly, precision: int = 192) -> RootSet:
    """All complex roots, with multiplicities taken from the exact
    squarefree decomposition of ``poly``, each certified to within
    2^-precision of its size.

    Each squarefree factor, held as its integer numerators, goes through
    ``_factor_roots``: Aberth in Python ``complex``, Newton polishing in
    fixed-point Gaussian integers with doubling precision, and a proof
    from exact arithmetic that the inclusion discs are disjoint.
    ``NonConvergenceError`` is raised only when a factor cannot be
    certified after every fixed-point escalation."""
    if poly.degree is None or poly.degree < 1:
        raise ParameterError("root finding needs a polynomial of degree >= 1")
    target = precision + GUARD_BITS
    mp = EvalContext(target).mp
    found = []
    radius = Fraction(0)
    for factor, mult in _squarefree_factors(poly):
        for xr, xi, w, rho, t in _factor_roots(factor.nums, target):
            x = mp.make_mpc((from_man_exp(xr, -w), from_man_exp(xi, -w)))
            found.append((x, mult, xr, xi, w))
            radius = max(radius, Fraction(rho, 1 << t))
    found.sort(key=lambda f: (mp.re(f[0]), mp.im(f[0])))

    residual = Fraction(0)
    n = poly.degree
    for _, _, xr, xi, w in found:
        pr, pi = _horner_exact(poly.nums, xr, xi, w)[:2]
        bound = Fraction(_ceil_sqrt(pr * pr + pi * pi), poly.den << w * n)
        residual = max(residual, bound)
    return RootSet(
        roots=tuple(f[0] for f in found),
        multiplicities=tuple(f[1] for f in found),
        residual_bound=_upper_mpf(mp, residual, target),
        inclusion_radius=_upper_mpf(mp, radius, target),
    )


def _upper_mpf(mp, q: Fraction, prec: int):
    """The rational q rounded up to a ``prec``-bit mpf."""
    return mp.make_mpf(from_rational(q.numerator, q.denominator, prec, round_ceiling))


def _ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n else 0


def _factor_roots(nums, target: int) -> list:
    """The roots of the squarefree integer polynomial ``nums`` as
    certified discs (xr, xi, w, rho, t): centre (xr + i xi) / 2^w, radius
    rho / 2^t, the centre within four units of 2^-w of its root and
    w = target - floor(log2 max(|Re|, |Im|)) - 1.

    The double-precision Aberth stage runs first; where its roots cannot
    be polished and certified, Aberth runs again from them in fixed point
    at 106 bits, then 212, ... up to ``_ESCALATIONS`` times."""
    approx = [_from_complex(x) for x in _aberth_float(nums)]
    bits = 53
    for escalation in range(_ESCALATIONS + 1):
        if escalation:
            bits *= 2
            approx = _aberth_fixed(nums, approx, bits)
        polished = []
        for x in approx:
            polished.append(_polish(nums, x, bits, target))
            if polished[-1] is None:
                break
        else:
            discs = _certify(nums, polished, target)
            if discs is not None:
                return discs
    raise NonConvergenceError(
        f"roots of {Poly.from_numerators(nums, 1)} not certified at {bits} bits"
    )


def _start_points(nums) -> list:
    """Aberth starting points from the Newton polygon (Bini 1996): for
    each edge of the upper convex hull of (k, log2 |c_k|) from k0 to k1,
    k1 - k0 points on the circle of radius (|c_k0| / |c_k1|)^(1/(k1-k0)),
    with zero roots at 0 exactly."""
    n = len(nums) - 1
    hull = []
    for k, c in enumerate(nums):
        if not c:
            continue
        p = (k, math.log2(abs(c)))
        while len(hull) > 1 and (
            (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
            >= (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(p)
    points = [0j] * hull[0][0]
    for (k0, l0), (k1, l1) in zip(hull, hull[1:]):
        m = k1 - k0
        r = 2.0 ** max(-1000.0, min(1000.0, (l0 - l1) / m))
        for j in range(m):
            points.append(cmath.rect(r, 2 * math.pi * (j / m + k0 / n) + _START_ANGLE))
    return points


def _aberth_float(nums) -> list:
    """Aberth iteration in Python ``complex`` (Gauss-Seidel order).  A root
    stops moving once |p(x)| is within the rounding error 4n 2^-53 s(|x|)
    of its evaluation, s(r) = sum |c_k| r^k, so further steps would only
    follow noise; |x| > 1 is evaluated on the reversed polynomial, so no
    power of x overflows."""
    n = len(nums) - 1
    shift = max(0, max(abs(c).bit_length() for c in nums) - 1000)
    fwd = [c / (1 << shift) for c in nums]
    rev = fwd[::-1]
    tol = 4 * n * 2.0**-53
    roots = _start_points(nums)
    done = [False] * n
    for _ in range(_ABERTH_SWEEPS):
        for i, x in enumerate(roots):
            if done[i]:
                continue
            inside = abs(x) <= 1
            p, dp, s = _horner_float(fwd if inside else rev, x if inside else 1 / x)
            if abs(p) <= tol * s:
                done[i] = True
                continue
            try:
                newton = p / dp if inside else x / (n - dp / (x * p))
                accum = sum(1 / (x - y) for j, y in enumerate(roots) if j != i)
                step = newton / (1 - newton * accum)
            except ZeroDivisionError:
                continue
            if cmath.isfinite(step):
                roots[i] = x - step
        if all(done):
            break
    return roots


def _horner_float(coeffs, x):
    """(p(x), p'(x), sum |c_k| |x|^k) for ascending float coefficients."""
    p, dp, s, r = coeffs[-1], 0.0, abs(coeffs[-1]), abs(x)
    for c in reversed(coeffs[:-1]):
        dp = dp * x + p
        p = p * x + c
        s = s * r + abs(c)
    return p, dp, s


def _from_complex(x: complex):
    """x as a fixed-point Gaussian integer (xr, xi, w) with 53 bits below
    its largest component."""
    m = max(abs(x.real), abs(x.imag))
    w = 53 - (math.frexp(m)[1] if m else 1)
    return round(math.ldexp(x.real, w)), round(math.ldexp(x.imag, w)), w


def _grid(xr: int, xi: int, w: int, bits: int) -> int:
    """The fractional bits that hold ``bits`` bits of x = (xr + i xi) / 2^w
    below its largest component (0 counts as size 1), and at least 0."""
    m = max(abs(xr), abs(xi))
    return max(0, w + bits - m.bit_length() if m else bits - 1)


def _regrid(xr: int, xi: int, w: int, w2: int):
    """(xr + i xi) / 2^w on the grid of 2^-w2, floored: (xr', xi', w2)."""
    if w2 >= w:
        return xr << (w2 - w), xi << (w2 - w), w2
    return xr >> (w - w2), xi >> (w - w2), w2


def _horner_fixed(nums, xr: int, xi: int, w: int):
    """(p(x), p'(x)) at x = (xr + i xi) / 2^w, each component times 2^w and
    floored after every product: four integers."""
    pr, pi, dr, di = nums[-1] << w, 0, 0, 0
    for c in reversed(nums[:-1]):
        dr, di = ((dr * xr - di * xi) >> w) + pr, ((dr * xi + di * xr) >> w) + pi
        pr, pi = ((pr * xr - pi * xi) >> w) + (c << w), (pr * xi + pi * xr) >> w
    return pr, pi, dr, di


def _horner_exact(nums, xr: int, xi: int, w: int):
    """Exact (p, d) with p = P(x) 2^(wn) and d = P'(x) 2^(w(n-1)) at the
    dyadic x = (xr + i xi) / 2^w: Gaussian integers, as four ints."""
    pr, pi, dr, di = nums[-1], 0, 0, 0
    s1, s2 = xi - xr, xr + xi
    shift = 0
    for c in reversed(nums[:-1]):
        shift += w
        # (a + i b)(xr + i xi) in three products: k = xr (a + b),
        # re = k - b (xr + xi), im = k + a (xi - xr)
        k = xr * (dr + di)
        dr, di = k - di * s2 + pr, k + dr * s1 + pi
        k = xr * (pr + pi)
        pr, pi = k - pi * s2 + (c << shift), k + pr * s1
    return pr, pi, dr, di


def _cdiv(ar: int, ai: int, br: int, bi: int, shift: int):
    """floor((a / b) 2^shift) per component for Gaussian integers a and b,
    or None when b = 0."""
    den = br * br + bi * bi
    if not den:
        return None
    return (ar * br + ai * bi << shift) // den, (ai * br - ar * bi << shift) // den


def _aberth_fixed(nums, approx, bits: int) -> list:
    """Aberth iteration in fixed-point Gaussian integers, every root on
    one grid that holds ``bits`` bits of the smallest nonzero one.  A root
    stops moving once |p(x)| <= n 2^-bits s, s = sum |c_k| (|Re x| +
    |Im x|)^k, which bounds the evaluation noise."""
    n = len(nums) - 1
    w = max(_grid(*x, bits) for x in approx)
    roots = [_regrid(*x, w)[:2] for x in approx]
    mags = [abs(c) for c in nums]
    one = 1 << w
    done = [False] * n
    for _ in range(_ABERTH_SWEEPS):
        for i, (xr, xi) in enumerate(roots):
            if done[i]:
                continue
            pr, pi, dr, di = _horner_fixed(nums, xr, xi, w)
            m, s = abs(xr) + abs(xi), mags[-1] << w
            for c in reversed(mags[:-1]):
                s = (s * m >> w) + (c << w)
            if pr * pr + pi * pi << 2 * bits <= n * n * s * s:
                done[i] = True
                continue
            newton = _cdiv(pr, pi, dr, di, w)
            if newton is None:
                continue
            ar = ai = 0
            for j, (yr, yi) in enumerate(roots):
                if j != i:
                    inv = _cdiv(one, 0, xr - yr, xi - yi, w)
                    if inv is not None:
                        ar += inv[0]
                        ai += inv[1]
            # the Aberth step newton / (1 - newton * sum_j 1 / (x - x_j))
            nr, ni = newton
            den_r = one - (nr * ar - ni * ai >> w)
            den_i = -(nr * ai + ni * ar >> w)
            sr, si = _cdiv(nr, ni, den_r, den_i, w) or newton
            roots[i] = (xr - sr, xi - si)
        if all(done):
            break
    return [(xr, xi, w) for xr, xi in roots]


def _polish(nums, approx, bits: int, target: int):
    """Newton from an approximation good to about ``bits`` bits, at
    doubling precision: levels target / 2^k above ``bits``, each holding x
    to its level's bits and stepping until the step is below half of them,
    then ``_settle``.  None when Newton does not settle."""
    xr, xi, w = approx
    levels = []
    b = target
    while b > bits:
        levels.append(b)
        b = (b + 1) // 2
    for b in reversed(levels):
        xr, xi, w = _regrid(xr, xi, w, _grid(xr, xi, w, b))
        for _ in range(_LEVEL_STEPS):
            step = _cdiv(*_horner_fixed(nums, xr, xi, w), w)
            if step is None:
                return None
            xr, xi = xr - step[0], xi - step[1]
            if max(abs(step[0]), abs(step[1])) <= 1 << b // 2:
                break
    return _settle(nums, xr, xi, w, target)


def _settle(nums, xr: int, xi: int, w: int, target: int):
    """Exact Newton at ``target`` bits: (xr, xi, w, exact) once the exact
    correction |P(x) / P'(x)| is at most four units of 2^-w, with ``exact``
    the values (pr, pi, dr, di) of ``_horner_exact`` at x, else None after
    ``_EXACT_STEPS`` steps.  x = 0 is kept only when P(0) = 0.  A real x
    stays real."""
    for _ in range(_EXACT_STEPS):
        xr, xi, w = _regrid(xr, xi, w, _grid(xr, xi, w, target))
        pr, pi, dr, di = exact = _horner_exact(nums, xr, xi, w)
        shift = 0
        if not (xr or xi):
            if not (pr or pi):
                return xr, xi, w, exact
            # 0 has no size to set the grid by; the step has
            shift = max(0, target + _bits(dr, di) - _bits(pr, pi))
        elif pr * pr + pi * pi <= 16 * (dr * dr + di * di):
            return xr, xi, w, exact
        step = _cdiv(pr, pi, dr, di, shift)
        if step is None:
            return None
        xr, xi, w = (xr << shift) - step[0], (xi << shift) - step[1], w + shift
    return None


def _bits(a: int, b: int) -> int:
    return max(abs(a), abs(b)).bit_length()


def _discs(n: int, points):
    """The inclusion discs of ``points`` (xr, xi, w, exact) on one grid of
    2^-t, t = 16 + max w: (cr, ci, rho) with centre (cr + i ci) / 2^t and
    rho / 2^t >= n |P(x) / P'(x)|, the radius of a disc about x that holds
    a root of P.  rho is None where P'(x) = 0."""
    t = 16 + max(p[2] for p in points)
    out = []
    for xr, xi, w, (pr, pi, dr, di) in points:
        # on k bits fewer, |p| rounded up and |P'| down keep rho an upper bound
        k = max(0, max(abs(dr), abs(di)).bit_length() - 64)
        if k:
            pr, pi = (abs(pr) >> k) + 1, (abs(pi) >> k) + 1
            dr, di = abs(dr) >> k, abs(di) >> k
        den = dr * dr + di * di
        rho = None
        if den:
            num = n * n * (pr * pr + pi * pi) << 2 * (t - w)
            rho = _ceil_sqrt(-(-num // den))
        out.append((xr << t - w, xi << t - w, rho))
    return t, out


def _meet(d, e, mirror: bool = False) -> bool:
    """Whether the closed discs d and e (or the mirror image of d in the
    real axis, and e) share a point."""
    (ar, ai, ra), (br, bi, rb) = d, e
    if mirror:
        ai = -ai
    return (ar - br) ** 2 + (ai - bi) ** 2 <= (ra + rb) ** 2


def _disjoint(discs) -> bool:
    return None not in (d[2] for d in discs) and not any(
        _meet(d, e) for i, d in enumerate(discs) for e in discs[i + 1:]
    )


def _certify(nums, points, target: int):
    """Certified discs (xr, xi, w, rho, t) for the polished ``points`` of
    the squarefree ``nums``, or None when the proof fails.

    n pairwise disjoint discs, each holding a root of a degree-n
    polynomial, hold one root each.  Real coefficients make the roots
    symmetric, so a disc that meets the real axis, and whose mirror image
    meets no other disc, holds a real root: it is snapped onto the axis
    and settled again.  Each disc in the upper half-plane gives a pair,
    itself and its exact conjugate; discs in the lower half-plane are
    dropped for their partners.  The real count plus twice the pair count
    must be n, and the final discs, real ones symmetric about the axis,
    are checked disjoint again."""
    n = len(nums) - 1
    _, discs = _discs(n, points)
    if not _disjoint(discs):
        return None
    out = []
    for i, ((xr, xi, w, exact), d) in enumerate(zip(points, discs)):
        if d[1] > d[2]:
            pr, pi, dr, di = exact
            out += [(xr, xi, w, exact), (xr, -xi, w, (pr, -pi, dr, -di))]
        elif d[1] < -d[2]:
            continue
        elif any(_meet(d, e, mirror=True) for j, e in enumerate(discs) if j != i):
            return None
        else:
            real = _settle(nums, xr, 0, w, target)
            if real is None:
                return None
            out.append(real)
    if len(out) != n:
        return None
    t, discs = _discs(n, out)
    if not _disjoint(discs):
        return None
    return [(xr, xi, w, d[2], t) for (xr, xi, w, _), d in zip(out, discs)]
