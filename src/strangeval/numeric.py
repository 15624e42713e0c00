"""High-precision complex numerics: gamma, 2F1 evaluation, root finding.

Everything runs inside an ``EvalContext`` carrying its own mpmath context
pinned to a mantissa precision (default 192 bits), so precision is passed
explicitly and never leaks through global state.  Conventions that matter:

* 2F1 parameters are exact rationals; only the argument is floating-point,
  so every path decision is exact and no integer test needs a tolerance;
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
  every path, but are not certified enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from mpmath.ctx_mp import MPContext
from mpmath.libmp import to_fixed

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


class EvalContext:
    """An isolated mpmath context at a fixed mantissa precision."""

    def __init__(self, precision: int = 192):
        if not isinstance(precision, int) or precision < 24:
            raise ParameterError(f"precision must be an integer >= 24 bits: {precision}")
        self.precision = precision
        ctx = MPContext()
        ctx.prec = precision
        self.mp = ctx

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


def _nonpos_int(x: Fraction):
    """x as an int when it is a nonpositive integer, else None."""
    return int(x) if x.denominator == 1 and x <= 0 else None


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

KNOWN_PATHS = (
    _PATH_DIRECT,
    _PATH_PFAFF_A,
    _PATH_PFAFF_B,
    _PATH_CONNECTION,
)


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
    # would follow count as small, so the loop stops and adds them to n
    if zi == 0:
        limit = peak >> target_bits
        while n < max_terms:
            tr = tr * zr * (an * bn) // (cn * kn) >> wp
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
            raise _no_convergence(mp, sr, 0, wp, max_terms)
    else:
        peak2 = peak * peak
        limit = peak2 >> 2 * target_bits
        while n < max_terms:
            p, q = an * bn, cn * kn
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
        else:
            raise _no_convergence(mp, sr, si, wp, max_terms)
        peak = math.isqrt(peak2)
    total = mp.mpc(mp.mpf((sr, -wp)), mp.mpf((si, -wp)))
    last = mp.hypot(mp.mpf((tr, -wp)), mp.mpf((ti, -wp)))
    return total, last, n + 3 - small, mp.mpf((peak, -wp))


def _no_convergence(mp, sr, si, wp, max_terms):
    best = mp.mpc(mp.mpf((sr, -wp)), mp.mpf((si, -wp)))
    return NonConvergenceError(
        f"2F1 series did not converge within {max_terms} terms", best=best
    )


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


def _out_of_budget(mp, z, what: str) -> NonConvergenceError:
    return NonConvergenceError(
        f"{what} at z = {mp.nstr(z, 15)} within the {_MAX_TERMS_CAP}-term budget"
    )


def hyp2f1_num(
    a, b, c, z,
    ctx: EvalContext | None = None,
    method: str | None = None,
    _allow_connection: bool = True,
) -> EvalResult:
    """Evaluate F(a, b, c; z) at the context precision.

    The parameters a, b, c are exact rationals (int or Fraction; anything
    else raises ``ParameterError``), so every path decision -- termination,
    the c pole, the Pfaff choice, connection degeneracy -- is made exactly;
    only z may be floating-point.  The path is chosen to minimize the
    effective argument modulus among the direct series, the two z/(z-1)
    maps, and the 1-z connection formula; the direct series is kept
    whenever |z| <= 0.7.  The two series inside the connection formula are
    themselves evaluated by the best of the direct and Pfaff routes, so the
    connection path reaches an effective argument of min(|1-z|, |1-1/z|),
    which covers the half-plane Re z > 1/2 where neither |z| nor |z/(z-1)|
    falls below 1.  Terminating series (including ones that terminate only
    after a Pfaff transformation) are summed as finite sums regardless of
    |z|, and in exact arithmetic when they terminate directly and z is
    rational.  ``method`` forces a specific path, mainly for cross-path
    agreement tests.  ``NonConvergenceError`` is raised when no path, or
    the forced one, converges within the term budget.
    """
    ctx = ctx or EvalContext()
    mp = ctx.mp
    prec = ctx.precision
    a, b, c = (_rational_param(x, f"2F1 parameter {n}") for x, n in zip((a, b, c), "abc"))
    ez = Fraction(z) if isinstance(z, (int, Fraction)) else None

    with ctx.workprec(GUARD_BITS + 32):
        zz = ctx.to_mp(z)
        target_bits = prec + GUARD_BITS

        m_term = min(
            (-m for m in (_nonpos_int(a), _nonpos_int(b)) if m is not None),
            default=None,
        )
        c_pole = _nonpos_int(c)
        if c_pole is not None and (m_term is None or m_term > -c_pole):
            raise ParameterError(
                f"lower parameter c = {c} is a nonpositive integer "
                "and the series does not terminate before the pole"
            )

        if m_term is not None and method is None:
            if ez is not None:
                # the parameter that ends the sum first goes in the b slot,
                # so the c-pole check sees only the terms that are summed
                other = b if _nonpos_int(a) == -m_term else a
                exact = terminating_poly(HypParams(other, -m_term, c))(ez)
                val = ctx.to_mp(exact)
                return EvalResult(+val, abs(val) * ctx.eps * 4, _PATH_DIRECT, m_term)
            total, last, n, peak = _series_2f1(
                mp, a, b, c, zz, target_bits, m_term + 8
            )
            value = _demote_real(mp, total)
            return EvalResult(+value, peak * ctx.eps * (n + 4), _PATH_DIRECT, n)

        if zz == 0:
            return EvalResult(mp.mpf(1), ctx.eps, _PATH_DIRECT, 0)

        on_cut = (
            abs(mp.im(zz)) <= mp.mpf(2) ** (-prec + 8) * (1 + abs(mp.re(zz)))
            and mp.re(zz) >= 1 - mp.mpf(2) ** -40
        )
        if on_cut and m_term is None:
            raise BranchCutError(
                f"z = {mp.nstr(zz, 15)} lies on the branch cut [1, oo)"
            )

        w = zz / (zz - 1)
        mod_direct = abs(zz)
        mod_pfaff = abs(w)
        # the connection's inner series fall back to their own Pfaff map,
        # whose argument is (1-z)/(-z) = 1 - 1/z
        mod_conn = min(abs(1 - zz), abs(1 - 1 / zz))

        # a transformed series terminates when c-a or c-b is a nonpositive
        # integer (the directly terminating cases were handled above)
        t_cb = _nonpos_int(c - b)
        t_ca = _nonpos_int(c - a)
        cab = c - a - b
        conn_degenerate = cab.denominator == 1

        if method is not None:
            path = method
        elif t_cb is not None or t_ca is not None:
            path = _PATH_PFAFF_A if t_cb is not None else _PATH_PFAFF_B
        elif mod_direct <= mp.mpf(7) / 10:
            path = _PATH_DIRECT
        else:
            options = []
            if _max_terms_for(mod_direct, prec, None) is not None:
                options.append((mod_direct, _PATH_DIRECT))
            if _max_terms_for(mod_pfaff, prec, None) is not None:
                pf = _PATH_PFAFF_A if abs(a) <= abs(b) else _PATH_PFAFF_B
                options.append((mod_pfaff, pf))
            conn_usable = (
                _allow_connection
                and _max_terms_for(mod_conn, prec, None) is not None
            )
            if conn_usable and not conn_degenerate:
                options.append((mod_conn, _PATH_CONNECTION))
            if not options:
                if conn_usable and conn_degenerate:
                    raise DegenerateConnectionError(
                        "only the 1-z connection would converge, but c-a-b "
                        f"= {cab} is an integer"
                    )
                raise _out_of_budget(mp, zz, "no evaluation map of 2F1 converges")
            options.sort(key=lambda t: t[0])
            path = options[0][1]

        if path == _PATH_DIRECT:
            max_terms = _max_terms_for(mod_direct, prec, m_term)
            if max_terms is None:
                raise _out_of_budget(mp, zz, "the direct series does not converge")
            total, last, n, peak = _series_2f1(mp, a, b, c, zz, target_bits, max_terms)
            est = _tail_estimate(mp, last, mod_direct, peak, n, a, b, c)
            value = total
        elif path in (_PATH_PFAFF_A, _PATH_PFAFF_B):
            if path == _PATH_PFAFF_A:
                pa, pb, t_inner = a, c - b, t_cb
            else:
                pa, pb, t_inner = b, c - a, t_ca
            pref = _principal_power(ctx, 1 - zz, -pa)
            max_terms = _max_terms_for(
                mod_pfaff, prec, None if t_inner is None else -t_inner
            )
            if max_terms is None:
                raise _out_of_budget(
                    mp, zz, "the pfaff-transformed series does not converge"
                )
            total, last, n, peak = _series_2f1(mp, pa, pb, c, w, target_bits, max_terms)
            est = abs(pref) * _tail_estimate(mp, last, mod_pfaff, peak, n, pa, pb, c)
            value = pref * total
        elif path == _PATH_CONNECTION:
            if conn_degenerate:
                raise DegenerateConnectionError(
                    f"c-a-b = {cab} is an integer; the two-term "
                    "connection formula degenerates"
                )
            if _max_terms_for(mod_conn, prec, None) is None:
                raise _out_of_budget(mp, zz, "the connection series does not converge")
            u = 1 - zz
            gc = gamma_c(c, ctx)
            coef1 = (
                gc * gamma_c(cab, ctx) * rgamma_c(c - a, ctx) * rgamma_c(c - b, ctx)
            )
            coef2 = (
                _principal_power(ctx, u, cab) * gc * gamma_c(-cab, ctx)
                * rgamma_c(a, ctx) * rgamma_c(b, ctx)
            )
            part1 = part2 = mp.mpf(0)
            e1 = e2 = mp.mpf(0)
            n = 0
            uu = 1 - ez if ez is not None else u
            if coef1 != 0:
                inner1 = hyp2f1_num(a, b, 1 - cab, uu, ctx, _allow_connection=False)
                part1 = coef1 * inner1.value
                e1 = abs(coef1) * inner1.est_error
                n += inner1.n_terms
            if coef2 != 0:
                inner2 = hyp2f1_num(
                    c - a, c - b, 1 + cab, uu, ctx, _allow_connection=False
                )
                part2 = coef2 * inner2.value
                e2 = abs(coef2) * inner2.est_error
                n += inner2.n_terms
            value = part1 + part2
            est = e1 + e2 + (abs(part1) + abs(part2)) * ctx.eps * 16
        else:
            raise ParameterError(f"unknown evaluation method {method!r}")

        if mp.im(zz) == 0 and mp.re(zz) < 1:
            value = _demote_real(mp, value)
        return EvalResult(+value, +est, path, n)


def _demote_real(mp, value):
    if mp.im(value) == 0:
        return mp.re(value)
    return value


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
    the tail whenever a+b > c+1, where that factor exceeds 1."""
    geom = last
    if last:  # else a terminating series ended in an exact zero term
        n = n_terms
        r = abs((a + n) * (b + n) / ((c + n) * (n + 1)))
        rho = modulus * max(1, mp.mpf(r.numerator) / r.denominator)
        if rho < 1:
            geom = last * rho / (1 - rho)
    return geom + peak * mp.mpf(n_terms + 8) * mp.mpf(2) ** (-mp.prec)


# ---------------------------------------------------------------------------
# polynomial roots

@dataclass
class RootSet:
    """Roots of an exact polynomial with their exact multiplicities.

    len(roots) == number of distinct roots; multiplicities sum to the
    degree; residual_bound majorizes |P(root)| over all reported roots.
    """

    roots: tuple
    multiplicities: tuple
    residual_bound: object

    def total_count(self) -> int:
        return sum(self.multiplicities)


def _horner_pair(coeffs, x):
    """(P(x), P'(x)) with ascending mp coefficients."""
    p = coeffs[-1]
    dp = p * 0
    for c in reversed(coeffs[:-1]):
        dp = dp * x + p
        p = p * x + c
    return p, dp


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
    squarefree decomposition of ``poly``.

    Each squarefree factor is solved by simultaneous Aberth iteration at
    an elevated working precision; its roots are simple, so the iteration
    converges fast and Newton steps polish every one of them.  Conjugate
    symmetry is enforced (the inputs here always have rational
    coefficients).  A squarefree ``poly`` is its own single factor.
    """
    if poly.degree is None or poly.degree < 1:
        raise ParameterError("root finding needs a polynomial of degree >= 1")
    work = EvalContext(precision + GUARD_BITS)
    mp = work.mp
    found = []
    for factor, mult in _squarefree_factors(poly):
        found.extend((x, mult) for x in _simple_roots(factor, work, precision))
    found.sort(key=lambda t: (mp.re(t[0]), mp.im(t[0])))

    pcoeffs = [work.to_mp(c) for c in poly.coeffs]
    residual = mp.mpf(0)
    for x, _ in found:
        r = abs(_horner_pair(pcoeffs, x)[0])
        if r > residual:
            residual = r
    return RootSet(
        roots=tuple(x for x, _ in found),
        multiplicities=tuple(m for _, m in found),
        residual_bound=residual,
    )


def _simple_roots(monic: Poly, work: EvalContext, precision: int) -> list:
    """Roots of a monic squarefree polynomial by Aberth iteration."""
    mp = work.mp
    n = monic.degree
    coeffs = [work.to_mp(c) for c in monic.coeffs]

    radius = 1 + max(abs(c) for c in coeffs[:-1])
    roots = [
        radius * mp.expjpi(mp.mpf(2 * k) / n + mp.mpf(1) / (2 * n + 1))
        for k in range(n)
    ]
    tol = mp.mpf(2) ** (-(precision // 2) - 8)
    converged = False
    for _ in range(400):
        max_step = mp.mpf(0)
        for i in range(n):
            x = roots[i]
            p, dp = _horner_pair(coeffs, x)
            if p == 0:
                continue
            if dp == 0:
                roots[i] = x + tol * (1 + abs(x))
                max_step = mp.inf
                continue
            newton = p / dp
            accum = mp.mpc(0)
            for j in range(n):
                if j != i:
                    accum += 1 / (x - roots[j])
            denom = 1 - newton * accum
            step = newton if denom == 0 else newton / denom
            roots[i] = x - step
            rel = abs(step) / (1 + abs(roots[i]))
            if rel > max_step:
                max_step = rel
        if max_step <= tol:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(
            f"Aberth iteration did not converge for {monic}", best=tuple(roots)
        )

    real_tol = mp.mpf(2) ** (-(precision // 2))
    roots = [
        mp.mpc(mp.re(r), 0) if abs(mp.im(r)) <= real_tol * (1 + abs(r)) else r
        for r in roots
    ]
    polished = []
    for x in _pair_conjugates(mp, roots, real_tol):
        for _ in range(4):
            p, dp = _horner_pair(coeffs, x)
            if dp == 0 or p == 0:
                break
            x = x - p / dp
        if abs(mp.im(x)) <= real_tol * (1 + abs(x)):
            x = mp.mpc(mp.re(x), 0)
        polished.append(x)
    return polished


def _pair_conjugates(mp, roots, real_tol):
    """Replace near-conjugate pairs by exact conjugates (real coefficients
    force the root set to be symmetric; the iteration only gets close)."""
    out = []
    upper = [r for r in roots if mp.im(r) > 0]
    lower = [r for r in roots if mp.im(r) < 0]
    out.extend(r for r in roots if mp.im(r) == 0)
    used = [False] * len(lower)
    for u in upper:
        best_j, best_d = None, None
        for j, l in enumerate(lower):
            if used[j]:
                continue
            d = abs(u - mp.conj(l))
            if best_d is None or d < best_d:
                best_j, best_d = j, d
        if best_j is not None and best_d <= mp.sqrt(real_tol) * (1 + abs(u)):
            used[best_j] = True
            w = (u + mp.conj(lower[best_j])) / 2
            out.extend([w, mp.conj(w)])
        else:
            out.append(u)
    out.extend(l for j, l in enumerate(lower) if not used[j])
    return out
