"""High-precision complex numerics: gamma, 2F1 evaluation, root finding.

Everything runs inside an ``EvalContext``, which carries the mpmath
context of its mantissa precision (default ``DEFAULT_PRECISION``, 192
bits, the default of every public precision; one context per
precision, apart from the global one), so precision is passed explicitly
and never leaks through global state.  Conventions that matter:

* 2F1 parameters are exact rationals; only the argument is floating-point,
  so every path decision is exact and no integer test needs a tolerance;
* the 2F1 evaluation maps (direct series, the two Pfaff maps, the 1-z
  connection) are described once per call, in a table built from two
  squared norms of the argument, N0 = |z|^2 and N1 = |z-1|^2, held as
  integers from z's dyadic components (only their mantissas squared):
  the maps' squared moduli are the exact ratios N0, N0/N1 and
  min(N1, N1/N0), and give the term budgets as doubles.  A table entry
  holds where the map's series ends, by the one rule of
  ``hyp.series_end`` (pfaff-a sums F(a, c-b; c; w), so a or c-b ends it,
  and pfaff-b F(b, c-a; c; w)); the Pfaff argument z/(z-1) is computed
  only for a Pfaff map taken.  The table holds only the maps defined at
  the input: the Pfaff maps and the connection need z != 1 and c not a
  nonpositive integer, and a forced method outside the table raises
  ``ParameterError``.  A Pfaff map may also sum its series through the
  connection at w = z/(z-1) (DLMF 15.8.2/15.8.3, as 15.8.1 then 15.8.4),
  whose two series run at 1-w = 1/(1-z), or by their own Pfaff maps at
  1/z: modulus min(1/|z|, 1/|1-z|), squared 1/max(N0, N1); it reports
  the Pfaff tag and degenerates when b-a is an integer.  One call,
  ``_Argument.least``, takes the forced map, else the first map whose
  series ends, else the route of least predicted cost in series terms
  (growth phase plus geometric tail per series summed, plus fixed costs
  for the connection's gammas and a Pfaff prefactor) among those whose
  series do not grow past 2^WORK_BITS, and sizes its term budget.  A terminating sum is the table's direct map, with that map's
  error.  Of the two Pfaff maps only the one whose series grows slower,
  the one that keeps the smaller of a and b, is a candidate;
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
  when a, b or c sits near a nonpositive integer, or |a| |b| exceeds
  2^GUARD_BITS); the rounding this adds
  stays below the roundoff allowance in every error estimate.  A complex
  series sums its geometric tail in blocks of _BLOCK terms: real
  coefficients advanced by the exact integer ratios, summed against the
  powers of z held once per call, and one complex product per block.
  Blocks run only where they cannot move the stopping index or the peak
  (past the index of monotone term ratios, once the peak is proved final,
  and while a block's last term stays above the stopping limit), so the
  stopping rule is the term-by-term one: three small terms end a sum
  only where the kernel proves a bound on its tail;
* gamma takes only an int or Fraction argument p/q, which is a pole
  exactly when it is a nonpositive integer, and delivers the working
  precision, precision + WORK_BITS bits, with W = precision + WORK_BITS +
  32.  Within ``_TAYLOR_SHIFT`` factors of [1/2, 3/2] it is an exact
  rational Pochhammer shift divided by 1/Gamma(1+x), |x| <= 1/2, whose
  Taylor series is summed by Horner on integers C_k = floor(c_k 2^W),
  held once per precision and built in integer arithmetic from Euler's
  gamma and zeta(2..N): one product and one floor division per term, no
  mpmath elementary function, and one final rounding, 28 bits below the
  delivered width.  Farther out it sums Spouge's series in fixed point,
  a term C_k q // (p + (k-1) q) on integers C_k = c_k 2^W, and only the
  exp/log of t^(z-1/2) e^-t (at W plus the bits of |(z-1/2) log t| + t)
  and the reflection's sine run in mpmath;
* inside ``EvalContext.sharing()``, a scope that ``verify_theorem`` opens
  around its root loop and nothing else opens, the engine keeps four
  kinds of result under their exact inputs, rationals as integers in
  lowest terms (a gamma argument as its numerator and denominator, a 2F1
  triple as its numerators over their least common denominator) and mp
  values as their exact mpf/mpc tuples, each kind because the two
  identities repeat it:
  - each series sum with its error (under the unordered pair {a, b},
    since the kernel is symmetric in a and b bit for bit; c; the
    argument; the working precision, the target bits and the term
    budget): both identities' Pfaff maps sum one series;
  - each inner result of the connection formula (under the ordered pair
    (a, b), c, the argument 1-z, the exact rational 1-z or None, and the
    working precision): the second identity's connection reads both of
    the first's, each a pair of series and its bookkeeping;
  - each logarithm a fractional power takes (under the exact base and
    the working precision): the powers of 1-z of both identities and the
    Pfaff prefactors take one logarithm;
  - each ``gamma_c`` value (under its argument): both identities'
    connections take the same seven.
  An argument's description and a reciprocal gamma are recomputed: each
  costs a few microseconds.  A repeat returns the value already computed
  from the same inputs, so every result is the same with or without the
  scope; outside it nothing is kept;
* a series' error is the kernel's proved bound on its tail, from the
  last term and a bound on every later term ratio, plus a roundoff
  allowance; the paths multiply it by the Pfaff prefactor's modulus, and
  the connection sums its parts' errors times the coefficients' moduli
  plus 16 2^-precision of each part (a Pfaff map through the connection
  takes that sum times the prefactor's modulus, plus 16 2^-precision of
  its value).  This bookkeeping runs in integers:
  the tail, the allowance and every modulus are taken up (the moduli by
  a ceiling root of the squared mantissas), and the sum is rounded up
  once into ``est_error``.  What is still an estimate is the roundoff
  allowance itself, peak (n+8) 2^-prec for the kernel's own fixed-point
  rounding, and the 16 2^-precision for the rounding of the connection's
  mp products.  The errors hold against an independent 320-bit reference
  on every path, and a 400-bit one on the series maps at modulus
  0.95-0.99, but are not certified enclosures;
* roots are found on the integer numerators of each squarefree factor:
  Aberth in Python ``complex`` from Newton-polygon circles, Newton in
  fixed-point Gaussian integers at doubling precision, and certification
  from the exact values of P and P' at the dyadic result.  The rational
  coefficients pair the non-real roots into exact conjugates, so only the
  closed upper half-plane is worked on: the points on or above the axis
  (or near it) are polished, the ones near it snapped onto it, and the
  inclusion discs of the kept set, the real ones and those strictly above
  the axis, are proved pairwise disjoint once, on that final set; where
  that fails, Aberth reruns in fixed point at doubling precision.
  ``find_roots`` alone adds the lower roots, each the exact conjugate of
  an upper one, and reports the pairing (``RootSet.conjugate_of``).
"""

from __future__ import annotations

import cmath
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    euler_fixed,
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpc_exp,
    mpc_log,
    mpc_mul_mpf,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    round_ceiling,
    round_nearest,
    to_fixed,
    to_rational,
)

from .errors import (
    BranchCutError,
    DegenerateConnectionError,
    GammaPoleError,
    NonConvergenceError,
    ParameterError,
)
from .hyp import HypParams, series_end, terminating_poly, vanishes_at
from .poly import Poly
from .scalars import is_nonpos_integer, over_common_denominator, rational, rising_product

# The mantissa bits of every public precision default, the CLI's too.
DEFAULT_PRECISION = 192
GUARD_BITS = 32
# The working precision is the context precision plus WORK_BITS: gamma
# values are delivered there, a 2F1 argument is rounded there and its
# evaluation runs there, and term budgets are sized for it.
WORK_BITS = 64
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


def check_precision(precision) -> None:
    """The precision rule of every entry point: an integer of at least 24
    bits, else ``ParameterError``."""
    if not isinstance(precision, int) or precision < 24:
        raise ParameterError(f"precision must be an integer >= 24 bits: {precision}")


class EvalContext:
    """An mpmath context at a fixed mantissa precision, apart from the
    global one.  Every EvalContext of one precision shares one MPContext,
    since building one costs ~0.6 ms and every mpf keeps its context
    alive; so its precision is changed only inside ``workprec``.

    Inside ``sharing()`` the 2F1 engine and the gamma functions keep what
    they compute on this context and return it again for the same exact
    inputs; outside it nothing is kept."""

    def __init__(self, precision: int = DEFAULT_PRECISION):
        check_precision(precision)
        self.precision = precision
        self.mp = _mp_context(precision)
        self._shared = None

    @contextmanager
    def sharing(self):
        """Share the 2F1 engine's series sums, inner connection results
        and logarithms, and the gamma values, among the calls made inside
        the block: the kinds of work the two identities of
        ``verify_theorem`` repeat (module docstring).  Every result is a
        function of the exact inputs it is keyed by, so a repeat returns
        the same value."""
        self._shared = {}
        try:
            yield
        finally:
            self._shared = None

    def _recall(self, key, compute):
        """compute(), or inside ``sharing()`` the value kept for ``key``."""
        shared = self._shared
        if shared is None:
            return compute()
        if key not in shared:
            shared[key] = compute()
        return shared[key]

    @property
    def eps(self):
        return self.mp.mpf(2) ** (-self.precision)

    def workprec(self, extra: int = GUARD_BITS):
        return self.mp.workprec(self.precision + extra)

    def to_mp(self, x):
        """Convert ints, Fractions, pairs (re, im) of them, floats, complex,
        mpf/mpc to this context.  A Fraction is rounded once, to nearest,
        and so is each component of a pair; ``mp.convert`` takes the rest."""
        if isinstance(x, tuple):
            return self.mp.mpc(*map(self.to_mp, x))
        if isinstance(x, Fraction):
            prec, rnd = self.mp._prec_rounding
            return self.mp.make_mpf(from_rational(x.numerator, x.denominator, prec, rnd))
        return self.mp.convert(x)


def _lowest(*xs) -> tuple:
    """Integers xs over one denominator, the last of them, divided by
    their greatest common divisor: the numerators over the least common
    denominator, which is the same tuple for the same rationals however
    they came (a memo key) and the kernel's own representation."""
    g = math.gcd(*xs)
    return tuple(x // g for x in xs)


@dataclass
class EvalResult:
    """A numeric value with an absolute error bound (rounded up; its
    roundoff allowance an estimate, see ``_hyp2f1``), the tag of
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

    The result is delivered at precision + WORK_BITS bits.  Its error
    budget, relative to the value, with a terms and
    wbits = precision + WORK_BITS + 32:

    * truncation: below a^(-1/2) (2 pi)^-(a + 1/2) (Spouge 1994), which the
      term count a = 0.3775 (precision + WORK_BITS) + 8 keeps below
      2^-(precision + WORK_BITS + 20);
    * coefficients: c_0 = sqrt(2 pi) and
      c_k = (-1)^(k-1) (a-k)^(k-1/2) e^(a-k) / (k-1)!
      are held as the integers C_k = floor(c_k 2^wbits), each computed
      with 2a + 16 bits beyond wbits (|c_k| stays below 2^(1.9 a)), so C_k
      is within one unit of c_k 2^wbits;
    * the fixed-point sum (``_spouge_sum``): within 3a units of
      2^-wbits, and the sum exceeds sqrt(2 pi) > 2, so below
      3a 2^-(wbits + 1), that is 32 - log2(3a / 2) bits (more than 23 up
      to 512-bit precision) below the delivered precision + WORK_BITS;
    * the mp stage (``_spouge_rational`` and the reflection formula): a
      few units of 2^-wbits, once the exp/log carry the bits that
      ``_spouge_rational`` works out from the argument.

    Cached per precision as plain ints, never as mpf objects: an mpf is
    bound to the context that created it."""
    table = _SPOUGE_CACHE.get(ctx.precision)
    if table is None:
        mp = ctx.mp
        deliver = ctx.precision + WORK_BITS
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


def _spouge_rational(p: int, q: int, mp, table):
    """Spouge's series for gamma at a rational z = p/q >= 1/2: the sum in
    fixed point, and only t^(z-1/2) e^(-t) = exp(y), y = (z-1/2) log t - t,
    t = z + a - 1, in mp arithmetic.  Rounding y's parts (z-1/2) log t and
    t to W bits leaves an absolute error in y of their size times 2^-W,
    which exp turns into a relative error of that size, so the exp/log run
    at wbits plus the bits of a bound on |(z-1/2) log t| + t: with
    T = ceil(t) >= |z - 1/2| and log t < bit_length(T), that is
    T (bit_length(T) + 1)."""
    terms, wbits, coeffs = table
    big_t = -(-(p + (terms - 1) * q) // q)
    headroom = (big_t * (big_t.bit_length() + 1)).bit_length()
    with mp.workprec(wbits + headroom):
        s = mp.mpf((_spouge_sum(p, q, coeffs), -wbits))
        t = mp.mpf(p + (terms - 1) * q) / q
        return mp.exp(mp.mpf(2 * p - q) / (2 * q) * mp.log(t) - t) * s


# Arguments within this many factors of [1/2, 3/2] take the Taylor path.
# At 192 bits a call costs 20-40 us there up to a shift of 64 factors,
# against 90-220 us for Spouge's sum, and the exact Pochhammer product of
# the shift makes the two cost about the same at 256 factors.
_TAYLOR_SHIFT = 256

# precision -> (wbits, (C_0, ..., C_N)), C_k = floor(c_k 2^wbits), the
# Taylor coefficients of 1/Gamma(1+x) = sum_k c_k x^k
_TAYLOR_CACHE: dict = {}


def _zeta_fixed(top: int, bits: int) -> list:
    """zeta(2), ..., zeta(top) times 2^bits as integers, each within
    2n + 4 units, n = ceil((bits + 2) / 2.543), of the exact value.

    They follow from Borwein's algorithm 2 (Borwein 2000, "An efficient
    algorithm for the Riemann zeta function"): with the integers
    d_i = n sum_(l<=i) (n+l-1)! 4^l / ((n-l)! (2l)!) and the weights
    w_j = (-1)^(j-1) (d_n - d_(j-1)) / d_n, |w_j| <= 1,
    zeta(k) = sum_(j<=n) w_j j^-k / (1 - 2^(1-k))
    within 4 (3 + sqrt 8)^-n <= 2^-bits for real k >= 2.  Each |w_j| is
    floored once to W_j = floor(|w_j| 2^bits), and W_j // j^k passes from
    k to k+1 by one more floor division by j, which keeps it the exact
    floor; so each term is within 1 + j^-k units, the sum within
    n + 0.65, and the factor 1 / (1 - 2^(1-k)) <= 2, the truncation and
    the final floor bring that to 2n + 4.  Every step is a floor division
    of a bits-wide integer by a small one: no product of two wide
    integers runs."""
    n = -(-(bits + 2) * 1000 // 2543)
    d, t, acc = [], 1, 0
    for i in range(n + 1):
        acc += t
        d.append(acc)
        t = t * 2 * (n + i) * (n - i) // ((2 * i + 1) * (i + 1))
    dn = d[n]
    sums = [0] * (top + 1)
    for j in range(1, n + 1):
        t = ((dn - d[j - 1]) << bits) // dn // j
        sign = 1 if j % 2 else -1
        for k in range(2, top + 1):
            t //= j
            if not t:
                break
            sums[k] += sign * t
    return [(sums[k] << k - 1) // ((1 << k - 1) - 1) for k in range(2, top + 1)]


def _taylor_table(precision: int):
    """The Taylor coefficients of 1/Gamma(1+x) for a precision, in fixed
    point: (wbits, (C_0, ..., C_N)) with
    wbits = precision + WORK_BITS + 32 and C_k = floor(c_k 2^wbits),
    built once per precision in integer arithmetic and cached as plain
    ints.

    The c_k follow from log(1/Gamma(1+x)) = gamma x - sum_(k>=2)
    (-1)^k zeta(k) x^k / k by the recurrence
    k c_k = gamma c_(k-1) + sum_(j=2..k) (-1)^(j+1) zeta(j) c_(k-j), c_0 = 1,
    run on integers at v = wbits + g bits, g = 2 bitlength(wbits) + 8, from
    Euler's gamma (mpmath's ``euler_fixed``, within a unit) and
    ``_zeta_fixed``: one floor per step.  With every constant within
    D = 2n + 4 units, |gamma|, zeta(j) < 1.65 and sum |c_k| < 2.51, the
    error of step k stays below (1 + 2.51 D) k units by induction, below
    2^(g-6) for every k <= N; so C_k = floor(c_k 2^v) >> g is within
    1 + 2^-6 units of c_k 2^wbits.

    The sum of ``_taylor_sum`` at |x| <= 1/2 then errs, in units of
    2^-wbits, by:

    * the tail past N: by Cauchy's estimate, |c_k| <= M 16^-k with M the
      maximum of |1/Gamma(1+x)| on |x| = 16, so the tail is below
      M 32^-(N+1) 32/31.  M < 2^65: with x = -s + it, log |1/Gamma(1+x)|^2
      = -2 gamma s + sum_k (log(1 - 2s/k + 256/k^2) + 2s/k) on the circle
      (Weierstrass' product), a concave function of s, so it lies below
      its tangent at s = 12, where it is near its maximum; the tangent
      stays below 2^65 over [-16, 16] (``test_taylor_circle_bound``
      evaluates it).  N = (wbits + 66) // 5 keeps the tail below 1/2;
    * the coefficients: within 1 + 2^-6 units each, so below 2.04 units
      in all at |x| <= 1/2;
    * the Horner steps: one floor each, a unit at most, and halved by
      every later step, so below 2 units in all.

    That is below 5 units of a sum of at least 1/Gamma(1/2) 2^wbits >
    0.56 2^wbits, a relative error below 2^-(wbits - 4), 28 bits below the
    precision + WORK_BITS that ``_gamma_taylor`` delivers after its one
    final rounding."""
    table = _TAYLOR_CACHE.get(precision)
    if table is None:
        wbits = precision + WORK_BITS + 32
        top = (wbits + 66) // 5
        guard = 2 * wbits.bit_length() + 8
        v = wbits + guard
        gamma = euler_fixed(v)
        zetas = [0, 0] + _zeta_fixed(top, v)
        fixed = [1 << v]
        for k in range(1, top + 1):
            acc = gamma * fixed[k - 1]
            for j in range(2, k + 1):
                term = zetas[j] * fixed[k - j]
                acc += term if j % 2 else -term
            fixed.append(acc // (k << v))
        table = _TAYLOR_CACHE[precision] = (wbits, tuple(c >> guard for c in fixed))
    return table


def _taylor_sum(xp: int, q: int, coeffs) -> int:
    """sum_k C_k x^k at x = xp / q, |x| <= 1/2, by Horner in fixed point:
    one product with xp and one floor division by q per term."""
    s = coeffs[-1]
    for ck in islice(reversed(coeffs), 1, None):
        s = ck + s * xp // q
    return s


def _gamma_taylor(p: int, q: int, m: int, ctx: EvalContext):
    """Gamma(p/q) for m = round(p/q) within ``_TAYLOR_SHIFT`` of 1, as
    Gamma(1+x) R with x = p/q - m in [-1/2, 1/2] and n = m - 1:
    R = (1+x)_n = (z-n)_n for n >= 0 and 1/(z)_(-n) for n < 0, the exact
    rational num/den with the integer ``rising_product`` on one side and a
    power of q on the other, so that
    Gamma = num 2^wbits / (den S), S = 2^wbits / Gamma(1+x) from
    ``_taylor_sum``, rounded once to precision + WORK_BITS bits."""
    wbits, coeffs = _taylor_table(ctx.precision)
    n = m - 1
    if n >= 0:
        num, den = rising_product(p - n * q, q, n), q**n
    else:
        num, den = q**-n, rising_product(p, q, -n)
    s = _taylor_sum(p - m * q, q, coeffs)
    prec = ctx.precision + WORK_BITS
    value = mpf_div(from_man_exp(num, wbits), from_int(den * s), prec, round_nearest)
    return ctx.mp.make_mpf(value)


def gamma_c(z, ctx: EvalContext | None = None):
    """Gamma at an exact rational argument, delivered at
    precision + WORK_BITS bits.

    z must be an int or Fraction; anything else raises ``ParameterError``.
    z is a pole exactly when it is a nonpositive integer, where
    ``GammaPoleError`` is raised.  Within ``_TAYLOR_SHIFT`` factors of
    [1/2, 3/2] the value is an exact Pochhammer shift times the Taylor
    series of 1/Gamma(1+x), |x| <= 1/2, summed in fixed point on a table
    of integers (``_gamma_taylor``): no mpmath elementary function runs,
    and the shift's factors are exact, so arguments however close to a
    pole keep their accuracy.  Farther out Spouge's series is summed in
    fixed point (``_spouge_rational``), with the reflection formula below
    1/2, whose sine is taken at the exact distance to the nearest integer.
    Inside ``ctx.sharing()`` a value is computed once per argument."""
    z = rational(z, "gamma argument")
    if is_nonpos_integer(z):
        raise GammaPoleError(f"gamma pole at {z}")
    ctx = ctx or EvalContext()
    return ctx._recall(("gamma", z.numerator, z.denominator), lambda: _gamma_rational(z, ctx))


def _gamma_rational(z: Fraction, ctx: EvalContext):
    """``gamma_c`` at z = p/q, not a pole."""
    p, q = z.numerator, z.denominator
    m = round(z)
    if abs(m - 1) <= _TAYLOR_SHIFT:
        return _gamma_taylor(p, q, m, ctx)
    mp = ctx.mp
    table = _spouge_table(ctx)
    if 2 * p >= q:
        value = _spouge_rational(p, q, mp, table)
    else:
        with mp.workprec(table[1]):
            # p/q - m, in lowest terms as p/q is
            sin = mp.sinpi(mp.mpf(p - m * q) / q)
            if m % 2:
                sin = -sin
            value = mp.pi / (sin * _spouge_rational(q - p, q, mp, table))
    with ctx.workprec(WORK_BITS):
        return +value


def rgamma_c(z, ctx: EvalContext | None = None):
    """1/Gamma: the reciprocal of ``gamma_c``'s value at the working
    precision, and exact 0 at the poles ``gamma_c`` rejects, the
    nonpositive integers, which the exact argument identifies without a
    tolerance (within ``_TAYLOR_SHIFT`` they are where the Pochhammer
    shift has a zero factor)."""
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
_PFAFF_PATHS = (_PATH_PFAFF_A, _PATH_PFAFF_B)
_SERIES_PATHS = (_PATH_DIRECT, *_PFAFF_PATHS)
KNOWN_PATHS = _SERIES_PATHS + (_PATH_CONNECTION,)


def _dip_bits(x: int, den: int) -> int:
    """Bits by which the factor (x/den + k) nearest zero, k >= 0, can set a
    term below the scale of the terms after it (an upper factor shrinks
    the term, a lower one lifts the terms after it): log2(1/d) for
    d = min(1, min_k |x/den + k|), and 0 when x/den is a nonpositive
    integer (the series then ends at that factor, or before it for a
    lower one).  With d = e/den, that is the bit length of den // e."""
    r = x % den
    if x >= den or not r:
        return 0
    return (den // (x if x > 0 else min(r, den - r))).bit_length()


def _monotone_from(an: int, bn: int, cn: int, den: int) -> int:
    """An index K >= 0, with c + K > 0, from which the term ratio
    r(x) = (x+a)(x+b) / ((x+c)(x+1)) is monotone, worked out exactly from
    a = an/den, b = bn/den, c = cn/den.

    r - 1 = (al x + be) / ((x+c)(x+1)) with al = a+b-c-1, be = ab-c, so on
    x > max(-c, -1) the sign of r' is that of -(al x^2 + 2 be x - ga),
    ga = al c - be (c+1).  Past the largest real root of that quadratic r
    is monotone, and it tends to 1.  Times den^3 the quadratic is
    s x^2 + 2 e x - g in integers, and every root of it lies within
    (|e| + sqrt(e^2 + |g s|)) / |s| of 0."""
    al = an + bn - cn - den
    be = an * bn - cn * den
    s, e = al * den * den, be * den
    g = al * cn * den - be * (cn + den)
    if s:
        root = -(-(abs(e) + _ceil_sqrt(e * e + abs(g * s))) // abs(s))
    elif e:
        root = -(-g // (2 * e))
    else:
        root = 0  # r is constant
    return max(0, root, -cn // den + 1)


def _tail_bound(zbar, wp, an, bn, cn, kn, tr, ti, monotone: bool):
    """A bound in units of 2^-wp on sum_(k>n) |t_k| past the term
    t_n = (tr + i ti) / 2^wp at z, |z| 2^wp <= zbar, (an, bn, cn, kn) =
    D (a+n, b+n, c+n, n+1): |t_n| rho / (1 - rho), |t_n| taken a unit up
    for the floor that gave it and the result rounded up, while
    rho = rn / rd < 1 bounds every later term ratio, else None.  Past
    ``_monotone_from`` (``monotone``) rho = |z| max(1, |r_n|),
    r_n = (a+n)(b+n) / ((c+n)(n+1)).  Before it, with c+n > 0, (a+k)/(k+1)
    and (b+k)/(c+k) each move monotonically to 1 as k grows, so rho is
    |z| max(1, |a+n|/(n+1)) max(1, |b+n|/(c+n)), or that with a and b
    swapped if less (so the bound is symmetric in a and b)."""
    q = cn * kn
    if monotone:
        rn = zbar * max(abs(an * bn), q)
    else:
        an, bn = abs(an), abs(bn)
        rn = zbar * min(max(an, kn) * max(bn, cn), max(bn, kn) * max(an, cn))
    rd = q << wp
    if rn >= rd:
        return None
    return -(-(math.isqrt(tr * tr + ti * ti) + 1) * rn // (rd - rn))


# terms summed per block in the geometric tail of a complex series
_BLOCK = 16


def _powers(zr: int, zi: int, wp: int):
    """z^1..z^_BLOCK for block mode, z = (zr + i zi) / 2^wp with |z| < 1,
    held at wp + e bits, 2^e >= |z|^-_BLOCK, so that a power times a
    coefficient c_j <= |z|^-j keeps wp bits: ([(Zr_j, Zi_j)], wp + e)."""
    e = (_BLOCK * ((1 << 2 * wp) // (zr * zr + zi * zi)).bit_length() + 1) // 2
    xr, xi = zr << e, zi << e
    out = [(xr, xi)]
    for _ in range(_BLOCK - 1):
        xr, xi = xr * zr - xi * zi >> wp, xr * zi + xi * zr >> wp
        out.append((xr, xi))
    return out, wp + e


def _block(wp, an, bn, cn, kn, den, powers, shift):
    """One block from the term index of (an, bn, cn, kn): the integers
    sum_j c_j z^j 2^wp and c_m z^m 2^wp, two components each, with c_j 2^wp
    advanced by the ratio (an bn) / (cn kn) of integers, one product and
    one floor division per term."""
    cj = 1 << wp
    qr = qi = 0
    for xr, xi in powers:
        cj = cj * (an * bn) // (cn * kn)
        qr += cj * xr
        qi += cj * xi
        an += den
        bn += den
        cn += den
        kn += den
    return qr >> shift, qi >> shift, cj * xr >> shift, cj * xi >> shift


def _series_2f1(mp, an: int, bn: int, cn: int, den: int, z, target_bits, max_terms):
    """Sum the defining series of F(a, b, c; z) in fixed point on Python ints.

    The parameters come as integers over their least common denominator
    D = den, a = A/D, b = B/D, c = C/D (``_lowest``), so the term ratio is
    the ratio of integers (A+nD)(B+nD) / ((C+nD)(n+1)D).
    A term is held as the integers (tr, ti) = t * 2^wp and each step costs
    one exact complex product with the fixed-point z and one floor division
    per component; a real z carries the real part only.

    Returns (total, tail, n_terms, peak, wp): total the sum as an mp value,
    and tail and peak integers in units of 2^-wp, the fixed point's unit:
    tail is ``_tail_bound`` where the sum stops, peak the largest
    |partial sum| seen, rounded up (at least 2^wp, since t_0 = 1).  It
    stops at the term an upper factor (a+k) or (b+k) makes exactly zero,
    after which every term is zero (a term that floors to zero ends
    nothing), or at the third or a later of consecutive small terms,
    |t| * 2^target_bits <= peak (tested exactly on integers, so a
    cancelling sum, |total| far below peak, cannot stall), once
    ``_tail_bound`` proves the tail there: small terms before the terms
    stop growing do not end the sum, and a sum whose tail is proved at its
    third small term stops there.
    n_terms is the index of the last term summed: of the last nonzero
    term when an upper factor ends the sum, as for the exact sum.

    Block mode.  A complex z sums the geometric tail _BLOCK terms at a
    time (rectangular splitting, Paterson & Stockmeyer 1973): from the
    term W = t_n, t_(n+j) = W c_j z^j with real c_j = r_n ... r_(n+j-1),
    so a block advances the integer c_j 2^wp by one small-integer product
    and one floor division per term, sums c_j z^j against the powers
    z^1..z^_BLOCK (held once per call, with enough extra bits that
    c_j <= |z|^-j loses none), and applies one complex product to W for
    the sum and one for the next W.  It runs only where it cannot change
    the stopping index or the peak:

    * past ``_monotone_from``, where every later ratio is at most
      rho = |z| max(1, |r_n|), and rho < 1, so the terms decrease;
    * once the peak is proved final: |S_n| plus ``_tail_bound``, the
      bound on every later partial sum, is below peak (1 - 2^-GUARD_BITS);
    * while the block's last term, the least of its terms, exceeds the
      stopping limit by 1/16 of it, so no term of the block is small.

    The rest, the final stretch included, runs term by term.

    Error model: each step floors once per component (the floor division
    by the small integer and the shift by wp compose to a single floor),
    an absolute error below 2^-wp, and z itself is rounded by less than
    2^-wp per component.
    A rounding at step k reaches the n-th term scaled by |t_n / t_k|.  No
    term exceeds 2 peak (each is the difference of two partial sums), and
    a term falls below the scale of those after it only at a factor (a+k)
    or (b+k) near zero -- early, when a or b sits just above (or below) a
    nonpositive integer -- and then by at most d, that factor's modulus;
    a factor (c+k) near zero lifts the terms after it above the roundings
    before it, and z's own, by at most 1/d_c.  A block floors each c_j,
    each power and the two block sums once per component: as
    c_j |z|^j <= rho^j <= 1, each term of the block is off by at most about
    2j |W| 2^-wp, and W by 2 _BLOCK |W| 2^-wp, so the block adds below
    _BLOCK^2 (2 peak) 2^-wp where the term-by-term loop adds
    2 _BLOCK 2^-wp.
    So the fixed-point sum is within about n^2 (2 peak / (d d_c)) 2^-wp of
    the sum over the rounded z.  That sum moves from the sum at z by about
    |F'(z)| 2^-wp, F' = (ab/c) F(a+1, b+1; c+1; z): the 1/c is d_c's, and
    |ab| is covered by the guard bits only up to 2^GUARD_BITS.  So
    wp = working precision + GUARD_BITS + log2(1/d) + log2(1/d_c) +
    max(0, log2(|a| |b|) - GUARD_BITS) keeps the error below the
    (n + 8) peak 2^-prec roundoff allowance that ``_hyp2f1`` adds to the
    tail for every n below 2^31; it also keeps the margins of the peak
    proof and of the block's last term far above the difference between
    the two ways of summing.  The tail is
    proved; the roundoff allowance is an estimate."""
    kn = den  # (n+1) D; an, bn, cn run as (a+n) D, (b+n) D, (c+n) D
    wp = mp.prec + GUARD_BITS + max(_dip_bits(an, den), _dip_bits(bn, den))
    # and the bits by which |a| |b| = |an bn| / den^2 exceeds 2^GUARD_BITS
    wp += _dip_bits(cn, den) + max(
        ((abs(an * bn) - 1) // (den * den)).bit_length() - GUARD_BITS, 0
    )
    zr = to_fixed(mp.re(z)._mpf_, wp)
    zi = to_fixed(mp.im(z)._mpf_, wp)
    tr = sr = peak = 1 << wp
    ti = si = 0
    small = n = 0
    mono = check = _monotone_from(an, bn, cn, den)
    zbar = math.isqrt(zr * zr + zi * zi) + 1  # |z| 2^wp, rounded up
    tail = None
    ended = False
    # a zero upper factor ends a terminating series, whose last term is
    # then the one before it.  A nonpositive-integer c is reached at most
    # together with the upper factor that ends the sum (hyp2f1_num checks
    # this); that term is 0 whatever it is divided by, so a zero divisor
    # is taken as 1.
    if zi == 0:
        limit = peak >> target_bits
        while n < max_terms:
            p = an * bn
            tr = tr * zr * p // (cn * kn or 1) >> wp
            an += den
            bn += den
            cn += den
            kn += den
            sr += tr
            n += 1
            if not p:
                tail, ended = 0, True
                break
            if abs(sr) > peak:
                peak = abs(sr)
                limit = peak >> target_bits
            if abs(tr) <= limit:
                small += 1
                if small >= 3:
                    tail = _tail_bound(zbar, wp, an, bn, cn, kn, tr, 0, n >= mono)
                    if tail is not None:
                        break
            else:
                small = 0
    else:
        peak2 = peak * peak
        limit = peak2 >> 2 * target_bits
        # block mode is tried at `check`, then every _BLOCK terms until the
        # peak is proved final; from then on it runs until a block's last
        # term comes near the limit, and the rest is summed term by term
        while n < max_terms:
            if n == check:
                check = n + _BLOCK
                # |S_n| plus the tail bound bounds every later |S_k|
                rest = _tail_bound(zbar, wp, an, bn, cn, kn, tr, ti, True)
                if rest is None:
                    continue
                top = math.isqrt(peak2)
                if math.isqrt(sr * sr + si * si) + 1 + rest > top - (top >> GUARD_BITS):
                    continue
                check = -1  # the peak is final: blocks from here on
                powers, shift = _powers(zr, zi, wp)
                edge = math.isqrt(limit) + 1
                floor2 = (edge + (edge >> 4)) ** 2
                while n + _BLOCK <= max_terms:
                    qr, qi, ur, ui = _block(wp, an, bn, cn, kn, den, powers, shift)
                    wr, wi = tr * ur - ti * ui >> wp, tr * ui + ti * ur >> wp
                    if wr * wr + wi * wi <= floor2:
                        break  # a term of the block may be small
                    sr += tr * qr - ti * qi >> wp
                    si += tr * qi + ti * qr >> wp
                    tr, ti = wr, wi
                    step = _BLOCK * den
                    an += step
                    bn += step
                    cn += step
                    kn += step
                    n += _BLOCK
                    small = 0
                continue
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
            if not p:
                tail, ended = 0, True
                break
            s2 = sr * sr + si * si
            if s2 > peak2:
                peak2 = s2
                limit = peak2 >> 2 * target_bits
            if tr * tr + ti * ti <= limit:
                small += 1
                if small >= 3:
                    tail = _tail_bound(zbar, wp, an, bn, cn, kn, tr, ti, n >= mono)
                    if tail is not None:
                        break
            else:
                small = 0
        peak = _ceil_sqrt(peak2)
    if tail is None:  # no break: the budget ran out
        raise NonConvergenceError(
            f"2F1 series did not converge within {max_terms} terms"
        )
    total = mp.mpc(mp.mpf((sr, -wp)), mp.mpf((si, -wp)))
    return total, tail, n - ended, peak, wp


def _max_terms_for(num: int, den: int, prec: int, terminating: int | None):
    """Term budget for a series whose argument has the squared modulus
    num / den > 0, or None when convergence to full precision is out of
    budget.  The modulus is read as the double sqrt(num / den), where
    num / den, Python's int true division, is the correctly rounded
    quotient, and one below the least double as the least double.

    The 1.3 factor plus additive headroom covers the initial hump and the
    polynomial growth of the coefficient ratio that a pure geometric
    estimate ignores."""
    if terminating is not None:
        return terminating + 8
    m = 1.0 if num >= den else max(math.sqrt(num / den), math.ulp(0))
    if m >= 1 - 2**-14:
        return None
    need = int(1.3 * (prec + WORK_BITS) * math.log(2) / -math.log(m)) + 256
    return need if need <= _MAX_TERMS_CAP else None


def hyp2f1_num(
    a, b, c, z, ctx: EvalContext | None = None, method: str | None = None
) -> EvalResult:
    """Evaluate F(a, b, c; z) at the context precision.

    a, b, c are exact rationals (int or Fraction; anything else raises
    ``ParameterError``), so every path decision -- termination, the c pole,
    the Pfaff choice, connection degeneracy -- is made exactly; only z may
    be floating-point, and it must be finite.  The effective argument
    modulus is |z| on the direct series, |z/(z-1)| on the two Pfaff maps,
    and min(|1-z|, |1-1/z|) on the 1-z connection formula, whose two inner
    series take the cheaper of the direct and Pfaff maps; that covers
    Re z > 1/2, where neither |z| nor |z/(z-1)| falls below 1.  A Pfaff
    map may also sum its series F(a, c-b; c; w), w = z/(z-1), through the
    connection at w (DLMF 15.8.2/15.8.3), whose inner series run at
    1-w = 1/(1-z) or 1 - 1/w = 1/z, modulus min(1/|z|, 1/|1-z|); it is
    reported as that Pfaff map and degenerates when b-a is an integer.
    The moduli are exact ratios of the integer squared norms |z|^2 and
    |z-1|^2, and each map's term budget comes from the double num / den of
    its ratio, correctly rounded.  A z with Re z >= 1 - 2^-40 and
    |Im z| <= 2^(8-precision) (1 + Re z), two integer comparisons on its
    aligned components, lies on the branch cut [1, oo), where a series
    that does not terminate raises ``BranchCutError``.  A map whose series
    terminates is taken first (the direct series before the Pfaff maps);
    else the route of least predicted cost in series terms: per series
    summed its growth phase, worked out from the exact parameters, plus
    the geometric tail (precision + GUARD_BITS) / -log2 m, and fixed costs
    for the connection's gammas and for a Pfaff prefactor; a route whose
    series grow past 2^WORK_BITS, and so cancel more bits than the working
    precision adds, is taken only when every route in budget does.  The
    Pfaff map there is the one whose series grows slower, the one that
    keeps the smaller of a and b (pfaff-a when a <= b); a degenerate
    connection is taken only when no other route is in budget.  On a series map
    ``est_error`` is the prefactor's modulus times the kernel's proved
    tail bound plus the roundoff allowance peak (n+8) 2^-prec at the
    working precision; the connection adds 16 2^-precision of each part
    to the parts' errors, and a Pfaff map through it multiplies that by
    the prefactor's modulus and adds 16 2^-precision of the value.  All
    are formed in integers from upper bounds on every modulus and rounded
    up once (``_hyp2f1``); the roundoff allowance is an estimate.
    z = 0 returns exactly 1 on the direct series, with no term summed and
    ``est_error`` 0, whatever ``method``.  A sum that terminates directly
    is finite whatever |z|, and exact at a rational z, rounded once with
    one unit in the last place as ``est_error``, or 0 when the rounding is
    exact; otherwise its error estimate is the direct map's, as for a
    forced direct-series.  ``method``, one of ``KNOWN_PATHS``, forces a
    path, mainly for cross-path agreement tests: a forced Pfaff map sums
    its series directly, never through the connection, and the choice by
    cost applies only without it.  It must be a map defined
    at the input (the Pfaff maps and the connection need z != 1 and c not
    a nonpositive integer), else ``ParameterError`` is raised.
    ``NonConvergenceError`` is raised when no path, or the forced one,
    converges within the term budget.  A value whose imaginary part is
    exactly 0 is returned as an mpf.

    A rational z, or a pair (re, im) of rationals, is rounded here, each
    component once at the working precision, so ``est_error`` covers its
    rounding; a pair whose imaginary part is 0 is its real part, exact as a
    real rational z is.  Any other pair raises ``ParameterError``.
    """
    ctx = ctx or EvalContext()
    a, b, c = (rational(x, f"2F1 parameter {n}") for x, n in zip((a, b, c), "abc"))
    if method is not None and method not in KNOWN_PATHS:
        raise ParameterError(f"unknown evaluation method {method!r}")
    if isinstance(z, tuple):
        if len(z) != 2:
            raise ParameterError(f"z must be a number or a pair (re, im), got {z!r}")
        re, im = (rational(x, "a component of z") for x in z)
        z = (re, im) if im else re
    ez = Fraction(z) if isinstance(z, (int, Fraction)) else None
    (an, bn, cn), den = over_common_denominator(a, b, c)
    with ctx.workprec(WORK_BITS):
        zz = ctx.to_mp(z)
        if not ctx.mp.isfinite(zz):
            raise ParameterError(f"z must be finite, got {z!r}")
        return _hyp2f1(ctx, an, bn, cn, zz, ez, method, KNOWN_PATHS, den)


def _exact(x):
    """The exact value of an mpf or mpc, as a hashable key."""
    return getattr(x, "_mpc_", None) or x._mpf_


def _gaussian(x) -> tuple:
    """A finite mpf or mpc x, a dyadic rational, as (xr, xi, w) with
    x = (xr + i xi) / 2^w exactly, xr and xi integers and w >= 0."""
    parts = x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero)
    (sr, mr, er, _), (si, mi, ei, _) = parts
    e = min(er, ei, 0)
    return (-mr if sr else mr) << er - e, (-mi if si else mi) << ei - e, -e


class _Argument:
    """The argument z of ``_hyp2f1`` as its path choice reads it: whether
    z lies on the branch cut [1, oo) as the engine reads it,
    Re z >= 1 - 2^-40 and |Im z| <= 2^(8-prec) (1 + Re z), decided by two
    integer comparisons on z's components aligned to one unit 2^-s
    (``_gaussian``); and the squared norms N0 = |z|^2 = n0 / 4^s and
    N1 = |z-1|^2 = n1 / 4^s.  Each map's squared modulus is then an exact
    ratio of integers: n0 / 4^s on the direct series, N0 / N1 = n0 / n1 on
    the Pfaff maps, min(N1, N1 / N0) = n1 / max(4^s, n0) on the
    connection, as |1-z|^2 = N1 and |1-1/z|^2 = N1 / N0, and
    min(1 / N1, 1 / N0) = 4^s / max(n0, n1) on a Pfaff map summed through
    the connection at w = z/(z-1), whose series run at 1-w = 1/(1-z) or
    1 - 1/w = 1/z.  Only the components' mantissas are squared:
    N1 = N0 - 2 Re z + 1, and the rest are shifts."""

    def __init__(self, zz, prec: int):
        xr, xi, s = _gaussian(zz)
        self.cut = xr << 40 >= (1 << 40) - 1 << s and abs(xi) << prec - 8 <= xr + (1 << s)
        parts = zz._mpc_ if hasattr(zz, "_mpc_") else (zz._mpf_, fzero)
        (sr, mr, er, _), (_, mi, ei, _) = parts
        self.scale = 1 << 2 * s
        self.n0 = (mr * mr << 2 * (er + s)) + (mi * mi << 2 * (ei + s))
        self.n1 = self.n0 - ((-mr if sr else mr) << er + 2 * s + 1) + self.scale

    def squared(self, path: str, via: bool = False) -> tuple:
        """The map's squared modulus as (numerator, denominator); ``via``
        for a Pfaff map summed through the connection at w."""
        if via:
            return self.scale, max(self.n0, self.n1)
        if path == _PATH_DIRECT:
            return self.n0, self.scale
        if path == _PATH_CONNECTION:
            return self.n1, max(self.scale, self.n0)
        return self.n0, self.n1

    def least(self, maps, routes, prec: int, den: int) -> tuple:
        """The route to take and its term budget (``_max_terms_for``):
        (route, budget).  ``maps`` is the table, path -> where the map's
        series ends (``hyp.series_end``) or None; ``routes`` are
        ``_Route``s over it, in the order ties go.  The first map of the
        table whose series ends is taken, as its series route.  Else each
        route in budget has a predicted cost in series terms: for each
        series it sums, the growth phase (``_growth_phase``) plus the
        geometric tail (prec + GUARD_BITS) / -log2 m, m the route's
        modulus, and the fixed costs ``_CONNECTION_TERMS`` on a route that
        sums two and ``_POWER_TERMS`` on a Pfaff map.  A route is lossy
        when a series it sums grows past 2^WORK_BITS (``_log2_term`` at
        the end of its growth phase): the kernel's fixed point then
        cancels more bits than the working precision adds.  Routes rank
        by (out of budget, ``degenerate``, lossy, cost), ties in the order
        of ``routes``: the cheapest accurate route is taken.  A forced
        route, the one entry of ``routes``, is taken as it is."""
        ending = next((p for p, end in maps.items() if end is not None), None)
        if ending is not None:
            route = _Route(ending, False, (), False)
            return route, _max_terms_for(*self.squared(ending), prec, maps[ending])
        if len(routes) == 1:
            (route,) = routes
            return route, _max_terms_for(*self.squared(route.path, route.via), prec, None)
        best = None
        for route in routes:
            two = route.via or route.path == _PATH_CONNECTION
            cost = (_CONNECTION_TERMS if two else 0) + (
                _POWER_TERMS if route.path in _PFAFF_PATHS else 0
            )
            # the costs only add: the fixed cost, then the tails, then the
            # growth phases, each worked out only while the route can win
            if best is not None and best[0] <= (False, route.degenerate, False, cost):
                continue
            num, d = self.squared(route.path, route.via)
            rank, budget = (True, route.degenerate, False, 0.0), None
            m2 = max(num / d, math.ulp(0)) if num < d else 1.0
            if m2 < 1:
                tail = 2 * (prec + GUARD_BITS) / -math.log2(m2)
                cost += 2 * tail if two else tail
                if best is not None and best[0] <= (False, route.degenerate, False, cost):
                    continue
                budget = _max_terms_for(num, d, prec, None)
            if budget is not None:
                series = (route.params,)
                if two:
                    # the connection's series run at 1-z, or by their Pfaff
                    # maps at 1 - 1/z when |z| > 1; through the connection
                    # at w at 1/(1-z), or at 1/z when |z| > |1-z|
                    pfaffed = self.n0 > (self.n1 if route.via else self.scale)
                    series = _connection_series(*route.params, den, pfaffed)
                m, lossy = math.sqrt(m2), False
                for t in series:
                    grow = _growth_phase(*t, den, m)
                    cost += grow
                    lossy = lossy or grow > 0 and _log2_term(*t, den, m, grow) > WORK_BITS
                rank = False, route.degenerate, lossy, cost
            if best is None or rank < best[0]:
                best = rank, route, budget
        return best[1:]


class _Route(NamedTuple):
    """An entry of ``_hyp2f1``'s map table: the path tag it reports,
    whether it is a Pfaff map summed through the connection at z/(z-1)
    (``via``), the parameters (a, b, c) of the function its series map or
    connection formula is applied to, over one denominator, and whether
    that connection formula degenerates."""

    path: str
    via: bool
    params: tuple
    degenerate: bool


# Fixed costs in series terms at the default precision: the connection
# formula's seven gamma values and its power, on a route that sums two
# series, and a Pfaff map's prefactor (1-z)^-a and argument z/(z-1)
_CONNECTION_TERMS = 600
_POWER_TERMS = 100


def _connection_series(a: int, b: int, c: int, den: int, pfaffed: bool) -> tuple:
    """The triples over den of the two series the 1-x connection formula
    (DLMF 15.8.4) sums for F(a, b; c; x): (a, b, a+b-c+1) and
    (c-a, c-b, c-a-b+1) at 1-x, or, ``pfaffed``, each (p, q, r) through
    its slower Pfaff map at 1 - 1/x, (p, r-q, r) when p <= q, else
    (q, r-p, r), as ``_hyp2f1`` picks it."""
    cab = c - a - b
    triples = ((a, b, den - cab), (c - a, c - b, den + cab))
    if pfaffed:
        triples = tuple((p, r - q, r) if p <= q else (q, r - p, r) for p, q, r in triples)
    return triples


def _growth_phase(an: int, bn: int, cn: int, den: int, m: float) -> float:
    """The index up to which the terms of F(a, b; c; x), |x| = m < 1,
    a = an/den, b = bn/den, c = cn/den, may still grow: the largest n >= 0
    with m |(n+a)(n+b)| > |(n+c)(n+1)|, or 0; infinite when a parameter is
    beyond the range of a double.  As for ``_monotone_from`` it is a root
    of a quadratic in n:
    between the points -a, -b, -c where a factor changes sign, the
    condition is g(n) = s m (n+a)(n+b) - t (n+c)(n+1) > 0, with s and t
    the signs of the two products there.  The intervals are searched from
    the right.  In one that ends at -c (and not at -a or -b) g is
    positive just below the end, the terms rising towards the small
    divisor; in any other g is at most 0 at its end, and the answer is
    g's largest root inside it, if it has one."""
    try:
        a, b, c = an / den, bn / den, cn / den
    except OverflowError:
        return math.inf
    edges = sorted({-x for x in (a, b, c) if x < 0}, reverse=True) if min(a, b, c) < 0 else []
    edges.append(0.0)
    hi = math.inf
    for lo in edges:
        if hi == -c != -a and hi != -b:
            return hi
        mid = lo + 1 if hi == math.inf else (lo + hi) / 2
        s = m if (mid + a) * (mid + b) > 0 else -m
        t = 1 if mid + c > 0 else -1
        qa, qb, qc = s - t, s * (a + b) - t * (c + 1), s * a * b - t * c
        disc = qb * qb - 4 * qa * qc
        if qa and disc >= 0:
            r = math.sqrt(disc)
            x, y = (-qb + r) / (2 * qa), (-qb - r) / (2 * qa)
            if x < y:
                x, y = y, x
        else:
            x = y = -qc / qb if not qa and qb else lo
        if lo < x < hi:
            return x
        if lo < y < hi:
            return y
        hi = lo
    return 0.0


def _log2_term(an: int, bn: int, cn: int, den: int, m: float, n: float) -> float:
    """log2 |t_n| for the terms t_n = (a)_n (b)_n / ((c)_n n!) x^n of
    F(a, b; c; x), |x| = m, a = an/den, b = bn/den, c = cn/den, read off
    log |Gamma| (``math.lgamma``) at a real n >= 0; infinite where a
    gamma argument is a pole or out of range."""
    try:
        a, b, c = an / den, bn / den, cn / den
        lg = math.lgamma
        log_t = (
            n * math.log(m) + lg(n + a) - lg(a) + lg(n + b) - lg(b)
            - lg(n + c) + lg(c) - lg(n + 1)
        )
    except (ValueError, OverflowError):
        return math.inf
    return log_t / math.log(2)


def _ceil_abs(x, bits: int) -> tuple:
    """(m, f) with |x| <= m 2^f for a finite mpf or mpc x, m of about
    ``bits`` bits: f lies ``bits`` below the leading bit of x's larger
    component, each component is taken up to a multiple of 2^f (it is
    one already unless its bits reach lower), and m is the ceiling of the
    root of the sum of their squares.  (0, 0) at x = 0."""
    parts = [t for t in getattr(x, "_mpc_", None) or (x._mpf_,) if t[1]]
    if not parts:
        return 0, 0
    f = max(e + bc for _, _, e, bc in parts) - bits
    ms = [man << e - f if e >= f else -(-man >> f - e) for _, man, e, _ in parts]
    return (ms[0] if len(ms) == 1 else _ceil_sqrt(ms[0] ** 2 + ms[1] ** 2)), f


def _round_up(mp, terms):
    """The sum of the dyadics m 2^f, m >= 0, in ``terms`` as an mpf of the
    context's precision, rounded up once; 0 when every m is 0.  The sum is
    exact in integers at the least exponent, except that a term whose bits
    reach more than 4 precisions below the largest leading bit is first
    taken up to that unit."""
    terms = [(m, f) for m, f in terms if m]
    if not terms:
        return mp.zero
    top = max(m.bit_length() + f for m, f in terms)
    unit = max(min(f for _, f in terms), top - 4 * mp.prec)
    total = sum(m << f - unit if f >= unit else -(-m >> unit - f) for m, f in terms)
    return mp.make_mpf(from_man_exp(total, unit, mp.prec, round_ceiling))


def _hyp2f1(ctx: EvalContext, a, b, c, zz, ez, method, paths, den) -> EvalResult:
    """``hyp2f1_num`` at the working precision it sets, for the parameters
    a/den, b/den, c/den: integers over one denominator den > 0, so every
    parameter worked out here (c-a-b, c-a, c-b, the Pfaff pairs, the
    connection's inner triples) is an integer over den too and no
    Fraction arithmetic runs.  zz is z in the context, ez the exact
    rational z or None, and the path is the forced ``method`` or the best
    of ``paths``.

    The error is kept in integers and rounded up once (``_round_up``): on
    a series map as ``_summed`` forms it, on the connection as
    ``_connection`` does, and on a Pfaff map through the connection as
    |pref| times the connection's terms plus 16 2^-precision |value|, each
    modulus taken up by ``_ceil_abs``."""
    mp = ctx.mp
    prec = ctx.precision
    target_bits = prec + GUARD_BITS

    m_term = series_end(a, b, c, den)

    if zz == 0:
        return EvalResult(mp.mpf(1), mp.zero, _PATH_DIRECT, 0)

    if m_term is not None and method is None and ez is not None:
        # the exact sum is rounded once, so one unit in its last place
        # bounds the error, and 0 does when the rounding is exact
        params = HypParams(Fraction(a, den), Fraction(b, den), Fraction(c, den))
        exact = terminating_poly(params)(ez)
        val = ctx.to_mp(exact)
        _, _, exp, bc = val._mpf_
        ulp = mp.zero
        if Fraction(*to_rational(val._mpf_)) != exact:
            ulp = mp.make_mpf(from_man_exp(1, exp + bc - mp.prec))
        return EvalResult(val, ulp, _PATH_DIRECT, m_term)

    arg = _Argument(zz, prec)
    if arg.cut and m_term is None:
        raise BranchCutError(f"z = {mp.nstr(zz, 15)} lies on the branch cut [1, oo)")

    cab = c - a - b
    degenerate = not cab % den
    # the upper parameters of the series each Pfaff map sums: pfaff-a sums
    # F(a, c-b; c; w) and pfaff-b F(b, c-a; c; w), w = z/(z-1); both the
    # table's ends and the evaluation read them here
    pfaff = {_PATH_PFAFF_A: (a, c - b), _PATH_PFAFF_B: (b, c - a)}
    # path -> where the map's series ends (``series_end``), else None, for
    # the maps defined at the input: the Pfaff maps (DLMF 15.8.1) move c-b
    # or c-a with c, so they and the connection formula (15.8.4) need
    # z != 1 and c not a nonpositive integer.  The connection's inner
    # series fall back to their own Pfaff map, of argument
    # (1-z)/(-z) = 1 - 1/z
    maps = {_PATH_DIRECT: m_term}
    if arg.n1 and vanishes_at(c, den) is None:
        for path, (pa, pb) in pfaff.items():
            maps[path] = series_end(pa, pb, c, den)
        if _PATH_CONNECTION in paths:
            maps[_PATH_CONNECTION] = None
    if method is None:
        # of the two Pfaff series the one that grows slower; through the
        # connection at w (DLMF 15.8.2/15.8.3 as 15.8.1 then 15.8.4) both
        # sum the same two series, at 1/(1-z) or, by their own Pfaff
        # maps, at 1/z, and it degenerates when b-a is an integer
        slower = _PATH_PFAFF_A if a <= b else _PATH_PFAFF_B
        routes = [_Route(_PATH_DIRECT, False, (a, b, c), False)]
        if slower in maps:
            routes.append(_Route(slower, False, (*pfaff[slower], c), False))
        if _PATH_CONNECTION in maps:
            routes += [
                _Route(_PATH_CONNECTION, False, (a, b, c), degenerate),
                _Route(slower, True, (*pfaff[slower], c), not (b - a) % den),
            ]
    elif method in maps:
        maps = {method: maps[method]}
        routes = [_Route(method, False, (), method == _PATH_CONNECTION and degenerate)]
    else:
        raise ParameterError(
            f"the {method} map of 2F1 is not defined at c = {Fraction(c, den)}, "
            f"z = {mp.nstr(zz, 15)}; it needs z != 1 and c not a nonpositive integer"
        )
    route, max_terms = arg.least(maps, routes, prec, den)
    method = route.path
    if route.degenerate:
        diff, where = (Fraction(b - a, den), "b-a") if route.via else (Fraction(cab, den), "c-a-b")
        raise DegenerateConnectionError(
            f"{where} = {diff} is an integer; "
            "the two-term connection formula degenerates"
        )
    if max_terms is None:
        raise NonConvergenceError(
            f"the {method} map of 2F1 does not converge at z = {mp.nstr(zz, 15)} "
            f"within the {_MAX_TERMS_CAP}-term budget"
        )

    if method == _PATH_CONNECTION:
        value, terms, n = _connection(
            ctx, a, b, c, den, 1 - zz, None if ez is None else 1 - ez
        )
    elif method == _PATH_DIRECT:
        value, n, terms = _summed(ctx, None, a, b, c, den, zz, target_bits, max_terms)
    else:
        pa, pb = pfaff[method]
        pref = _principal_power(ctx, 1 - zz, -pa, den)
        if route.via:
            # the connection at w = z/(z-1) for F(pa, pb; c; w), with
            # 1-w = 1/(1-z) formed from z, not from w, so that it keeps
            # the working precision however large |z| is
            eu = None if ez is None else 1 / (1 - ez)
            inner, terms, n = _connection(
                ctx, pa, pb, c, den, 1 / (1 - zz) if eu is None else ctx.to_mp(eu), eu
            )
            value = pref * inner
            m, f = _ceil_abs(pref, mp.prec)
            pm, pf = _ceil_abs(value, mp.prec)
            # |pref| times the connection's error, and 16 2^-precision
            # |value| for the rounding of pref and of the product
            terms = [(m * mi, f + fi) for mi, fi in terms] + [(pm, pf + 4 - prec)]
        else:
            value, n, terms = _summed(
                ctx, pref, pa, pb, c, den, zz / (zz - 1), target_bits, max_terms
            )

    if mp.im(value) == 0:
        value = mp.re(value)
    return EvalResult(+value, _round_up(mp, terms), method, n)


def _connection(ctx: EvalContext, a, b, c, den, u, eu):
    """F(a, b; c; x) by the 1-x connection formula (DLMF 15.8.4), for
    a/den, b/den, c/den with c-a-b not an integer, u = 1-x in the context
    and eu the exact rational 1-x or None: (value, error terms for
    ``_round_up``, terms summed).  The power u^(c-a-b) is taken of u; the
    two inner series run at eu, rounded once, when it is given, else at
    u, each on the series maps only, and are kept inside ``sharing()``.
    The error is sum_i |coef_i| err_i + 16 2^-precision |part_i|, with
    err_i the inner result's est_error and each modulus by ``_ceil_abs``."""
    mp = ctx.mp
    cab = c - a - b
    # the gamma arguments become Fractions here, at gamma_c's interface
    gc = gamma_c(Fraction(c, den), ctx)
    coef1 = (
        gc * gamma_c(Fraction(cab, den), ctx)
        * rgamma_c(Fraction(c - a, den), ctx) * rgamma_c(Fraction(c - b, den), ctx)
    )
    coef2 = (
        _principal_power(ctx, u, cab, den) * gc * gamma_c(Fraction(-cab, den), ctx)
        * rgamma_c(Fraction(a, den), ctx) * rgamma_c(Fraction(b, den), ctx)
    )
    uu = u if eu is None else ctx.to_mp(eu)
    u_key = (_exact(uu), None if eu is None else (eu.numerator, eu.denominator))
    parts, terms, n = [], [], 0
    for coef, (pa, pb, pc) in zip((coef1, coef2), _connection_series(a, b, c, den, False)):
        if coef != 0:
            # ordered (pa, pb): with c-a and c-b both nonpositive
            # integers the terminating Pfaff map taken depends on it
            inner_params = _lowest(pa, pb, pc, den)
            inner = ctx._recall(
                ("inner", *inner_params, u_key, mp.prec),
                lambda: _hyp2f1(
                    ctx, *inner_params[:3], uu, eu, None, _SERIES_PATHS, inner_params[3]
                ),
            )
            part = coef * inner.value
            parts.append(part)
            m, f = _ceil_abs(coef, mp.prec)
            _, man, exp, _ = inner.est_error._mpf_
            terms.append((m * man, f + exp))
            m, f = _ceil_abs(part, mp.prec)
            terms.append((m, f + 4 - ctx.precision))  # 16 2^-precision |part|
            n += inner.n_terms
    return sum(parts, mp.mpf(0)), terms, n


def _summed(ctx: EvalContext, pref, a, b, c, den, x, target_bits, max_terms):
    """pref F(a, b; c; x) on the kernel, for a/den, b/den, c/den: (value,
    terms summed, error terms for ``_round_up``).  The error is
    |pref| (tail + ceil(peak (n+8) 2^-wprec)) in the kernel's unit 2^-wp,
    |pref| taken up by ``_ceil_abs``, or 1 when pref is None (the direct
    series).  Inside ``sharing()`` the sum is kept under its exact
    inputs."""
    mp = ctx.mp
    pa, pb, pc, d = _lowest(a, b, c, den)
    # the kernel is symmetric in pa and pb, bit for bit
    key = ("series", *sorted((pa, pb)), pc, d, _exact(x), mp.prec, target_bits, max_terms)

    def summed():
        total, tail, n, peak, wp = _series_2f1(mp, pa, pb, pc, d, x, target_bits, max_terms)
        # the tail and the roundoff allowance peak (n+8) 2^-mp.prec,
        # rounded up, in the kernel's unit 2^-wp
        return total, n, tail - (-peak * (n + 8) >> mp.prec), wp

    total, n, err, wp = ctx._recall(key, summed)
    if pref is None:
        return total, n, [(err, -wp)]
    m, f = _ceil_abs(pref, mp.prec)
    return pref * total, n, [(m * err, f - wp)]


def _principal_power(ctx: EvalContext, base, p: int, q: int):
    """base**(p/q), q > 0, on the principal branch, bit for bit ``mp.power``:
    exact for integer exponents, through the square root for
    half-integers, and otherwise exp(expo L) with L = log(base) at the
    working precision + 10, formed as mpmath's ``mpc_pow_mpf`` and
    ``mpf_pow`` form it.  Inside ``ctx.sharing()`` L is kept under the
    exact base, so the powers of one base take one logarithm."""
    mp = ctx.mp
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if q == 1:
        return mp.power(base, p)
    expo = mp.mpf(p) / mp.mpf(q)
    z = getattr(base, "_mpc_", None)
    if q == 2 or z is None and base <= 0:
        # the square root, or a real base mpf_pow hands to the complex plane
        return mp.power(base, expo)
    prec, rnd = mp._prec_rounding
    if z is not None:
        log = ctx._recall(("log", z, prec), lambda: mpc_log(z, prec + 10))
        return mp.make_mpc(mpc_exp(mpc_mul_mpf(log, expo._mpf_, prec + 10), prec, rnd))
    x = base._mpf_
    log = ctx._recall(("log", x, prec), lambda: mpf_log(x, prec + 10, rnd))
    return mp.make_mpf(mpf_exp(mpf_mul(expo._mpf_, log), prec, rnd))


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
    its roots.  A root with zero imaginary part is proved real; a root
    below the real axis is the exact conjugate of a root above it, whose
    index is its entry in ``conjugate_of`` (None for every other root).
    ``residual_bound`` majorizes |P(root)| over all reported roots.
    """

    roots: tuple
    multiplicities: tuple
    residual_bound: object
    inclusion_radius: object
    conjugate_of: tuple


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


def find_roots(poly: Poly, precision: int = DEFAULT_PRECISION) -> RootSet:
    """All complex roots, with multiplicities taken from the exact
    squarefree decomposition of ``poly``, each certified to within
    2^-precision of its size, in order of (Re, Im).

    Each squarefree factor, held as its integer numerators, goes through
    ``_factor_roots``: Aberth in Python ``complex``, Newton polishing in
    fixed-point Gaussian integers with doubling precision, and a proof
    from exact arithmetic that the inclusion discs are disjoint.  It gives
    the real roots and the roots above the axis; each of these is emitted
    with its exact conjugate, and, as |P(conj x)| = |P(x)|, its residual
    is taken once.  When ``poly`` is one squarefree factor of multiplicity
    1, its numerators are an integer g times the factor's, so the residual
    is |g| times the factor's exact value at the root, which the proof has
    already computed; otherwise it is ``poly`` evaluated there exactly.
    The largest residual and radius are kept as integer fractions and
    rounded up once, and the roots are ordered by their exact components.
    ``NonConvergenceError`` is raised only when a factor cannot be
    certified after every fixed-point escalation."""
    check_precision(precision)
    if poly.degree is None or poly.degree < 1:
        raise ParameterError("root finding needs a polynomial of degree >= 1")
    target = precision + GUARD_BITS
    mp = EvalContext(target).mp
    factors = _squarefree_factors(poly)
    g = None
    if len(factors) == 1 and factors[0][1] == 1:
        # the factor is monic, so its numerators are primitive and
        # poly.nums = g factor.nums for an integer g
        g = poly.nums[-1] // factors[0][0].nums[-1]
    found = []  # (xr, xi, w, multiplicity, index in found of its upper partner)
    radius = residual = (0, 1)  # (num, den), den > 0
    for factor, mult in factors:
        for xr, xi, w, rho, t, (pr, pi) in _factor_roots(factor.nums, target):
            found.append((xr, xi, w, mult, None))
            if xi:
                found.append((xr, -xi, w, mult, len(found) - 1))
            if g is None:
                pr, pi = _horner_exact(poly.nums, xr, xi, w)[:2]
            else:
                pr, pi = g * pr, g * pi
            bound = _ceil_sqrt(pr * pr + pi * pi), poly.den << w * poly.degree
            residual = _larger(residual, bound)
            radius = _larger(radius, (rho, 1 << t))
    top = max(x[2] for x in found)

    def on_one_grid(k):
        xr, xi, w = found[k][:3]
        return xr << top - w, xi << top - w

    order = sorted(range(len(found)), key=on_one_grid)
    rank = {k: i for i, k in enumerate(order)}
    xrs, xis, ws, mults, partners = zip(*(found[k] for k in order))
    return RootSet(
        roots=tuple(
            mp.make_mpc((from_man_exp(xr, -w), from_man_exp(xi, -w)))
            for xr, xi, w in zip(xrs, xis, ws)
        ),
        multiplicities=mults,
        residual_bound=_upper_mpf(mp, residual, target),
        inclusion_radius=_upper_mpf(mp, radius, target),
        conjugate_of=tuple(None if j is None else rank[j] for j in partners),
    )


def _larger(p: tuple, q: tuple) -> tuple:
    """The larger of two nonnegative fractions (num, den), den > 0."""
    return q if q[0] * p[1] > p[0] * q[1] else p


def exact_conjugate(x):
    """conj x, exactly: ``mpc.conjugate`` rounds to its context's current
    precision, and a value carries the guard bits of the precision it was
    computed at.  A real x, an mpf, is its own conjugate: the engine
    returns one for F(0, b; c; z) = 1."""
    if not hasattr(x, "_mpc_"):
        return x
    re, im = x._mpc_
    return x.context.make_mpc((re, mpf_neg(im)))


def exact_poly_value(poly: Poly, x, mp):
    """poly(x) at a finite mpf or mpc x, which is a dyadic rational, as an
    mpc rounded once to the precision of ``mp``: x = (xr + i xi) / 2^w,
    and ``_horner_exact`` gives poly.nums at x times 2^(w deg) exactly, so
    only the division by poly.den 2^(w deg) rounds."""
    if poly.is_zero():
        return mp.mpc(0)
    xr, xi, w = _gaussian(x)
    pr, pi = _horner_exact(poly.nums, xr, xi, w)[:2]
    den = poly.den << w * poly.degree
    prec, rnd = mp._prec_rounding
    return mp.make_mpc((from_rational(pr, den, prec, rnd), from_rational(pi, den, prec, rnd)))


def _upper_mpf(mp, q: tuple, prec: int):
    """The fraction q = (num, den), den > 0, rounded up to a ``prec``-bit mpf."""
    return mp.make_mpf(from_rational(*q, prec, round_ceiling))


def _ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n else 0


def _factor_roots(nums, target: int) -> list:
    """The roots of the squarefree integer polynomial ``nums`` as
    certified discs (xr, xi, w, rho, t, (pr, pi)): centre (xr + i xi) / 2^w,
    radius rho / 2^t, the centre within four units of 2^-w of its root,
    w = target - floor(log2 max(|Re|, |Im|)) - 1, and P there exactly,
    times 2^(wn), as the Gaussian integer pr + i pi.

    The double-precision Aberth stage runs first, on the roots y = x / 2^s
    of P(2^s y) (``_float_scale``), and its approximations are shifted
    back to x.  Only the approximations ``_candidates`` picks, near or
    above the real axis, are polished: they are the only points
    ``_certify`` can keep.
    Where they cannot be polished and certified, Aberth runs again from
    all n approximations in fixed point at 106 bits, then 212, ... up to
    ``_ESCALATIONS`` times."""
    s = _float_scale(nums)
    approx = [
        (xr, xi, w - s)
        for xr, xi, w in map(_from_complex, _aberth_float(_scaled(nums, s)))
    ]
    bits = 53
    for escalation in range(_ESCALATIONS + 1):
        if escalation:
            bits *= 2
            approx = _aberth_fixed(nums, approx, bits)
        polished = []
        for x in _candidates(approx):
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


def _candidates(approx) -> list:
    """The approximations to polish, in their given order: those on or
    above the real axis or within 2^-10 of their real part's size below
    it, and, when more lie below that band than on or above it, that
    excess of those below it, nearest the axis (least |Im|/|Re|) first.
    No more roots lie below the axis than on or above it, so such an
    excess means that points of roots on or above it, typically real roots
    the double-precision stage left short of the axis, lie below the band."""
    def tilt(i):
        xr, xi, _ = approx[i]
        return Fraction(abs(xi), abs(xr)) if xr else math.inf

    keep = [x[1] >= 0 or abs(x[1]) << 10 <= abs(x[0]) for x in approx]
    excess = len(keep) - 2 * sum(keep)
    if excess > 0:
        below = sorted((i for i, k in enumerate(keep) if not k), key=tilt)
        for i in below[:excess]:
            keep[i] = True
    return [x for x, k in zip(approx, keep) if k]


def _newton_edges(nums) -> list:
    """The edges (k0, m, log2 r) of the Newton polygon, the upper convex
    hull of (k, log2 |c_k|) over the nonzero coefficients (Bini 1996): the
    edge from k0 to k0 + m stands for m roots of modulus about
    r = (|c_k0| / |c_(k0+m)|)^(1/m)."""
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
    return [(k0, k1 - k0, (l0 - l1) / (k1 - k0)) for (k0, l0), (k1, l1) in zip(hull, hull[1:])]


def _float_scale(nums) -> int:
    """The s whose P(2^s y) the double-precision stage takes: 0 when every
    Newton-polygon radius lies within 2^+-1000, where doubles hold the
    coefficients and the starting circles, else the middle of the radii's
    range in log2, rounded.  No one s brings roots spread over more than
    2^2000 in modulus into that range."""
    logs = [lr for _, _, lr in _newton_edges(nums)]
    lo, hi = min(logs, default=0), max(logs, default=0)
    return 0 if -1000 <= lo and hi <= 1000 else round((lo + hi) / 2)


def _scaled(nums, s: int) -> list:
    """The integer numerators of P(2^s y), times 2^(-s n) when s < 0."""
    n = len(nums) - 1
    return [c << s * k - min(s, 0) * n for k, c in enumerate(nums)]


def _start_points(nums) -> list:
    """Aberth starting points: for each edge of the Newton polygon
    (``_newton_edges``), m points on its circle of radius r, and the
    zero roots, which no edge covers, at 0 exactly."""
    n = len(nums) - 1
    edges = _newton_edges(nums)
    points = [0j] * (n - sum(m for _, m, _ in edges))
    for k0, m, lr in edges:
        r = 2.0 ** max(-1000.0, min(1000.0, lr))
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
    t = 16 + max((p[2] for p in points), default=0)
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


def _meet(d, e) -> bool:
    """Whether the closed discs d and e share a point."""
    (ar, ai, ra), (br, bi, rb) = d, e
    return (ar - br) ** 2 + (ai - bi) ** 2 <= (ra + rb) ** 2


def _disjoint(discs) -> bool:
    return None not in (d[2] for d in discs) and not any(
        _meet(d, e) for i, d in enumerate(discs) for e in discs[i + 1:]
    )


def _certify(nums, points, target: int):
    """Certified discs (xr, xi, w, rho, t, (pr, pi)) of the real roots and
    of the roots above the axis of the squarefree ``nums``, from its
    polished ``points``, or None when the proof fails; (pr, pi) is the
    exact P(x) 2^(wn) of ``_settle``.

    A point where P' = 0 fails.  A point whose disc lies above the real
    axis is kept; one below is dropped; one whose disc meets the axis is
    snapped onto it and settled again.  The proof is made once, on the
    kept set: each disc of radius n |P/P'| holds a root, and the roots are
    symmetric about the axis, so a disc with a real centre holds a real
    root, and a disc strictly above the axis and its mirror image hold a
    conjugate pair.  So when every kept non-real disc lies strictly above
    the axis, 2 upper + real = n for the degree-n ``nums``, and the kept
    discs are pairwise disjoint, the kept discs and the mirrors of the
    upper ones are n pairwise disjoint discs, holding one root each: a
    mirror lies strictly below the axis, where no kept upper disc or other
    mirror reaches, and meets a real disc only where its partner does."""
    n = len(nums) - 1
    _, discs = _discs(n, points)
    if None in (d[2] for d in discs):
        return None
    out = []
    for (xr, xi, w, exact), (_, ci, rho) in zip(points, discs):
        if ci > rho:
            out.append((xr, xi, w, exact))
        elif ci >= -rho:
            real = _settle(nums, xr, 0, w, target)
            if real is None:
                return None
            out.append(real)
    if sum(2 if p[1] else 1 for p in out) != n:
        return None
    t, discs = _discs(n, out)
    if not _disjoint(discs) or any(0 < ci <= rho for _, ci, rho in discs):
        return None
    return [(xr, xi, w, d[2], t, exact[:2]) for (xr, xi, w, exact), d in zip(out, discs)]
