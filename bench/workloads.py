"""The benchmark's workloads: seeded inputs, the timed call, the outcome
key that feeds the digest, and the correctness gate run outside the timed
region.

Inputs come only from the workload seed and are generated here, not by the
library, so a change to the library cannot change them.  Library functions
are called through their modules (``verify.verify_theorem``, not a local
name) so that a traced pass sees every call.

Cost is heavy-tailed in the effective argument modulus of the 2F1 calls
(a series at modulus m needs about 230 / (1 - m) terms at 192 bits), so a
plain sample of a few hundred draws reads 15-30% apart between seeds on a
2-core VM.  The 2F1 workloads therefore predict each seeded draw's cost
from its inputs alone and fill fixed quotas of cost bins from the draw
stream: every seed gives a different item set with the same cost profile.  The bin edges are
quantiles of the predicted cost over draws from ``random.Random(0)`` (12000
for sweep, 40000 for eval-grid), and each quota is the item count times the
share of those draws in the bin.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from spans import SKIP_REASONS
from strangeval import errors, hyp, numeric, operators, verify
from strangeval.hyp import HypParams

PRECISION = 192
REFERENCE_BITS = 320
# eval-grid values must match mpmath.hyp2f1 to this many bits; observed
# errors at 192 bits are below 2^-200.
GATE_BITS = 128


@dataclass
class Check:
    """Gate result for one item: ``units`` work units (roots, or items),
    ``checked`` of them ending in a checked result, and the accuracy in
    bits of the least accurate check."""

    ok: bool
    units: int = 1
    checked: int = 1
    bits: float | None = None
    skips: list = field(default_factory=list)
    note: str = ""


def fail(note: str, units: int = 1) -> Check:
    return Check(False, units, 0, None, [], note)


def bits_of(err) -> float:
    """-log2 of a nonnegative error, capped at the working precision."""
    err = float(err)
    return float(PRECISION) if err <= 0 else min(float(PRECISION), -math.log2(err))


def is_nonpos_int(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# input generation

def draw_rational(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def draw_sweep_params(rng: random.Random):
    """The acceptance-sweep distribution: numerators and denominators up to
    20, c never an integer, ell from 1 to 5 (same draws as
    ``verify.draw_theorem_params`` with ell_max 5)."""
    a = draw_rational(rng, 20)
    c = draw_rational(rng, 20)
    while c.denominator == 1:
        c = draw_rational(rng, 20)
    return a, c, rng.randint(1, 5)


def terminating_coeffs(a: Fraction, c: Fraction, ell: int) -> tuple:
    """Ascending coefficients of F(1-a, -ell, 2-c; x), trailing zeros cut."""
    coeffs = [Fraction(1)]
    for n in range(ell):
        coeffs.append(coeffs[-1] * (1 - a + n) * (n - ell) / ((2 - c + n) * (n + 1)))
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def approx_roots(coeffs) -> list | None:
    """Double-precision roots by mpmath.polyroots, or None if it does not
    converge (an exact high-multiplicity root needs the larger extraprec)."""
    for extra in (60, 300):
        try:
            with mpmath.workprec(53):
                desc = [mpmath.mpf(q.numerator) / q.denominator for q in reversed(coeffs)]
                return [complex(r) for r in mpmath.polyroots(desc, maxsteps=100, extraprec=extra)]
        except mpmath.libmp.NoConvergence:
            continue
    return None


def on_cut(z: complex) -> bool:
    return abs(z.imag) <= 1e-9 and z.real >= 1 - 1e-9


def best_map(z: complex, connection: bool) -> tuple[float, str]:
    """Smallest series-argument modulus among the maps of the 2F1 engine,
    and the map: direct z, Pfaff z/(z-1), or the 1-z connection whose inner
    series reach min(|1-z|, |1-1/z|); the direct series is kept up to
    |z| = 0.7.  Fixed here so that inputs do not move when the engine's
    selector does."""
    r = abs(z)
    if r <= 0.7:
        return r, "direct"
    maps = [(r, "direct"), (abs(z / (z - 1)), "pfaff")]
    if connection:
        maps.append((min(abs(1 - z), abs(1 - 1 / z)), "connection"))
    return min(maps)


def stratified(candidates, edges, quotas, limit: int, pool: int = 0) -> list:
    """Items from a stream of (cost, item), taken in draw order into the cost
    bin ``bisect_left(edges, cost)`` until every bin holds its quota.  At
    least ``pool`` candidates are drawn, so that set-up time does not depend
    on how soon a seed fills its quotas."""
    need = list(quotas)
    bins = [[] for _ in quotas]
    left = sum(quotas)
    for n, (cost, item) in enumerate(candidates):
        b = bisect.bisect_left(edges, cost)
        if need[b]:
            need[b] -= 1
            bins[b].append(item)
            left -= 1
        if not left and n + 1 >= pool:
            return [item for members in bins for item in members]
        if n == limit:
            raise RuntimeError(f"cost bins still short by {need} after {limit} draws")
    raise RuntimeError("candidate stream ended early")


# ---------------------------------------------------------------------------
# workloads

class Sweep:
    """Seeded acceptance-sweep draws, each through verify_theorem at 192
    bits.  Draws whose worst root has effective modulus above ``CAP`` cost
    4-26 s each, more than one run can hold steadily; they are left out and
    counted.  Seeds 1-10 fill the quotas within 215-723 draws; ``POOL``
    draws are always made, so set-up costs the same for nearly every seed."""

    name = "sweep"
    CAP = 0.97
    POOL = 800
    EDGES = (3.3, 5.586, 6.6, 8.833, 9.9, 12.082, 13.2, 15.631, 16.997, 19.497,
             22.286, 24.396, 26.661, 29.09, 32.328, 36.814, 42.017, 45.587,
             53.91, 64.877, 80.214, 108.967)
    QUOTAS = (14, 1, 6, 4, 6, 4, 6, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
              5, 5)
    documented = (errors.NonConvergenceError,)
    warm_item = (Fraction(3), Fraction(3, 2), 1,
                 terminating_coeffs(Fraction(3), Fraction(3, 2), 1))

    def make_items(self, seed: int) -> list:
        rng = random.Random(seed)
        self.excluded = 0

        def candidates():
            while True:
                a, c, ell = draw_sweep_params(rng)
                coeffs = terminating_coeffs(a, c, ell)
                cost, worst = self.predicted_cost(a, c, ell, coeffs)
                if worst > self.CAP:
                    self.excluded += 1
                    continue
                yield cost, (a, c, ell, coeffs)

        return stratified(candidates(), self.EDGES, self.QUOTAS, 50 * sum(self.QUOTAS),
                          self.POOL)

    @staticmethod
    def predicted_cost(a, c, ell, coeffs):
        """(predicted cost, worst effective modulus m over the checked
        roots).  The cost is in units of one series at modulus m costing
        1/(1-m): each root adds two such series (one per identity) plus
        3.2 for the gamma factors when the connection map is the best; the
        exact layers add 3.3 per unit of ell.  The weights are a least-
        squares fit to 370 draws timed on a 2-core x86-64 VM with mpmath's
        pure-Python backend (rank correlation 0.97 with the time).  Both identities are finite sums when a or c-a is a
        nonpositive integer, and the connection degenerates when c-a is an
        integer.  Unconverged float roots count as modulus 1."""
        cost, worst = 3.3 * ell, 0.0
        if len(coeffs) == 1 or is_nonpos_int(a) or is_nonpos_int(c - a):
            return cost, worst
        roots = approx_roots(coeffs)
        if roots is None:
            return math.inf, 1.0
        connection = (c - a).denominator != 1
        for z in roots:
            if on_cut(z):
                continue
            m, via = best_map(z, connection)
            if m >= 1:
                return math.inf, m
            worst = max(worst, m)
            cost += 2 / (1 - m) + (3.2 if via == "connection" else 0.0)
        return cost, worst

    def call(self, item):
        a, c, ell, _ = item
        return verify.verify_theorem(a, c, ell, precision=PRECISION)

    def key(self, item, out) -> list:
        if isinstance(out, BaseException):
            return ["error", type(out).__name__]
        return [
            out.verdict,
            [fmt(q) for q in out.q0.coeffs],
            [[r.skip_reason, [ch.path for ch in r.checks]] for r in out.records],
        ]

    def check(self, item, out) -> Check:
        a, c, ell, coeffs = item
        degree = len(coeffs) - 1
        if isinstance(out, self.documented):
            return Check(True, degree, 0, None, [f"error:{type(out).__name__}"])
        if isinstance(out, BaseException):
            return fail(f"{type(out).__name__}: {out}", degree)
        units = len(out.records)
        if out.verdict not in ("pass", "no-roots"):
            return fail(f"verdict {out.verdict}", units)
        if not out.q0_agree or out.poly.coeffs != coeffs:
            return fail("q0 disagreement or wrong terminating polynomial", units)
        skips = [r.skip_reason for r in out.records if r.skipped]
        if any(s not in SKIP_REASONS for s in skips):
            return fail(f"undocumented skip reason in {skips}", units)
        residuals = [ch.residual for r in out.records for ch in r.checks]
        bits = min((bits_of(x) for x in residuals), default=None)
        return Check(True, units, units - len(skips), bits, skips)


class Q0HighEll:
    """Everything verify_theorem does before 2F1, above the sweep's ell:
    genericity flags, q0 by every route, the terminating polynomial and its
    roots, with (a, c) from the sweep distribution and ell fixed at ``ELL``.
    At one ell the cost still varies by a quarter with (a, c); a mix of ell
    6-12 (each step costing about 1.6 times the last) left so few items of
    the dear ells in a run that the throughput swung by 13-25% between
    seeds.  Ell 7 rather than 8 fits twice the items in a run (an item's
    time carries about 11% noise even in reference units); operators and
    Poly.gcd are still about 80% of the time."""

    name = "q0-high-ell"
    ELL = 7
    size = 70
    documented = (errors.NonConvergenceError,)
    warm_item = (Fraction(3), Fraction(3, 2), 2)

    def make_items(self, seed: int) -> list:
        rng = random.Random(seed)
        self.excluded = 0
        return [draw_sweep_params(rng)[:2] + (self.ELL,) for _ in range(self.size)]

    def call(self, item):
        a, c, ell = item
        operators.genericity_flags(HypParams(a, 1, c), ell)
        q0, r0, provenance, _ = verify.compute_q0_all_methods(a, c, ell, ell + 32)
        tpoly = hyp.terminating_poly(HypParams(1 - a, -ell, 2 - c))
        roots = numeric.find_roots(tpoly, PRECISION) if tpoly.degree else None
        return q0, r0, provenance, tpoly, roots

    def key(self, item, out) -> list:
        if isinstance(out, BaseException):
            return ["error", type(out).__name__]
        q0, r0, provenance, tpoly, roots = out
        return [
            [fmt(q) for q in q0.coeffs],
            [fmt(q) for q in r0.coeffs],
            list(provenance),
            tpoly.degree,
            list(roots.multiplicities) if roots else [],
        ]

    def check(self, item, out) -> Check:
        a, c, ell = item
        if isinstance(out, self.documented):
            return Check(True, 1, 0, None, [f"error:{type(out).__name__}"])
        if isinstance(out, BaseException):
            return fail(f"{type(out).__name__}: {out}")
        q0, r0, _, tpoly, roots = out
        coeffs = terminating_coeffs(a, c, ell)
        if tpoly.coeffs != coeffs:
            return fail("wrong terminating polynomial")
        if not q0.is_zero() and q0.degree > ell - 1:
            return fail(f"deg q0 = {q0.degree} > ell - 1")
        if roots is None:
            return Check(True, bits=None) if tpoly.degree == 0 else fail("no roots")
        if sum(roots.multiplicities) != tpoly.degree:
            return fail("root multiplicities do not sum to the degree")
        return Check(True, bits=root_bits(coeffs, roots.roots))


def root_bits(coeffs, roots) -> float:
    """Least accurate root, as -log2 of the backward error
    |P(x)| / sum |c_k| |x|^k at the reference precision."""
    worst = float(PRECISION)
    with mpmath.workprec(REFERENCE_BITS):
        cs = [mpmath.mpf(q.numerator) / q.denominator for q in coeffs]
        for x in roots:
            x = mpmath.mpmathify(x)
            scale = sum(abs(ck) * abs(x) ** k for k, ck in enumerate(cs))
            worst = min(worst, bits_of(abs(mpmath.polyval(cs[::-1], x)) / scale))
    return worst


class EvalGrid:
    """Raw hyp2f1_num calls at 192 bits: parameters with numerators and
    denominators up to 10, z on the 1/64 grid with |z| <= 3 off the cut
    [1, oo), and effective modulus at most ``CAP`` (no near-unit tail)."""

    name = "eval-grid"
    CAP = 0.9
    GRID = 64
    EDGES = (0.0, 1.851, 2.325, 2.662, 2.962, 3.233, 3.484, 3.726, 3.948,
             4.203, 4.519, 4.951, 5.4, 5.88, 6.484, 7.349, 8.641, 11.18)
    QUOTAS = (248, 12) + (20,) * 17
    documented = (errors.DegenerateConnectionError, errors.NonConvergenceError)
    warm_item = (Fraction(1, 3), Fraction(1, 2), Fraction(5, 4), complex(0.75, 0.5))

    def __init__(self):
        self.ctx = numeric.EvalContext(PRECISION)

    def make_items(self, seed: int) -> list:
        rng = random.Random(seed)
        self.excluded = 0

        def candidates():
            g = self.GRID
            while True:
                a, b = draw_rational(rng, 10), draw_rational(rng, 10)
                c = draw_rational(rng, 10)
                while is_nonpos_int(c):
                    c = draw_rational(rng, 10)
                while True:
                    re, im = rng.randint(-3 * g, 3 * g), rng.randint(-3 * g, 3 * g)
                    if re * re + im * im <= 9 * g * g and not (im == 0 and re >= g):
                        break
                z = Fraction(re, g) if im == 0 else complex(re / g, im / g)
                # finite sums cost next to nothing; the connection map sums
                # two series, so its predicted cost doubles
                cost = 0.0
                if not any(is_nonpos_int(p) for p in (a, b, c - a, c - b)):
                    m, via = best_map(complex(z), (c - a - b).denominator != 1)
                    if m > self.CAP:
                        self.excluded += 1
                        continue
                    cost = (2 if via == "connection" else 1) / (1 - m)
                yield cost, (a, b, c, z)

        return stratified(candidates(), self.EDGES, self.QUOTAS, 50 * sum(self.QUOTAS))

    def call(self, item):
        a, b, c, z = item
        return numeric.hyp2f1_num(a, b, c, z, self.ctx)

    def key(self, item, out) -> list:
        if isinstance(out, BaseException):
            return ["error", type(out).__name__]
        return [out.path]

    def check(self, item, out) -> Check:
        if isinstance(out, errors.DegenerateConnectionError):
            return Check(True, 1, 0, None, ["hyp2f1:degenerate-connection"])
        if isinstance(out, self.documented):
            return Check(True, 1, 0, None, [f"error:{type(out).__name__}"])
        if isinstance(out, BaseException):
            return fail(f"{type(out).__name__}: {out}")
        if out.path == "unsupported":
            return Check(True, 1, 0, None, ["hyp2f1:unsupported"])
        err = relative_error(item, out.value)
        if not err <= mpmath.mpf(2) ** -GATE_BITS:
            return fail(f"relative error {mpmath.nstr(err, 5)} on {out.path}")
        return Check(True, bits=bits_of(err))


def relative_error(item, value, reference=None):
    """|value - F| / |F| against mpmath.hyp2f1, with the subtraction done at
    the reference precision (at 53 bits it would report false 1e-16)."""
    a, b, c, z = item
    with mpmath.workprec(REFERENCE_BITS):
        if reference is None:
            zz = mpmath.mpc(z.real, z.imag) if isinstance(z, complex) else mpmath.mpf(z.numerator) / z.denominator
            reference = mpmath.hyp2f1(*(mpmath.mpf(p.numerator) / p.denominator for p in (a, b, c)), zz)
        diff = abs(mpmath.mpmathify(value) - reference)
        return diff / abs(reference) if reference != 0 else diff


WORKLOADS = {w.name: w for w in (Sweep, Q0HighEll, EvalGrid)}


def warm_up(workload) -> None:
    """One untimed call of a fixed item, and one gamma call to fill the
    engine's Spouge-coefficient cache at the working precision."""
    workload.call(workload.warm_item)
    numeric.gamma_c(Fraction(1, 3), numeric.EvalContext(PRECISION))
