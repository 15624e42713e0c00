"""End-to-end verification pipelines.

``verify_theorem`` ties the whole engine together: it builds the
terminating polynomial F(1-a, -ell, 2-c; x) exactly, finds its roots to
high precision, computes q0 by every applicable exact method (series
combination, the operator remainder recurrence, and the reversal form when
a is not an integer), demands exact agreement, and then checks the two
evaluation identities

    F(a, 1+ell, c; lam)       = -(1-c) q0(lam) / ((1,ell) (1-lam)^ell)
    F(c-a, c-1-ell, c; lam)   = -(1-c)/(1,ell) (1-lam)^(a+1-c) q0(lam)

numerically at every root lam, using principal branches throughout.
Roots on [1, oo) are skipped (no branch convention is defined there), as
are roots whose only convergent evaluation route degenerates and roots at
which no evaluation route converges within the term budget.

``gosper_check`` verifies F(1-a, b, b+2; b/(a+b)) = (b+1) (a/(a+b))^a,
exactly when the left side terminates.  ``incomplete_beta_check`` verifies
the integral representation of F(a, 1, c; x) by termwise integration, and
``sweep`` runs seeded random theorem instances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .errors import (
    BranchCutError,
    DegenerateConnectionError,
    InternalInconsistencyError,
    NonConvergenceError,
    ParameterError,
)
from .hyp import HypParams, q0_by_reversal, q0_r0_by_series, terminating_poly
from .numeric import EvalContext, RootSet, find_roots, hyp2f1_num
# right_reduce is not called here; the name stays bound in this module
# because bench/selftest.py checks that its tracer rebinds it at this import.
from .operators import (  # noqa: F401
    GenericityFlags,
    factor_remainder,
    genericity_flags,
    h_remainder,
    right_reduce,
)
from .poly import Poly
from .scalars import format_rational, is_integer, poch

CHECK_SHIFTED = "F(a,1+l,c)"
CHECK_REFLECTED = "F(c-a,c-1-l,c)"

SKIP_BRANCH_CUT = "branch-cut"
SKIP_DEGENERATE_CONNECTION = "degenerate-connection"
SKIP_EVAL_FAILED = "eval-failed"


def eval_poly_mp(p: Poly, x, ctx: EvalContext):
    """Horner evaluation of an exact polynomial at an mp point."""
    out = ctx.mp.mpf(0)
    for coeff in reversed(p.coeffs):
        out = out * x + ctx.to_mp(coeff)
    return out


def report_digits(precision: int) -> int:
    """Decimal digits printed for a value computed at ``precision`` bits."""
    return int(precision * 0.30103) + 3


def _fmt(x, digits: int):
    if isinstance(x, Fraction):
        return format_rational(x)
    if hasattr(x, "imag") and x.imag != 0:
        return {"re": mpmath.nstr(x.real, digits), "im": mpmath.nstr(x.imag, digits)}
    if hasattr(x, "real"):
        x = x.real
    return mpmath.nstr(x, digits)


@dataclass
class IdentityCheck:
    """One evaluated identity at one root."""

    name: str
    lhs: object
    rhs: object
    residual: object
    path: str
    est_error: object

    def as_dict(self, digits: int) -> dict:
        return {
            "name": self.name,
            "lhs": _fmt(self.lhs, digits),
            "rhs": _fmt(self.rhs, digits),
            "residual": _fmt(self.residual, digits),
            "path": self.path,
            "est_error": _fmt(self.est_error, 6),
        }


@dataclass
class RootRecord:
    lam: object
    multiplicity: int
    skipped: bool = False
    skip_reason: str | None = None
    branch: str = "principal"
    checks: list = field(default_factory=list)

    def max_residual(self):
        return max((c.residual for c in self.checks), default=None)

    def passed(self, tolerance) -> bool | None:
        if self.skipped:
            return None
        return all(c.residual <= tolerance for c in self.checks)

    def as_dict(self, digits: int, tolerance) -> dict:
        ok = self.passed(tolerance)
        return {
            "lambda": _fmt(self.lam, digits),
            "multiplicity": self.multiplicity,
            "skipped": self.skipped,
            "skip_reason": self.skip_reason,
            "branch": self.branch,
            "checks": [c.as_dict(digits) for c in self.checks],
            "verdict": "skipped" if ok is None else ("pass" if ok else "fail"),
        }


@dataclass
class VerifyReport:
    a: Fraction
    c: Fraction
    ell: int
    precision: int
    order: int
    tolerance: float
    flags: GenericityFlags
    poly: Poly
    q0: Poly
    r0: Poly
    q0_provenance: tuple
    q0_agree: bool
    roots: RootSet | None
    records: list
    verdict: str

    @property
    def skip_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.skipped) / len(self.records)

    @property
    def vacuous(self) -> bool:
        """A pass at which every root was skipped, so no identity was checked."""
        return self.verdict == "pass" and all(r.skipped for r in self.records)

    def as_dict(self) -> dict:
        digits = report_digits(self.precision)
        return {
            "params": {
                "a": format_rational(self.a),
                "c": format_rational(self.c),
                "ell": self.ell,
                "precision": self.precision,
                "order": self.order,
                "tolerance": repr(self.tolerance),
            },
            "flags": _flags_dict(self.flags),
            "terminating_poly": [format_rational(c) for c in self.poly.coeffs],
            "q0": {
                "coeffs": [format_rational(c) for c in self.q0.coeffs],
                "r0_coeffs": [format_rational(c) for c in self.r0.coeffs],
                "provenance": list(self.q0_provenance),
                "agree": self.q0_agree,
            },
            "records": [r.as_dict(digits, self.tolerance) for r in self.records],
            "skip_rate": repr(self.skip_rate),
            "verdict": self.verdict,
        }


def _check_tolerance(precision: int, tolerance) -> None:
    """A tolerance below one ulp of the working precision, or a NaN, which
    no residual compares below, can only report FAIL; an infinite one,
    which every residual compares below, can only report PASS.  Each is a
    misconfiguration, not a mathematical result."""
    if not math.isfinite(tolerance):
        raise ParameterError(
            f"tolerance {tolerance!r} is not finite, so it bounds no residual"
        )
    if tolerance < 2.0 ** -precision:
        raise ParameterError(
            f"tolerance {tolerance!r} is not at least 2^-{precision}, "
            f"the finest {precision}-bit precision can reach"
        )


def _flags_dict(flags: GenericityFlags) -> dict:
    out = {
        "A1": flags.a1,
        "A2": flags.a2,
        "E1": flags.e1,
        "E2'": flags.e2p,
        "details": dict(flags.details),
    }
    if flags.note:
        out["note"] = flags.note
    return out


def compute_q0_all_methods(a: Fraction, c: Fraction, ell: int, order: int, b=1):
    """q0/r0 of F(a, b, c) via series, the operator remainder, and (for b = 1
    and non-integer a) the reversal form.  Returns (q0, r0, provenance,
    agree); exact disagreement raises, since all routes are proved equal.
    ``order`` is the series truncation order (None for ell + 32)."""
    params = HypParams(a, b, c)
    qr = q0_r0_by_series(params, ell, order)
    canon = factor_remainder(*h_remainder(params, ell), ell).canonical_qr()
    provenance = ["series", "operator"]
    agree = canon.q0 == qr.q0 and canon.r0 == qr.r0
    if b == 1 and not is_integer(a):
        provenance.append("reversal")
        agree = agree and q0_by_reversal(params, ell) == qr.q0
    if not agree:
        raise InternalInconsistencyError(
            f"q0/r0 methods disagree at a={a}, b={b}, c={c}, ell={ell}"
        )
    return qr.q0, qr.r0, tuple(provenance), agree


def verify_theorem(
    a,
    c,
    ell: int,
    precision: int = 192,
    order: int | None = None,
    tolerance: float = 1e-30,
) -> VerifyReport:
    """Verify both strange-evaluation identities at every root of
    F(1-a, -ell, 2-c; x)."""
    a, c = Fraction(a), Fraction(c)
    if is_integer(c):
        raise ParameterError(f"c = {c} must not be an integer")
    if not isinstance(ell, int) or ell < 1:
        raise ParameterError(f"ell must be a positive integer, got {ell}")
    _check_tolerance(precision, tolerance)
    if order is None:
        order = ell + 32

    flags = genericity_flags(HypParams(a, 1, c), ell)
    q0, r0, provenance, agree = compute_q0_all_methods(a, c, ell, order)
    tpoly = terminating_poly(HypParams(1 - a, -ell, 2 - c))

    base = dict(
        a=a, c=c, ell=ell, precision=precision, order=order,
        tolerance=tolerance, flags=flags, poly=tpoly, q0=q0, r0=r0,
        q0_provenance=provenance, q0_agree=agree,
    )
    if tpoly.degree == 0:
        return VerifyReport(**base, roots=None, records=[], verdict="no-roots")

    roots = find_roots(tpoly, precision)
    ctx = EvalContext(precision)
    records = []
    for lam, mult in zip(roots.roots, roots.multiplicities):
        rec = RootRecord(lam=lam, multiplicity=mult)
        records.append(rec)
        try:
            rec.checks = _check_both_identities(a, c, ell, q0, lam, ctx)
        except BranchCutError:
            rec.skipped, rec.skip_reason = True, SKIP_BRANCH_CUT
        except DegenerateConnectionError:
            rec.skipped, rec.skip_reason = True, SKIP_DEGENERATE_CONNECTION
        except NonConvergenceError:
            rec.skipped, rec.skip_reason = True, SKIP_EVAL_FAILED

    failed = any(r.passed(tolerance) is False for r in records)
    return VerifyReport(
        **base, roots=roots, records=records,
        verdict="fail" if failed else "pass",
    )


def _check_both_identities(a, c, ell, q0: Poly, lam, ctx: EvalContext):
    mp = ctx.mp
    res1 = hyp2f1_num(a, 1 + ell, c, lam, ctx)
    res2 = hyp2f1_num(c - a, c - 1 - ell, c, lam, ctx)
    with ctx.workprec():
        lam = ctx.to_mp(lam)
        q0val = eval_poly_mp(q0, lam, ctx)
        neg_1mc = ctx.to_mp(-(1 - c))
        fact = ctx.to_mp(poch(1, ell))
        one_minus = 1 - lam
        rhs1 = neg_1mc * q0val / (fact * mp.power(one_minus, ell))
        power = mp.power(one_minus, ctx.to_mp(a + 1 - c))
        rhs2 = neg_1mc / fact * power * q0val
        identities = ((CHECK_SHIFTED, res1, rhs1), (CHECK_REFLECTED, res2, rhs2))
        return [
            IdentityCheck(
                name=name,
                lhs=res.value,
                rhs=rhs,
                residual=+(abs(res.value - rhs) / (1 + abs(rhs))),
                path=res.path,
                est_error=res.est_error,
            )
            for name, res, rhs in identities
        ]


# ---------------------------------------------------------------------------
# Gosper's identity

@dataclass
class GosperReport:
    a: Fraction
    b: Fraction
    z: Fraction
    precision: int
    tolerance: float
    lhs: object
    rhs: object
    residual: object
    exact: bool
    path: str
    verdict: str

    def as_dict(self) -> dict:
        digits = report_digits(self.precision)
        return {
            "params": {
                "a": format_rational(self.a),
                "b": format_rational(self.b),
                "z": format_rational(self.z),
                "precision": self.precision,
                "tolerance": repr(self.tolerance),
            },
            "flags": {"exact": self.exact},
            "records": [
                {
                    "lhs": _fmt(self.lhs, digits),
                    "rhs": _fmt(self.rhs, digits),
                    "residual": _fmt(self.residual, digits),
                    "path": self.path,
                }
            ],
            "verdict": self.verdict,
        }


def gosper_check(a, b, precision: int = 192, tolerance: float = 1e-30) -> GosperReport:
    """Check F(1-a, b, b+2; b/(a+b)) = (b+1) (a/(a+b))^a.

    When 1-a is a nonpositive integer the left side is a finite sum and
    both sides are evaluated exactly (the reported residual is then a
    genuine 0, not a small float)."""
    a, b = Fraction(a), Fraction(b)
    _check_tolerance(precision, tolerance)
    if a + b == 0:
        raise ParameterError("a + b must be nonzero")
    if is_integer(b + 2) and b + 2 <= 0:
        raise ParameterError(f"lower parameter b+2 = {b + 2} is a nonpositive integer")
    z = b / (a + b)
    if z >= 1:
        raise BranchCutError(f"argument b/(a+b) = {z} lies on [1, oo)")
    ctx = EvalContext(precision)
    mp = ctx.mp

    if is_integer(1 - a) and 1 - a <= 0:
        lhs = terminating_poly(HypParams(b, 1 - a, b + 2))(z)
        rhs = (b + 1) * (a / (a + b)) ** int(a)
        residual_exact = abs(lhs - rhs) / (1 + abs(rhs))
        return GosperReport(
            a=a, b=b, z=z, precision=precision, tolerance=tolerance,
            lhs=ctx.to_mp(lhs), rhs=ctx.to_mp(rhs),
            residual=ctx.to_mp(residual_exact),
            exact=True, path="direct-series",
            verdict="pass" if residual_exact <= tolerance else "fail",
        )

    res = hyp2f1_num(1 - a, b, b + 2, z, ctx)
    base = ctx.to_mp(a / (a + b))
    rhs = ctx.to_mp(b + 1) * mp.power(base, ctx.to_mp(a))
    residual = abs(res.value - rhs) / (1 + abs(rhs))
    return GosperReport(
        a=a, b=b, z=z, precision=precision, tolerance=tolerance,
        lhs=res.value, rhs=rhs, residual=residual,
        exact=False, path=res.path,
        verdict="pass" if residual <= tolerance else "fail",
    )


# ---------------------------------------------------------------------------
# integral representation of F(a, 1, c; x)

def incomplete_beta_check(a, c, x, order: int = 128, precision: int = 192):
    """Residual of F(a, 1, c; x) against -(1-c) y2(x) * I(x), where
    y2 = x^(1-c) (1-x)^(c-a-1) and I is the incomplete-beta-type integral
    of t^(c-2) (1-t)^(a-c), integrated termwise:

        I(x) = sum_n  b_n x^(c-1+n) / (c-1+n),

    with b_n the binomial coefficients of (1-t)^(a-c).  Requires c > 1 and
    0 < x < 1; the truncation tail of the termwise sum dominates the
    residual as x approaches 1."""
    from .series import binomial_series

    a, c, x = Fraction(a), Fraction(c), Fraction(x)
    if not c > 1:
        raise ParameterError(f"need c > 1, got c = {c}")
    if not 0 < x < 1:
        raise ParameterError(f"need 0 < x < 1, got x = {x}")
    ctx = EvalContext(precision)
    mp = ctx.mp
    with ctx.workprec():
        xm = ctx.to_mp(x)
        bcoeffs = binomial_series(a - c, order).coeffs
        power = mp.power(xm, ctx.to_mp(c - 1))
        integral = mp.mpf(0)
        for n, bn in enumerate(bcoeffs):
            integral += ctx.to_mp(bn / (c - 1 + n)) * power
            power *= xm
        y2 = mp.power(xm, ctx.to_mp(1 - c)) * mp.power(1 - xm, ctx.to_mp(c - a - 1))
        rhs = ctx.to_mp(c - 1) * y2 * integral
        lhs = hyp2f1_num(a, 1, c, x, ctx).value
        return +(abs(lhs - rhs) / (1 + abs(lhs)))


# ---------------------------------------------------------------------------
# seeded random sweeps

def random_rational(rng: random.Random, bound: int = 20, den_bound: int = 20) -> Fraction:
    """Fraction with numerator in [-bound, bound], denominator in [1, den_bound]."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den_bound))


def random_non_integer(rng: random.Random, bound: int = 20, den_bound: int = 20) -> Fraction:
    while True:
        x = random_rational(rng, bound, den_bound)
        if not is_integer(x):
            return x


@dataclass
class SweepTrial:
    index: int
    a: Fraction
    c: Fraction
    ell: int
    verdict: str
    roots_total: int
    roots_skipped: int
    skip_reasons: list
    max_residual: object

    def as_dict(self, digits: int) -> dict:
        return {
            "index": self.index,
            "a": format_rational(self.a),
            "c": format_rational(self.c),
            "ell": self.ell,
            "verdict": self.verdict,
            "roots_total": self.roots_total,
            "roots_skipped": self.roots_skipped,
            "skip_reasons": list(self.skip_reasons),
            "max_residual": (
                "n/a" if self.max_residual is None else _fmt(self.max_residual, 6)
            ),
        }


@dataclass
class SweepReport:
    trials: int
    ell_max: int
    seed: int
    precision: int
    tolerance: float
    records: list
    failures: int
    total_roots: int
    skipped_roots: int
    verdict: str

    @property
    def skip_rate(self) -> float:
        return self.skipped_roots / self.total_roots if self.total_roots else 0.0

    @property
    def vacuous_passes(self) -> int:
        """Trials that passed with every root skipped (VerifyReport.vacuous)."""
        return sum(
            t.verdict == "pass" and t.roots_skipped == t.roots_total
            for t in self.records
        )

    def as_dict(self) -> dict:
        digits = report_digits(self.precision)
        return {
            "params": {
                "trials": self.trials,
                "ell_max": self.ell_max,
                "seed": self.seed,
                "precision": self.precision,
                "tolerance": repr(self.tolerance),
            },
            "flags": {},
            "records": [t.as_dict(digits) for t in self.records],
            "failures": self.failures,
            "total_roots": self.total_roots,
            "skipped_roots": self.skipped_roots,
            "skip_rate": repr(self.skip_rate),
            "verdict": self.verdict,
        }


def draw_theorem_params(rng: random.Random, ell_max: int):
    """One (a, c, ell) draw for the sweep: numerators and denominators
    bounded by 20, c never an integer."""
    a = random_rational(rng)
    c = random_non_integer(rng)
    ell = rng.randint(1, ell_max)
    return a, c, ell


def sweep(
    trials: int,
    ell_max: int = 5,
    seed: int = 0,
    precision: int = 192,
    tolerance: float = 1e-30,
    order: int | None = None,
) -> SweepReport:
    """Run seeded random verify_theorem instances; deterministic in seed.

    Trials are reported in draw order; a trial fails when any non-skipped
    root misses the tolerance on either identity."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if ell_max < 1:
        raise ParameterError("ell-max must be >= 1")
    _check_tolerance(precision, tolerance)
    rng = random.Random(seed)
    records = []
    failures = 0
    total_roots = 0
    skipped_roots = 0
    for i in range(trials):
        a, c, ell = draw_theorem_params(rng, ell_max)
        report = verify_theorem(
            a, c, ell, precision=precision, tolerance=tolerance, order=order
        )
        roots_total = len(report.records)
        roots_skipped = sum(1 for r in report.records if r.skipped)
        total_roots += roots_total
        skipped_roots += roots_skipped
        residuals = [
            r.max_residual() for r in report.records
            if not r.skipped and r.max_residual() is not None
        ]
        trial_failed = report.verdict == "fail"
        if trial_failed:
            failures += 1
        records.append(
            SweepTrial(
                index=i,
                a=a,
                c=c,
                ell=ell,
                verdict=report.verdict,
                roots_total=roots_total,
                roots_skipped=roots_skipped,
                skip_reasons=sorted(
                    {r.skip_reason for r in report.records if r.skip_reason}
                ),
                max_residual=max(residuals) if residuals else None,
            )
        )
    return SweepReport(
        trials=trials,
        ell_max=ell_max,
        seed=seed,
        precision=precision,
        tolerance=tolerance,
        records=records,
        failures=failures,
        total_roots=total_roots,
        skipped_roots=skipped_roots,
        verdict="pass" if failures == 0 else "fail",
    )
