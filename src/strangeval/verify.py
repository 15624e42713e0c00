"""End-to-end verification pipelines.

``verify_theorem`` ties the whole engine together: it builds the
terminating polynomial F(1-a, -ell, 2-c; x) exactly, finds its roots to
high precision, computes q0 by every applicable exact method (series
combination, the operator remainder recurrence, and the reversal form when
a is not an integer), demands exact agreement, and then checks the two
evaluation identities

    F(a, 1+ell, c; lam)       = -(1-c) q0(lam) / ((1,ell) (1-lam)^ell)
    F(c-a, c-1-ell, c; lam)   = -(1-c)/(1,ell) (1-lam)^(a+1-c) q0(lam)

numerically at every root lam, using principal branches throughout.  Each
root is an exact dyadic, so q0(lam) on the right-hand sides is its exact
value there (``numeric.exact_poly_value``), rounded once.
Roots on [1, oo) are skipped (no branch convention is defined there), as
are roots whose only convergent evaluation route degenerates and roots at
which no evaluation route converges within the term budget.

The two identities are Euler transforms of each other (DLMF 15.8.1):
F(c-a, c-1-ell, c; lam) = (1-lam)^(a+1+ell-c) F(a, 1+ell, c; lam).  So
where the 1-z connection formula (DLMF 15.8.4) evaluates them, both sum
the same two inner series at 1-lam, F(a, 1+ell; a+ell+2-c) and
F(c-a, c-1-ell; c-a-ell), and take the same seven gamma values, at c,
+-(c-a-1-ell), a, c-a, 1+ell and c-1-ell, which depend only on (a, c, ell).
Where the engine takes a Pfaff map both sum one series too: it takes the
Pfaff map whose series grows slower, the one that keeps the smaller upper
parameter, and for both identities that series is
F(a, c-1-ell; c; lam/(lam-1)) when a <= 1+ell, else
F(1+ell, c-a; c; lam/(lam-1)).
``verify_theorem`` therefore checks its roots inside one
``EvalContext.sharing()`` scope, which computes each such sum and gamma
value once per call.  At a connection root the second identity reads both
inner connection results of the first, and the powers (1-lam)^(+-(c-a-1-ell))
of the two identities, and the Pfaff prefactors (1-lam)^(-p), share one
logarithm of 1-lam.  A shared result is looked up by its exact inputs, so it is the value the second
computation would give, and nothing is kept past the call.

Only the real roots and the roots above the axis are evaluated.  a and c
are rational, so the terminating polynomial and q0 have rational
coefficients, and ``find_roots`` reports each root below the axis as the
exact conjugate of a root above it, whose index is the root's entry in
``RootSet.conjugate_of``.  All parameters are real, so off the cut the
principal branch satisfies F(a, b; c; conj z) = conj F(a, b; c; z)
(Schwarz reflection, DLMF 15.2), and q0(conj lam) = conj q0(lam) and
(1 - conj lam)^s = conj (1-lam)^s for real s.  The record of a root with
Im lam < 0 is therefore its partner's with lhs and rhs conjugated
exactly (``numeric.exact_conjugate``): the residual
|conj v - conj w| / (1 + |conj w|) and the error bound
|conj v - F(conj lam)| = |v - F(lam)| are the partner's, and so are the
path and any skip reason.

``gosper_check`` verifies F(1-a, b, b+2; b/(a+b)) = (b+1) (a/(a+b))^a,
exactly when the left side terminates.  ``incomplete_beta_check`` verifies
the integral representation of F(a, 1, c; x) by termwise integration, and
``sweep`` runs seeded random theorem instances.

Each rule of a verdict has one owner here:

- the residual of every check, lhs against rhs, is
  |lhs - rhs| / (1 + |rhs|) (``_residual``);
- a check passes when its residual is at most the tolerance
  (``_passes``); a root passes when all its checks do, and a skipped root
  neither passes nor fails (``RootRecord.passed``);
- a report fails when a root (or Gosper's one check) fails, and otherwise
  passes, or for a constant terminating polynomial reads "no-roots";
  ``VerifyReport`` and ``GosperReport`` derive it themselves;
- ``VerifyReport.skipped_roots`` counts the skipped roots, and
  ``_vacuous`` marks a pass at which every root was skipped, for a report
  and for its trial summary alike;
- a sweep keeps one ``SweepTrial.from_report`` summary per trial and
  reads its counts off them.

The CLI maps a verdict to its exit code (``cli._exit_code``).
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
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
from .hyp import (
    HypParams,
    _check_ell,
    binomial_series,
    q0_by_reversal,
    q0_r0_by_series,
    series_order,
    terminating_poly,
    theorem_poly,
)
from .numeric import (
    WORK_BITS,
    EvalContext,
    RootSet,
    check_precision,
    exact_conjugate,
    exact_poly_value,
    find_roots,
    hyp2f1_num,
)
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
from .scalars import (format_rational, is_integer, is_nonpos_integer, poch,
                      positive_int, rational)

CHECK_SHIFTED = "F(a,1+l,c)"
CHECK_REFLECTED = "F(c-a,c-1-l,c)"

SKIP_BRANCH_CUT = "branch-cut"
SKIP_DEGENERATE_CONNECTION = "degenerate-connection"
SKIP_EVAL_FAILED = "eval-failed"


def report_digits(precision: int) -> int:
    """Decimal digits printed for a value computed at ``precision`` bits."""
    return int(precision * 0.30103) + 3


def max_report_precision() -> int | None:
    """The largest precision whose report prints, or None for no bound.

    A reported value carries up to the working precision,
    precision + WORK_BITS bits, and mpmath formats a small one through an
    integer of about that many bits times log10(2) decimal digits, which
    must stay within Python's limit on int-to-str conversion
    (``sys.get_int_max_str_digits()``, 0 for none); WORK_BITS more bits
    keep a margin."""
    digits = sys.get_int_max_str_digits()
    return int(digits / 0.30103) - 2 * WORK_BITS if digits else None


def check_report_precision(precision) -> None:
    """The precision rule of ``check_precision``, then the bound under
    which a report prints, else ``ParameterError``.  Every function that
    returns a report (``verify_theorem``, ``gosper_check``, ``sweep``)
    applies it before any work, and so does the CLI for every command."""
    check_precision(precision)
    top = max_report_precision()
    if top is not None and precision > top:
        raise ParameterError(
            f"precision must be at most {top} bits, so that the report fits "
            f"Python's {sys.get_int_max_str_digits()}-digit limit on printing "
            f"an integer: {precision}"
        )


def _fmt(x, digits: int):
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
    """The checks at one root.  ``conjugate_of`` is the index, in the
    report's records, of the conjugate root this record was reflected
    from (module docstring), or None when the root was evaluated."""

    lam: object
    multiplicity: int
    skipped: bool = False
    skip_reason: str | None = None
    branch: str = "principal"
    checks: list = field(default_factory=list)
    conjugate_of: int | None = None

    @property
    def by_conjugation(self) -> bool:
        return self.conjugate_of is not None

    def conjugated(self, lam, index: int) -> RootRecord:
        """This record reflected to the conjugate root ``lam``, whose
        partner (this record) sits at ``index`` in the records."""
        return dataclasses.replace(
            self,
            lam=lam,
            checks=[
                dataclasses.replace(c, lhs=exact_conjugate(c.lhs), rhs=exact_conjugate(c.rhs))
                for c in self.checks
            ],
            conjugate_of=index,
        )

    def passed(self, tolerance) -> bool | None:
        """Whether every check passes; None for a skipped root."""
        if self.skipped:
            return None
        return all(_passes(c.residual, tolerance) for c in self.checks)

    def as_dict(self, digits: int, tolerance) -> dict:
        ok = self.passed(tolerance)
        return {
            "lambda": _fmt(self.lam, digits),
            "multiplicity": self.multiplicity,
            "skipped": self.skipped,
            "skip_reason": self.skip_reason,
            "branch": self.branch,
            "by_conjugation": self.by_conjugation,
            "checks": [c.as_dict(digits) for c in self.checks],
            "verdict": "skipped" if ok is None else ("pass" if ok else "fail"),
        }


@dataclass
class VerifyReport:
    """What ``verify_theorem`` found.  ``verdict`` is derived from the
    records unless one is given (``dataclasses.replace`` keeps the one it
    copies, so a perturbed copy can carry another)."""

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
    verdict: str | None = None

    def __post_init__(self):
        if self.verdict is None:
            failed = any(r.passed(self.tolerance) is False for r in self.records)
            self.verdict = (
                "no-roots" if self.roots is None else "fail" if failed else "pass"
            )

    @property
    def skipped_roots(self) -> int:
        return sum(r.skipped for r in self.records)

    @property
    def skip_rate(self) -> float:
        return self.skipped_roots / len(self.records) if self.records else 0.0

    @property
    def vacuous(self) -> bool:
        return _vacuous(self.verdict, self.skipped_roots, len(self.records))

    @property
    def max_residual(self):
        """The largest residual of any check, or None when none ran."""
        return max((c.residual for r in self.records for c in r.checks), default=None)

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


def _residual(lhs, rhs):
    """|lhs - rhs| / (1 + |rhs|): relative where |rhs| is large, absolute
    where it is small.  Exact on rationals; an mp value is rounded once
    at the precision of the context in force."""
    return +(abs(lhs - rhs) / (1 + abs(rhs)))


def _passes(residual, tolerance) -> bool:
    """The pass rule of one check: its residual within the tolerance."""
    return residual <= tolerance


def _vacuous(verdict: str, skipped: int, total: int) -> bool:
    """A pass at which every root was skipped, so no identity was checked."""
    return verdict == "pass" and skipped == total


def _check_tolerance(precision: int, tolerance) -> None:
    """A tolerance below one ulp of the working precision, or a NaN, which
    no residual compares below, can only report FAIL; an infinite one,
    which every residual compares below, can only report PASS.  Each is a
    misconfiguration, not a mathematical result.  The precision rule of
    ``check_report_precision`` comes first, so a precision outside it is
    not blamed on the tolerance."""
    check_report_precision(precision)
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


def compute_q0_all_methods(a: Fraction, c: Fraction, ell: int, order=None, b=1):
    """q0/r0 of F(a, b, c) via series, the operator remainder, and (for b = 1
    and non-integer a) the reversal form.  Returns (q0, r0, provenance,
    agree); exact disagreement raises, since all routes are proved equal.
    ``order`` is the series truncation order, ``series_order(ell)`` by
    default (``q0_r0_by_series``)."""
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
    tolerance: float = 1e-30,
) -> VerifyReport:
    """Verify both strange-evaluation identities at every root of
    F(1-a, -ell, 2-c; x).  a and c are exact rationals (int or Fraction;
    anything else raises ``ParameterError``), c is not an integer and ell
    is a positive integer, by the rules of ``HypParams`` and ``hyp``.  q0
    and r0 come from series truncated at order ``series_order(ell)``, the
    order the report records."""
    params = HypParams(a, 1, c).require_c_non_integer()
    _check_ell(ell)
    _check_tolerance(precision, tolerance)
    a, c = params.a, params.c
    order = series_order(ell)

    flags = genericity_flags(params, ell)
    q0, r0, provenance, agree = compute_q0_all_methods(a, c, ell, order)
    tpoly = theorem_poly(a, c, ell)

    base = dict(
        a=a, c=c, ell=ell, precision=precision, order=order,
        tolerance=tolerance, flags=flags, poly=tpoly, q0=q0, r0=r0,
        q0_provenance=provenance, q0_agree=agree,
    )
    if tpoly.degree == 0:
        return VerifyReport(**base, roots=None, records=[])

    roots = find_roots(tpoly, precision)
    ctx = EvalContext(precision)
    constants = _right_side_constants(a, c, ell, ctx)
    records = [
        RootRecord(lam=lam, multiplicity=mult)
        for lam, mult in zip(roots.roots, roots.multiplicities)
    ]
    # the identities share their connection series and gamma values, so
    # the roots on or above the real axis are checked in one sharing scope;
    # a root below it is its conjugate partner's reflection (module docstring)
    with ctx.sharing():
        for rec, partner in zip(records, roots.conjugate_of):
            if partner is not None:
                continue
            try:
                rec.checks = _check_both_identities(
                    a, c, ell, q0, rec.lam, ctx, constants
                )
            except BranchCutError:
                rec.skipped, rec.skip_reason = True, SKIP_BRANCH_CUT
            except DegenerateConnectionError:
                rec.skipped, rec.skip_reason = True, SKIP_DEGENERATE_CONNECTION
            except NonConvergenceError:
                rec.skipped, rec.skip_reason = True, SKIP_EVAL_FAILED
    records = [
        rec if j is None else records[j].conjugated(rec.lam, j)
        for rec, j in zip(records, roots.conjugate_of)
    ]
    return VerifyReport(**base, roots=roots, records=records)


def _right_side_constants(a, c, ell, ctx: EvalContext) -> tuple:
    """-(1-c), (1, ell) = ell! and the exponent a+1-c of the right-hand
    sides, rounded once for all roots at precision + ``GUARD_BITS`` (32) bits
    (``EvalContext.workprec``), where the right sides are formed."""
    with ctx.workprec():
        return (
            ctx.to_mp(-(1 - c)),
            ctx.to_mp(poch(1, ell)),
            ctx.to_mp(a + 1 - c),
        )


def _check_both_identities(a, c, ell, q0: Poly, lam, ctx: EvalContext, constants):
    mp = ctx.mp
    neg_1mc, fact, exponent = constants
    res1 = hyp2f1_num(a, 1 + ell, c, lam, ctx)
    res2 = hyp2f1_num(c - a, c - 1 - ell, c, lam, ctx)
    with ctx.workprec():
        lam = ctx.to_mp(lam)
        q0val = exact_poly_value(q0, lam, mp)
        one_minus = 1 - lam
        rhs1 = neg_1mc * q0val / (fact * mp.power(one_minus, ell))
        power = mp.power(one_minus, exponent)
        rhs2 = neg_1mc / fact * power * q0val
        identities = ((CHECK_SHIFTED, res1, rhs1), (CHECK_REFLECTED, res2, rhs2))
        return [
            IdentityCheck(
                name=name,
                lhs=res.value,
                rhs=rhs,
                residual=_residual(res.value, rhs),
                path=res.path,
                est_error=res.est_error,
            )
            for name, res, rhs in identities
        ]


# ---------------------------------------------------------------------------
# Gosper's identity

@dataclass
class GosperReport:
    """What ``gosper_check`` found; ``verdict`` is read off its one check."""

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

    @property
    def verdict(self) -> str:
        return "pass" if _passes(self.residual, self.tolerance) else "fail"

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
    """Check F(1-a, b, b+2; b/(a+b)) = (b+1) (a/(a+b))^a, for exact
    rationals a and b (int or Fraction; anything else raises
    ``ParameterError``).

    When 1-a is a nonpositive integer the left side is a finite sum and
    both sides are evaluated exactly (the reported residual is then a
    genuine 0, not a small float), on the branch cut too.  As in
    ``hyp2f1_num``, a pole of b+2 met before the sum ends raises
    ``ParameterError``, and z = b/(a+b) >= 1 with a series that does not
    terminate raises ``BranchCutError``."""
    a, b = rational(a, "a"), rational(b, "b")
    _check_tolerance(precision, tolerance)
    if a + b == 0:
        raise ParameterError("a + b must be nonzero")
    z = b / (a + b)
    ctx = EvalContext(precision)
    exact = is_nonpos_integer(1 - a)
    if exact:
        lhs = terminating_poly(HypParams(1 - a, b, b + 2))(z)
        rhs = (b + 1) * (a / (a + b)) ** int(a)
        residual = ctx.to_mp(_residual(lhs, rhs))
        lhs, rhs, path = ctx.to_mp(lhs), ctx.to_mp(rhs), "direct-series"
    else:
        res = hyp2f1_num(1 - a, b, b + 2, z, ctx)
        # the right side and residual at precision + GUARD_BITS (32) bits, as
        # in ``verify_theorem``, so their rounding stays far below the
        # finest tolerance the precision accepts, 2^-precision
        with ctx.workprec():
            rhs = ctx.to_mp(b + 1) * ctx.mp.power(ctx.to_mp(a / (a + b)), ctx.to_mp(a))
            lhs, residual, path = res.value, _residual(res.value, rhs), res.path
    return GosperReport(
        a=a, b=b, z=z, precision=precision, tolerance=tolerance,
        lhs=lhs, rhs=rhs, residual=residual, exact=exact, path=path,
    )


# ---------------------------------------------------------------------------
# integral representation of F(a, 1, c; x)

def incomplete_beta_check(a, c, x, order: int = 128, precision: int = 192):
    """Residual (``_residual``) of F(a, 1, c; x) against -(1-c) y2(x) * I(x),
    where y2 = x^(1-c) (1-x)^(c-a-1) and I is the incomplete-beta-type
    integral of t^(c-2) (1-t)^(a-c), integrated termwise:

        I(x) = sum_n  b_n x^(c-1+n) / (c-1+n),

    with b_n the binomial coefficients of (1-t)^(a-c).  a, c and x are
    exact rationals (int or Fraction; anything else raises
    ``ParameterError``).  Requires c > 1 and 0 < x < 1; the truncation tail of the termwise sum dominates the
    residual as x approaches 1."""
    a, c, x = rational(a, "a"), rational(c, "c"), rational(x, "x")
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
        return _residual(lhs, rhs)


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


@dataclass(slots=True)
class SweepTrial:
    """The summary of one sweep trial, built from its report by
    ``from_report``.  The sweep keeps this rather than the report, which
    holds every root and check (about 10 KB a trial against 1 KB)."""

    index: int
    a: Fraction
    c: Fraction
    ell: int
    verdict: str
    roots_total: int
    roots_skipped: int
    skip_reasons: list
    max_residual: object

    @property
    def vacuous(self) -> bool:
        return _vacuous(self.verdict, self.roots_skipped, self.roots_total)

    @classmethod
    def from_report(cls, index: int, report: VerifyReport) -> SweepTrial:
        return cls(
            index=index, a=report.a, c=report.c, ell=report.ell, verdict=report.verdict,
            roots_total=len(report.records), roots_skipped=report.skipped_roots,
            skip_reasons=sorted({r.skip_reason for r in report.records if r.skipped}),
            max_residual=report.max_residual,
        )

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
    """The trials of a sweep, in draw order; the counts and the verdict
    are read off them."""

    ell_max: int
    seed: int
    precision: int
    tolerance: float
    records: list

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> int:
        return sum(t.verdict == "fail" for t in self.records)

    @property
    def total_roots(self) -> int:
        return sum(t.roots_total for t in self.records)

    @property
    def skipped_roots(self) -> int:
        return sum(t.roots_skipped for t in self.records)

    @property
    def verdict(self) -> str:
        return "fail" if self.failures else "pass"

    @property
    def skip_rate(self) -> float:
        return self.skipped_roots / self.total_roots if self.total_roots else 0.0

    @property
    def vacuous_passes(self) -> int:
        """Trials that passed with every root skipped (``_vacuous``)."""
        return sum(t.vacuous for t in self.records)

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
) -> SweepReport:
    """Run seeded random verify_theorem instances; deterministic in seed.

    ``trials`` is a positive integer and ``ell_max`` a contiguity order
    (``hyp._check_ell``), else ``ParameterError``.  Trials are reported
    in draw order; a trial fails when any non-skipped root misses the
    tolerance on either identity."""
    positive_int(trials, "trials")
    _check_ell(ell_max)
    _check_tolerance(precision, tolerance)
    rng = random.Random(seed)
    records = []
    for i in range(trials):
        a, c, ell = draw_theorem_params(rng, ell_max)
        report = verify_theorem(a, c, ell, precision=precision, tolerance=tolerance)
        records.append(SweepTrial.from_report(i, report))
    return SweepReport(
        ell_max=ell_max,
        seed=seed,
        precision=precision,
        tolerance=tolerance,
        records=records,
    )
