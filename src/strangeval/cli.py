"""Command-line front end.

Subcommands expose the library pipelines with deterministic text or JSON
output:

    verify   check both strange-evaluation identities at every root
    q0       compute q0/r0 by every applicable method and compare
    reduce   contiguity-operator right division and remainder factoring
    gosper   check F(1-a, b, b+2; b/(a+b)) = (b+1) (a/(a+b))^a
    sweep    seeded random verify runs with pass/skip/fail counts
    eval     raw 2F1 evaluation with path tag and error estimate
    roots    roots of the terminating polynomial (or explicit coefficients)

Rationals cross the boundary as exact "p/q" strings; ``eval --z p/q,r/s``
passes its pair to ``hyp2f1_num``, which rounds it.  Exit codes: 0 on
success, 1 when the verdict of verify, gosper or sweep is a failed
residual check (``_exit_code``), 2 on usage errors and on the input
errors of ``errors.INPUT_ERRORS`` (invalid parameters, branch cut,
degenerate connection, gamma pole, no evaluation map converging within
the term budget, no convergence, a precision whose report Python cannot
print), 3 when routes the theory proves equal disagree (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import mpmath

from .errors import INPUT_ERRORS, InternalInconsistencyError, ParameterError
from .hyp import HypParams, theorem_poly
from .numeric import KNOWN_PATHS, EvalContext, find_roots, hyp2f1_num
from .operators import (
    build_H,
    build_L,
    factor_remainder,
    genericity_flags,
    right_reduce,
)
from .poly import Poly
from .scalars import format_rational, parse_rational
from .verify import (
    _flags_dict,
    check_report_precision,
    compute_q0_all_methods,
    gosper_check,
    report_digits,
    sweep,
    verify_theorem,
)


def _rat(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _complex_rat(text: str):
    """ "p/q" or "p/q,p/q" (real, imaginary) -> Fraction | (Fraction, Fraction)."""
    parts = text.split(",")
    if len(parts) == 1:
        return _rat(parts[0])
    if len(parts) == 2:
        return (_rat(parts[0]), _rat(parts[1]))
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strangeval",
        description="Exact and high-precision checks of strange evaluations "
        "of the Gauss hypergeometric series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--precision", type=int, default=192,
                       help="mantissa bits (default 192)")
        p.add_argument("--tolerance", type=float, default=1e-30,
                       help="residual tolerance (default 1e-30)")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("verify", help="verify both identities at every root")
    p.add_argument("--a", type=_rat, required=True)
    p.add_argument("--c", type=_rat, required=True)
    p.add_argument("--ell", type=int, required=True)
    common(p)

    p = sub.add_parser("q0", help="q0/r0 by all methods, with agreement verdict")
    p.add_argument("--a", type=_rat, required=True)
    p.add_argument("--c", type=_rat, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--b", type=_rat, default=Fraction(1),
                   help="second parameter (default 1)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reduce", help="right division of H(ell) by L(a,b,c)")
    p.add_argument("--a", type=_rat, required=True)
    p.add_argument("--b", type=_rat, default=Fraction(1))
    p.add_argument("--c", type=_rat, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gosper", help="check the Gosper evaluation")
    p.add_argument("--a", type=_rat, required=True)
    p.add_argument("--b", type=_rat, required=True)
    common(p)

    p = sub.add_parser("sweep", help="seeded random verify runs")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--ell-max", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("eval", help="evaluate F(a,b,c;z) numerically")
    p.add_argument("--a", type=_rat, required=True)
    p.add_argument("--b", type=_rat, required=True)
    p.add_argument("--c", type=_rat, required=True)
    p.add_argument("--z", type=_complex_rat, required=True,
                   help='argument, "p/q" or "p/q,p/q" for re,im')
    p.add_argument("--method", choices=KNOWN_PATHS, default=None)
    p.add_argument("--precision", type=int, default=192)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("roots", help="roots of F(1-a,-ell,2-c;x) or --coeffs")
    p.add_argument("--a", type=_rat)
    p.add_argument("--c", type=_rat)
    p.add_argument("--ell", type=int)
    p.add_argument("--coeffs", type=str, default=None,
                   help='comma-separated rational coefficients, ascending')
    p.add_argument("--precision", type=int, default=192)
    p.add_argument("--json", action="store_true")
    return parser


def _exit_code(verdict: str) -> int:
    """The exit code of a report's verdict: 0 for a pass, or for a
    terminating polynomial with no root to check, 1 for a failure."""
    return {"pass": 0, "no-roots": 0, "fail": 1}[verdict]


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_verify(args) -> int:
    report = verify_theorem(
        args.a, args.c, args.ell,
        precision=args.precision, tolerance=args.tolerance,
    )
    digits = report_digits(args.precision)
    lines = [
        f"params: a={format_rational(args.a)} c={format_rational(args.c)} "
        f"ell={args.ell} precision={args.precision} order={report.order} "
        f"tolerance={args.tolerance}",
        f"genericity: A1={report.flags.a1} A2={report.flags.a2} "
        f"E1={report.flags.e1} E2'={report.flags.e2p}",
        f"terminating polynomial: {report.poly}",
        f"q0 = {report.q0}",
        f"r0 = {report.r0}",
        f"q0 provenance: {', '.join(report.q0_provenance)} "
        f"({'agree' if report.q0_agree else 'DISAGREE'})",
    ]
    if report.verdict == "no-roots":
        lines.append("no roots: the terminating polynomial is constant")
    for i, rec in enumerate(report.records, 1):
        lam = mpmath.nstr(rec.lam, digits)
        partner = (
            f"  (conjugate of root {rec.conjugate_of + 1})" if rec.by_conjugation else ""
        )
        if rec.skipped:
            lines.append(
                f"root {i}: lambda = {lam}  SKIPPED ({rec.skip_reason}){partner}"
            )
            continue
        lines.append(
            f"root {i}: lambda = {lam}  (multiplicity {rec.multiplicity}){partner}"
        )
        for ch in rec.checks:
            lines.append(
                f"  {ch.name:<16} residual={mpmath.nstr(ch.residual, 4)}"
                f"  path={ch.path}"
            )
    if report.records:
        lines.append(f"skip rate: {report.skipped_roots} of {len(report.records)} roots")
    vacuous = " (vacuous: no root checked)" if report.vacuous else ""
    lines.append(f"verdict: {report.verdict.upper()}{vacuous}")
    _emit(args, report.as_dict(), lines)
    return _exit_code(report.verdict)


def _cmd_q0(args) -> int:
    a, b, c, ell = args.a, args.b, args.c, args.ell
    flags = genericity_flags(HypParams(a, b, c), ell)
    # routes that disagree raise InternalInconsistencyError (exit 3)
    q0, r0, provenance, _ = compute_q0_all_methods(a, c, ell, None, b)
    records = []
    for method in provenance:
        rec = {"method": method, "q0": str(q0)}
        if method != "reversal":
            rec["r0"] = str(r0)
        records.append(rec)

    reversal_note = None
    if b != 1:
        reversal_note = "reversal method requires b = 1"
    elif "reversal" not in provenance:
        reversal_note = "reversal method skipped: a is an integer"

    lines = [
        f"params: a={format_rational(a)} b={format_rational(b)} "
        f"c={format_rational(c)} ell={ell}",
        f"q0 = {q0}",
        f"r0 = {r0}",
    ]
    for rec in records:
        extra = f"; r0 = {rec['r0']}" if "r0" in rec else ""
        lines.append(f"  [{rec['method']}] q0 = {rec['q0']}{extra}")
    if reversal_note:
        lines.append(f"  [reversal] {reversal_note}")
    lines.append("methods agree")
    payload = {
        "params": {
            "a": format_rational(a), "b": format_rational(b),
            "c": format_rational(c), "ell": ell,
        },
        "flags": _flags_dict(flags),
        "records": records + (
            [{"method": "reversal", "note": reversal_note}] if reversal_note else []
        ),
        "verdict": "AGREE",
    }
    _emit(args, payload, lines)
    return 0


def _cmd_reduce(args) -> int:
    a, b, c, ell = args.a, args.b, args.c, args.ell
    params = HypParams(a, b, c)
    H = build_H(b, ell)
    L = build_L(params)
    red = right_reduce(H, L)
    fac = factor_remainder(red.q, red.r, ell)
    flags = genericity_flags(params, ell)
    # right_reduce asserts H = quotient o L + q D + r before returning.
    lines = [
        f"params: a={format_rational(a)} b={format_rational(b)} "
        f"c={format_rational(c)} ell={ell}",
        f"H(ell) = {H}",
        f"p(D)   = {red.quotient}",
        f"q(x)   = {red.q}",
        f"r(x)   = {red.r}",
        f"exponents: (v0, v1, g) = ({format_rational(fac.v0)}, "
        f"{format_rational(fac.v1)}, {fac.g})   (w0, w1, h) = "
        f"({format_rational(fac.w0)}, {format_rational(fac.w1)}, {fac.h})",
        f"q0 = {fac.q0}",
        f"r0 = {fac.r0}",
        f"genericity: A1={flags.a1} A2={flags.a2} E1={flags.e1} E2'={flags.e2p}",
        "reconstruction: OK",
    ]
    payload = {
        "params": {
            "a": format_rational(a), "b": format_rational(b),
            "c": format_rational(c), "ell": ell,
        },
        "flags": _flags_dict(flags),
        "records": [
            {
                "H": str(H),
                "quotient": str(red.quotient),
                "q": str(red.q),
                "r": str(red.r),
                "v0": format_rational(fac.v0),
                "v1": format_rational(fac.v1),
                "g": fac.g,
                "w0": format_rational(fac.w0),
                "w1": format_rational(fac.w1),
                "h": fac.h,
                "q0": str(fac.q0),
                "r0": str(fac.r0),
                "reconstruction": "OK",
            }
        ],
        "verdict": "pass",
    }
    _emit(args, payload, lines)
    return 0


def _cmd_gosper(args) -> int:
    report = gosper_check(
        args.a, args.b, precision=args.precision, tolerance=args.tolerance
    )
    digits = report_digits(args.precision)
    lines = [
        f"params: a={format_rational(args.a)} b={format_rational(args.b)} "
        f"argument z = {format_rational(report.z)}",
        f"lhs = F(1-a, b, b+2; z) = {mpmath.nstr(report.lhs, digits)}",
        f"rhs = (b+1) (a/(a+b))^a = {mpmath.nstr(report.rhs, digits)}",
        f"residual = {mpmath.nstr(report.residual, 6)}"
        + ("  (exact arithmetic)" if report.exact else f"  path={report.path}"),
        f"verdict: {report.verdict.upper()}",
    ]
    _emit(args, report.as_dict(), lines)
    return _exit_code(report.verdict)


def _cmd_sweep(args) -> int:
    report = sweep(
        args.trials, ell_max=args.ell_max, seed=args.seed,
        precision=args.precision, tolerance=args.tolerance,
    )
    lines = [
        f"{report.trials} trials, ell 1..{report.ell_max}, seed {report.seed}: "
        f"{report.failures} failures",
        f"roots: {report.total_roots} total, {report.skipped_roots} skipped "
        f"(rate {report.skip_rate:.3f})",
        f"vacuous passes: {report.vacuous_passes} (trials with no root checked)",
        f"verdict: {report.verdict.upper()}",
    ]
    _emit(args, report.as_dict(), lines)
    return _exit_code(report.verdict)


def _cmd_eval(args) -> int:
    z = args.z
    zstr = ",".join(map(format_rational, z if isinstance(z, tuple) else (z,)))
    ctx = EvalContext(args.precision)
    result = hyp2f1_num(args.a, args.b, args.c, z, ctx, method=args.method)
    digits = report_digits(args.precision)
    lines = [
        f"F({format_rational(args.a)}, {format_rational(args.b)}, "
        f"{format_rational(args.c)}; {zstr})",
        f"value = {mpmath.nstr(result.value, digits)}",
        f"est error = {mpmath.nstr(result.est_error, 6)}",
        f"path = {result.path}",
        f"n_terms = {result.n_terms}",
    ]
    payload = {
        "params": {
            "a": format_rational(args.a), "b": format_rational(args.b),
            "c": format_rational(args.c), "z": zstr,
            "precision": args.precision,
        },
        "flags": {},
        "records": [
            {
                "value": mpmath.nstr(result.value, digits),
                "est_error": mpmath.nstr(result.est_error, 6),
                "path": result.path,
                "n_terms": result.n_terms,
            }
        ],
        "verdict": "pass",
    }
    _emit(args, payload, lines)
    return 0


def _cmd_roots(args) -> int:
    given = [f"--{n}" for n in ("a", "c", "ell") if getattr(args, n) is not None]
    if args.coeffs is not None:
        if given:
            raise ParameterError(f"--coeffs excludes {'/'.join(given)}")
        try:
            coeffs = [parse_rational(t) for t in args.coeffs.split(",")]
        except ValueError as exc:
            raise ParameterError(str(exc)) from exc
        poly = Poly(coeffs)
        if poly.is_zero():
            raise ParameterError("every x is a root of the zero polynomial")
        source = f"coefficients {args.coeffs}"
    else:
        if len(given) < 3:
            raise ParameterError("roots needs either --coeffs or --a/--c/--ell")
        poly = theorem_poly(args.a, args.c, args.ell)
        source = (
            f"F(1-a, -ell, 2-c; x) at a={format_rational(args.a)} "
            f"c={format_rational(args.c)} ell={args.ell}"
        )
    digits = report_digits(args.precision)
    lines = [f"polynomial: {poly}   [{source}]"]
    payload_roots = []
    radius = None
    if poly.degree == 0:
        lines.append("no roots (constant polynomial)")
        verdict = "no-roots"
    else:
        rs = find_roots(poly, args.precision)
        for root, mult in zip(rs.roots, rs.multiplicities):
            lines.append(
                f"root: {mpmath.nstr(root, digits)}  (multiplicity {mult})"
            )
            payload_roots.append(
                {
                    "re": mpmath.nstr(root.real, digits),
                    "im": mpmath.nstr(root.imag, digits),
                    "multiplicity": mult,
                }
            )
        lines.append(f"max |P(root)| = {mpmath.nstr(rs.residual_bound, 6)}")
        radius = mpmath.nstr(rs.inclusion_radius, 6)
        lines.append(f"inclusion radius = {radius}  (certified, disjoint discs)")
        verdict = "pass"
    payload = {
        "params": {"poly": [format_rational(cf) for cf in poly.coeffs],
                   "precision": args.precision},
        "flags": {},
        "records": payload_roots,
        "inclusion_radius": radius,
        "verdict": verdict,
    }
    _emit(args, payload, lines)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "q0": _cmd_q0,
    "reduce": _cmd_reduce,
    "gosper": _cmd_gosper,
    "sweep": _cmd_sweep,
    "eval": _cmd_eval,
    "roots": _cmd_roots,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "precision"):
            check_report_precision(args.precision)
        return _COMMANDS[args.command](args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
