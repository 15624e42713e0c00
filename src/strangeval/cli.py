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
passes its pair to ``hyp2f1_num``, which rounds it.  Each command returns
its JSON report and its text lines, and ``main`` prints one of them and
maps the report's verdict to the exit code through ``_exit_code``, the
one table of codes: 0 for "pass", "no-roots" and q0's "AGREE", 1 for
"fail".  Exit code 2 is for usage errors and the input errors of
``errors.INPUT_ERRORS`` (invalid parameters, branch cut, degenerate
connection, gamma pole, no evaluation map converging within the term
budget, no convergence, a precision whose report Python cannot print),
and 3 for routes the theory proves equal that disagree (a bug).

Each convention shared by the commands has one owner: every JSON report
is ``verify.report_dict``'s {params, flags, records, verdict} envelope;
the flags more than one command takes are declared once, in
``build_parser``; and the default precision and tolerance are
``numeric.DEFAULT_PRECISION`` and ``verify.DEFAULT_TOLERANCE``, from
which the help text is formatted.  A value that both forms print is
rendered once: the params and genericity lines, and the reduce and eval
values, are read off the JSON report.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import mpmath

from .errors import INPUT_ERRORS, InternalInconsistencyError, ParameterError
from .hyp import HypParams, theorem_poly
from .numeric import DEFAULT_PRECISION, KNOWN_PATHS, EvalContext, find_roots, hyp2f1_num
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
    DEFAULT_TOLERANCE,
    _flags_dict,
    check_report_precision,
    compute_q0_all_methods,
    gosper_check,
    report_dict,
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
    # the flags more than one command takes, each declared once here; --a,
    # --c and --ell are required wherever they are taken, save by roots
    shared = {
        "--a": dict(type=_rat, required=True),
        "--b": dict(type=_rat, default=Fraction(1), help="second parameter (default 1)"),
        "--c": dict(type=_rat, required=True),
        "--ell": dict(type=int, required=True),
        "--precision": dict(type=int, default=DEFAULT_PRECISION,
                            help=f"mantissa bits (default {DEFAULT_PRECISION})"),
        "--tolerance": dict(type=float, default=DEFAULT_TOLERANCE,
                            help=f"residual tolerance (default {DEFAULT_TOLERANCE})"),
        "--json": dict(action="store_true", help="emit JSON"),
    }

    def add(p, *flags, **override):
        for flag in flags:
            p.add_argument(flag, **{**shared[flag], **override})

    p = sub.add_parser("verify", help="verify both identities at every root")
    add(p, "--a", "--c", "--ell", "--precision", "--tolerance", "--json")

    p = sub.add_parser("q0", help="q0/r0 by all methods, with agreement verdict")
    add(p, "--a", "--c", "--ell", "--b", "--json")

    p = sub.add_parser("reduce", help="right division of H(ell) by L(a,b,c)")
    add(p, "--a", "--b", "--c", "--ell", "--json")

    p = sub.add_parser("gosper", help="check the Gosper evaluation")
    add(p, "--a")
    p.add_argument("--b", type=_rat, required=True)
    add(p, "--precision", "--tolerance", "--json")

    p = sub.add_parser("sweep", help="seeded random verify runs")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--ell-max", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    add(p, "--precision", "--tolerance", "--json")

    p = sub.add_parser("eval", help="evaluate F(a,b,c;z) numerically")
    add(p, "--a")
    p.add_argument("--b", type=_rat, required=True)
    add(p, "--c")
    p.add_argument("--z", type=_complex_rat, required=True,
                   help='argument, "p/q" or "p/q,p/q" for re,im')
    p.add_argument("--method", choices=KNOWN_PATHS, default=None)
    add(p, "--precision", "--json")

    p = sub.add_parser("roots", help="roots of F(1-a,-ell,2-c;x) or --coeffs")
    add(p, "--a", "--c", "--ell", required=False)
    p.add_argument("--coeffs", type=str, default=None,
                   help='comma-separated rational coefficients, ascending')
    add(p, "--precision", "--json")
    return parser


def _exit_code(verdict: str) -> int:
    """The exit code of a report's verdict, for every command; ``KeyError``
    on a verdict the table does not hold."""
    return {"pass": 0, "no-roots": 0, "AGREE": 0, "fail": 1}[verdict]


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _params_line(payload: dict) -> str:
    return "params: " + " ".join(f"{k}={v}" for k, v in payload["params"].items())


def _genericity_line(payload: dict) -> str:
    flags = payload["flags"]
    return "genericity: " + " ".join(f"{k}={flags[k]}" for k in ("A1", "A2", "E1", "E2'"))


def _cmd_verify(args):
    report = verify_theorem(
        args.a, args.c, args.ell,
        precision=args.precision, tolerance=args.tolerance,
    )
    payload = report.as_dict()
    digits = report_digits(args.precision)
    lines = [
        _params_line(payload),
        _genericity_line(payload),
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
    return payload, lines


def _cmd_q0(args):
    a, b, c, ell = args.a, args.b, args.c, args.ell
    flags = genericity_flags(HypParams(a, b, c), ell)
    # routes that disagree raise InternalInconsistencyError (exit 3)
    q0, r0, provenance, _ = compute_q0_all_methods(a, c, ell, None, b)
    records = [
        {"method": m, "q0": str(q0), **({} if m == "reversal" else {"r0": str(r0)})}
        for m in provenance
    ]
    if b != 1:
        records.append({"method": "reversal", "note": "reversal method requires b = 1"})
    elif "reversal" not in provenance:
        records.append({"method": "reversal", "note": "reversal method skipped: a is an integer"})
    payload = report_dict(dict(a=a, b=b, c=c, ell=ell), records, "AGREE", _flags_dict(flags))
    lines = [_params_line(payload), f"q0 = {q0}", f"r0 = {r0}"]
    for rec in records:
        if "note" in rec:
            lines.append(f"  [reversal] {rec['note']}")
        else:
            extra = f"; r0 = {rec['r0']}" if "r0" in rec else ""
            lines.append(f"  [{rec['method']}] q0 = {rec['q0']}{extra}")
    lines.append("methods agree")
    return payload, lines


def _cmd_reduce(args):
    a, b, c, ell = args.a, args.b, args.c, args.ell
    params = HypParams(a, b, c)
    H = build_H(b, ell)
    red = right_reduce(H, build_L(params))
    fac = factor_remainder(red.q, red.r, ell)
    # right_reduce asserts H = quotient o L + q D + r before returning.
    record = dict(
        H=str(H), quotient=str(red.quotient), q=str(red.q), r=str(red.r),
        v0=str(fac.v0), v1=str(fac.v1), g=fac.g, w0=str(fac.w0), w1=str(fac.w1), h=fac.h,
        q0=str(fac.q0), r0=str(fac.r0), reconstruction="OK",
    )
    payload = report_dict(dict(a=a, b=b, c=c, ell=ell), [record], "pass",
                          _flags_dict(genericity_flags(params, ell)))
    lines = [
        _params_line(payload),
        *(line.format_map(record) for line in (
            "H(ell) = {H}", "p(D)   = {quotient}", "q(x)   = {q}", "r(x)   = {r}",
            "exponents: (v0, v1, g) = ({v0}, {v1}, {g})   (w0, w1, h) = ({w0}, {w1}, {h})",
            "q0 = {q0}", "r0 = {r0}",
        )),
        _genericity_line(payload),
        "reconstruction: {reconstruction}".format_map(record),
    ]
    return payload, lines


def _cmd_gosper(args):
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
    return report.as_dict(), lines


def _cmd_sweep(args):
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
    return report.as_dict(), lines


def _cmd_eval(args):
    z = args.z
    zstr = ",".join(map(format_rational, z if isinstance(z, tuple) else (z,)))
    ctx = EvalContext(args.precision)
    result = hyp2f1_num(args.a, args.b, args.c, z, ctx, method=args.method)
    record = {
        "value": mpmath.nstr(result.value, report_digits(args.precision)),
        "est_error": mpmath.nstr(result.est_error, 6),
        "path": result.path,
        "n_terms": result.n_terms,
    }
    params = dict(a=args.a, b=args.b, c=args.c, z=zstr, precision=args.precision)
    payload = report_dict(params, [record], "pass")
    lines = ["F({a}, {b}, {c}; {z})".format_map(payload["params"])] + [
        line.format_map(record) for line in
        ("value = {value}", "est error = {est_error}", "path = {path}", "n_terms = {n_terms}")
    ]
    return payload, lines


def _cmd_roots(args):
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
    params = dict(poly=[format_rational(cf) for cf in poly.coeffs], precision=args.precision)
    return report_dict(params, payload_roots, verdict, inclusion_radius=radius), lines


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
        payload, lines = _COMMANDS[args.command](args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    _emit(args, payload, lines)
    return _exit_code(payload["verdict"])


if __name__ == "__main__":
    sys.exit(main())
