import argparse
import ast
import hashlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from strangeval import cli, hyp, numeric, operators, poly, scalars, series, verify
from strangeval.cli import main
from strangeval.errors import InternalInconsistencyError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def evaluated(monkeypatch):
    """The ``EvalResult`` of every 2F1 evaluation the CLI runs, in order,
    at full precision (the report prints fewer digits)."""
    results = []

    def recording(*args, **kwargs):
        results.append(cli_hyp2f1_num(*args, **kwargs))
        return results[-1]

    cli_hyp2f1_num = cli.hyp2f1_num
    monkeypatch.setattr(cli, "hyp2f1_num", recording)
    return results


class TestVerifyCommand:
    def test_flagship(self, capsys):
        code, out, _ = run(capsys, "verify", "--a", "3", "--c", "3/2", "--ell", "1")
        assert code == 0
        assert "verdict: PASS" in out
        assert "-0.25" in out

    def test_no_roots(self, capsys):
        code, out, _ = run(capsys, "verify", "--a", "1", "--c", "1/2", "--ell", "3")
        assert code == 0
        assert "no roots" in out

    def test_json_mode_has_root_records(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--a", "2/3", "--c", "7/5", "--ell", "4", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"params", "flags", "records", "verdict"}
        assert len(payload["records"]) == 4
        assert payload["verdict"] == "pass"
        # two conjugate pairs, each listed lower root first
        conjugated = [r["by_conjugation"] for r in payload["records"]]
        assert conjugated == [True, False, True, False]
        _, out, _ = run(capsys, "verify", "--a", "2/3", "--c", "7/5", "--ell", "4")
        marked = [line for line in out.splitlines() if "(conjugate of root" in line]
        assert [line.split(":")[0] for line in marked] == ["root 1", "root 3"]
        assert marked[0].endswith("(conjugate of root 2)")
        assert marked[1].endswith("(conjugate of root 4)")

    def test_integer_c_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--a", "3", "--c", "2", "--ell", "1")
        assert code == 2
        assert "error" in err

    def test_json_deterministic(self, capsys):
        argv = ("verify", "--a", "1/2", "--c", "1/3", "--ell", "2", "--json")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_all_roots_skipped_is_a_vacuous_pass(self, capsys):
        argv = ("verify", "--a", "4/3", "--c", "8/3", "--ell", "2")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "skip rate: 2 of 2 roots" in out
        assert "SKIPPED (eval-failed)  (conjugate of root 2)" in out
        assert out.endswith("verdict: PASS (vacuous: no root checked)\n")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["verdict"] == "pass"
        # a pass that checked a root says nothing more
        _, out, _ = run(capsys, "verify", "--a", "3", "--c", "3/2", "--ell", "1")
        assert out.endswith("verdict: PASS\n")

    def test_json_flags_carry_the_e2p_note(self, capsys):
        code, out, _ = run(capsys, "verify", "--a", "0", "--c", "1/2", "--ell", "1", "--json")
        assert code == 0
        flags = json.loads(out)["flags"]
        assert flags["E2'"] is False
        assert flags["note"] == "E2' denominator vanishes (a = 0 or c-b-1 = 0)"


class TestQ0Command:
    def test_ell_one(self, capsys):
        code, out, _ = run(capsys, "q0", "--a", "5", "--c", "1/2", "--ell", "1")
        assert code == 0
        assert "q0 = 1" in out and "r0 = 1" in out
        assert "methods agree" in out

    def test_ell_two_closed_form(self, capsys):
        code, out, _ = run(capsys, "q0", "--a", "5", "--c", "1/2", "--ell", "2")
        assert code == 0
        assert "q0 = 7/2 + 3*x" in out
        assert "r0 = 2 + 3*x" in out

    def test_reversal_gated_for_integer_a(self, capsys):
        code, out, _ = run(capsys, "q0", "--a", "3", "--c", "1/2", "--ell", "2")
        assert code == 0
        assert "reversal method skipped" in out
        assert "methods agree" in out

    def test_disagreement_is_internal_error(self, capsys, monkeypatch):
        def disagree(*args):
            raise InternalInconsistencyError("q0/r0 methods disagree")

        monkeypatch.setattr(cli, "compute_q0_all_methods", disagree)
        code, out, err = run(capsys, "q0", "--a", "5", "--c", "1/2", "--ell", "2")
        assert code == 3
        assert "disagree" in err and out == ""

    def test_general_b(self, capsys):
        code, out, _ = run(
            capsys, "q0", "--a", "5", "--c", "1/2", "--ell", "2", "--b", "3/2"
        )
        assert code == 0
        assert "methods agree" in out


class TestReduceCommand:
    def test_ell_two_instance(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--a", "3", "--b", "1", "--c", "3/2", "--ell", "2"
        )
        assert code == 0
        assert "(v0, v1, g) = (1, -1, 1)" in out
        assert "(w0, w1, h) = (0, -1, 1)" in out
        assert "reconstruction: OK" in out

    def test_ell_one_remainder(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--a", "2/7", "--b", "1", "--c", "1/3", "--ell", "1"
        )
        assert code == 0
        assert "p(D)   = 0" in out
        assert "q(x)   = x" in out
        assert "r(x)   = 1" in out


class TestGosperCommand:
    def test_exact_instance(self, capsys):
        for a, b in (("2", "1"), ("3", "2")):
            code, out, _ = run(capsys, "gosper", "--a", a, "--b", b)
            assert code == 0
            assert "residual = 0.0" in out
            assert "exact arithmetic" in out

    def test_unit_instance(self, capsys):
        code, out, _ = run(capsys, "gosper", "--a", "1", "--b", "1")
        assert code == 0
        assert "verdict: PASS" in out

    def test_cut_rejected(self, capsys):
        code, _, err = run(capsys, "gosper", "--a=-1/2", "--b", "1")
        assert code == 2 and "error" in err

    def test_pole_before_termination_rejected(self, capsys):
        code, _, err = run(capsys, "gosper", "--a", "1/2", "--b=-3")
        assert code == 2 and "does not terminate before the pole" in err

    def test_exact_instance_past_a_pole_of_b_plus_2(self, capsys):
        code, out, _ = run(capsys, "gosper", "--a", "2", "--b=-3")
        assert code == 0
        assert "lhs = F(1-a, b, b+2; z) = -8.0" in out
        assert "rhs = (b+1) (a/(a+b))^a = -8.0" in out
        assert "verdict: PASS" in out


class TestSweepCommand:
    def test_small_seeded_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--trials", "4", "--ell-max", "3", "--seed", "5"
        )
        assert code == 0
        assert "0 failures" in out

    def test_json_deterministic(self, capsys):
        argv = ("sweep", "--trials", "3", "--ell-max", "2", "--seed", "9", "--json")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["verdict"] == "pass"

    def test_counts_vacuous_passes(self, capsys):
        # seed 9: trial 0 skips its only root, trials 1 and 2 check theirs
        code, out, _ = run(
            capsys, "sweep", "--trials", "3", "--ell-max", "2", "--seed", "9"
        )
        assert code == 0
        assert "vacuous passes: 1 (trials with no root checked)" in out

    def test_tolerance_below_precision_is_usage_error(self, capsys):
        # the default 1e-30 is finer than 40 bits reach, no residual is
        # below NaN, and every residual is below inf: refused, not a verdict
        for extra in (
            ("--precision", "40"), ("--tolerance", "nan"), ("--tolerance", "inf"),
        ):
            code, out, err = run(
                capsys, "sweep", "--trials", "5", "--ell-max", "4", "--seed", "3",
                *extra,
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "tolerance" in err


class TestEvalCommand:
    def test_log_point(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--a", "1", "--b", "1", "--c", "2", "--z", "1/2"
        )
        assert code == 0
        assert "1.3862943611198906188" in out
        assert "path = direct-series" in out

    def test_complex_argument(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--a", "1/2", "--b", "1/3", "--c", "5/7",
            "--z=-3,2",
        )
        assert code == 0
        assert "path = pfaff" in out

    def test_reports_terms_summed(self, capsys):
        # the connection path sums two inner series; --z=1,1/2 reaches it
        code, out, _ = run(
            capsys, "eval", "--a", "1/2", "--b", "1/3", "--c", "5/7",
            "--z=1,1/2", "--json",
        )
        assert code == 0
        (record,) = json.loads(out)["records"]
        assert record["path"] == "connection-1mz"
        assert isinstance(record["n_terms"], int) and record["n_terms"] > 0
        code, out, _ = run(
            capsys, "eval", "--a", "1/2", "--b", "1/3", "--c", "5/7", "--z=1,1/2",
        )
        assert f"n_terms = {record['n_terms']}" in out.splitlines()

    def test_method_override(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--a", "1/3", "--b", "2/5", "--c", "7/5",
            "--z", "2/5", "--method", "pfaff-a",
        )
        assert code == 0
        assert "path = pfaff-a" in out

    def test_no_convergent_map_is_domain_error(self, capsys):
        for extra in ((), ("--method", "direct-series")):
            code, out, err = run(
                capsys, "eval", "--a", "1/3", "--b", "2/5", "--c", "7/5",
                "--z", "1/2,433/500", *extra,
            )
            assert code == 2 and out == ""
            (line,) = err.splitlines()
            assert line.startswith("error: ") and "budget" in line

    def test_c_pole_at_the_ending_factor(self, capsys):
        # a = c = -2: the pole (c+2) comes with the factor (a+2) that ends
        # the sum, which stops there: 1 + z/3 + 2z^2/9
        code, out, _ = run(
            capsys, "eval", "--a=-2", "--b=1/3", "--c=-2", "--z", "1/2,1/3"
        )
        assert code == 0
        assert "value = (1.1975308641975308641" in out
        assert "0.18518518518518518518" in out

    def test_forced_map_undefined_at_the_input_is_usage_error(self, capsys):
        # a Pfaff map at a nonpositive-integer c, and any map but the direct
        # sum at z = 1, is refused rather than evaluated
        for params in (
            ("--a=1/2", "--b=-1", "--c=-2", "--z", "3/10", "--method", "pfaff-a"),
            ("--a=1/2", "--b=-1", "--c=-2", "--z", "3/10", "--method", "pfaff-b"),
            ("--a=-2", "--b=1/3", "--c=2", "--z", "1", "--method", "pfaff-a"),
            ("--a=-2", "--b=1/3", "--c=2", "--z", "1", "--method", "connection-1mz"),
        ):
            code, out, err = run(capsys, "eval", *params)
            assert code == 2 and out == ""
            (line,) = err.splitlines()
            assert line.startswith("error: ") and "not defined" in line

    def test_forced_direct_sum_at_z_one(self, capsys):
        # Chu-Vandermonde: F(-2, 1/3; 2; 1) = 20/27
        code, out, _ = run(
            capsys, "eval", "--a=-2", "--b=1/3", "--c=2", "--z", "1",
            "--method", "direct-series",
        )
        assert code == 0
        assert "value = 0.74074074074074074074" in out

    def test_degenerate_connection_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "eval", "--a", "1/2", "--b", "1/2", "--c", "1",
            "--z", "2/3", "--method", "connection-1mz",
        )
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""


    def test_forced_pfaff_sums_the_polynomial_its_parameter_ends(self, capsys, evaluated):
        # pfaff-a sums F(a, c-b; c; w) = F(-2, 11/12; 5/4; w), a quadratic
        code, out, _ = run(
            capsys, "eval", "--a=-2", "--b", "1/3", "--c", "5/4", "--z", "9/10,1/2",
            "--method", "pfaff-a",
        )
        assert code == 0 and "path = pfaff-a" in out and "n_terms = 2" in out
        (r,) = evaluated
        with mpmath.workprec(400):
            ref = mpmath.hyp2f1(-2, mpmath.mpf(1) / 3, mpmath.mpf(5) / 4,
                                mpmath.mpc(mpmath.mpf(9) / 10, mpmath.mpf(1) / 2))
            assert abs(mpmath.mpc(r.value) - ref) <= r.est_error

    def test_complex_rational_argument_is_rounded_at_the_working_precision(
        self, capsys, evaluated
    ):
        # each component of z = p/q + i r/s is rounded where the engine
        # rounds a real rational z, so est_error covers the error against
        # the exact z (it did not when z was rounded at the precision); at
        # 3 + 2i the Pfaff map runs through the connection at z/(z-1)
        for z, path in (("1/3,1/5", "direct-series"), ("-5/7,2/9", "pfaff-a"),
                        ("9/10,1/10", "connection-1mz"), ("3,2", "pfaff-a")):
            code, _, _ = run(capsys, "eval", "--a", "1/3", "--b", "5/7", "--c", "9/4",
                             f"--z={z}")
            assert code == 0
            r = evaluated[-1]
            assert r.path == path
            x, y = (Fraction(t) for t in z.split(","))
            with mpmath.workprec(900):
                ref = mpmath.hyp2f1(
                    mpmath.mpf(1) / 3, mpmath.mpf(5) / 7, mpmath.mpf(9) / 4,
                    mpmath.mpc(mpmath.mpf(x.numerator) / x.denominator,
                               mpmath.mpf(y.numerator) / y.denominator),
                )
                assert abs(mpmath.mpc(r.value) - ref) <= r.est_error, z

    def test_zero_imaginary_part_is_the_real_argument(self, capsys):
        # z = 37/64 + 0i is the real rational 37/64, whose terminating sum
        # is exact, so the output differs only in the echoed argument
        argv = ("eval", "--a=-3", "--b", "2/7", "--c", "5/3")
        for form in ((), ("--json",)):
            _, real, _ = run(capsys, *argv, "--z", "37/64", *form)
            code, pair, _ = run(capsys, *argv, "--z", "37/64,0", *form)
            assert code == 0
            assert pair == real.replace("; 37/64)", "; 37/64,0)").replace(
                '"z": "37/64"', '"z": "37/64,0"')


class TestRootsCommand:
    def test_from_theorem_parameters(self, capsys):
        code, out, _ = run(capsys, "roots", "--a", "3", "--c", "3/2", "--ell", "1")
        assert code == 0
        assert "1 + 4*x" in out and "-0.25" in out

    def test_pole_of_2_minus_c_where_the_sum_ends(self, capsys):
        # F(1-a, -ell; 2-c; x) = F(-1, -3; -1; x) = 1 - 3x: 1-a ends the sum
        # where 2-c reaches its pole
        code, out, _ = run(capsys, "roots", "--a", "2", "--c", "3", "--ell", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        coeffs = [Fraction(c) for c in payload["params"]["poly"]]
        assert coeffs == [1, -3]
        (root,) = payload["records"]
        assert root["im"] == "0.0"
        assert abs(Fraction(root["re"]) - Fraction(1, 3)) <= Fraction(1, 2**190)
        # the 2F1 engine sums the same polynomial
        code, out, _ = run(
            capsys, "eval", "--a=-1", "--b=-3", "--c=-1", "--z", "1/2", "--json"
        )
        assert code == 0
        value = Fraction(json.loads(out)["records"][0]["value"])
        assert value == sum(c * Fraction(1, 2) ** k for k, c in enumerate(coeffs))

    def test_from_coefficients(self, capsys):
        code, out, _ = run(capsys, "roots", "--coeffs", "1,0,1")
        assert code == 0
        assert "multiplicity 1" in out

    def test_reports_inclusion_radius(self, capsys):
        argv = ("roots", "--a", "7/3", "--c", "5/11", "--ell", "6")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        line = next(x for x in out.splitlines() if x.startswith("inclusion radius = "))
        text_radius = float(line.split()[3])
        code, out, _ = run(capsys, *argv, "--json")
        payload = json.loads(out)
        assert float(payload["inclusion_radius"]) == text_radius
        largest = max(abs(complex(float(r["re"]), float(r["im"])))
                      for r in payload["records"])
        assert 0 < text_radius <= 2.0**-192 * largest
        _, out, _ = run(capsys, "roots", "--coeffs", "3", "--json")
        assert json.loads(out)["inclusion_radius"] is None

    def test_requires_some_input(self, capsys):
        code, _, err = run(capsys, "roots")
        assert code == 2 and "error" in err

    def test_contiguity_order_must_be_positive(self, capsys):
        # as verify, q0 and reduce: with ell = -1 the sum would silently be
        # F(1-a, 1; 2-c; x), ended by 1-a = -2
        for ell in ("-1", "0"):
            code, out, err = run(capsys, "roots", "--a", "3", "--c", "3/2", f"--ell={ell}")
            assert code == 2 and out == ""
            assert err == f"error: contiguity order must be a positive integer, got {ell}\n"

    def test_coefficients_exclude_theorem_parameters(self, capsys):
        code, out, err = run(
            capsys, "roots", "--coeffs", "1,2", "--a", "3", "--c", "3/2", "--ell", "2"
        )
        assert code == 2 and out == ""
        assert err == "error: --coeffs excludes --a/--c/--ell\n"
        code, _, err = run(capsys, "roots", "--coeffs", "1,2", "--ell", "2")
        assert code == 2 and err == "error: --coeffs excludes --ell\n"

    def test_malformed_coefficient_is_usage_error(self, capsys):
        for coeffs, bad in (("1,x", "'x'"), ("1,2/0", "'2/0'")):
            code, out, err = run(capsys, "roots", "--coeffs", coeffs)
            assert code == 2
            assert out == ""
            assert err == f"error: not a rational number: {bad}\n"

    def test_zero_polynomial_is_usage_error(self, capsys):
        # every x is a root of 0, so "no roots" would be false
        for coeffs in ("0", "0,0", "0/3,0"):
            code, out, err = run(capsys, "roots", "--coeffs", coeffs)
            assert code == 2
            assert out == ""
            assert err == "error: every x is a root of the zero polynomial\n"
        # a nonzero constant has no roots
        code, out, _ = run(capsys, "roots", "--coeffs", "3")
        assert code == 0
        assert out == "polynomial: 3   [coefficients 3]\nno roots (constant polynomial)\n"


class TestPrecisionRule:
    @pytest.mark.parametrize("argv", [
        ("roots", "--coeffs", "1,2"),
        ("roots", "--coeffs", "3"),
        ("roots", "--a", "3", "--c", "3/2", "--ell", "1"),
        ("verify", "--a", "3", "--c", "3/2", "--ell", "1"),
        ("sweep", "--trials", "2"),
        ("gosper", "--a", "3", "--b", "2"),
        ("eval", "--a", "1", "--b", "1", "--c", "2", "--z", "1/2"),
    ], ids=lambda argv: argv[0] + "-" + argv[2])
    @pytest.mark.parametrize("precision", ["0", "-5", "23"])
    def test_every_command_refuses_a_tiny_precision(self, capsys, argv, precision):
        code, out, err = run(capsys, *argv, f"--precision={precision}")
        assert code == 2
        assert out == ""
        assert err == f"error: precision must be an integer >= 24 bits: {precision}\n"


class TestReportPrecision:
    """A precision whose report Python cannot print is a usage error, found
    before any work; at the bound both commands print."""

    COMMANDS = {
        "eval": ("eval", "--a", "1/3", "--b", "1/2", "--c", "5/4", "--z", "0.5"),
        "verify": ("verify", "--a", "3", "--c", "3/2", "--ell", "1"),
    }

    def test_bound_follows_the_int_to_str_limit(self):
        assert verify.max_report_precision() == 14156  # at Python's default 4300

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("above", [1, 144, 5844])
    def test_above_the_bound_is_usage_error(self, capsys, monkeypatch, command, above):
        def no_work(*args, **kwargs):
            raise AssertionError("the library was called")

        monkeypatch.setattr(cli, "verify_theorem", no_work)
        monkeypatch.setattr(cli, "hyp2f1_num", no_work)
        precision = verify.max_report_precision() + above
        code, out, err = run(capsys, *self.COMMANDS[command], f"--precision={precision}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: precision must be at most 14156 bits")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_no_int_to_str_limit_means_no_bound(self, capsys, monkeypatch, command):
        # Python before 3.10.7 has neither sys.get_int_max_str_digits nor the limit
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert verify.max_report_precision() is None
        code, out, err = run(capsys, *self.COMMANDS[command])
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_at_the_bound_prints(self, capsys, command):
        precision = verify.max_report_precision()
        code, out, err = run(capsys, *self.COMMANDS[command], f"--precision={precision}")
        assert code == 0 and err == ""
        assert "e-42" in out  # the residual or error estimate, near 2^-precision


class TestModuleEntryPoint:
    """``python -m strangeval.cli`` exits with the code ``main`` returns."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    @pytest.mark.parametrize("argv, code, stream, text", [
        (("gosper", "--a", "3", "--b", "2"), 0, "stdout", "verdict: PASS"),
        (("verify", "--a", "3", "--c", "2", "--ell", "1"), 2, "stderr", "error:"),
        # 64 bits are too few for a tolerance of 1e-19 at ell 40, so checks
        # fail; an inconclusive verdict (ROADMAP item 1 step 2) will say so
        (("verify", "--a", "7/3", "--c", "5/11", "--ell", "40",
          "--precision", "64", "--tolerance", "1e-19"), 1, "stdout", "verdict: FAIL"),
    ])
    def test_exit_code(self, argv, code, stream, text):
        path = [str(self.SRC), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-m", "strangeval.cli", *argv],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code
        assert text in getattr(proc, stream)


class TestUsageErrors:
    def test_bad_rational(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--a", "pi", "--c", "1/2", "--ell", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_argument_of_three_parts(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--a", "1", "--b", "1", "--c", "2", "--z", "1,2,3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: strangeval eval")
        assert "expected 're' or 're,im', got '1,2,3'" in err


def _readme_commands():
    """The ``strangeval ...`` lines of README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split()[1:] for line in block.splitlines()
            if line.startswith("strangeval ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, argv):
    """Every command README documents exits 0."""
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""


GOLDEN = [
    ("verify --a 3 --c 3/2 --ell 1 --json",
     "d682702ac0724cbe665bc2aad1e3162d51bc7ab831d09338d966831c4fdc7942"),
    ("q0 --a 7/3 --c 5/11 --ell 12 --b 1/2 --json",
     "ce83390005afe2904b7b97f71632d3e3b6a5cf48d4688abeca0502f5a201515a"),
    ("q0 --a 5 --c 1/2 --ell 2 --json",
     "002649a68baf53c48d31e17c0739def32dfe59de1739d192cd35a680ab07c429"),
    ("reduce --a 1/3 --b 1 --c 1/2 --ell 3 --json",
     "ee88a4576044e84c389bde371f853d4ae1fad4cc10ec427ad19ce58b48c94001"),
    ("gosper --a 3 --b 2 --json",
     "1377305ad825a4429a22494b35636974cbfa5413dc9addff982faf7fc257b7eb"),
    ("eval --a=-3 --b 2/7 --c 5/3 --z 37/64 --json",
     "97e00502adae7fb26b1e3e454e6bdfc474ea6362ce6ad26ea4ec13cce62695e6"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(capsys, argv, digest):
    """The deterministic JSON is byte-identical to the pinned output."""
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of outputs GOLDEN leaves out: the text form of each GOLDEN
# command, ``roots`` and an ``eval`` at a complex rational z (the direct
# series, by predicted cost) in both forms, and the seed-42 sweep's text
GOLDEN_TEXT = [
    ("verify --a 3 --c 3/2 --ell 1",
     "c92a6efbb6303c5d12a814de90f4d058daba517c9754fff2d9c755c0c04a63bb"),
    ("q0 --a 7/3 --c 5/11 --ell 12 --b 1/2",
     "90518eeaec3aca80b2b7c1f296ba1c7cfb99c6ed7ce0f033ad51b914e9669ff5"),
    ("q0 --a 5 --c 1/2 --ell 2",
     "7024fafe9eb8efbdba2bef5c68950c09368fa6e3ace85953eb908eb9f43cee9f"),
    ("reduce --a 1/3 --b 1 --c 1/2 --ell 3",
     "405220a6c6c761ba9019785ebd7e2fe6023249e0dd52d3babd534fe906d253eb"),
    ("gosper --a 3 --b 2",
     "f1130b27632f9562d2d91341bb9185c0cd78d8d51c4da418d828a67f5726659d"),
    ("eval --a=-3 --b 2/7 --c 5/3 --z 37/64",
     "9698b1ed53716ad6d0588de820975a4f87e7c535a43f47c1bd68cd833a79e6f2"),
    ("roots --a 7/3 --c 5/11 --ell 6",
     "1eb2998ca34e29b3ee9dad3b6c1f0e68f5ef28f49f7dfa7f6161064ab37475c7"),
    ("roots --a 7/3 --c 5/11 --ell 6 --json",
     "01142fd22dadbce09c902c4a473eb56fe7d90d76cff9a945de7c3b0243160f6b"),
    ("eval --a 1/3 --b 5/7 --c 9/4 --z=2/3,-3/7",
     "c9c57c76efec5a66f937fc830c034e9caf387f5fdee3314a0f03f86ef80727bd"),
    ("eval --a 1/3 --b 5/7 --c 9/4 --z=2/3,-3/7 --json",
     "e288c0c3993b4a0e055f2febb5f8491f7f2a92c628242a6edcbfa2e3cef1f039"),
    ("sweep --trials 100 --ell-max 5 --seed 42",
     "a3ffb5e77ee03107505af40e27c795622a0305e80504f43c87baadaa40f4f32c"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_TEXT, ids=[g[0] for g in GOLDEN_TEXT])
def test_golden_text_output(capsys, argv, digest):
    """The text output, and the JSON GOLDEN leaves out, is byte-identical
    to the pinned output."""
    test_golden_output(capsys, argv, digest)


# each command's extra top-level JSON keys, beyond the envelope
# {params, flags, records, verdict} that every report shares
ENVELOPE_EXTRAS = {
    "verify --a 3 --c 3/2 --ell 1": {"terminating_poly", "q0", "skip_rate"},
    "q0 --a 7/3 --c 5/11 --ell 4": set(),
    "reduce --a 1/3 --c 1/2 --ell 3": set(),
    "gosper --a 3 --b 2": set(),
    "sweep --trials 2": {"failures", "total_roots", "skipped_roots", "skip_rate"},
    "eval --a 1/3 --b 5/7 --c 9/4 --z=2/3,-3/7": set(),
    "roots --a 7/3 --c 5/11 --ell 6": {"inclusion_radius"},
}


def _fractions_in(value) -> list:
    if isinstance(value, Fraction):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [f for v in value for f in _fractions_in(v)]
    return []


@pytest.mark.parametrize("argv, extra", ENVELOPE_EXTRAS.items(), ids=list(ENVELOPE_EXTRAS))
def test_every_report_shares_one_envelope(capsys, monkeypatch, argv, extra):
    payloads = []
    emit = cli._emit

    def recording(args, payload, lines):
        payloads.append(payload)
        emit(args, payload, lines)

    monkeypatch.setattr(cli, "_emit", recording)
    code, out, _ = run(capsys, *argv.split(), "--json")
    assert code == 0
    assert set(json.loads(out)) == {"params", "flags", "records", "verdict"} | extra
    (payload,) = payloads
    assert _fractions_in(payload["params"]) == []


def _subparsers():
    (sub,) = (a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_every_default_is_the_shared_constant():
    """Every public precision or tolerance default, and every command's,
    is numeric.DEFAULT_PRECISION or verify.DEFAULT_TOLERANCE, and the help
    text names it."""
    defaults = {"precision": numeric.DEFAULT_PRECISION, "tolerance": verify.DEFAULT_TOLERANCE}
    assert defaults == {"precision": 192, "tolerance": 1e-30}
    seen = set()
    for module in (numeric, verify, hyp, operators, poly, series, scalars):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            try:
                params = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):
                continue
            for p in params:
                if p.name in defaults and p.default is not p.empty:
                    assert p.default == defaults[p.name], (name, p.name)
                    seen.add(name)
    assert seen >= {"EvalContext", "find_roots", "verify_theorem", "gosper_check",
                    "incomplete_beta_check", "sweep"}
    takes = {}
    for command, parser in _subparsers().items():
        for action in parser._actions:
            if action.dest in defaults:
                assert action.default == defaults[action.dest], (command, action.dest)
                assert f"(default {defaults[action.dest]})" in action.help
                takes.setdefault(action.dest, set()).add(command)
    assert takes == {
        "precision": {"verify", "gosper", "sweep", "eval", "roots"},
        "tolerance": {"verify", "gosper", "sweep"},
    }


def test_shared_flags_have_one_help_text():
    """A flag that several commands take reads the same in each."""
    helps = {}
    for parser in _subparsers().values():
        for action in parser._actions:
            if action.dest in ("precision", "tolerance", "json"):
                helps.setdefault(action.dest, set()).add(action.help)
    assert all(len(h) == 1 and None not in h for h in helps.values()), helps
    q0_b, reduce_b = (
        next(a for a in _subparsers()[c]._actions if a.dest == "b") for c in ("q0", "reduce")
    )
    assert q0_b.help == reduce_b.help and q0_b.default == reduce_b.default == 1


def test_roots_beyond_two_to_the_thousand(capsys):
    # the double-precision stage runs on x = 2^1500 y: before, the leading
    # coefficient underflowed there and the roots were never certified
    code, out, err = run(capsys, "roots", f"--coeffs=-{2**3000},0,1", "--json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert [r["multiplicity"] for r in report["records"]] == [1, 1]
    got = sorted(mpmath.mpf(r["re"]) / mpmath.mpf(2) ** 1500 for r in report["records"])
    assert [mpmath.nint(x) for x in got] == [-1, 1]
    assert all(abs(abs(x) - 1) < 1e-50 for x in got)
    assert all(r["im"] == "0.0" for r in report["records"])


# a command for each verdict: pass, no-roots and q0's AGREE as they come,
# and fail where every check is made to miss its tolerance
VERDICT_CASES = [
    ("verify --a 3 --c 3/2 --ell 1", "pass"),
    ("verify --a 1 --c 1/2 --ell 3", "no-roots"),
    ("q0 --a 7/3 --c 5/11 --ell 4", "AGREE"),
    ("reduce --a 1/3 --c 1/2 --ell 3", "pass"),
    ("gosper --a 3 --b 2", "pass"),
    ("sweep --trials 2", "pass"),
    ("eval --a 1/3 --b 5/7 --c 9/4 --z=2/3,-3/7", "pass"),
    ("roots --a 7/3 --c 5/11 --ell 6", "pass"),
    ("roots --coeffs 3", "no-roots"),
    ("verify --a 3 --c 3/2 --ell 1", "fail"),
    ("gosper --a 1/3 --b 2/5", "fail"),
    ("sweep --trials 2", "fail"),
]


@pytest.mark.parametrize("argv, verdict", VERDICT_CASES, ids=[" -> ".join(v) for v in VERDICT_CASES])
def test_every_verdict_maps_through_the_one_exit_code_table(capsys, monkeypatch, argv, verdict):
    """Each command returns its report and text lines, and main maps the
    report's verdict to the exit code through ``_exit_code``."""
    argv = argv.split()
    if verdict == "fail":
        monkeypatch.setattr(verify, "_passes", lambda residual, tolerance: False)
    args = cli.build_parser().parse_args(argv)
    payload, lines = cli._COMMANDS[args.command](args)
    assert payload["verdict"] == verdict and all(isinstance(line, str) for line in lines)
    code, _, err = run(capsys, *argv)
    assert code == cli._exit_code(verdict) == (verdict == "fail") and err == ""


def test_agree_exits_zero_and_an_unknown_verdict_is_refused():
    assert cli._exit_code("AGREE") == 0
    with pytest.raises(KeyError):
        cli._exit_code("inconclusive")


def test_main_is_the_one_caller_of_emit_and_exit_code():
    tree = ast.parse(inspect.getsource(cli))
    callers = {
        fn.name
        for fn in tree.body if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_emit", "_exit_code")
    }
    assert callers == {"main"}
