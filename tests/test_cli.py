import json

import pytest

from strangeval import cli
from strangeval.cli import main
from strangeval.errors import InternalInconsistencyError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_integer_c_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--a", "3", "--c", "2", "--ell", "1")
        assert code == 2
        assert "error" in err

    def test_json_deterministic(self, capsys):
        argv = ("verify", "--a", "1/2", "--c", "1/3", "--ell", "2", "--json")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


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
        code, out, _ = run(capsys, "gosper", "--a", "2", "--b", "1")
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
        # the connection path sums two inner series; --z=3,2 reaches it
        code, out, _ = run(
            capsys, "eval", "--a", "1/2", "--b", "1/3", "--c", "5/7",
            "--z=3,2", "--json",
        )
        assert code == 0
        (record,) = json.loads(out)["records"]
        assert record["path"] == "connection-1mz"
        assert isinstance(record["n_terms"], int) and record["n_terms"] > 0
        code, out, _ = run(
            capsys, "eval", "--a", "1/2", "--b", "1/3", "--c", "5/7", "--z=3,2",
        )
        assert f"n_terms = {record['n_terms']}" in out.splitlines()

    def test_method_override(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--a", "1/3", "--b", "2/5", "--c", "7/5",
            "--z", "2/5", "--method", "pfaff-a",
        )
        assert code == 0
        assert "path = pfaff-a" in out

    def test_degenerate_connection_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "eval", "--a", "1/2", "--b", "1/2", "--c", "1",
            "--z", "2/3", "--method", "connection-1mz",
        )
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""


class TestRootsCommand:
    def test_from_theorem_parameters(self, capsys):
        code, out, _ = run(capsys, "roots", "--a", "3", "--c", "3/2", "--ell", "1")
        assert code == 0
        assert "1 + 4*x" in out and "-0.25" in out

    def test_from_coefficients(self, capsys):
        code, out, _ = run(capsys, "roots", "--coeffs", "1,0,1")
        assert code == 0
        assert "multiplicity 1" in out

    def test_requires_some_input(self, capsys):
        code, _, err = run(capsys, "roots")
        assert code == 2 and "error" in err

    def test_malformed_coefficient_is_usage_error(self, capsys):
        for coeffs, bad in (("1,x", "'x'"), ("1,2/0", "'2/0'")):
            code, out, err = run(capsys, "roots", "--coeffs", coeffs)
            assert code == 2
            assert out == ""
            assert err == f"error: not a rational number: {bad}\n"


class TestUsageErrors:
    def test_bad_rational(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--a", "pi", "--c", "1/2", "--ell", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
