import random
from fractions import Fraction

import pytest

from strangeval.errors import BranchCutError, ParameterError
from strangeval.hyp import HypParams, hyp_series, q0_r0_general_b
from strangeval.numeric import EvalContext
from strangeval.operators import factor_remainder, genericity_flags, h_remainder
from strangeval.poly import Poly
from strangeval.scalars import is_integer
from strangeval.verify import (
    CHECK_REFLECTED,
    CHECK_SHIFTED,
    compute_q0_all_methods,
    gosper_check,
    incomplete_beta_check,
    random_non_integer,
    random_rational,
    sweep,
    verify_theorem,
)

CTX = EvalContext(192)


class TestVerifyTheorem:
    def test_flagship_instance(self):
        # a=3, c=3/2, l=1: root -1/4, closed forms 2/5 and (1/2)(5/4)^(5/2)
        report = verify_theorem(3, Fraction(3, 2), 1)
        assert report.verdict == "pass"
        assert report.poly == Poly((1, 4))
        assert report.q0 == Poly.one() and report.r0 == Poly.one()
        (rec,) = report.records
        assert not rec.skipped
        assert abs(rec.lam + Fraction(1, 4)) <= CTX.mp.mpf(2) ** -180

        shifted = next(ch for ch in rec.checks if ch.name == CHECK_SHIFTED)
        reflected = next(ch for ch in rec.checks if ch.name == CHECK_REFLECTED)
        mp = CTX.mp
        assert abs(shifted.lhs - mp.mpf(2) / 5) <= mp.mpf(1e-40)
        expected = mp.mpf(1) / 2 * (mp.mpf(5) / 4) ** (mp.mpf(5) / 2)
        assert abs(reflected.lhs - expected) <= mp.mpf(1e-40)
        assert shifted.residual <= mp.mpf(1e-40)
        assert reflected.residual <= mp.mpf(1e-40)

    def test_no_roots_when_a_is_one(self):
        report = verify_theorem(1, Fraction(1, 2), 3)
        assert report.verdict == "no-roots"
        assert report.records == []

    def test_two_root_instance(self):
        report = verify_theorem(Fraction(1, 2), Fraction(1, 3), 2)
        assert report.verdict == "pass"
        assert report.q0 == Poly((4 - Fraction(1, 3), Fraction(1, 2) - 2))
        assert len(report.records) == 2
        for rec in report.records:
            assert not rec.skipped
            for ch in rec.checks:
                assert ch.residual <= CTX.mp.mpf(1e-40)

    def test_reversal_included_for_noninteger_a(self):
        report = verify_theorem(Fraction(1, 2), Fraction(1, 3), 2)
        assert report.q0_provenance == ("series", "operator", "reversal")
        report = verify_theorem(3, Fraction(3, 2), 1)
        assert report.q0_provenance == ("series", "operator")

    def test_branch_cut_roots_skipped(self):
        # a=-6/5, c=-7/9, l=1: the single root lies in (1, oo)
        report = verify_theorem(Fraction(-6, 5), Fraction(-7, 9), 1)
        (rec,) = report.records
        assert rec.skipped and rec.skip_reason == "branch-cut"
        assert report.verdict == "pass"  # nothing checkable failed
        assert report.skip_rate == 1.0

    def test_repeated_roots(self):
        # c - a = 1 makes F(1-a, -l, 2-c; x) = (1-x)^l; c - a = 2 leaves
        # (1-x)^(l-1) times a linear factor
        for a, c, ell, expected in (
            (Fraction(1, 2), Fraction(3, 2), 3, [(3, "branch-cut")]),
            (Fraction(-4, 3), Fraction(2, 3), 5, [(1, None), (4, "branch-cut")]),
        ):
            report = verify_theorem(a, c, ell)
            assert report.verdict == "pass"
            assert [(r.multiplicity, r.skip_reason) for r in report.records] == expected

    def test_rejects_integer_c(self):
        with pytest.raises(ParameterError):
            verify_theorem(Fraction(1, 2), 2, 1)

    def test_rejects_bad_ell(self):
        with pytest.raises(ParameterError):
            verify_theorem(Fraction(1, 2), Fraction(1, 2), 0)

    def test_rejects_tolerance_below_precision(self):
        # 2^-40 ~ 9.1e-13: 1e-12 is reachable at 40 bits, 1e-13 is not
        verify_theorem(3, Fraction(3, 2), 1, precision=40, tolerance=1e-12)
        # NaN compares below nothing, so it could only report FAIL, and
        # every residual compares below inf, so it could only report PASS
        for tolerance in (1e-13, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                verify_theorem(3, Fraction(3, 2), 1, precision=40, tolerance=tolerance)
            with pytest.raises(ParameterError):
                gosper_check(3, 2, precision=40, tolerance=tolerance)
            with pytest.raises(ParameterError):
                sweep(1, precision=40, tolerance=tolerance)

    def test_report_dict_shape(self):
        d = verify_theorem(3, Fraction(3, 2), 1).as_dict()
        assert set(d) >= {"params", "flags", "records", "verdict"}
        assert d["verdict"] == "pass"
        assert d["records"][0]["checks"][0]["path"] == "direct-series"


class TestGosper:
    def test_exact_terminating_instances(self):
        for a, b, lhs_expected in [
            (1, 1, Fraction(1)),
            (2, 1, Fraction(8, 9)),
            (3, 2, Fraction(81, 125)),
        ]:
            report = gosper_check(a, b)
            assert report.exact
            assert report.residual == 0
            assert abs(report.lhs - CTX.to_mp(lhs_expected)) <= CTX.eps * 8
            assert report.verdict == "pass"

    def test_nonterminating_instance(self):
        report = gosper_check(Fraction(1, 2), Fraction(1, 3), tolerance=1e-40)
        assert not report.exact
        assert report.residual <= CTX.mp.mpf(1e-40)
        assert report.verdict == "pass"

    def test_negative_argument(self):
        # b < 0 < a+b puts the argument left of 0, base (= 1 - z) above 1
        report = gosper_check(Fraction(3, 2), Fraction(-1, 2), tolerance=1e-40)
        assert report.residual <= CTX.mp.mpf(1e-40)

    def test_rejects_a_plus_b_zero(self):
        with pytest.raises(ParameterError):
            gosper_check(Fraction(1, 2), Fraction(-1, 2))

    def test_rejects_bad_lower_parameter(self):
        with pytest.raises(ParameterError):
            gosper_check(Fraction(1, 2), -3)

    def test_rejects_argument_on_cut(self):
        # b/(a+b) = 2 for a = -1/2, b = 1
        with pytest.raises(BranchCutError):
            gosper_check(Fraction(-1, 2), 1)


class TestIncompleteBeta:
    def test_reference_point(self):
        residual = incomplete_beta_check(2, 3, Fraction(1, 2), order=128)
        assert residual <= CTX.mp.mpf(1e-30)

    def test_a_equals_c_reduces_to_geometric(self):
        # exact series reduction: F(c, 1, c; x) has all coefficients 1
        c = Fraction(5, 2)
        series = hyp_series(HypParams(c, 1, c), 24)
        assert all(cf == 1 for cf in series.coeffs)
        residual = incomplete_beta_check(c, c, Fraction(1, 2), order=96)
        assert residual <= CTX.mp.mpf(2) ** -150  # roundoff, not truncation

    def test_small_x_limit(self):
        # both sides tend to 1; residual stays at truncation level
        residual = incomplete_beta_check(2, 3, Fraction(1, 1000), order=32)
        assert residual <= CTX.mp.mpf(1e-30)

    def test_rejects_c_not_above_one(self):
        with pytest.raises(ParameterError):
            incomplete_beta_check(2, 1, Fraction(1, 2))

    def test_rejects_x_outside_unit_interval(self):
        with pytest.raises(ParameterError):
            incomplete_beta_check(2, 3, Fraction(3, 2))


class TestSweep:
    def test_small_sweep_passes(self):
        report = sweep(6, ell_max=3, seed=7)
        assert report.verdict == "pass"
        assert report.failures == 0
        assert len(report.records) == 6

    def test_deterministic_in_seed(self):
        r1 = sweep(4, ell_max=3, seed=11)
        r2 = sweep(4, ell_max=3, seed=11)
        assert r1.as_dict() == r2.as_dict()

    def test_rejects_bad_counts(self):
        with pytest.raises(ParameterError):
            sweep(0)
        with pytest.raises(ParameterError):
            sweep(1, ell_max=0)


class TestHighEllQ0:
    """q0 by every route at ell far above the sweep's range."""

    def test_generic_draws_at_ell_20_and_40(self):
        rng = random.Random(40_404)
        draws = []
        while len(draws) < 3:
            a, c = random_rational(rng), random_non_integer(rng)
            params = HypParams(a, 1, c)
            if not is_integer(a) and all(
                genericity_flags(params, ell).generic_apart_from_b() for ell in (20, 40)
            ):
                draws.append((a, c, params))
        for a, c, params in draws:
            for ell in (20, 40):
                # the series route asserts its tail vanishes through ell + 32
                q0, r0, provenance, agree = compute_q0_all_methods(a, c, ell, ell + 32)
                assert provenance == ("series", "operator", "reversal") and agree
                assert q0.degree == ell - 1 and r0.degree == ell - 1
                fac = factor_remainder(*h_remainder(params, ell), ell)
                assert (fac.v0, fac.v1, fac.g) == (1, 1 - ell, ell - 1), (a, c, ell)
                assert (fac.w0, fac.w1, fac.h) == (0, 1 - ell, ell - 1), (a, c, ell)

    def test_general_b_at_ell_12(self):
        a, b, c, ell = Fraction(7, 3), Fraction(1, 2), Fraction(5, 11), 12
        params = HypParams(a, b, c)
        canon = factor_remainder(*h_remainder(params, ell), ell).canonical_qr()
        qr = q0_r0_general_b(params, ell)
        assert (canon.q0, canon.r0) == (qr.q0, qr.r0)
        q0, r0, provenance, agree = compute_q0_all_methods(a, c, ell, None, b)
        assert provenance == ("series", "operator") and agree
        assert (q0, r0) == (qr.q0, qr.r0)
