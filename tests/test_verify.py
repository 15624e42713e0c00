import dataclasses
import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from strangeval import cli, numeric, verify
from strangeval.errors import (
    BranchCutError,
    DegenerateConnectionError,
    NonConvergenceError,
    ParameterError,
)
from strangeval.hyp import (
    HypParams,
    hyp_series,
    q0_r0_by_series,
    terminating_poly,
    theorem_poly,
)
from strangeval.numeric import EvalContext, find_roots, gamma_c, hyp2f1_num
from strangeval.operators import factor_remainder, genericity_flags, h_remainder
from strangeval.poly import Poly
from strangeval.scalars import is_integer
from strangeval.verify import (
    CHECK_REFLECTED,
    CHECK_SHIFTED,
    SKIP_BRANCH_CUT,
    SKIP_DEGENERATE_CONNECTION,
    SKIP_EVAL_FAILED,
    compute_q0_all_methods,
    draw_theorem_params,
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

    def test_large_a_passes(self):
        # a = (2^200+1)/3, c = 1/2, l = 1: |a b| ~ 2^200, and the series
        # kernel held the root, near -2.8e-60, to the fixed point of 32 guard
        # bits only, so both residuals (4e-29, 1e-29) failed the tolerance
        report = verify_theorem(Fraction(2**200 + 1, 3), Fraction(1, 2), 1)
        assert report.verdict == "pass"
        (rec,) = report.records
        assert len(rec.checks) == 2
        assert all(ch.residual <= CTX.mp.mpf(2) ** -180 for ch in rec.checks)

    def test_right_sides_carry_an_exact_q0(self):
        # at ell 40, Horner in mp arithmetic loses ~60 of q0's bits to
        # cancellation at the roots (3e-49 relative); the exact value at
        # the dyadic root, rounded once, leaves each right-hand side
        # within 2^-190 of a 1600-bit one
        a, c, ell = Fraction(-2, 5), Fraction(3, 7), 40
        report = verify_theorem(a, c, ell)
        assert len(report.records) == ell
        with mpmath.workprec(1600):
            q = [mpmath.mpf(x.numerator) / x.denominator for x in report.q0.coeffs]
            scale = mpmath.mpf((c - 1).numerator) / (c - 1).denominator / mpmath.factorial(ell)
            expo = mpmath.mpf((a + 1 - c).numerator) / (a + 1 - c).denominator
            for rec in report.records:
                lam = mpmath.mpmathify(rec.lam)
                q0 = mpmath.polyval(q[::-1], lam)
                exact = {
                    CHECK_SHIFTED: scale * q0 / (1 - lam) ** ell,
                    CHECK_REFLECTED: scale * (1 - lam) ** expo * q0,
                }
                for ch in rec.checks:
                    ref = exact[ch.name]
                    assert abs(ch.rhs - ref) <= mpmath.mpf(2) ** -190 * abs(ref)

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

    def test_no_convergent_map_skipped(self):
        # a=4/3, c=8/3, l=2: F(-1/3, -2, -2/3; x) = 1 - x + x^2, whose roots
        # e^(+-i pi/3) have every map's modulus equal to 1
        report = verify_theorem(Fraction(4, 3), Fraction(8, 3), 2)
        assert report.poly == Poly((1, -1, 1))
        assert [r.skip_reason for r in report.records] == ["eval-failed"] * 2
        assert report.verdict == "pass" and report.skip_rate == 1.0

    @pytest.mark.parametrize("a, c, ell", [
        (Fraction(6, 5), Fraction(13, 9), 36),
        (Fraction(5, 9), Fraction(-10, 9), 34),
    ])
    def test_high_ell_pfaff_roots_checked(self, a, c, ell):
        # near 0.43 +- 1.05i the second identity's series took the Pfaff map
        # that keeps c-1-l ~ -35, whose terms grow like n^(l-a), and ran out
        # of budget (eval-failed); the map of slower growth converges
        report = verify_theorem(a, c, ell)
        assert report.verdict == "pass"
        for rec in report.records:
            if rec.skipped:
                assert rec.skip_reason == "branch-cut" and rec.lam.imag == 0
            else:
                assert rec.passed(report.tolerance)
                assert len(rec.checks) == 2
        assert sum(not r.skipped for r in report.records) >= len(report.records) - 1

    def test_rejects_integer_c(self):
        with pytest.raises(ParameterError):
            verify_theorem(Fraction(1, 2), 2, 1)

    def test_rejects_bad_ell(self):
        with pytest.raises(ParameterError):
            verify_theorem(Fraction(1, 2), Fraction(1, 2), 0)

    def test_entry_points_reject_floats(self):
        # Fraction(0.1) is 3602879701896397/2^55, not 1/10: a float is
        # refused, as hyp2f1_num and gamma_c refuse it
        for call in (
            lambda: verify_theorem(0.1, Fraction(3, 10), 2),
            lambda: verify_theorem(Fraction(1, 10), 0.3, 2),
            lambda: gosper_check(0.5, 2),
            lambda: gosper_check(3, 2.0),
            lambda: incomplete_beta_check(2.0, 3, Fraction(1, 2)),
            lambda: incomplete_beta_check(2, 3.0, Fraction(1, 2)),
            lambda: incomplete_beta_check(2, 3, 0.5),
        ):
            with pytest.raises(ParameterError, match="must be an int or Fraction"):
                call()

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

    def test_precision_rule_comes_before_the_tolerance(self):
        # the tolerance 1e-30 is below 2^-0 too; the precision is what is wrong
        for precision in (0, -5, 23):
            for call in (
                lambda: verify_theorem(3, Fraction(3, 2), 1, precision=precision),
                lambda: verify_theorem(1, Fraction(1, 2), 3, precision=precision),
                lambda: gosper_check(3, 2, precision=precision),
                lambda: gosper_check(-2, 3, precision=precision),
                lambda: sweep(1, precision=precision),
            ):
                with pytest.raises(ParameterError, match="precision must be"):
                    call()

    def test_report_dict_shape(self):
        d = verify_theorem(3, Fraction(3, 2), 1).as_dict()
        assert set(d) >= {"params", "flags", "records", "verdict"}
        assert d["verdict"] == "pass"
        assert d["records"][0]["checks"][0]["path"] == "direct-series"


def _counted(monkeypatch, name: str) -> list:
    """The argument tuples of every call of ``numeric.<name>`` from now on."""
    calls = []
    fn = getattr(numeric, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(numeric, name, counting)
    return calls


def _identities(a, c, ell):
    """The parameters (a, b, c) of the two identities of verify_theorem."""
    return (a, 1 + ell, c), (c - a, c - 1 - ell, c)


def _roots(a, c, ell):
    return find_roots(terminating_poly(HypParams(1 - a, -ell, 2 - c))).roots


# seed-42 draws 18 and 14: every root takes connection-1mz in both
# identities; draw 3: every root takes a Pfaff map through the connection
# at z/(z-1) in both (its roots, 2.90 +- 3.71i, have |z| and |1-z| above 1)
CONNECTION_DRAW = (Fraction(-7, 16), Fraction(1, 3), 2)
CONNECTION_ROOTS_DRAW = (Fraction(-7, 9), Fraction(-4, 5), 2)
ONE_OVER_Z_DRAW = (Fraction(3, 5), Fraction(-19, 18), 2)
PFAFF_DRAW = (Fraction(5, 9), Fraction(-10, 9), 34)


class TestSharedWork:
    """verify_theorem computes the series sums and gamma values its two
    identities share once per call, and keeps nothing past it."""

    def test_second_identity_sums_no_series_at_a_connection_root(self, monkeypatch):
        a, c, ell = CONNECTION_DRAW
        lam = _roots(a, c, ell)[0]
        first, second = _identities(a, c, ell)
        ctx = EvalContext()
        runs = _counted(monkeypatch, "_series_2f1")
        with ctx.sharing():
            r1 = hyp2f1_num(*first, lam, ctx)
            after_first = len(runs)
            r2 = hyp2f1_num(*second, lam, ctx)
        assert r1.path == r2.path == "connection-1mz"
        assert after_first == 2 and len(runs) == after_first

    def test_second_identity_sums_no_series_at_a_one_over_z_root(self, monkeypatch):
        # the two identities' Pfaff maps through the connection at z/(z-1)
        # sum the same two series, at 1/(1-z) or 1/z: the second reuses them
        a, c, ell = ONE_OVER_Z_DRAW
        first, second = _identities(a, c, ell)
        runs = _counted(monkeypatch, "_series_2f1")
        for lam in _roots(a, c, ell):
            ctx = EvalContext()
            before = len(runs)
            with ctx.sharing():
                r1 = hyp2f1_num(*first, lam, ctx)
                after_first = len(runs)
                r2 = hyp2f1_num(*second, lam, ctx)
            assert {r1.path, r2.path} == {"pfaff-a", "pfaff-b"}
            assert after_first - before == 2 and len(runs) == after_first
            # |z/(z-1)| > 1: no Pfaff series converges at the root itself
            with pytest.raises(NonConvergenceError):
                hyp2f1_num(*first, lam, ctx, method=r1.path)

    def test_second_identity_sums_no_series_at_a_pfaff_root(self, monkeypatch):
        # the slower-growing Pfaff map of one identity sums the series of
        # the other's, so the second identity reuses it
        a, c, ell = PFAFF_DRAW
        first, second = _identities(a, c, ell)
        ctx = EvalContext()
        runs = _counted(monkeypatch, "_series_2f1")
        seen = 0
        for lam in _roots(a, c, ell):
            with ctx.sharing():
                r1 = hyp2f1_num(*first, lam, ctx)
                after_first = len(runs)
                r2 = hyp2f1_num(*second, lam, ctx)
            if r1.path.startswith("pfaff"):
                seen += 1
                assert {r1.path, r2.path} <= {"pfaff-a", "pfaff-b"}
                assert len(runs) == after_first
        assert seen

    def test_gamma_kernel_runs_at_most_seven_times_per_trial(self, monkeypatch):
        runs = _counted(monkeypatch, "_gamma_rational")
        report = verify_theorem(*CONNECTION_ROOTS_DRAW)
        paths = [ch.path for r in report.records for ch in r.checks]
        assert paths == ["connection-1mz"] * 4
        assert 0 < len(runs) <= 7

    def test_results_equal_with_and_without_sharing(self, monkeypatch):
        # 20 seeded draws (4 and 10 have no roots): every path, Pfaff
        # roots, a terminating draw and real roots, each of which is also
        # taken as an mpf, whose powers go through mpf_log, not mpc_log
        rng = random.Random(42)
        draws = [draw_theorem_params(rng, 5) for _ in range(37)]
        runs = _counted(monkeypatch, "_series_2f1")
        real_logs = _counted(monkeypatch, "mpf_log")
        paths, terminating, unshared_runs, reals = set(), 0, 0, 0
        for i in (0, 1, 2, 3, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 36):
            a, c, ell = draws[i]
            shared = EvalContext()
            with shared.sharing():
                for lam in _roots(a, c, ell):
                    points = [lam]
                    if lam.imag == 0:
                        points.append(lam.real)
                        reals += 1
                    for z, params in itertools.product(points, _identities(a, c, ell)):
                        outcomes = []
                        for ctx in (EvalContext(), shared):
                            before = len(runs)
                            try:
                                r = hyp2f1_num(*params, z, ctx)
                            except (BranchCutError, NonConvergenceError) as exc:
                                outcomes.append(type(exc))
                            else:
                                outcomes.append(
                                    (repr(r.value), repr(r.est_error), r.path, r.n_terms)
                                )
                            if ctx is not shared:
                                unshared_runs += len(runs) - before
                        assert outcomes[0] == outcomes[1], (a, c, ell, params, z)
                        if isinstance(outcomes[0], tuple):
                            paths.add(outcomes[0][2])
                            terminating += params[0].denominator == 1 and params[0] <= 0
        assert paths == set(numeric.KNOWN_PATHS) and terminating and reals and real_logs
        # the shared context summed fewer series than the fresh ones
        assert len(runs) - unshared_runs < unshared_runs

    def test_connection_roots_share_inner_results_logs_and_tables(self, monkeypatch):
        """At a connection root the second identity's inner series are the
        first's: each evaluated root (Im >= 0; the others are reflected)
        evaluates two inner results and takes one logarithm per base and
        precision.  With a Pfaff draw, the scope keeps series sums, inner
        results, logarithms and gamma values, and nothing else."""
        inner = _counted(monkeypatch, "_hyp2f1")
        logs = _counted(monkeypatch, "mpc_log")
        kinds = []
        recall = EvalContext._recall

        def spied(self, key, compute):
            kinds.append(key[0])
            return recall(self, key, compute)

        monkeypatch.setattr(EvalContext, "_recall", spied)
        report = verify_theorem(*CONNECTION_ROOTS_DRAW)
        paths = [ch.path for r in report.records for ch in r.checks]
        assert paths == ["connection-1mz"] * 4
        evaluated = [r for r in report.records if r.lam.imag >= 0]
        assert evaluated and len(evaluated) < len(report.records)
        assert len([c for c in inner if c[7] == numeric._SERIES_PATHS]) == 2 * len(evaluated)
        assert logs and len({(z, prec) for z, prec in logs}) == len(logs)
        verify_theorem(*PFAFF_DRAW)
        assert set(kinds) == {"series", "inner", "log", "gamma"}

    def test_consecutive_calls_run_the_kernels_alike(self, monkeypatch):
        series = _counted(monkeypatch, "_series_2f1")
        gammas = _counted(monkeypatch, "_gamma_rational")
        counts = []
        for _ in range(2):
            before = len(series), len(gammas)
            verify_theorem(*CONNECTION_DRAW)
            counts.append((len(series) - before[0], len(gammas) - before[1]))
        assert counts[0] == counts[1] and min(counts[0]) > 0

    def test_nothing_is_reused_outside_the_scope(self, monkeypatch):
        series = _counted(monkeypatch, "_series_2f1")
        gammas = _counted(monkeypatch, "_gamma_rational")
        a, b, c, z = Fraction(1, 3), Fraction(1, 2), Fraction(5, 4), complex(0.75, 0.5)
        ctx = EvalContext()
        results = [hyp2f1_num(a, b, c, z, ctx) for _ in range(2)]
        assert results[0].path == "connection-1mz"
        assert len(series) == 4 and len(gammas) == 14
        assert gamma_c(Fraction(1, 3), ctx) is not gamma_c(Fraction(1, 3), ctx)

    def test_scope_ends_with_verify_theorem(self, monkeypatch):
        made = []

        class Recorded(EvalContext):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(verify, "EvalContext", Recorded)
        # a branch-cut root, and two roots no map reaches (NonConvergenceError)
        for args, reasons in (
            ((Fraction(-6, 5), Fraction(-7, 9), 1), ["branch-cut"]),
            ((Fraction(4, 3), Fraction(8, 3), 2), ["eval-failed"] * 2),
        ):
            report = verify_theorem(*args)
            assert [r.skip_reason for r in report.records] == reasons
        # an exception that leaves verify_theorem

        def broken(*args):
            raise RuntimeError("broken evaluation")

        monkeypatch.setattr(verify, "hyp2f1_num", broken)
        with pytest.raises(RuntimeError):
            verify_theorem(*CONNECTION_DRAW)
        assert len(made) == 3
        for ctx in made:
            assert gamma_c(Fraction(1, 3), ctx) is not gamma_c(Fraction(1, 3), ctx)
            with ctx.sharing():
                assert gamma_c(Fraction(1, 3), ctx) is gamma_c(Fraction(1, 3), ctx)


# every path at a root below the real axis, terminating sums (a = -1), a
# real left side (a = 0, F = 1), a pair no map reaches, and ell 40
REFLECTED_DRAWS = (
    CONNECTION_DRAW,
    ONE_OVER_Z_DRAW,
    (Fraction(-1), Fraction(-5, 6), 3),
    (Fraction(0), Fraction(-17, 10), 2),
    (Fraction(7, 4), Fraction(-2, 3), 4),
    (Fraction(4, 3), Fraction(8, 3), 2),
    (Fraction(7, 3), Fraction(5, 11), 40),
)

SKIP_REASONS = {
    BranchCutError: verify.SKIP_BRANCH_CUT,
    DegenerateConnectionError: verify.SKIP_DEGENERATE_CONNECTION,
    NonConvergenceError: verify.SKIP_EVAL_FAILED,
}


def test_reflected_records_match_direct_evaluation():
    """Each record verify_theorem reflects from its conjugate partner
    agrees with evaluating both identities at its own root."""
    paths, reasons, reflected = set(), set(), 0
    for a, c, ell in REFLECTED_DRAWS:
        report = verify_theorem(a, c, ell)
        ctx = EvalContext(report.precision)
        constants = verify._right_side_constants(a, c, ell, ctx)
        for i, rec in enumerate(report.records):
            assert rec.by_conjugation == (rec.lam.imag < 0)
            if not rec.by_conjugation:
                continue
            reflected += 1
            partner = report.records[rec.conjugate_of]
            assert not partner.by_conjugation and partner.lam.real == rec.lam.real
            assert partner.lam.imag + rec.lam.imag == 0  # a nonzero sum never rounds to 0
            try:
                direct = verify._check_both_identities(
                    a, c, ell, report.q0, rec.lam, ctx, constants
                )
            except tuple(SKIP_REASONS) as exc:
                assert rec.skip_reason == SKIP_REASONS[type(exc)], (a, c, ell, i)
                reasons.add(rec.skip_reason)
                continue
            assert not rec.skipped, (a, c, ell, i)
            assert [ch.path for ch in rec.checks] == [ch.path for ch in direct]
            assert rec.passed(report.tolerance) == all(
                ch.residual <= report.tolerance for ch in direct
            )
            for mine, upper, theirs in zip(rec.checks, partner.checks, direct):
                # the partner's, conjugated exactly
                assert (mine.residual, mine.est_error) == (upper.residual, upper.est_error)
                assert mine.lhs.real == upper.lhs.real and mine.lhs.imag + upper.lhs.imag == 0
                assert mine.rhs.real == upper.rhs.real and mine.rhs.imag + upper.rhs.imag == 0
                assert abs(mine.lhs - theirs.lhs) <= mine.est_error + theirs.est_error
                paths.add(mine.path)
    assert paths == set(numeric.KNOWN_PATHS) and reasons == {verify.SKIP_EVAL_FAILED}
    assert reflected > 20


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

    def test_exact_instance_past_a_pole_of_b_plus_2_on_the_cut(self):
        # F(-1, -3; -1; 3): 1-a = -1 ends the sum where b+2 = -1 reaches its
        # pole, and the finite sum is exact at z = 3, on [1, oo)
        report = gosper_check(2, -3)
        assert report.exact and report.z == 3
        assert report.residual == 0 and report.verdict == "pass"
        assert report.lhs == report.rhs == -8

    def test_finest_tolerance_passes_a_true_identity(self, monkeypatch):
        # the right side and residual are formed at the working precision,
        # so the identity passes at 2^-64; at 64 bits the residual read
        # 7.4e-20 against 5.4e-20 when they were formed at the precision
        a, b, tol = Fraction(11, 2), Fraction(9, 8), 2.0**-64
        report = gosper_check(a, b, 64, tol)
        assert not report.exact and report.verdict == "pass"
        assert report.residual <= 1e-28

        class Perturbed(EvalContext):
            def to_mp(self, x):
                value = super().to_mp(x)
                return value * (1 + self.mp.mpf(2) ** -50) if x == b + 1 else value

        # a right side off by 2^-50 relative still fails
        monkeypatch.setattr(verify, "EvalContext", Perturbed)
        assert gosper_check(a, b, 64, tol).verdict == "fail"

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
        # a ParameterError, not a TypeError from range() or a ValueError
        # from the draw
        with pytest.raises(ParameterError, match="trials must be a positive integer"):
            sweep(2.5)
        with pytest.raises(ParameterError, match="contiguity order must be a positive"):
            sweep(2, ell_max=1.5)

    def test_counts_are_read_off_the_trials(self):
        report = sweep(3, ell_max=2, seed=9)
        trials = report.records
        assert report.total_roots == sum(t.roots_total for t in trials)
        assert report.skipped_roots == sum(t.roots_skipped for t in trials) == 1
        assert report.failures == 0 and report.verdict == "pass"
        assert trials[0].vacuous and report.vacuous_passes == 1
        trials[0] = dataclasses.replace(trials[0], verdict="fail")
        assert report.failures == 1 and report.verdict == "fail"
        # a failed trial is not a vacuous pass, however many roots it skipped
        assert not trials[0].vacuous and report.vacuous_passes == 0


class TestVerdictRules:
    """One failing check reaches every consumer of a verdict, and one
    vacuous report every consumer of vacuity."""

    @pytest.fixture
    def broken_second_parameter_two(self, monkeypatch):
        # doubles every 2F1 value with b = 2 that verify reads: the shifted
        # identity F(a, 1+ell, c) at ell 1, and Gosper's left side at b = 2
        real = verify.hyp2f1_num

        def broken(a, b, c, z, ctx, **kwargs):
            res = real(a, b, c, z, ctx, **kwargs)
            return dataclasses.replace(res, value=2 * res.value) if b == 2 else res

        monkeypatch.setattr(verify, "hyp2f1_num", broken)

    def test_one_failing_check_fails_every_consumer(
        self, capsys, broken_second_parameter_two
    ):
        report = verify_theorem(3, Fraction(3, 2), 1)
        (rec,) = report.records
        failing = [ch.name for ch in rec.checks if ch.residual > report.tolerance]
        assert failing == [CHECK_SHIFTED]
        assert rec.as_dict(10, report.tolerance)["verdict"] == "fail"
        assert report.verdict == "fail" and report.as_dict()["verdict"] == "fail"
        assert not report.vacuous
        trial = verify.SweepTrial.from_report(0, report)
        assert trial.verdict == "fail" and not trial.vacuous
        assert trial.as_dict(10)["verdict"] == "fail"
        assert cli._exit_code(report.verdict) == 1
        assert cli.main(["verify", "--a", "3", "--c", "3/2", "--ell", "1"]) == 1
        assert capsys.readouterr().out.endswith("verdict: FAIL\n")
        # seed 7 draws a = 0, c = 5/2, ell = 1: one root, direct series
        swept = sweep(1, ell_max=1, seed=7)
        assert swept.records[0].verdict == "fail"
        assert swept.failures == 1 and swept.verdict == "fail"
        assert swept.vacuous_passes == 0
        assert cli._exit_code(swept.verdict) == 1
        gosper = gosper_check(Fraction(7, 3), 2)
        assert not gosper.exact and gosper.verdict == "fail"
        assert cli._exit_code(gosper.verdict) == 1

    def test_a_vacuous_report_is_one_vacuous_pass(self):
        # both roots of F(-1/3, -2, -2/3; x) are skipped (no map converges)
        report = verify_theorem(Fraction(4, 3), Fraction(8, 3), 2)
        assert report.verdict == "pass" and report.vacuous
        assert report.skipped_roots == len(report.records) == 2
        trial = verify.SweepTrial.from_report(0, report)
        assert trial.vacuous and trial.roots_skipped == trial.roots_total == 2
        assert trial.skip_reasons == [verify.SKIP_EVAL_FAILED]
        assert trial.max_residual is None
        swept = verify.SweepReport(
            ell_max=2, seed=0, precision=192, tolerance=1e-30, records=[trial]
        )
        assert swept.trials == 1 and swept.vacuous_passes == 1
        assert swept.failures == 0 and swept.verdict == "pass"
        assert cli._exit_code(report.verdict) == cli._exit_code(swept.verdict) == 0

    def test_no_roots_is_not_a_failure(self):
        report = verify_theorem(1, Fraction(1, 2), 3)
        assert report.verdict == "no-roots" and not report.vacuous
        assert report.skipped_roots == 0 and report.skip_rate == 0.0
        assert cli._exit_code(report.verdict) == 0


class TestReportPrecision:
    """Every function that returns a report refuses, before any work, a
    precision whose report Python cannot print; at the bound the report
    prints."""

    CALLS = {
        "verify": lambda p: verify_theorem(3, Fraction(3, 2), 1, precision=p),
        "gosper": lambda p: gosper_check(3, 2, precision=p),
        # seed 7 draws a = 0, c = 5/2, ell = 1: one root, direct series
        "sweep": lambda p: sweep(1, ell_max=1, seed=7, precision=p),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_above_the_bound_is_a_parameter_error(self, monkeypatch, name):
        def no_work(*args, **kwargs):
            raise AssertionError("work was done")

        for fn in ("genericity_flags", "terminating_poly", "hyp2f1_num"):
            monkeypatch.setattr(verify, fn, no_work)
        with pytest.raises(ParameterError, match="at most 14156 bits"):
            self.CALLS[name](15000)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_at_the_bound_prints(self, name):
        report = self.CALLS[name](verify.max_report_precision())
        assert report.verdict == "pass"
        assert json.dumps(report.as_dict())


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
        qr = q0_r0_by_series(params, ell)
        assert (canon.q0, canon.r0) == (qr.q0, qr.r0)
        q0, r0, provenance, agree = compute_q0_all_methods(a, c, ell, None, b)
        assert provenance == ("series", "operator") and agree
        assert (q0, r0) == (qr.q0, qr.r0)


def _c_minus_a_integer(rng):
    # a root at 1 when c - a is in 1..ell, and connection-1mz degenerates
    a = random_non_integer(rng)
    return a, a + rng.randint(-12, 12), rng.randint(1, 12)


def _a_integer(rng):
    # the left side of identity 1 terminates
    return rng.randint(-20, 20), random_non_integer(rng), rng.randint(1, 12)


def _a_in_one_to_ell(rng):
    # the terminating polynomial drops to degree a - 1
    ell = rng.randint(1, 12)
    return rng.randint(1, ell), random_non_integer(rng), ell


class TestSpecialLoci:
    """A seeded sweep, 60 draws a locus at seed 42, over the loci the
    acceptance sweep rarely draws.  Each locus pins the sha256 (first 16
    hex digits) of its draws' verdicts, q0 provenance, skip reasons and
    evaluation paths."""

    @pytest.mark.parametrize("draw, digest", [
        (_c_minus_a_integer, "7cb74cc47eda714b"),
        (_a_integer, "b50424c8c227e94e"),
        (_a_in_one_to_ell, "69f5d8dd0d489255"),
    ], ids=["c-a-integer", "a-integer", "a-in-1..ell"])
    def test_every_draw_ends_in_a_pass_or_no_roots(self, draw, digest):
        rng = random.Random(42)
        start = time.perf_counter()
        outcomes, reasons, reports = [], [], {}
        for _ in range(60):
            a, c, ell = draw(rng)
            report = reports[a, c, ell] = verify_theorem(a, c, ell)
            assert report.verdict in ("pass", "no-roots"), (a, c, ell)
            routes = ("series", "operator") + (() if is_integer(a) else ("reversal",))
            assert report.q0_provenance == routes and report.q0_agree, (a, c, ell)
            reasons += [rec.skip_reason for rec in report.records if rec.skipped]
            outcomes.append([
                report.verdict, list(report.q0_provenance),
                [[rec.skip_reason, [ch.path for ch in rec.checks]]
                 for rec in report.records],
            ])
        elapsed = time.perf_counter() - start
        assert set(reasons) <= {SKIP_BRANCH_CUT, SKIP_DEGENERATE_CONNECTION, SKIP_EVAL_FAILED}
        if draw is _c_minus_a_integer:
            # the roots the degenerate 1-z connection left unchecked, a
            # conjugate pair in each of these draws at moduli
            # min(1/|z|, 1/|1-z|) of 0.77, 0.49, 0.18 and 0.14, are checked
            # by a Pfaff map through the connection at z/(z-1), and pass
            assert SKIP_DEGENERATE_CONNECTION not in reasons
            for key in ((Fraction(15, 7), Fraction(85, 7), 11),
                        (Fraction(2, 7), Fraction(65, 7), 5),
                        (Fraction(15, 8), Fraction(87, 8), 6),
                        (Fraction(11, 3), Fraction(47, 3), 9)):
                report = reports[key]
                off_axis = [rec for rec in report.records if rec.lam.imag]
                assert len(off_axis) >= 2 and all(
                    not rec.skipped and rec.passed(report.tolerance) for rec in off_axis
                ), key
        assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()[:16] == digest
        assert elapsed < 30.0


def _draws_with_roots():
    """The seed-42 sweep draws at ell <= 5 (100 trials) and ell <= 40 (40
    trials), and 20 seeded draws with c - a an integer, whose terminating
    polynomial has a root."""
    draws = []
    for ell_max, trials in ((5, 100), (40, 40)):
        rng = random.Random(42)
        draws += [draw_theorem_params(rng, ell_max) for _ in range(trials)]
    rng = random.Random(7)
    draws += [_c_minus_a_integer(rng) for _ in range(20)]
    return [d for d in draws if theorem_poly(*d).degree]


def _wronskian_remainder(a, c, ell, q0: Poly) -> Poly:
    """x P'(x) q0(x) + ell! (1-x)^(ell-1) mod P, P = F(1-a, -ell; 2-c; x).
    Identity 1 holds at every root of P exactly when it is zero: at a root
    lam off {0, 1} the Wronskian of F(a, 1+ell; c; x) and
    x^(1-c) (1-x)^(c-a-1-ell) P(x) gives F(a, 1+ell; c; lam)
    = (1-c) / (lam (1-lam) P'(lam)) (DLMF 15.8.1, 15.10(i))."""
    P = theorem_poly(a, c, ell)
    lhs = Poly.x() * P.derivative() * q0 + math.factorial(ell) * Poly((1, -1)) ** (ell - 1)
    return divmod(lhs, P)[1]


def test_q0_satisfies_the_wronskian_congruence():
    """The exact q0 of every pinned draw with a root satisfies the
    congruence that proves identity 1 at every root of P."""
    draws = _draws_with_roots()
    assert len(draws) >= 150
    for a, c, ell in draws:
        q0 = compute_q0_all_methods(a, c, ell)[0]
        assert _wronskian_remainder(a, c, ell, q0).is_zero(), (a, c, ell)


def test_wronskian_congruence_sees_a_perturbed_q0():
    """q0 + x^k / 2^40 leaves a nonzero remainder, for every k below ell."""
    a, c, ell = Fraction(7, 3), Fraction(5, 11), 6
    q0 = compute_q0_all_methods(a, c, ell)[0]
    for k in range(ell):
        bumped = q0 + Poly([0] * k + [Fraction(1, 2**40)])
        assert not _wronskian_remainder(a, c, ell, bumped).is_zero(), k


def test_report_dict_formats_fractions_in_params():
    d = verify.report_dict({"a": Fraction(-7, 3), "c": Fraction(2), "ell": 3}, [], "pass",
                           skip_rate="0.0")
    assert d == {
        "params": {"a": "-7/3", "c": "2", "ell": 3},
        "flags": {},
        "records": [],
        "verdict": "pass",
        "skip_rate": "0.0",
    }


def _engine_checks(ell_max: int, trials: int, precision: int = 192) -> list:
    """(|lhs - rhs|, its budget, where) of every evaluated check of the
    seed-42 sweep to ``ell_max``, with each root settled 64 bits tighter
    than the checks are made, so that the root's disc stays far below the
    engine's error.  The identities are exact (the Wronskian congruence
    above), so |lhs - rhs| is the engine's error plus the right side's
    rounding: the budget is est_error + 2^-(precision+24) |rhs|."""
    rng = random.Random(42)
    out = []
    for _ in range(trials):
        a, c, ell = draw_theorem_params(rng, ell_max)
        P = theorem_poly(a, c, ell)
        if not P.degree:
            continue
        roots = find_roots(P, precision + 64)
        q0 = compute_q0_all_methods(a, c, ell)[0]
        ctx = EvalContext(precision)
        constants = verify._right_side_constants(a, c, ell, ctx)
        with ctx.sharing():
            for lam, partner in zip(roots.roots, roots.conjugate_of):
                if partner is not None:
                    continue
                try:
                    checks = verify._check_both_identities(a, c, ell, q0, lam, ctx, constants)
                except tuple(verify._SKIP_REASONS):
                    continue
                with mpmath.workprec(4 * precision):
                    for ch in checks:
                        lhs, rhs, est = map(mpmath.mpmathify, (ch.lhs, ch.rhs, ch.est_error))
                        budget = est + mpmath.ldexp(abs(rhs), -(precision + 24))
                        out.append((abs(lhs - rhs), budget, (a, c, ell, ch.name, ch.path)))
    return out


@pytest.mark.parametrize("ell_max, trials, count", [(5, 100, 338), (40, 40, 714)])
def test_every_check_of_the_pinned_sweeps_is_within_the_engine_budget(ell_max, trials, count):
    """Every evaluated check of both pinned sweeps is an oracle point for
    the 2F1 engine: |lhs - rhs| stays within est_error plus the right
    side's rounding (ROADMAP item 17)."""
    checks = _engine_checks(ell_max, trials)
    assert len(checks) == count
    over = [where for err, budget, where in checks if err > budget]
    assert not over, over
