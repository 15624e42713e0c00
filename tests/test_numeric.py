import random
from fractions import Fraction

import mpmath
import pytest

from strangeval.errors import (
    BranchCutError,
    DegenerateConnectionError,
    GammaPoleError,
    ParameterError,
)
from strangeval.numeric import (
    EvalContext,
    find_roots,
    gamma_c,
    hyp2f1_num,
    rgamma_c,
)
from strangeval.poly import Poly

CTX = EvalContext(192)


def tol(bits):
    return CTX.mp.mpf(2) ** (-bits)


class TestEvalContext:
    def test_fresh_contexts_are_isolated(self):
        a = EvalContext(64)
        b = EvalContext(256)
        assert a.mp.prec == 64 and b.mp.prec == 256
        assert mpmath.mp.prec != 256 or mpmath.mp.prec != 64  # global untouched

    def test_exact_rational_conversion(self):
        x = CTX.to_mp(Fraction(-22, 7))
        assert abs(x + CTX.mp.mpf(22) / 7) <= tol(190)

    def test_rejects_tiny_precision(self):
        with pytest.raises(ParameterError):
            EvalContext(8)


class TestGamma:
    def test_one(self):
        assert abs(gamma_c(1, CTX) - 1) <= tol(185)

    def test_factorial(self):
        assert abs(gamma_c(5, CTX) - 24) <= tol(180)

    def test_half_is_sqrt_pi(self):
        hi = EvalContext(320)
        ref = hi.mp.sqrt(hi.mp.pi)
        assert abs(gamma_c(Fraction(1, 2), CTX) - ref) <= tol(185)

    def test_reflection_region_against_mpmath(self):
        mpmath.mp.prec = 320
        for z in (Fraction(-10, 9), Fraction(-97, 13), Fraction(-1, 7)):
            mine = gamma_c(z, CTX)
            ref = mpmath.gamma(mpmath.mpf(z.numerator) / z.denominator)
            assert abs(mpmath.mpf(mine) - ref) / abs(ref) <= mpmath.mpf(2) ** -185

    def test_complex_argument_against_mpmath(self):
        mpmath.mp.prec = 320
        z = CTX.mp.mpc(1.5, 2.5)
        mine = gamma_c(z, CTX)
        ref = mpmath.gamma(mpmath.mpc(1.5, 2.5))
        diff = abs(mpmath.mpc(mine.real, mine.imag) - ref) / abs(ref)
        assert diff <= mpmath.mpf(2) ** -185

    def test_pole_rejected(self):
        for z in (0, -1, -7):
            with pytest.raises(GammaPoleError):
                gamma_c(z, CTX)

    def test_rgamma_zero_at_poles(self):
        assert rgamma_c(-3, CTX) == 0
        assert rgamma_c(0, CTX) == 0
        assert rgamma_c(Fraction(1, 2), CTX) != 0

    def test_recurrence_sweep(self):
        # |gamma(z+1) - z gamma(z)| / |gamma(z+1)| below working tolerance
        # (the quotient itself is formed in 192-bit arithmetic, so a few
        # ulps at that precision is the attainable floor)
        rng = random.Random(71)
        bound = tol(185)
        for _ in range(100):
            z = CTX.mp.mpc(
                rng.uniform(0.5, 20.0), rng.uniform(-10.0, 10.0)
            )
            g1 = gamma_c(z + 1, CTX)
            g0 = gamma_c(z, CTX)
            assert abs(g1 - z * g0) / abs(g1) <= bound

    def test_history_independence(self):
        # values may not depend on which context computed them first
        a = gamma_c(Fraction(-10, 9), EvalContext(192))
        b = gamma_c(Fraction(-10, 9), EvalContext(192))
        assert a == b


class TestHyp2F1:
    def test_value_at_zero(self):
        r = hyp2f1_num(Fraction(1, 3), Fraction(2, 5), Fraction(7, 5), 0, CTX)
        assert r.value == 1

    def test_strange_evaluation_instance(self):
        r = hyp2f1_num(3, 2, Fraction(3, 2), Fraction(-1, 4), CTX)
        assert abs(r.value - CTX.mp.mpf(2) / 5) <= tol(185)
        assert r.path == "direct-series"

    def test_log_identity(self):
        r = hyp2f1_num(1, 1, 2, Fraction(1, 2), CTX)
        assert abs(r.value - 2 * CTX.mp.log(2)) <= tol(185)

    def test_terminating_exact_on_cut(self):
        # F(-1, 1, 3; 3) is a polynomial; the cut does not apply
        r = hyp2f1_num(-1, 1, 3, 3, CTX)
        assert r.value == 0  # 1 - 3/3

    def test_branch_cut_rejected(self):
        with pytest.raises(BranchCutError):
            hyp2f1_num(Fraction(1, 3), Fraction(2, 5), Fraction(7, 5), 2, CTX)

    def test_c_pole_rejected(self):
        with pytest.raises(ParameterError):
            hyp2f1_num(Fraction(1, 3), 1, -2, Fraction(1, 2), CTX)

    def test_non_rational_parameters_rejected(self):
        for params in ((0.5, 1, Fraction(3, 2)), (1, CTX.mp.mpf(2), 3),
                       (1, 2, complex(3, 0))):
            with pytest.raises(ParameterError):
                hyp2f1_num(*params, Fraction(1, 2), CTX)

    def test_c_pole_after_termination_allowed(self):
        r = hyp2f1_num(-1, 1, -2, Fraction(1, 2), CTX)
        assert abs(r.value - (1 + Fraction(1, 4))) <= tol(185)

    def test_degenerate_connection_raises(self):
        # z close to 1 so only the connection converges, c - a - b integer
        with pytest.raises(DegenerateConnectionError):
            hyp2f1_num(
                Fraction(1, 3), Fraction(2, 3), 3, Fraction(9999999, 10000000), CTX
            )

    def test_unsupported_at_triple_point(self):
        mp = CTX.mp
        z = mp.expjpi(mp.mpf(1) / 3)  # |z| = |1-z| = |z/(z-1)| = |1-1/z| = 1
        r = hyp2f1_num(Fraction(1, 3), Fraction(2, 5), Fraction(7, 5), z, CTX)
        assert r.path == "unsupported"

    def test_path_agreement_sweep(self):
        # direct vs pfaff on the overlap region, ~quarter of working digits
        rng = random.Random(4242)
        bound = CTX.mp.mpf(10) ** (-int(0.25 * 192 * 0.30103))
        count = 0
        while count < 100:
            z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
            if abs(z) > 0.45 or abs(z / (z - 1)) > 0.9:
                continue
            a = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
            b = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
            c = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
            if c.denominator == 1:
                continue
            zz = CTX.mp.mpc(z.real, z.imag)
            direct = hyp2f1_num(a, b, c, zz, CTX, method="direct-series")
            for method in ("pfaff-a", "pfaff-b"):
                other = hyp2f1_num(a, b, c, zz, CTX, method=method)
                rel = abs(direct.value - other.value) / (1 + abs(direct.value))
                assert rel <= bound
            count += 1

    def test_connection_path_agreement(self):
        a, b, c = Fraction(1, 3), Fraction(2, 5), Fraction(7, 5)
        direct = hyp2f1_num(a, b, c, Fraction(2, 5), CTX, method="direct-series")
        conn = hyp2f1_num(a, b, c, Fraction(2, 5), CTX, method="connection-1mz")
        assert abs(direct.value - conn.value) <= tol(170)

    def test_far_field_via_connection_inner_pfaff(self):
        # Re z > 1/2 with |z|, |1-z|, |z/(z-1)| all > 1: reachable only
        # through the connection formula with Pfaff-evaluated inner sums
        mpmath.mp.prec = 300
        z = CTX.mp.mpc(2.9, 3.7)
        r = hyp2f1_num(Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), z, CTX)
        assert r.path == "connection-1mz"
        ref = mpmath.hyp2f1(
            mpmath.mpf(1) / 2, mpmath.mpf(1) / 3, mpmath.mpf(5) / 7,
            mpmath.mpc(2.9, 3.7),
        )
        diff = abs(mpmath.mpc(r.value.real, r.value.imag) - ref) / abs(ref)
        assert diff <= mpmath.mpf(1e-45)

    def test_est_error_majorizes_true_error(self):
        mpmath.mp.prec = 320
        for z in (Fraction(9, 10), Fraction(-7, 2), Fraction(3, 5)):
            r = hyp2f1_num(Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), z, CTX)
            ref = mpmath.hyp2f1(
                mpmath.mpf(1) / 2, mpmath.mpf(1) / 3, mpmath.mpf(5) / 7,
                mpmath.mpf(z.numerator) / z.denominator,
            )
            assert abs(mpmath.mpf(r.value) - ref) <= mpmath.mpf(r.est_error) * 64


class TestFindRoots:
    def test_linear(self):
        rs = find_roots(Poly((1, 4)), 192)
        assert len(rs.roots) == 1
        assert abs(rs.roots[0] + Fraction(1, 4)) <= tol(185)
        assert rs.multiplicities == (1,)

    def test_conjugate_pair(self):
        rs = find_roots(Poly((1, 0, 1)), 192)
        assert rs.multiplicities == (1, 1)
        i1, i2 = rs.roots
        assert i1 == CTX.mp.conj(i2)
        assert abs(abs(i1) - 1) <= tol(185)

    def test_double_root_clustered(self):
        p = Poly((Fraction(1, 9), Fraction(-2, 3), 1))  # (x - 1/3)^2
        rs = find_roots(p, 192)
        assert rs.multiplicities == (2,)
        assert abs(rs.roots[0] - Fraction(1, 3)) <= tol(60)

    def test_repeated_roots_get_exact_multiplicities(self):
        rs = find_roots(Poly((1, -1)) ** 4, 192)  # (1-x)^4
        assert rs.multiplicities == (4,)
        assert abs(rs.roots[0] - 1) <= tol(185)
        rs = find_roots(Poly((-1, 3)) ** 2 * Poly((2, 1)) ** 3, 192)
        assert rs.multiplicities == (3, 2)  # x = -2 thrice, x = 1/3 twice
        assert abs(rs.roots[0] + 2) <= tol(185)
        assert abs(rs.roots[1] - Fraction(1, 3)) <= tol(185)

    def test_count_matches_degree(self, param_pool):
        for coeffs in [(6, -5, 1), (-1, 0, 0, 1), (2, 0, -3, 0, 1)]:
            p = Poly(coeffs)
            rs = find_roots(p, 192)
            assert rs.total_count() == p.degree

    def test_residual_bound_holds(self):
        p = Poly((-6, 11, -6, 1))  # roots 1, 2, 3
        rs = find_roots(p, 192)
        work = EvalContext(224)
        for root in rs.roots:
            coeffs = [work.to_mp(cf) for cf in p.coeffs]
            val = coeffs[-1]
            for cf in reversed(coeffs[:-1]):
                val = val * root + cf
            assert abs(val) <= rs.residual_bound + work.eps

    def test_rejects_constant(self):
        with pytest.raises(ParameterError):
            find_roots(Poly((3,)), 192)
        with pytest.raises(ParameterError):
            find_roots(Poly.zero(), 192)

    def test_real_coefficients_give_symmetric_set(self):
        p = Poly((1, 1, 1, 1, 1))  # roots on the unit circle, two pairs
        rs = find_roots(p, 192)
        mp = EvalContext(224).mp
        roots = list(rs.roots)
        for r in roots:
            assert any(abs(mp.conj(r) - s) <= tol(150) for s in roots)
