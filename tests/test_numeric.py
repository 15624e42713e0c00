import cmath
import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
import sympy
from mpmath.libmp import from_int, from_rational, mpf_neg, round_ceiling, round_nearest

from strangeval import numeric
from strangeval.errors import (
    BranchCutError,
    DegenerateConnectionError,
    GammaPoleError,
    NonConvergenceError,
    ParameterError,
)
from strangeval.hyp import HypParams, terminating_poly
from strangeval.numeric import (
    _SPOUGE_CACHE,
    _TAYLOR_CACHE,
    _TAYLOR_SHIFT,
    EvalContext,
    _series_2f1,
    _spouge_sum,
    _spouge_table,
    find_roots,
    gamma_c,
    hyp2f1_num,
    rgamma_c,
)
from strangeval.poly import Poly
from strangeval.verify import draw_theorem_params

CTX = EvalContext(192)


def tol(bits):
    return CTX.mp.mpf(2) ** (-bits)


class TestEvalContext:
    def test_fresh_contexts_are_isolated(self):
        before = mpmath.mp.prec
        a = EvalContext(64)
        b = EvalContext(256)
        hyp2f1_num(1, 1, 2, Fraction(1, 2), b)
        assert a.mp.prec == 64 and b.mp.prec == 256
        assert mpmath.mp.prec == before  # global untouched

    def test_exact_rational_conversion(self):
        x = CTX.to_mp(Fraction(-22, 7))
        assert abs(x + CTX.mp.mpf(22) / 7) <= tol(190)

    def test_fraction_is_rounded_once_to_nearest(self):
        # numerators and denominators wider than the precision: dividing
        # their roundings would round twice
        rng = random.Random(2000)
        ctx = EvalContext(24)
        for _ in range(2000):
            num = rng.choice((1, -1)) * (rng.getrandbits(79) | 1 << 79)
            x = Fraction(num, rng.getrandbits(59) | 1 << 59)
            want = from_rational(x.numerator, x.denominator, 24, round_nearest)
            assert ctx.to_mp(x)._mpf_ == want, x

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
        with mpmath.workprec(320):
            for z in (Fraction(-10, 9), Fraction(-97, 13), Fraction(-1, 7)):
                mine = gamma_c(z, CTX)
                ref = mpmath.gamma(mpmath.mpf(z.numerator) / z.denominator)
                assert abs(mpmath.mpf(mine) - ref) / abs(ref) <= mpmath.mpf(2) ** -185

    def test_non_rational_argument_rejected(self):
        for z in (2.5, -3.0, complex(1.5, 2.5), CTX.mp.mpf(2.5), CTX.mp.mpc(1.5, 2.5)):
            with pytest.raises(ParameterError):
                gamma_c(z, CTX)
            with pytest.raises(ParameterError):
                rgamma_c(z, CTX)

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
        # ulps at that precision is the attainable floor); z on both sides
        # of the reflection point, never a nonpositive integer
        rng = random.Random(71)
        bound = tol(185)
        for _ in range(100):
            z = Fraction(rng.randint(-2000, 2000), rng.randint(2, 97))
            if z.denominator == 1:
                z += Fraction(1, 2)
            g1 = gamma_c(z + 1, CTX)
            g0 = gamma_c(z, CTX)
            assert abs(g1 - CTX.to_mp(z) * g0) / abs(g1) <= bound, z

    def test_history_independence(self):
        # values may not depend on which context computed them first
        a = gamma_c(Fraction(-10, 9), EvalContext(192))
        b = gamma_c(Fraction(-10, 9), EvalContext(192))
        assert a == b

    def test_exact_pole_rule_for_rationals(self):
        for n in (0, -1, -7):
            with pytest.raises(GammaPoleError):
                gamma_c(Fraction(n), CTX)
            # Gamma(n + eps) = (-1)^n / (|n|! eps) (1 + O(eps)), also for
            # eps far below the working precision
            for bits in (100, 1000):
                ref = (-1) ** n * CTX.mp.mpf(2) ** bits / CTX.mp.factorial(-n)
                got = gamma_c(n + Fraction(1, 2**bits), CTX)
                assert abs(got / ref - 1) <= tol(90)
        eps = Fraction(1, 2**100)
        assert abs(rgamma_c(eps, CTX) / CTX.to_mp(eps) - 1) <= tol(90)
        assert rgamma_c(Fraction(-7), CTX) == 0

    def test_coefficient_cache_bounded(self):
        # one table per precision and path, whatever the arguments' size
        _TAYLOR_CACHE.clear()
        _SPOUGE_CACHE.clear()
        rng = random.Random(71)
        for _ in range(100):
            gamma_c(Fraction(rng.randint(1, 400), rng.randint(1, 40)), CTX)
            gamma_c(Fraction(-2 * rng.randint(0, 2**40) - 1, 2 * rng.randint(1, 2**20)), CTX)
        gamma_c(Fraction(5, 2), CTX)
        assert list(_TAYLOR_CACHE) == list(_SPOUGE_CACHE) == [CTX.precision]
        gamma_c(Fraction(1, 3), EvalContext(64))
        assert sorted(_TAYLOR_CACHE) == [64, CTX.precision]


def _gamma_oracle_arguments(seed):
    """Rationals on both sides of 1/2, in the reflection region, within
    2^-60 of a pole (dyadic, so the reference argument is exact), with
    denominator 10007, and exact factorials."""
    rng = random.Random(seed)
    zs = [Fraction(-97, 13), Fraction(-199, 20), Fraction(1, 2)]
    zs += [Fraction(rng.randint(1, 9), rng.randint(19, 40)) for _ in range(3)]
    zs += [Fraction(rng.randint(21, 400), rng.randint(1, 40)) for _ in range(6)]
    zs += [Fraction(-rng.randint(1, 400), rng.randint(2, 30)) for _ in range(6)]
    zs += [
        -rng.randint(0, 12) + Fraction(rng.choice((-1, 1)), 2 ** rng.randint(61, 90))
        for _ in range(4)
    ]
    zs += [Fraction(rng.randint(-10**5, 10**5), 10007) for _ in range(4)]
    zs += [Fraction(n) for n in (1, 2, 3, 10, 31)]
    return [z for z in zs if not (z.denominator == 1 and z <= 0)]


class TestGammaOracle:
    """gamma_c at rational arguments against mpmath.gamma at precision + 128."""

    @pytest.mark.parametrize("precision, seed", ((64, 1), (192, 2), (512, 3)))
    def test_relative_error_below_precision(self, precision, seed):
        ctx = EvalContext(precision)
        for z in _gamma_oracle_arguments(seed):
            mine = gamma_c(z, ctx)
            with mpmath.workprec(precision + 128):
                ref = mpmath.gamma(mpmath.mpf(z.numerator) / z.denominator)
                err = abs(mpmath.mpf(mine) - ref) / abs(ref)
                assert err <= mpmath.mpf(2) ** -precision, z

    HIGH = (
        Fraction(1, 2), Fraction(5003, 10007), Fraction(7, 3), Fraction(301, 7),
        Fraction(-97, 13), Fraction(-1000, 3), -3 + Fraction(1, 2**70),
        Fraction(2**40 + 1, 3),
    )

    @pytest.mark.parametrize("precision", (1024, 2048))
    def test_relative_error_at_high_precision(self, precision):
        # the arguments within the reach take the Taylor table at every
        # precision, the others Spouge's
        ctx = EvalContext(precision)
        _TAYLOR_CACHE.pop(precision, None)
        for z in self.HIGH:
            mine = gamma_c(z, ctx)
            with mpmath.workprec(precision + 128):
                ref = mpmath.gamma(mpmath.mpf(z.numerator) / z.denominator)
                err = abs(mpmath.mpf(mine) - ref) / abs(ref)
                assert err <= mpmath.mpf(2) ** -precision, z
        assert precision in _TAYLOR_CACHE

    @pytest.mark.parametrize("precision", (64, 192))
    def test_large_arguments_to_delivered_width(self, precision):
        # the exp/log of t^(z-1/2) e^-t lose log2(|(z-1/2) log t| + t) bits
        # of a width sized for moderate z; the value is delivered at
        # precision + 64 bits, so it must hold there, less a few bits
        ctx = EvalContext(precision)
        for z in (
            Fraction(2**40 + 1, 3), Fraction(2**60 + 1, 5), Fraction(-(2**30 + 1), 7),
        ):
            mine = gamma_c(z, ctx)
            with mpmath.workprec(precision + 256):
                ref = mpmath.gamma(mpmath.mpf(z.numerator) / z.denominator)
                err = abs(mpmath.mpf(mine) - ref) / abs(ref)
                assert err <= mpmath.mpf(2) ** -(precision + 56), z


def _mpf_spouge_coefficients(mp, terms):
    """Spouge's c_0 .. c_(terms-1), each formed in mp arithmetic."""
    coeffs = [mp.sqrt(2 * mp.pi)]
    for k in range(1, terms):
        ak = mp.mpf(terms - k)
        ck = ak ** (k - mp.mpf(1) / 2) * mp.exp(ak) / mp.factorial(k - 1)
        coeffs.append((-1) ** (k - 1) * ck)
    return coeffs


class TestGammaKernel:
    """The fixed-point Spouge sum against a plain mpf loop at twice the
    table's fixed-point width; the kernel's error is below 3 units of that
    width per term."""

    ARGS = (
        Fraction(1, 2), Fraction(3, 5), Fraction(1), Fraction(7, 3), Fraction(41, 3),
        Fraction(10007 * 3 + 2, 10007), Fraction(10**6 + 1, 3),
        Fraction(1, 2) + Fraction(1, 2**70),
    )

    @pytest.mark.parametrize("precision", (64, 192, 512))
    def test_matches_mpf_loop(self, precision):
        terms, wbits, coeffs = _spouge_table(EvalContext(precision))
        mp = EvalContext(2 * wbits).mp
        ref_coeffs = _mpf_spouge_coefficients(mp, terms)
        for z in self.ARGS:
            mine = mp.mpf((_spouge_sum(z.numerator, z.denominator, coeffs), -wbits))
            zz = mp.mpf(z.numerator) / z.denominator
            ref = ref_coeffs[0] + sum(
                ref_coeffs[k] / (zz - 1 + k) for k in range(1, terms)
            )
            assert abs(mine - ref) <= 3 * terms * mp.mpf(2) ** -wbits, z


def _mpf_taylor_coefficients(mp, top):
    """c_0 .. c_top of 1/Gamma(1+x), by the zeta recurrence in mp
    arithmetic."""
    zeta = [0, 0] + [mp.zeta(k) for k in range(2, top + 1)]
    coeffs = [mp.mpf(1)]
    for k in range(1, top + 1):
        acc = mp.euler * coeffs[k - 1]
        for j in range(2, k + 1):
            acc += (-1) ** (j + 1) * zeta[j] * coeffs[k - j]
        coeffs.append(acc / k)
    return coeffs


class TestTaylorKernel:
    """The integer table of 1/Gamma(1+x) and its fixed-point Horner sum
    against a plain mpf loop at twice the table's width: each coefficient
    within 1 + 2^-6 units, and the sum within 5 units of 1/Gamma(1+x)."""

    XS = (
        Fraction(1, 2), Fraction(-1, 2), Fraction(0), Fraction(1, 2**70),
        Fraction(-1, 2**70), Fraction(5003, 10007), Fraction(-2718, 10007),
    )

    @pytest.mark.parametrize("precision", (64, 192, 512))
    def test_matches_mpf_loop(self, precision):
        wbits, coeffs = numeric._taylor_table(precision)
        mp = EvalContext(2 * wbits).mp
        unit = mp.mpf(2) ** -wbits
        ref = _mpf_taylor_coefficients(mp, len(coeffs) - 1)
        for k, (ck, rk) in enumerate(zip(coeffs, ref)):
            assert abs(ck * unit - rk) <= (1 + mp.mpf(2) ** -6) * unit, k
        for x in self.XS:
            mine = numeric._taylor_sum(x.numerator, x.denominator, coeffs)
            xx = mp.mpf(x.numerator) / x.denominator
            loop = sum(rk * xx**k for k, rk in enumerate(ref))
            assert abs(mine * unit - loop) <= 5 * unit, x
            assert abs(mine * unit - mp.rgamma(1 + xx)) <= 5 * unit, x

    @pytest.mark.parametrize(
        "bits, top",
        [pytest.param(bits, None, id=str(bits)) for bits in (120, 400, 1100)]
        # the 192-bit Taylor table's own size
        + [pytest.param(314, 70, id="314")],
    )
    def test_zeta_within_its_units(self, bits, top):
        # by default k runs to 2 bits / floor(log2 n), far enough that
        # most of Borwein's terms floor to 0 before the last zeta
        n = -(-(bits + 2) * 1000 // 2543)
        top = top or 2 * bits // (n.bit_length() - 1)
        zetas = numeric._zeta_fixed(top, bits)
        assert len(zetas) == top - 1
        with mpmath.workprec(bits + 64):
            for k, zk in enumerate(zetas, 2):
                err = abs(zk - mpmath.zeta(k) * mpmath.mpf(2) ** bits)
                assert err <= 2 * n + 4, k

    def test_taylor_circle_bound(self):
        # log |1/Gamma(1+x)|^2 on |x| = 16 is concave in s = -Re x, so it
        # lies below its tangent at s = 12; the tangent stays below
        # log (2^65)^2 on [-16, 16], which bounds the table's tail
        with mpmath.workprec(128):
            def f(s):
                x = mpmath.mpc(-s, mpmath.sqrt(256 - s * s))
                return -2 * mpmath.re(mpmath.loggamma(1 + x))

            s0 = mpmath.mpf(12)
            slope = mpmath.diff(f, s0)
            top = f(s0) + max(slope * (16 - s0), slope * (-16 - s0))
            assert top < 2 * 65 * mpmath.log(2)
            for j in range(1, 64):
                s = -16 + mpmath.mpf(j) / 2
                assert f(s) <= f(s0) + slope * (s - s0)


class TestGammaTaylorPath:
    """gamma_c within _TAYLOR_SHIFT factors of [1/2, 3/2]: exact
    factorials, the oracle on both sides of the reach, and no mpmath
    elementary function."""

    # round(z) - 1 = K and -K take the Taylor path, K + 1 and -K - 1 Spouge's
    K = _TAYLOR_SHIFT
    REACH = (
        K + Fraction(7, 5), K + Fraction(8, 5), K + 1 + Fraction(1, 10007),
        K + Fraction(3, 2), -K + Fraction(3, 5), -K + Fraction(2, 5),
        -K - Fraction(1, 3), 1 - K + Fraction(1, 2**70),
    )

    @pytest.mark.parametrize("precision", (64, 192, 512))
    def test_oracle_on_both_sides_of_the_reach(self, precision):
        ctx = EvalContext(precision)
        for z in self.REACH:
            mine = gamma_c(z, ctx)
            with mpmath.workprec(precision + 128):
                ref = mpmath.gamma(mpmath.mpf(z.numerator) / z.denominator)
                err = abs(mpmath.mpf(mine) - ref) / abs(ref)
                assert err <= mpmath.mpf(2) ** -(precision + 56), z

    @pytest.mark.parametrize("precision", (64, 192))
    def test_exact_factorials(self, precision):
        ctx = EvalContext(precision)
        for n in range(_TAYLOR_SHIFT + 1):
            want = from_int(math.factorial(n), precision + 64, round_nearest)
            assert gamma_c(n + 1, ctx)._mpf_ == want, n

    def test_no_elementary_function_inside_the_reach(self, monkeypatch):
        ctx = EvalContext(192)
        calls = []

        def counted(owner, name):
            fn = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *a, **k: calls.append(name) or fn(*a, **k)
            )

        for name in ("exp", "log", "sinpi"):
            counted(ctx.mp, name)
        for name in ("mpf_exp", "mpf_log"):
            counted(numeric, name)
        rng = random.Random(13)
        k = _TAYLOR_SHIFT
        for _ in range(40):
            z = Fraction(rng.randint(-k * 30, k * 30), rng.randint(1, 30))
            if not (z.denominator == 1 and z <= 0) and abs(round(z) - 1) <= k:
                gamma_c(z, ctx)
                rgamma_c(z, ctx)
        assert calls == []
        gamma_c(Fraction(-(2**30 + 1), 7), ctx)
        assert {"exp", "log", "sinpi"} <= set(calls)

    def test_bits_pinned(self):
        """240 seeded arguments with round(z) - 1 from -K - 2 to K + 2, both
        signs of the shift, K itself and Spouge's side past it, give the
        pinned bits at 64 and 192 bits."""
        k = _TAYLOR_SHIFT
        rng = random.Random(2029)
        args = []
        while len(args) < 240:
            q = rng.randint(1, 40)
            n = rng.choice((rng.randint(-k - 2, k + 2), rng.randint(-6, 6),
                            rng.choice((-k - 1, -k, k, k + 1))))
            z = Fraction((n + 1) * q + rng.randint(-(q // 2), q // 2), q)
            if not (z.denominator == 1 and z <= 0):
                args.append(z)
        shifts = [round(z) - 1 for z in args]
        assert sum(n > 0 for n in shifts) == 125 and sum(n < 0 for n in shifts) == 107
        assert sum(abs(n) == k for n in shifts) == 42
        assert sum(abs(n) > k for n in shifts) == 46
        digest = hashlib.sha256()
        for precision in (64, 192):
            ctx = EvalContext(precision)
            for z in args:
                sign, man, exp, bc = gamma_c(z, ctx)._mpf_
                digest.update(f"{z} {precision} {sign} {int(man)} {exp} {bc}\n".encode())
        assert digest.hexdigest()[:16] == "bc004688cf11c6c8"


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

    def test_non_finite_argument_rejected(self):
        for z in (float("nan"), float("inf"), complex(0.5, float("-inf"))):
            with pytest.raises(ParameterError, match="finite"):
                hyp2f1_num(Fraction(1, 3), Fraction(1, 2), Fraction(5, 4), z, CTX)

    def test_rational_pair_argument(self):
        a, b, c = Fraction(1, 3), Fraction(5, 7), Fraction(9, 4)
        x, y = Fraction(2, 3), Fraction(-3, 7)
        with CTX.workprec(numeric.WORK_BITS):
            rounded = CTX.mp.mpc(CTX.to_mp(x), CTX.to_mp(y))
        assert hyp2f1_num(a, b, c, (x, y), CTX) == hyp2f1_num(a, b, c, rounded, CTX)
        # an imaginary part 0 leaves the real rational, whose sum is exact
        assert hyp2f1_num(-3, b, c, (x, 0), CTX) == hyp2f1_num(-3, b, c, x, CTX)
        for z in ((x,), (x, y, y), (x, 0.5)):
            with pytest.raises(ParameterError):
                hyp2f1_num(a, b, c, z, CTX)

    def test_c_pole_after_termination_allowed(self):
        r = hyp2f1_num(-1, 1, -2, Fraction(1, 2), CTX)
        assert abs(r.value - (1 + Fraction(1, 4))) <= tol(185)
        # the parameter ending the sum first (-1) bounds the pole check in
        # either slot: summing to -3 would divide by c + 2 = 0
        for a, b in ((-1, -3), (-3, -1)):
            r = hyp2f1_num(a, b, -2, Fraction(1, 2), CTX)
            assert r.value == CTX.mp.mpf(1) / 4 and r.path == "direct-series"
        # a float argument takes the series, which stops at the zero term
        # instead of stepping into the (c+n) = 0 denominator
        for c in (-2, -3, -4):
            r = hyp2f1_num(-1, 1, c, 0.5, CTX)
            assert abs(r.value - (1 + Fraction(1, 2 * -c))) <= tol(185)

    def test_n_terms(self):
        a, b, c = Fraction(1, 3), Fraction(2, 5), Fraction(7, 5)
        assert hyp2f1_num(a, b, c, 0, CTX).n_terms == 0
        assert hyp2f1_num(-4, b, c, Fraction(1, 2), CTX).n_terms == 4
        # the series route to the same finite sum counts the same terms:
        # it stops at the zero term t_5 and reports t_4, the last nonzero
        for z in (0.5, CTX.mp.mpc(0.5, 0.25)):
            assert hyp2f1_num(-4, b, c, z, CTX).n_terms == 4
        assert hyp2f1_num(a, b, c, Fraction(1, 2), CTX).n_terms > 100
        # the connection path reports both inner sums; at 1 - z = 1/10 the
        # selector never takes the connection map, so a public call takes
        # the path the connection takes for each
        z = Fraction(9, 10)
        conn = hyp2f1_num(a, b, c, z, CTX, method="connection-1mz")
        cab = c - a - b
        inner = [
            hyp2f1_num(a, b, 1 - cab, 1 - z, CTX),
            hyp2f1_num(c - a, c - b, 1 + cab, 1 - z, CTX),
        ]
        assert "connection-1mz" not in (r.path for r in inner)
        assert conn.n_terms == sum(r.n_terms for r in inner) > 0

    def test_c_pole_at_the_ending_factor(self):
        # a = c = -2: the pole (c+2) comes with the factor (a+2) that ends
        # the sum, which stops there rather than divide 0 by 0
        mp = CTX.mp
        for z in (0.5, mp.mpc(0.5, mp.mpf(1) / 3)):
            r = hyp2f1_num(-2, Fraction(1, 3), -2, z, CTX)
            want = 1 + CTX.to_mp(z) / 3 + 2 * CTX.to_mp(z) ** 2 / 9
            assert abs(r.value - want) <= tol(185)
        for z in (0.5, mp.mpc(0.5, 0.25)):
            assert hyp2f1_num(-3, 0, 0, z, CTX, method="direct-series").value == 1
        # at z = 2^-28 the sum stops by its small-term rule at t_10, where
        # c + 10 = 0 meets a + 10 = 0 in the tail estimate's term ratio;
        # with a = c the sum is that of (1/2)_k z^k / k!, k <= 10
        z = mp.mpf(2) ** -28
        with mp.workprec(400):
            half = mp.mpf(1) / 2
            want = sum(mp.rf(half, k) * z**k / mp.factorial(k) for k in range(11))
        for method in (None, "direct-series"):
            r = hyp2f1_num(-10, Fraction(1, 2), -10, z, CTX, method=method)
            assert r.n_terms == 10
            with mp.workprec(400):
                assert abs(r.value - want) <= r.est_error <= tol(185)

    def test_unknown_method_rejected(self):
        # before any shortcut: z = 0 returns 1 and z = 2 lies on the cut
        for z in (0, 2):
            with pytest.raises(ParameterError, match="unknown evaluation method"):
                hyp2f1_num(1, 1, 2, z, CTX, method="bogus")

    def test_forced_map_undefined_at_the_input_refused(self):
        # the Pfaff maps move c-b or c-a with c, so at a nonpositive-integer
        # c they would cut the sum at the wrong term (the sum here is 1.075)
        for method in ("pfaff-a", "pfaff-b"):
            with pytest.raises(ParameterError, match="not defined"):
                hyp2f1_num(Fraction(1, 2), -1, -2, Fraction(3, 10), CTX, method=method)
        # neither they nor the connection formula are defined at z = 1
        for z in (1, CTX.mp.mpf(1), CTX.mp.mpc(1, 0)):
            for method in ("pfaff-a", "pfaff-b", "connection-1mz"):
                with pytest.raises(ParameterError, match="not defined"):
                    hyp2f1_num(-2, Fraction(1, 3), 2, z, CTX, method=method)

    def test_forced_direct_sum_at_z_one(self):
        # Chu-Vandermonde: F(-2, 1/3; 2; 1) = (5/3)_2 / (2)_2 = 20/27
        for z in (1, CTX.mp.mpf(1)):
            r = hyp2f1_num(-2, Fraction(1, 3), 2, z, CTX, method="direct-series")
            assert r.path == "direct-series"
            with CTX.mp.workprec(400):
                assert abs(r.value - CTX.mp.mpf(20) / 27) <= r.est_error <= tol(185)

    def test_terminating_sum_is_the_tables_direct_map(self):
        # the automatic path picks the direct map because its series ends,
        # and returns what a forced direct-series returns, field for field
        rng = random.Random("terminating-table")
        for _ in range(40):
            a, b, c, z, _ = _terminating_draw(rng)
            auto = hyp2f1_num(a, b, c, z, CTX)
            forced = hyp2f1_num(a, b, c, z, CTX, method="direct-series")
            assert auto.path == "direct-series"
            assert (auto.n_terms, repr(auto.value), repr(auto.est_error)) == (
                forced.n_terms, repr(forced.value), repr(forced.est_error)
            ), (a, b, c, z)

    def test_degenerate_connection_raises(self):
        # z close to 1 so only the connection converges, c - a - b integer
        with pytest.raises(DegenerateConnectionError):
            hyp2f1_num(
                Fraction(1, 3), Fraction(2, 3), 3, Fraction(9999999, 10000000), CTX
            )

    def test_unsupported_at_triple_point(self):
        mp = CTX.mp
        z = mp.expjpi(mp.mpf(1) / 3)  # |z| = |1-z| = |z/(z-1)| = |1-1/z| = 1
        a, b, c = Fraction(1, 3), Fraction(2, 5), Fraction(7, 5)
        with pytest.raises(NonConvergenceError, match="300000-term budget"):
            hyp2f1_num(a, b, c, z, CTX)
        # a forced path out of budget fails the same way
        for method in ("direct-series", "pfaff-a", "pfaff-b"):
            with pytest.raises(NonConvergenceError, match="z = "):
                hyp2f1_num(a, b, c, z, CTX, method=method)

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
        z = CTX.mp.mpc(2.9, 3.7)
        r = hyp2f1_num(Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), z, CTX)
        assert r.path == "connection-1mz"
        with mpmath.workprec(300):
            ref = mpmath.hyp2f1(
                mpmath.mpf(1) / 2, mpmath.mpf(1) / 3, mpmath.mpf(5) / 7,
                mpmath.mpc(2.9, 3.7),
            )
            diff = abs(mpmath.mpc(r.value.real, r.value.imag) - ref) / abs(ref)
            assert diff <= mpmath.mpf(1e-45)

    def test_est_error_majorizes_true_error(self):
        with mpmath.workprec(320):
            for z in (Fraction(9, 10), Fraction(-7, 2), Fraction(3, 5)):
                r = hyp2f1_num(Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), z, CTX)
                ref = mpmath.hyp2f1(
                    mpmath.mpf(1) / 2, mpmath.mpf(1) / 3, mpmath.mpf(5) / 7,
                    mpmath.mpf(z.numerator) / z.denominator,
                )
                assert abs(mpmath.mpf(r.value) - ref) <= mpmath.mpf(r.est_error) * 64


def _selector_draws(mp, seed, count):
    """(a, b, c, z, method) draws that reach every branch of the path
    choice: terminating sums at rational and float z, sums that terminate
    under Pfaff, |z| <= 0.7, the minimum-modulus choice, the degenerate
    connection, the out-of-budget error near e^(+-i pi/3) and the cut; 40%
    force a method.  c is never a nonpositive integer."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, c = (Fraction(rng.randint(-10, 10), rng.randint(1, 6)) for _ in range(3))
        kind = rng.random()
        if kind < 0.1:
            a = Fraction(-rng.randint(0, 4))
        elif kind < 0.2:
            b = c + rng.randint(0, 3)
        elif kind < 0.3:
            a = c + rng.randint(0, 3)
        elif kind < 0.4:
            b = c - a - rng.randint(-2, 2)
        if c.denominator == 1 and c <= 0:
            continue
        r = rng.random()
        if r < 0.15:
            z = Fraction(rng.randint(-7, 7), rng.randint(1, 10))
        elif r < 0.3:
            z = rng.choice((Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000),
                            Fraction(-9, 2), Fraction(7, 3), 0, 2.5))
        elif r < 0.45:
            z = mp.mpf(rng.uniform(-3, 0.95))
        elif r < 0.55:
            z = mp.expjpi(mp.mpf(rng.choice((1, -1))) / 3) * rng.choice((1, mp.mpf(0.9)))
        else:
            z = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        method = rng.choice(numeric.KNOWN_PATHS) if rng.random() < 0.4 else None
        out.append((a, b, c, z, method))
    return out


def test_selector_pin():
    # path, n_terms, value and est_error (or the exception type) of 300
    # draws across every branch of the path choice, pinned by hash
    ctx = EvalContext(96)
    outcomes = []
    for a, b, c, z, method in _selector_draws(ctx.mp, 2024, 300):
        try:
            r = hyp2f1_num(a, b, c, z, ctx, method=method)
        except (ValueError, NonConvergenceError) as exc:
            outcomes.append(type(exc).__name__)
        else:
            outcomes.append(f"{r.path} {r.n_terms} {r.value!r} {r.est_error!r}")
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]
    assert digest == "f0e6b5befe61a7ac"


def _near_lattice_or_small(rng):
    """A rational within 1/20 of a nonpositive integer 40% of the time
    (early terms then dip by that factor), else a small rational."""
    if rng.random() < 0.4:
        k = rng.randint(0, 6)
        return -k + Fraction(rng.choice((1, -1)), rng.randint(20, 60))
    return Fraction(rng.randint(-15, 15), rng.randint(1, 9))


def _terminating_draw(rng):
    """(a, b, c, z, m): a or b is a nonpositive integer down to -12 and the
    sum ends at z^m, m <= 12; z is an mpf or mpc with |z| <= 3, never
    rational, and a nonpositive-integer c comes no earlier than m."""
    mp = CTX.mp
    while True:
        a, b, c = (_near_lattice_or_small(rng) for _ in range(3))
        if rng.random() < 0.5:
            a = Fraction(-rng.randint(0, 12))
        else:
            b = Fraction(-rng.randint(0, 12))
        m = min(-x for x in (a, b) if x.denominator == 1 and x <= 0)
        if c.denominator == 1 and c <= 0 and -c < m:
            continue
        if rng.random() < 0.3:
            z = mp.mpf(rng.uniform(-3, 3))
        else:
            z = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) <= 3:
            return a, b, c, z, int(m)


def _path_modulus(path, z):
    if path == "direct-series":
        return abs(z)
    if path.startswith("pfaff"):
        return abs(z / (z - 1))
    return min(abs(1 - z), abs(1 - 1 / z))


def _oracle_draws(path, rng):
    """12 draws (a, b, c, z) at which the forced ``path`` converges: a, b,
    c, c-a and c-b are not nonpositive integers (nor c-a-b an integer for
    the connection), z is an mpc with |z| <= 3, real 30% of the time, and
    the path's series modulus is at most 0.95."""
    count = 0
    while count < 12:
        a, b, c = (_near_lattice_or_small(rng) for _ in range(3))
        if any(p.denominator == 1 and p <= 0 for p in (a, b, c, c - a, c - b)):
            continue
        if path == "connection-1mz" and (c - a - b).denominator == 1:
            continue
        if rng.random() < 0.7:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        else:
            z = complex(rng.uniform(-3, 1), 0)
        if z == 0 or _path_modulus(path, z) > 0.95:
            continue
        yield a, b, c, CTX.mp.mpc(z.real, z.imag)
        count += 1


def test_connection_near_gamma_pole():
    # 1/Gamma(a) ~ 2^-100 scales the second connection term; a pole test
    # with a tolerance set it to 0, and the result missed by ~2e77 est_error
    a, b, c, z = Fraction(1, 2**100), 40, Fraction(1, 2), Fraction(19, 20)
    r = hyp2f1_num(a, b, c, z, CTX)
    assert r.path == "connection-1mz"
    with mpmath.workprec(700):
        ref = mpmath.hyp2f1(
            mpmath.mpf(2) ** -100, b, mpmath.mpf(1) / 2, mpmath.mpf(19) / 20
        )
        assert abs(mpmath.mpf(r.value) - ref) <= mpmath.mpf(r.est_error)


class TestOracle:
    """est_error against a 320-bit mpmath.hyp2f1 on every forced path, and
    against the finite sum at 400 bits for the automatic path of a
    terminating series."""

    @pytest.mark.parametrize(
        "path", ["direct-series", "pfaff-a", "pfaff-b", "connection-1mz", "terminating"]
    )
    def test_est_error_bounds_true_error(self, path):
        rng = random.Random(f"oracle-{path}")
        if path == "terminating":
            for _ in range(12):
                a, b, c, z, m = _terminating_draw(rng)
                r = hyp2f1_num(a, b, c, z, CTX)
                with mpmath.workprec(400):
                    zz = mpmath.mpmathify(z)
                    ref = term = mpmath.mpf(1)
                    for k in range(m):
                        q = (a + k) * (b + k) / ((c + k) * (k + 1))
                        term *= zz * q.numerator / q.denominator
                        ref += term
                    err = abs(mpmath.mpmathify(r.value) - ref)
                    assert err <= mpmath.mpmathify(r.est_error), (a, b, c, z)
            return
        for a, b, c, z in _oracle_draws(path, rng):
            r = hyp2f1_num(a, b, c, z, CTX, method=path)
            with mpmath.workprec(320):
                ref = mpmath.hyp2f1(
                    *(mpmath.mpf(p.numerator) / p.denominator for p in (a, b, c)), z
                )
                err = abs(mpmath.mpmathify(r.value) - ref)
                assert err <= mpmath.mpmathify(r.est_error), (a, b, c, z)

    # connection-1mz is left out: on its draws est_error reads 2^32.4 to
    # 2^54.4 times the true error, and which term of its bound causes that
    # is not yet measured (ROADMAP items 1 and 10)
    @pytest.mark.parametrize("path", ["direct-series", "pfaff-a", "pfaff-b"])
    def test_est_error_is_tight_on_the_series_maps(self, path):
        """est_error <= 2^16 true_err against a 700-bit mpmath.hyp2f1 on
        the forced series maps, wherever the true error is nonzero: the
        bound is honest (above) and not vacuous (here); log2(est/true)
        peaks at 3.4, 0.7 and 1.5 on these draws."""
        rng = random.Random(f"oracle-{path}")
        for a, b, c, z in _oracle_draws(path, rng):
            r = hyp2f1_num(a, b, c, z, CTX, method=path)
            with mpmath.workprec(700):
                ref = mpmath.hyp2f1(
                    *(mpmath.mpf(p.numerator) / p.denominator for p in (a, b, c)), z
                )
                err = abs(mpmath.mpmathify(r.value) - ref)
                if err:
                    assert mpmath.mpmathify(r.est_error) <= 2**16 * err, (a, b, c, z)

    @pytest.mark.parametrize(
        "path", ["direct-series", "pfaff-a", "pfaff-b", "connection-1mz", "terminating"]
    )
    def test_conjugate_argument_gives_conjugate_value(self, path):
        """F(a, b; c; conj z) = conj F(a, b; c; z) for real parameters, off
        the cut: at conj z the engine takes the same path and number of
        terms, forced or not, and its value is the conjugate to within both
        error bounds (verify_theorem relies on this at conjugate roots)."""
        rng = random.Random(f"oracle-{path}")
        if path == "terminating":
            draws = [_terminating_draw(rng)[:4] for _ in range(12)]
            methods = (None,)
        else:
            draws = list(_oracle_draws(path, rng))
            methods = (path, None)
        draws = [d for d in draws if d[3].imag != 0]
        assert draws
        for (a, b, c, z), method in itertools.product(draws, methods):
            up = hyp2f1_num(a, b, c, z, CTX, method=method)
            down = hyp2f1_num(a, b, c, mpmath.mpc(z.real, -z.imag), CTX, method=method)
            assert (down.path, down.n_terms) == (up.path, up.n_terms), (a, b, c, z)
            with mpmath.workprec(320):
                gap = abs(mpmath.mpmathify(down.value) - mpmath.conj(up.value))
                bound = mpmath.mpmathify(up.est_error) + mpmath.mpmathify(down.est_error)
                assert gap <= bound, (a, b, c, z, method)


def test_exact_exits_est_error_is_one_unit():
    """A terminating sum at a rational z is exact, rounded once, and its
    est_error is one unit in the last place: true_err <= est_error <=
    2^16 true_err against mpmath.hyp2f1 at 600 bits.  A dyadic value the
    rounding keeps exactly has est_error 0.  At z = 0, rational or not,
    terminating or not, the value is exactly 1, no term is summed and
    est_error is 0."""
    rng = random.Random(600)
    for _ in range(20):
        a = Fraction(-rng.randint(1, 12))
        b, c = (Fraction(rng.randint(-30, 30), rng.choice((3, 5, 7, 9))) for _ in "bc")
        z = Fraction(rng.choice((1, -1)) * rng.randint(1, 40), rng.choice((11, 13, 27)))
        if z.denominator == 1:
            continue
        if rng.random() < 0.5:
            a, b = b, a
        r = hyp2f1_num(a, b, c, z, CTX)
        assert r.path == "direct-series"
        with mpmath.workprec(600):
            ref = mpmath.hyp2f1(
                *(mpmath.mpf(p.numerator) / p.denominator for p in (a, b, c, z))
            )
            err = abs(mpmath.mpmathify(r.value) - ref)
            assert 0 < err <= r.est_error <= 2**16 * err, (a, b, c, z)
    r = hyp2f1_num(-1, -3, -1, Fraction(1, 2), CTX)
    assert (r.path, r.n_terms) == ("direct-series", 1)
    assert r.value == Fraction(-1, 2) and r.est_error == 0
    for a, b, c, z in ((Fraction(1, 3), Fraction(2, 5), Fraction(7, 5), 0),
                       (-3, 2, 5, 0.0), (-3, 2, 5, 0), (-3, 2, 5, Fraction(0))):
        r = hyp2f1_num(a, b, c, z, CTX)
        assert r.value == 1 and r.est_error == 0 and r.n_terms == 0


@pytest.mark.parametrize("path", ["direct-series", "pfaff-a", "pfaff-b"])
def test_est_error_in_the_near_unit_complex_tail(path):
    # the series argument w at modulus 0.95-0.99, complex, parameters up to
    # ~36 in size (so tails start late and peaks run high); est_error
    # against mpmath.hyp2f1 at 400 bits, over the draws that converge
    # within the term budget
    rng = random.Random(f"near-unit-{path}")

    def param():
        den = rng.randint(1, 9)
        return Fraction(rng.randint(-36 * den, 36 * den), den)

    checked = 0
    for _ in range(40):
        if checked == 10:
            break
        a, b, c = param(), param(), param()
        if any(p.denominator == 1 and p <= 0 for p in (a, b, c, c - a, c - b)):
            continue
        w = cmath.rect(rng.uniform(0.95, 0.99), rng.uniform(0.1, 3.1) * rng.choice((1, -1)))
        z = w if path == "direct-series" else w / (w - 1)
        try:
            r = hyp2f1_num(a, b, c, CTX.mp.mpc(z.real, z.imag), CTX, method=path)
        except NonConvergenceError:
            continue
        with mpmath.workprec(400):
            ref = mpmath.hyp2f1(
                *(mpmath.mpf(p.numerator) / p.denominator for p in (a, b, c)),
                mpmath.mpc(z.real, z.imag),
            )
            err = abs(mpmath.mpmathify(r.value) - ref)
            assert err <= mpmath.mpmathify(r.est_error), (a, b, c, z)
        checked += 1
    assert checked == 10


def _mpc_series(mp, a, b, c, z, target_bits, max_terms):
    """The term recurrence on mpc objects, as a reference for the kernel:
    (total, n_terms, peak) with the kernel's stopping rule; a sum that
    ends at a zero term reports the index of the last nonzero one."""
    a, b, c = (mp.mpf(x.numerator) / x.denominator for x in (a, b, c))
    total = term = mp.mpc(1)
    peak = mp.mpf(1)
    target = mp.mpf(2) ** -target_bits
    small = n = 0
    while n < max_terms:
        term = term * ((a + n) * (b + n)) / ((c + n) * (n + 1)) * z
        total += term
        n += 1
        peak = max(peak, abs(total))
        if term == 0:
            return total, n - 1, peak
        if abs(term) <= target * peak:
            small += 1
            if small == 3:
                return total, n, peak
        else:
            small = 0
    raise AssertionError("reference recurrence did not converge")


def _power(ctx, base, e):
    return numeric._principal_power(ctx, base, e.numerator, e.denominator)


class TestPrincipalPower:
    """``_principal_power`` is ``mp.power`` bit for bit, whether or not a
    sharing scope keeps the logarithm of its base."""

    @pytest.mark.parametrize("precision", [64, 192, 512])
    def test_equals_mp_power(self, precision):
        rng = random.Random(precision)
        ctx = EvalContext(precision)
        mp = ctx.mp

        def draw():
            return ctx.to_mp(Fraction(rng.randint(-999, 999), rng.randint(1, 999)))

        bases = [mp.mpc(draw(), draw()) for _ in range(6)]
        bases += [abs(draw()) for _ in range(4)] + [-abs(draw()), mp.mpc(draw(), 0)]
        expos = [Fraction(rng.randint(-40, 40), d) for d in (1, 1, 2, 2, 3, 4, 7, 45)]
        for base in bases:
            expected = [
                mp.power(base, int(e) if e.denominator == 1 else ctx.to_mp(e))
                for e in expos
            ]
            outside = [_power(ctx, base, e) for e in expos]
            with ctx.sharing():
                inside = [_power(ctx, base, e) for e in expos * 2]
            for got in (outside, inside[:len(expos)], inside[len(expos):]):
                assert [type(x) for x in got] == [type(x) for x in expected]
                assert [numeric._exact(x) for x in got] == [
                    numeric._exact(x) for x in expected
                ]


def _kernel(mp, a, b, c, z, target_bits, max_terms):
    """``_series_2f1`` at Fraction parameters, put over their least common
    denominator as ``_hyp2f1`` puts them."""
    den = math.lcm(a.denominator, b.denominator, c.denominator)
    nums = (x.numerator * (den // x.denominator) for x in (a, b, c))
    return _series_2f1(mp, *nums, den, z, target_bits, max_terms)


class TestSeriesKernel:
    """The fixed-point kernel against the mpc recurrence at 448 bits."""

    MP = CTX.mp
    CASES = {
        "real": (Fraction(1, 3), Fraction(2, 5), Fraction(7, 5), MP.mpf(0.6)),
        "negative-real": (Fraction(7, 3), Fraction(-5, 4), Fraction(1, 6), MP.mpf(-0.85)),
        "complex": (Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), MP.mpc(0.3, 0.5)),
        "near-unit": (
            Fraction(3, 4), Fraction(5, 3), Fraction(11, 7), MP.mpf(0.99) * MP.expj(2)
        ),
        "terminating": (Fraction(-7), Fraction(5, 3), Fraction(1, 2), MP.mpc(0.8, 0.3)),
        "near-lattice": (Fraction(-59, 20), Fraction(17, 3), Fraction(1, 2), MP.mpf(0.9)),
        # (1-z)^(-25/3): terms up to ~3e6 and partial sums up to ~2e6
        # cancel to ~5e-3
        "cancelling": (Fraction(25, 3), Fraction(2, 5), Fraction(2, 5), MP.mpf(-0.9)),
        # complex tails summed in blocks (see TestBlockMode)
        "tail-0.975": (
            Fraction(3, 4), Fraction(-5, 3), Fraction(11, 7), MP.mpf(0.975) * MP.expj(-2.5)
        ),
        # the pfaff-a series of F(6/5, 37, 13/9) near its ell-36 root
        # 0.43 + 1.05i: terms grow ~1e9-fold over the first 36, per term
        "ell-36-pfaff": (
            Fraction(6, 5), Fraction(-320, 9), Fraction(13, 9),
            MP.mpc(0.43, 1.05) / (MP.mpc(0.43, 1.05) - 1),
        ),
        # the zero term t_98 ends the block 82..98, falls one term before
        # its end (t_97) or starts the next one (t_99)
        "terminating-block-end": (Fraction(-97), Fraction(1, 2), Fraction(3, 4), MP.expj(1) * 0.6),
        "terminating-block-end-1": (Fraction(-96), Fraction(1, 2), Fraction(3, 4), MP.expj(1) * 0.6),
        "terminating-block-end+1": (Fraction(-98), Fraction(1, 2), Fraction(3, 4), MP.expj(1) * 0.6),
        "terminating-beyond-unit": (
            Fraction(-40), Fraction(1, 3), Fraction(1, 2), MP.mpf(1.5) * MP.expj(0.7)
        ),
        # |S_n| grows for a long stretch, so the peak is proved final late
        "slow-rotation": (
            Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), MP.mpf(0.9) * MP.expj(0.05)
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_mpc_recurrence(self, case):
        a, b, c, z = self.CASES[case]
        mp = CTX.mp
        with CTX.workprec(64):
            total, last, n, peak, wp = _kernel(mp, a, b, c, z, 224, 100_000)
        with mp.workprec(448):
            ref, ref_n, ref_peak = _mpc_series(mp, a, b, c, z, 224, 100_000)
            peak = mp.mpf((peak, -wp))
            assert n == ref_n
            assert abs(total - ref) <= abs(ref) * mp.mpf(2) ** -200
            assert abs(peak - ref_peak) <= ref_peak * mp.mpf(2) ** -200
            if case == "cancelling":
                assert peak > abs(ref) * 2**20

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_tail_and_roundoff_bound_the_error(self, case):
        # the kernel's tail bound plus the roundoff allowance of _hyp2f1
        a, b, c, z = self.CASES[case]
        mp = CTX.mp
        with CTX.workprec(64):
            total, tail, n, peak, wp = _kernel(mp, a, b, c, z, 224, 100_000)
            err = tail - (-peak * (n + 8) >> mp.prec)
        with mp.workprec(448):
            est = mp.mpf((err, -wp))
            ref = mp.hyp2f1(*(mp.mpf(x.numerator) / x.denominator for x in (a, b, c)), z)
            assert abs(total - ref) <= est


def _mpq(x):
    """A Fraction, or an mpf/mpc, at the current mpmath precision."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpmathify(x)


def _exact_fraction(t) -> Fraction:
    """An mpf tuple as the exact Fraction."""
    sign, man, exp, _ = t
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _ceil_abs_exact(x, bits):
    """(m, f) with f ``bits`` below the leading bit of x's larger
    component, for an mpf or mpc x: each component's modulus taken up to a
    multiple of 2^f, and m the least integer whose square is at least the
    sum of their squares, in Fractions."""
    parts = [t for t in getattr(x, "_mpc_", None) or (x._mpf_,) if t[1]]
    f = max(t[1].bit_length() + t[2] for t in parts) - bits
    square = sum(math.ceil(abs(_exact_fraction(t)) / Fraction(2) ** f) ** 2 for t in parts)
    m = math.isqrt(square)
    return m + (m * m < square), f


def _ceil_mpf(x: Fraction, bits):
    """x rounded up to a ``bits``-bit mpf tuple."""
    return from_rational(x.numerator, x.denominator, bits, round_ceiling)


def _spy(monkeypatch, name) -> list:
    """Record (args, result) of every call of numeric's ``name``."""
    calls = []
    real = getattr(numeric, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(numeric, name, spy)
    return calls


class TestErrorBookkeeping:
    """est_error is kept in integers from upper bounds on every modulus and
    rounded up once.  It bounds the error against mpmath.hyp2f1 at
    precision + 256 bits where those bounds carry weight, and it is the
    integer formula, recomputed here in Fractions and rounded up."""

    WPREC = CTX.precision + numeric.GUARD_BITS + 32  # the working precision
    # a zero of F(-7/2, 16/3; 5/7; x): the connection's parts, near 12 in
    # modulus, cancel to about 2^-190 of it at the 192-bit point
    ZERO = CTX.mp.mpf("0.9311917672396811910918605168328520900759492644297806560319042484")

    @staticmethod
    def _bounded(a, b, c, z, method=None):
        r = hyp2f1_num(a, b, c, z, CTX, method=method)
        with mpmath.workprec(CTX.precision + 256):
            ref = mpmath.hyp2f1(_mpq(a), _mpq(b), _mpq(c), _mpq(z))
            err = abs(mpmath.mpmathify(r.value) - ref)
            assert err <= mpmath.mpmathify(r.est_error), (a, b, c, z, method)
        return r, ref

    @pytest.mark.parametrize("a", [Fraction(9, 2), Fraction(-9, 2)])
    def test_pfaff_prefactor_far_from_one(self, a):
        # |1-z|^(-a) = (9/2)^(-a) is about 870 or 1.1e-3
        r, _ = self._bounded(a, Fraction(1, 3), Fraction(5, 7), Fraction(-7, 2), "pfaff-a")
        assert r.path == "pfaff-a"

    def test_connection_with_both_inner_series_on_pfaff(self, monkeypatch):
        inner = _spy(monkeypatch, "_hyp2f1")
        z = CTX.mp.mpc(2.9, 3.7)
        r, _ = self._bounded(Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), z)
        paths = [out.path for args, out in inner if args[7] == numeric._SERIES_PATHS]
        assert r.path == "connection-1mz"
        assert len(paths) == 2 and all(p.startswith("pfaff") for p in paths)

    @pytest.mark.parametrize("a", [Fraction(7, 3), Fraction(-3)])
    def test_connection_with_a_part_dropped(self, monkeypatch, a):
        # c - a = -2 drops the first part (1/Gamma(c-a) = 0), a = -3 the
        # second (1/Gamma(a) = 0)
        inner = _spy(monkeypatch, "_hyp2f1")
        z = CTX.mp.mpc(0.8, 0.3)
        r, _ = self._bounded(a, Fraction(1, 5), Fraction(1, 3), z, "connection-1mz")
        assert len([1 for args, _ in inner if args[7] == numeric._SERIES_PATHS]) == 1

    def test_connection_whose_terms_are_all_zero(self):
        # 1/Gamma(a) = 0 drops the second part, and the first part's inner
        # series, the terminating F(-1, 1/3; 2/15; 2/5), is exactly 0
        r = hyp2f1_num(-1, Fraction(1, 3), Fraction(1, 5), Fraction(3, 5), CTX,
                       method="connection-1mz")
        assert r.value == 0 and r.est_error == 0
        assert r.path == "connection-1mz"

    def test_cancelling_connection(self):
        a, b, c = Fraction(-7, 2), Fraction(16, 3), Fraction(5, 7)
        r, ref = self._bounded(a, b, c, self.ZERO)
        assert r.path == "connection-1mz"
        with mpmath.workprec(400):
            cab = _mpq(c - a - b)
            part = (
                mpmath.gamma(_mpq(c)) * mpmath.gamma(cab)
                * mpmath.rgamma(_mpq(c - a)) * mpmath.rgamma(_mpq(c - b))
                * mpmath.hyp2f1(_mpq(a), _mpq(b), 1 - cab, 1 - _mpq(self.ZERO))
            )
            assert abs(ref) < abs(part) * mpmath.mpf(2) ** -150

    @pytest.mark.parametrize("a, b, c, z, method", [
        (Fraction(1, 3), Fraction(2, 5), Fraction(7, 5), CTX.mp.mpc(0.3, 0.5), None),
        (Fraction(1, 3), Fraction(2, 5), Fraction(7, 5), CTX.mp.mpf(-0.6), None),
        (Fraction(9, 2), Fraction(1, 3), Fraction(5, 7), Fraction(-7, 2), "pfaff-a"),
        (Fraction(-9, 2), Fraction(1, 3), Fraction(5, 7), CTX.mp.mpc(-3.5, 1), "pfaff-a"),
        (Fraction(1, 3), Fraction(5, 2), Fraction(5, 7), CTX.mp.mpc(-2, 0.5), "pfaff-b"),
    ])
    def test_series_map_error_is_the_integer_formula(self, monkeypatch, a, b, c, z, method):
        # |pref| (tail + ceil(peak (n+8) 2^-wprec)) 2^-wp, rounded up, with
        # |pref| taken up to a multiple of 2^f (exact on the direct series)
        kernel = _spy(monkeypatch, "_series_2f1")
        powers = _spy(monkeypatch, "_principal_power")
        r = hyp2f1_num(a, b, c, z, CTX, method=method)
        (_, (_, tail, n, peak, wp)), = kernel
        err = tail + math.ceil(Fraction(peak * (n + 8), 2**self.WPREC))
        m, f = _ceil_abs_exact(powers[0][1], self.WPREC) if powers else (1, 0)
        assert (r.path == "direct-series") == (not powers)
        want = _ceil_mpf(Fraction(m * err) * Fraction(2) ** (f - wp), self.WPREC)
        assert r.est_error._mpf_ == want

    def test_connection_error_is_the_integer_formula(self, monkeypatch):
        # sum_i |coef_i| err_i + 16 2^-precision |part_i|, rounded up, with
        # the coefficients and parts formed as the connection forms them
        inner = _spy(monkeypatch, "_hyp2f1")
        powers = _spy(monkeypatch, "_principal_power")
        a, b, c, z = Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), CTX.mp.mpc(0.75, 0.5)
        r = hyp2f1_num(a, b, c, z, CTX)
        assert r.path == "connection-1mz"
        inners = [out for args, out in inner if args[7] == numeric._SERIES_PATHS]
        cab = c - a - b
        total = Fraction(0)
        with CTX.workprec(numeric.GUARD_BITS + 32):
            gc = gamma_c(c, CTX)
            coefs = (
                gc * gamma_c(cab, CTX) * rgamma_c(c - a, CTX) * rgamma_c(c - b, CTX),
                powers[0][1] * gc * gamma_c(-cab, CTX) * rgamma_c(a, CTX) * rgamma_c(b, CTX),
            )
            for coef, res in zip(coefs, inners):
                m, f = _ceil_abs_exact(coef, self.WPREC)
                total += m * Fraction(2) ** f * _exact_fraction(res.est_error._mpf_)
                m, f = _ceil_abs_exact(coef * res.value, self.WPREC)
                total += 16 * m * Fraction(2) ** (f - CTX.precision)
        assert r.est_error._mpf_ == _ceil_mpf(total, self.WPREC)


def _block_starts(monkeypatch) -> list:
    """The index at which the kernel tries each block, from now on."""
    starts = []
    block = numeric._block

    def recording(wp, an, bn, cn, kn, den, powers, shift):
        starts.append(kn // den - 1)
        return block(wp, an, bn, cn, kn, den, powers, shift)

    monkeypatch.setattr(numeric, "_block", recording)
    return starts


class TestBlockMode:
    """Where the kernel sums a complex series in blocks; TestSeriesKernel
    checks what it returns."""

    MP = CTX.mp

    @staticmethod
    def _sum(case, max_terms=100_000):
        a, b, c, z = TestSeriesKernel.CASES[case]
        with CTX.workprec(64):
            return _kernel(CTX.mp, a, b, c, z, 224, max_terms)

    def test_runs_on_a_modulus_0_9_tail(self, monkeypatch):
        starts = _block_starts(monkeypatch)
        z = self.MP.mpf(0.9) * self.MP.expj(1.3)
        with CTX.workprec(64):
            n = _kernel(self.MP, Fraction(2, 3), Fraction(1, 5), Fraction(9, 7), z, 224, 10**5)[2]
        assert len(starts) * numeric._BLOCK >= 0.9 * n

    def test_not_on_a_real_argument(self, monkeypatch):
        starts = _block_starts(monkeypatch)
        self._sum("negative-real")
        assert not starts

    def test_growth_phase_is_summed_term_by_term(self, monkeypatch):
        # the terms grow while |w r_k| > 1, up to k = 16 here
        a, b, c, w = TestSeriesKernel.CASES["ell-36-pfaff"]
        growing = [
            k for k in range(60)
            if abs(w) * abs((a + k) * (b + k) / ((c + k) * (k + 1))) > 1
        ]
        assert max(growing) == 16
        starts = _block_starts(monkeypatch)
        self._sum("ell-36-pfaff")
        assert starts and min(starts) > max(growing)

    @pytest.mark.parametrize("case", [
        "terminating-block-end", "terminating-block-end-1", "terminating-block-end+1"
    ])
    def test_zero_term_near_a_block_end(self, monkeypatch, case):
        starts = _block_starts(monkeypatch)
        n = self._sum(case)[2]
        assert n == -TestSeriesKernel.CASES[case][0]  # the last nonzero term
        assert 98 - numeric._BLOCK in starts

    def test_budget_inside_a_block_raises_as_term_by_term(self, monkeypatch):
        starts = _block_starts(monkeypatch)
        full = self._sum("near-unit")
        n = full[2]
        for budget in (starts[5] + 7, starts[-1] + 1, n - 1):
            with pytest.raises(NonConvergenceError, match=f"within {budget} terms"):
                self._sum("near-unit", budget)
        assert self._sum("near-unit", n) == full


class TestEarlyStop:
    """Three small terms end a sum only where the kernel proves a bound on
    its tail: with a = 2^-245 the terms start near 2^-237, below the
    stopping limit, and grow for ~100 terms, so a stop at the third term
    misses the sum by ~1e-44.  est_error, and a relative error of at most
    2^-190, against mpmath.hyp2f1 at 1200 bits."""

    MP = CTX.mp
    TINY = Fraction(1, 2**240)
    CASES = {
        "direct-real": (Fraction(1, 2**245), 100, Fraction(1, 5), Fraction(1, 2), None),
        "near-lattice": (-3 + TINY, 100, Fraction(1, 5), Fraction(1, 2), None),
        "direct-complex": (TINY, 40, Fraction(1, 2), MP.mpc(0.3, 0.4), None),
        "pfaff-a": (TINY, -60, Fraction(1, 3), Fraction(-9, 10), "pfaff-a"),
        "connection-inner": (TINY, 40, Fraction(1, 2), Fraction(1, 2), "connection-1mz"),
        # the ratios turn monotone only from index 9732, past the 482-term
        # budget: the stop before it rests on the factor-wise bound
        "late-monotone": (10, 10, Fraction(1139, 60), MP.mpc(0.3, 0.2), None),
        # 1/c scales every term after the first by 2^200, so z = 2^-300
        # must be held to more than 300 bits; a floored term of 0 is not a
        # sum that ends
        "small-c": (1, 1, Fraction(1, 2**200), Fraction(1, 2**300), None),
        # 1/(c+3) scales the terms from the fifth on by 2^150
        "near-pole-c": (1, 1, -3 + Fraction(1, 2**150), Fraction(1, 2**40), None),
        # the rounding of z reaches the sum scaled by |ab/c| = 2^200, so
        # z = 2^-400 must be held to more than 400 bits: the terminating
        # pfaff-a sum read 1 + 3e-27 and the direct one 1, for F - 1 = 6e-61
        "large-ab": (2**100, 2**100, 1, Fraction(1, 2**400), None),
        "large-ab-direct": (2**100, 2**100, 1, Fraction(1, 2**400), "direct-series"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_est_error_bounds_true_error(self, case):
        a, b, c, z, method = self.CASES[case]
        r = hyp2f1_num(a, b, c, z, CTX, method=method)
        with mpmath.workprec(1200):
            exact = [mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator
                     for x in (a, b, c)]
            if isinstance(z, Fraction):
                z = mpmath.mpf(z.numerator) / z.denominator
            ref = mpmath.hyp2f1(*exact, mpmath.mpmathify(z))
            err = abs(mpmath.mpmathify(r.value) - ref)
            assert err <= mpmath.mpmathify(r.est_error), (case, r.n_terms)
            assert err <= abs(ref) * mpmath.mpf(2) ** -190, (case, r.n_terms)


class _Tracked(int):
    """An int that stays tracked through shifts, sums and negation, and
    records the bit length of the lesser factor of every product."""

    products: list = []

    def __mul__(self, other):
        _Tracked.products.append(min(self.bit_length(), int(other).bit_length()))
        return _Tracked(int(self) * int(other))

    __rmul__ = __mul__

    def __pow__(self, e):
        _Tracked.products.append(self.bit_length())
        return _Tracked(int(self) ** e)


for _op in ("__lshift__", "__rshift__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
    setattr(_Tracked, _op, lambda self, *a, _op=_op: _Tracked(getattr(int, _op)(self, *map(int, a))))


class TestTinyComponents:
    """An argument component of tiny exponent: the table squares only the
    components' mantissas, never integers aligned to that exponent, the
    cut test and the map choice are exact, and the path and value are
    those without the component."""

    MP = CTX.mp

    def test_table_squares_only_mantissas(self):
        mp = self.MP
        for z in (
            mp.make_mpf((0, _Tracked(3), -10**6, 2)),
            mp.make_mpc(((0, _Tracked(1), -1, 1), (0, _Tracked(1), -10**6, 1))),
            mp.make_mpc(((1, _Tracked(7), 10**6, 3), (0, _Tracked(5), -10**6, 3))),
        ):
            _Tracked.products.clear()
            numeric._Argument(z, 256)
            assert _Tracked.products and max(_Tracked.products) <= 3

    def test_cut_decisions_are_exact(self):
        # exponents of a million on and off the cut, and the boundary cases
        big = 10**6
        cases = (
            ((0, 1, 1, 1), (0, 1, -big, 1), True),  # 2 + 2^-M i
            ((0, 1, big, 1), (0, 1, big - 249, 1), True),  # |y| = 2^-249 x
            ((0, 1, big, 1), (0, 1, big - 247, 1), False),  # |y| = 2^-247 x
            # |y| 2^248 = x, and x + 2^-50 x, against 1 + x = 1 + 2^M
            ((0, 1, big, 1), (0, 1, big - 248, 1), True),
            ((0, 1, big, 1), (0, 2**50 + 1, big - 298, 51), False),
            # |y| 2^248 = 4, and 4 + 2^-58, against 1 + x = 4
            ((0, 3, 0, 2), (0, 1, -246, 1), True),
            ((0, 3, 0, 2), (0, 2**60 + 1, -306, 61), False),
            ((0, 1, -big, 1), (0, 1, 0, 1), False),  # 2^-M + i
            # 1 - 2^-40 + 2^-300 i, and 1 - 3 2^-41 on the real line
            ((0, 2**40 - 1, -40, 40), (0, 1, -300, 1), True),
            ((0, 2**41 - 3, -41, 41), (0, 0, 0, 0), False),
        )
        for re, im, on_cut in cases:
            assert numeric._Argument(self.MP.make_mpc((re, im)), 256).cut is on_cut, (re, im)

    def test_far_apart_components_cost_little(self):
        # components 2^1000000 apart: the alignment and cross products run
        # on million-bit integers in time near-linear in the exponent gap
        # (tens of ms each on a 2-core x86-64 VM); a quadratic cost would
        # take far longer than the bound
        mp = self.MP
        tiny = mp.mpf(2) ** -10**6
        for z, want in (
            (mp.mpc(0.9, tiny), "connection-1mz"),
            (mp.mpc(-1 / tiny, 1), NonConvergenceError),
            (3 * tiny, "direct-series"),
        ):
            start = time.perf_counter()
            try:
                got = hyp2f1_num(Fraction(1, 3), Fraction(1, 2), Fraction(5, 4), z, CTX).path
            except NonConvergenceError as e:
                got = type(e)
            assert got == want
            assert time.perf_counter() - start < 1.0, z

    def test_least_agrees_with_exact_comparison(self):
        # random points, some with a component 2^-60 .. 2^-3000 off a
        # short one, and at 1/2 + i/2 the direct and connection moduli tie
        rng = random.Random(11)
        paths = ("direct-series", "pfaff-a", "connection-1mz")
        half, tiny = Fraction(1, 2), Fraction(1, 2**3000)
        points = [(half, half), (half, -half), (half + tiny, half), (half - tiny, half)]
        for _ in range(200):
            points.append(tuple(
                Fraction(rng.randint(-2**20, 2**20), 2**20)
                + rng.choice((0, Fraction(1, 2 ** rng.randint(60, 3000))))
                for _ in range(2)
            ))
        for x, y in points:
            z = self.MP.mpc(CTX.to_mp(x), CTX.to_mp(y))
            if z == 0:
                continue
            arg = numeric._Argument(z, 256)
            moduli = [
                Fraction(*arg.squared(p)) if arg.squared(p)[1] else None for p in paths
            ]
            for degenerate in (False, True):
                ranked = [
                    ((numeric._max_terms_for(*arg.squared(p), 192, None) is None,
                      p == "connection-1mz" and degenerate), m, i)
                    for i, (p, m) in enumerate(zip(paths, moduli)) if m is not None
                ]
                want = paths[min(ranked)[2]]
                budget = numeric._max_terms_for(*arg.squared(want), 192, None)
                got = arg.least({}, [paths[r[2]] for r in ranked], 192, degenerate)
                assert got == (want, budget)

    def test_norms_are_exact(self):
        rng = random.Random(7)

        def draw():
            return Fraction(rng.randint(-2**60, 2**60)) * Fraction(2) ** rng.randint(-3000, 40)

        for _ in range(20):
            x, y = draw(), draw() if rng.random() < 0.7 else Fraction(0)
            z = CTX.to_mp(x) if y == 0 else self.MP.mpc(CTX.to_mp(x), CTX.to_mp(y))
            arg = numeric._Argument(z, 256)
            assert Fraction(arg.n0, arg.scale) == x * x + y * y
            assert Fraction(arg.n1, arg.scale) == (x - 1) ** 2 + y * y

    def test_path_and_value_as_without_the_component(self):
        mp = self.MP
        tiny = mp.mpf(2) ** -10**6
        for z, plain in ((3 * tiny, 3 * mp.mpf(2) ** -1000), (mp.mpc(0.5, tiny), mp.mpf(0.5))):
            got, want = (
                hyp2f1_num(Fraction(1, 3), Fraction(1, 2), Fraction(5, 4), x, CTX)
                for x in (z, plain)
            )
            assert got == want


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
            assert sum(rs.multiplicities) == p.degree

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

    def test_rejects_tiny_precision(self):
        for precision in (0, -5, 23):
            with pytest.raises(ParameterError, match="precision must be"):
                find_roots(Poly((1, 4)), precision)

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


def _gosper_poly(a, c, ell):
    """The terminating polynomial F(1-a, -ell, 2-c; x) of verify_theorem."""
    return terminating_poly(HypParams(1 - a, -ell, 2 - c))


def _reference_roots(p: Poly, bits: int):
    """[(root, multiplicity)] from sympy's squarefree decomposition and
    mpmath.polyroots on each factor at ``bits`` bits."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k
               for k, c in enumerate(p.coeffs))
    out = []
    with mpmath.workprec(bits):
        for factor, mult in sympy.Poly(expr, x).sqf_list()[1]:
            cs = [mpmath.mpf(int(c.p)) / int(c.q) for c in factor.all_coeffs()]
            if len(cs) == 2:
                out.append((-cs[1] / cs[0], mult))
                continue
            roots = mpmath.polyroots(cs, maxsteps=400, extraprec=2 * bits)
            out.extend((r, mult) for r in roots)
    return out


def test_exact_poly_value_rounds_the_exact_value_once():
    mp = EvalContext(64).mp
    p = Poly((Fraction(1, 3), -2, 5))
    # p(1/2 - i/4) = 13/48 - 3i/4 and p(12) = 696 + 1/3, exactly
    for x, re, im in ((mp.mpc(0.5, -0.25), Fraction(13, 48), Fraction(-3, 4)),
                      (mp.mpf(12), Fraction(2089, 3), Fraction(0))):
        value = numeric.exact_poly_value(p, x, mp)
        assert value == mp.mpc(mp.mpf(re.numerator) / re.denominator,
                               mp.mpf(im.numerator) / im.denominator)
    assert numeric.exact_poly_value(Poly.zero(), mp.mpf(3), mp) == 0


class TestFindRootsOracle:
    """find_roots against sympy + mpmath.polyroots at twice the precision,
    on the polynomials verify_theorem sees: seeded sweep draws (ell 1-5)
    and ell-7 draws."""

    PRECISION = 192

    @staticmethod
    def _draws():
        rng = random.Random(1009)
        polys = []
        for _ in range(30):
            a, c, ell = draw_theorem_params(rng, 5)
            polys.append(_gosper_poly(a, c, ell))
        for _ in range(8):
            a, c, _ = draw_theorem_params(rng, 5)
            polys.append(_gosper_poly(a, c, 7))
        return [p for p in polys if p.degree]

    def test_against_polyroots(self):
        prec = self.PRECISION
        for p in self._draws():
            rs = find_roots(p, prec)
            assert sum(rs.multiplicities) == p.degree
            ref = _reference_roots(p, 2 * prec)
            assert len(ref) == len(rs.roots)
            with mpmath.workprec(2 * prec):
                got = [mpmath.mpc(r) for r in rs.roots]
                for r, mult in ref:
                    i = min(range(len(got)), key=lambda k: abs(got[k] - r))
                    assert abs(got[i] - r) <= abs(r) * mpmath.mpf(2) ** -prec, (p, r)
                    assert rs.multiplicities[i] == mult, p
                    real = abs(r.imag) <= abs(r) * mpmath.mpf(2) ** -(2 * prec - 16)
                    assert (got[i].imag == 0) == real, (p, r)
            for x in rs.roots:
                if x.imag != 0:
                    assert rs.roots.count(x.conjugate()) == 1
            radius_rel = rs.inclusion_radius / max(abs(x) for x in rs.roots)
            assert radius_rel <= mpmath.mpf(2) ** -prec


def _independent_certificate(p: Poly, rs):
    """Re-check with mpmath at 2048 bits, far more than the cancellation in
    P(x) costs at these degrees, that for squarefree p every root's disc of
    radius deg |P(x) / P'(x)| lies within inclusion_radius and that discs
    of that radius are pairwise disjoint."""
    n = p.degree
    with mpmath.workprec(2048):
        cs = [mpmath.mpf(c.numerator) / c.denominator for c in p.coeffs]
        for x in rs.roots:
            val, der = mpmath.polyval(cs[::-1], mpmath.mpc(x), derivative=True)
            assert n * abs(val) <= rs.inclusion_radius * abs(der)
        for i, x in enumerate(rs.roots):
            for y in rs.roots[i + 1:]:
                assert abs(mpmath.mpc(x) - y) > 2 * rs.inclusion_radius


_THIRD = Fraction(1, 3)
# roots -2, 1/3 and 1/3 + 2^-60
CLUSTER = Poly((-_THIRD, 1)) * Poly((-_THIRD - Fraction(1, 2**60), 1)) * Poly((2, 1))
# roots 1 +- 2^-50 i, which double precision sees as a real double root
PAIR_OFF_AXIS = Poly((1 + Fraction(1, 2**100), -2, 1))
# x^2 + x + 3^-700: the small root, about -3^-700 ~ 1e-334, is 0 in double
BELOW_DOUBLE_RANGE = Poly((Fraction(1, 3**700), 1, 1))
WILKINSON_20 = Poly((1,))
for _k in range(1, 21):
    WILKINSON_20 = WILKINSON_20 * Poly((-_k, 1))


class TestFindRootsHardCases:
    """Inputs that the double-precision stage cannot finish: each must come
    back certified, some through the fixed-point Aberth escalation."""

    @pytest.fixture
    def escalations(self, monkeypatch):
        calls = []
        inner = numeric._aberth_fixed

        def spy(nums, approx, bits):
            calls.append(bits)
            return inner(nums, approx, bits)

        monkeypatch.setattr(numeric, "_aberth_fixed", spy)
        return calls

    def test_cluster_at_two_to_minus_sixty(self, escalations):
        rs = find_roots(CLUSTER, 192)
        assert rs.multiplicities == (1, 1, 1)
        assert all(x.imag == 0 for x in rs.roots)
        for x, want in zip(rs.roots, (-2, _THIRD, _THIRD + Fraction(1, 2**60))):
            assert abs(x - CTX.to_mp(want)) <= tol(192)
        _independent_certificate(CLUSTER, rs)
        assert escalations and max(escalations) >= 212  # 106 bits cannot split it

    def test_pair_just_off_the_real_axis(self):
        rs = find_roots(PAIR_OFF_AXIS, 192)
        lower, upper = rs.roots
        assert upper == lower.conjugate()
        assert abs(upper - CTX.mp.mpc(1, CTX.mp.mpf(2) ** -50)) <= tol(192)
        _independent_certificate(PAIR_OFF_AXIS, rs)

    def test_root_below_double_range(self):
        # the small root must come back to 2^-192 of its own size
        eps = Fraction(1, 3**700)
        rs = find_roots(BELOW_DOUBLE_RANGE, 192)
        small = max(rs.roots, key=lambda x: x.real)
        with mpmath.workprec(400):
            e = mpmath.mpf(eps.numerator) / eps.denominator
            want = -2 * e / (1 + mpmath.sqrt(1 - 4 * e))
            assert small.imag == 0
            assert abs(small - want) <= abs(want) * mpmath.mpf(2) ** -192

    def test_wilkinson_degree_20(self, escalations):
        rs = find_roots(WILKINSON_20, 192)
        assert rs.multiplicities == (1,) * 20
        for k, x in enumerate(rs.roots, 1):
            assert x.imag == 0 and abs(x - k) <= k * tol(192)
        _independent_certificate(WILKINSON_20, rs)
        assert escalations

    @pytest.mark.parametrize(
        "a, c, ell",
        [pytest.param(Fraction(7, 3), Fraction(5, 11), ell, id=str(ell))
         for ell in (30, 40, 60)]
        # the family of the eval-failed skips at ell 100; escalates to 212 bits
        + [pytest.param(Fraction(-2, 5), Fraction(3, 7), 60, id="-2/5,3/7,60")],
    )
    def test_high_ell_certified(self, a, c, ell):
        p = _gosper_poly(a, c, ell)
        rs = find_roots(p, 192)  # raised NonConvergenceError at (7/3, 5/11, 40)
        assert rs.multiplicities == (1,) * ell
        assert rs.inclusion_radius <= tol(192) * max(abs(x) for x in rs.roots)
        for x in rs.roots:
            if x.imag != 0:
                assert x.conjugate() in rs.roots
        _independent_certificate(p, rs)

    def test_real_root_left_below_the_band_is_polished(self, escalations):
        # at (-2/5, 3/7, 25) double-precision Aberth leaves 13 points below
        # the 2^-10 |Re| band and 12 on or above it: the real root near
        # 1.772 sits 2.6e-3 |Re| below the axis, and is polished all the same
        p = _gosper_poly(Fraction(-2, 5), Fraction(3, 7), 25)
        rs = find_roots(p, 192)
        assert rs.multiplicities == (1,) * 25
        _independent_certificate(p, rs)
        assert escalations == []

    def test_gives_up_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(numeric, "_certify", lambda nums, points, target: None)
        with pytest.raises(NonConvergenceError):
            find_roots(Poly((-2, 0, 1)), 64)


def _conjugate_pairing_inputs():
    yield from (CLUSTER, PAIR_OFF_AXIS, BELOW_DOUBLE_RANGE, WILKINSON_20)
    rng = random.Random(2026)
    for _ in range(40):
        p = Poly([rng.randint(-30, 30) for _ in range(rng.randint(1, 12))] + [1])
        if rng.random() < 0.3:  # a repeated factor
            q = Poly([rng.randint(-4, 4), 1])
            p = p * q * q
        if p.degree:
            yield p
    # both families of the high-ell tests, and draws of the two sweeps'
    # ranges, ell <= 5 and ell <= 40
    for a, c in ((Fraction(7, 3), Fraction(5, 11)), (Fraction(-2, 5), Fraction(3, 7))):
        for ell in (5, 20, 40):
            yield _gosper_poly(a, c, ell)
    rng = random.Random(42)
    for ell_max in (5, 5, 5, 5, 40, 40):
        p = _gosper_poly(*draw_theorem_params(rng, ell_max))
        if p.degree:
            yield p


def test_conjugate_of_pairs_each_lower_root_with_its_exact_conjugate():
    # the rational coefficients pair the non-real roots; find_roots states
    # the pairing, and each lower root is its partner's exact conjugate
    for p in _conjugate_pairing_inputs():
        rs = find_roots(p, 192)
        partners = []
        for x, j in zip(rs.roots, rs.conjugate_of):
            if x.imag < 0:
                re, im = rs.roots[j]._mpc_
                assert x._mpc_ == (re, mpf_neg(im)) and im[0] == 0, p
                partners.append(j)
            else:
                assert j is None, p
        # every root above the axis is the partner of exactly one below it
        assert sorted(partners) == [i for i, x in enumerate(rs.roots) if x.imag > 0], p


def _bookkeeping_reference(poly: Poly, precision: int):
    """``find_roots``'s roots, multiplicities, residual bound, radius and
    pairing from ``_factor_roots``'s discs by the direct recipe: P
    evaluated again at every root by ``_horner_exact`` on poly.nums, the
    maxima kept as Fractions and the roots sorted by their mpf (Re, Im)."""
    target = precision + numeric.GUARD_BITS
    mp = EvalContext(target).mp
    found = []
    radius = residual = Fraction(0)
    for factor, mult in numeric._squarefree_factors(poly):
        for xr, xi, w, rho, t, _ in numeric._factor_roots(factor.nums, target):
            x = mp.make_mpc((mpmath.libmp.from_man_exp(xr, -w), mpmath.libmp.from_man_exp(xi, -w)))
            found.append((x, mult, None))
            if xi:
                found.append((numeric.exact_conjugate(x), mult, len(found) - 1))
            radius = max(radius, Fraction(rho, 1 << t))
            pr, pi = numeric._horner_exact(poly.nums, xr, xi, w)[:2]
            bound = math.isqrt(pr * pr + pi * pi - 1) + 1 if pr or pi else 0
            residual = max(residual, Fraction(bound, poly.den << w * poly.degree))
    order = sorted(range(len(found)), key=lambda k: (found[k][0].real, found[k][0].imag))
    rank = {k: i for i, k in enumerate(order)}

    def up(q):
        return from_rational(q.numerator, q.denominator, target, round_ceiling)

    return (
        tuple(found[k][0]._mpc_ for k in order),
        tuple(found[k][1] for k in order),
        up(residual),
        up(radius),
        tuple(None if found[k][2] is None else rank[found[k][2]] for k in order),
    )


def _bookkeeping_inputs():
    # content 2, a negative leading coefficient, a root at 0, rational
    # coefficients, theorem polynomials at ell 1 to 40, and f^2 g
    # products, whose residual must be P itself evaluated at the roots
    yield from (Poly((2, 4, 6)), Poly((-6, 0, -2)), Poly((0, 1, -3, 2)),
                Poly((Fraction(1, 3), Fraction(-7, 5), 2)))
    rng = random.Random(3201)
    for ell in (1, 2, 3, 5, 8, 13, 21, 40):
        p = _gosper_poly(*draw_theorem_params(rng, ell)[:2], ell)
        if p.degree:
            yield p
    for _ in range(6):
        f = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [rng.choice((1, 2, -3))])
        g = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [1])
        yield f * f * g


def test_root_bookkeeping_matches_the_direct_recipe():
    # the residual from the certified values times the content, the maxima
    # as integer fractions and the order on exact components give, bit for
    # bit, what evaluating P again and sorting mpf values gives
    seen = set()
    for p in _bookkeeping_inputs():
        rs = find_roots(p, 192)
        got = (
            tuple(x._mpc_ for x in rs.roots),
            rs.multiplicities,
            rs.residual_bound._mpf_,
            rs.inclusion_radius._mpf_,
            rs.conjugate_of,
        )
        assert got == _bookkeeping_reference(p, 192), p
        seen.add(max(rs.multiplicities))
    assert 1 in seen and max(seen) > 1


class TestCertification:
    TARGET = 96

    def _polished(self, nums, x: complex):
        return numeric._polish(nums, numeric._from_complex(x), 53, self.TARGET)

    def test_a_root_found_twice_is_refused(self):
        # (x^2 + 1)(x^2 + 4): i twice, -i and -2i count 2 + 2 like the true
        # roots, so only the disjointness of the discs rejects them
        nums = (Poly((1, 0, 1)) * Poly((4, 0, 1))).nums
        i, i2 = (self._polished(nums, z) for z in (1.001j, 0.999j))
        low, low2 = (self._polished(nums, z) for z in (-1j, -2j))
        assert numeric._certify(nums, [i, i2, low, low2], self.TARGET) is None
        two = self._polished(nums, 2j)
        assert numeric._certify(nums, [i, two, low, low2], self.TARGET)
        # the points below the axis are dropped, so they prove nothing alone
        assert numeric._certify(nums, [low, low2], self.TARGET) is None
        assert numeric._certify(nums, [], self.TARGET) is None

    def test_settle_leaves_at_most_four_units(self):
        nums = Poly((-2, 0, 1)).nums
        xr, xi, w, _ = self._polished(nums, 1.4142)
        xr, xi, w, (pr, pi, dr, di) = numeric._settle(
            nums, xr + 2**20, xi, w, self.TARGET
        )
        assert pr * pr + pi * pi <= 16 * (dr * dr + di * di)


class TestStartPoints:
    def test_newton_polygon_radii(self):
        # (x - 2^10)(x - 2^-10) x: one root at 0, one circle of each radius
        nums = (Poly((-(2**10), 1)) * Poly((-Fraction(1, 2**10), 1)) * Poly.x()).nums
        starts = numeric._start_points(nums)
        assert starts[0] == 0
        assert sorted(abs(z) for z in starts[1:]) == pytest.approx(
            [2.0**-10, 2.0**10], rel=1e-3
        )
        assert all(z.imag != 0 for z in starts[1:])


def _cubic_at(scale: int) -> Poly:
    return Poly((-scale, 1)) * Poly((-2 * scale, 1)) * Poly((-3 * scale, 1))


class TestFindRootsBeyondDoubleRange:
    """Roots beyond 2^+-1000, where doubles cannot hold the polynomial's
    coefficients: the double-precision stage runs on x = 2^s y, and the
    polish and the proof on the polynomial as given."""

    @pytest.mark.parametrize("p, roots", [
        (Poly((-(2**3000), 0, 1)), (-(2**1500), 2**1500)),
        (Poly((1, 0, -(2**3000))), (-Fraction(1, 2**1500), Fraction(1, 2**1500))),
        (_cubic_at(2**1200), (2**1200, 2 * 2**1200, 3 * 2**1200)),
    ], ids=["x^2-2^3000", "1-2^3000x^2", "2^1200(1,2,3)"])
    def test_certified(self, p, roots):
        rs = find_roots(p, 192)
        assert rs.multiplicities == (1,) * len(roots)
        assert all(x.imag == 0 for x in rs.roots)
        for x, want in zip(rs.roots, roots):
            assert abs(x - CTX.to_mp(want)) <= abs(want) * tol(192)
        _independent_certificate(p, rs)

    def test_scale_is_the_middle_of_the_radii(self):
        assert numeric._float_scale(Poly((-(2**3000), 0, 1)).nums) == 1500
        assert numeric._float_scale(Poly((1, 0, -(2**3000))).nums) == -1500
        assert numeric._float_scale(_cubic_at(2**1200).nums) in range(1200, 1203)

    @pytest.mark.parametrize("p", [CLUSTER, PAIR_OFF_AXIS, WILKINSON_20, _cubic_at(2**990)],
                             ids=["cluster", "pair", "wilkinson", "2^990(1,2,3)"])
    def test_in_range_radii_leave_the_polynomial_as_given(self, p):
        assert numeric._float_scale(p.nums) == 0
        assert numeric._scaled(p.nums, 0) == list(p.nums)

    def test_scaled_numerators_are_the_polynomial_at_two_to_the_s_y(self):
        nums = [3, -5, 7, 11]
        y = Fraction(5, 3)
        for s in (-4, 0, 6):
            scaled = Poly.from_numerators(numeric._scaled(nums, s), 1)
            want = Poly.from_numerators(nums, 1)(y * Fraction(2) ** s)
            assert scaled(y) == want * Fraction(2) ** (-min(s, 0) * 3)
