import hashlib
import random
from fractions import Fraction

import mpmath
import pytest
import sympy

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
        # one table per precision, whatever the arguments' size
        _SPOUGE_CACHE.clear()
        rng = random.Random(71)
        for _ in range(100):
            gamma_c(Fraction(rng.randint(1, 400), rng.randint(1, 40)), CTX)
            gamma_c(Fraction(-2 * rng.randint(0, 2**40) - 1, 2 * rng.randint(1, 2**20)), CTX)
        gamma_c(Fraction(5, 2), CTX)
        assert list(_SPOUGE_CACHE) == [CTX.precision]
        gamma_c(Fraction(1, 3), EvalContext(64))
        assert sorted(_SPOUGE_CACHE) == [64, CTX.precision]


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
    assert digest == "6d83aed628559d6b"


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
            r = hyp2f1_num(a, b, c, CTX.mp.mpc(z.real, z.imag), CTX, method=path)
            with mpmath.workprec(320):
                ref = mpmath.hyp2f1(
                    *(mpmath.mpf(p.numerator) / p.denominator for p in (a, b, c)),
                    mpmath.mpc(z.real, z.imag),
                )
                err = abs(mpmath.mpmathify(r.value) - ref)
                assert err <= mpmath.mpmathify(r.est_error), (a, b, c, z)
            count += 1


def _mpc_series(mp, a, b, c, z, target_bits, max_terms):
    """The term recurrence on mpc objects, as a reference for the kernel:
    (total, n_terms, peak) with the kernel's stopping rule."""
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
        if abs(term) <= target * peak:
            small += 1
            if small == 3:
                return total, n, peak
        else:
            small = 0
    raise AssertionError("reference recurrence did not converge")


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
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_mpc_recurrence(self, case):
        a, b, c, z = self.CASES[case]
        mp = CTX.mp
        with CTX.workprec(64):
            total, last, n, peak = _series_2f1(mp, a, b, c, z, 224, 100_000)
        with mp.workprec(448):
            ref, ref_n, ref_peak = _mpc_series(mp, a, b, c, z, 224, 100_000)
            assert n == ref_n
            assert abs(total - ref) <= abs(ref) * mp.mpf(2) ** -200
            assert abs(peak - ref_peak) <= ref_peak * mp.mpf(2) ** -200
            if case == "cancelling":
                assert peak > abs(ref) * 2**20


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
        third = Fraction(1, 3)
        p = Poly((-third, 1)) * Poly((-third - Fraction(1, 2**60), 1)) * Poly((2, 1))
        rs = find_roots(p, 192)
        assert rs.multiplicities == (1, 1, 1)
        assert all(x.imag == 0 for x in rs.roots)
        for x, want in zip(rs.roots, (-2, third, third + Fraction(1, 2**60))):
            assert abs(x - CTX.to_mp(want)) <= tol(192)
        _independent_certificate(p, rs)
        assert escalations and max(escalations) >= 212  # 106 bits cannot split it

    def test_pair_just_off_the_real_axis(self):
        # roots 1 +- 2^-50 i, which double precision sees as a real double root
        p = Poly((1 + Fraction(1, 2**100), -2, 1))
        rs = find_roots(p, 192)
        lower, upper = rs.roots
        assert upper == lower.conjugate()
        assert abs(upper - CTX.mp.mpc(1, CTX.mp.mpf(2) ** -50)) <= tol(192)
        _independent_certificate(p, rs)

    def test_root_below_double_range(self):
        # x^2 + x + 3^-700: the small root, about -3^-700 ~ 1e-334, is 0 in
        # double precision, yet must come back to 2^-192 of its own size
        eps = Fraction(1, 3**700)
        rs = find_roots(Poly((eps, 1, 1)), 192)
        small = max(rs.roots, key=lambda x: x.real)
        with mpmath.workprec(400):
            e = mpmath.mpf(eps.numerator) / eps.denominator
            want = -2 * e / (1 + mpmath.sqrt(1 - 4 * e))
            assert small.imag == 0
            assert abs(small - want) <= abs(want) * mpmath.mpf(2) ** -192

    def test_wilkinson_degree_20(self, escalations):
        p = Poly((1,))
        for k in range(1, 21):
            p = p * Poly((-k, 1))
        rs = find_roots(p, 192)
        assert rs.multiplicities == (1,) * 20
        for k, x in enumerate(rs.roots, 1):
            assert x.imag == 0 and abs(x - k) <= k * tol(192)
        _independent_certificate(p, rs)
        assert escalations

    @pytest.mark.parametrize("ell", [30, 40, 60])
    def test_high_ell_certified(self, ell):
        p = _gosper_poly(Fraction(7, 3), Fraction(5, 11), ell)
        rs = find_roots(p, 192)  # raised NonConvergenceError at ell 40
        assert rs.multiplicities == (1,) * ell
        assert rs.inclusion_radius <= tol(192) * max(abs(x) for x in rs.roots)
        for x in rs.roots:
            if x.imag != 0:
                assert x.conjugate() in rs.roots
        _independent_certificate(p, rs)

    def test_gives_up_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(numeric, "_certify", lambda nums, points, target: None)
        with pytest.raises(NonConvergenceError):
            find_roots(Poly((-2, 0, 1)), 64)


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
