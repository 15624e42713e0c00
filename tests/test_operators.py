import dataclasses
import random
from fractions import Fraction

import pytest

from strangeval.errors import ParameterError, UnsupportedOperatorError
from strangeval.hyp import HypParams, hyp_series, q0_r0_by_series, terminating_poly
from strangeval.operators import (
    DiffOp,
    apply_to_genseries,
    build_H,
    build_L,
    factor_remainder,
    genericity_flags,
    h_remainder,
    ore_mul,
    right_reduce,
)
from strangeval.poly import Poly, RatFunc
from strangeval.scalars import poch
from strangeval.series import GenSeries, TruncatedSeries
from strangeval.verify import random_rational

X = Poly.x()
X_ONE_MINUS_X = Poly((0, 1, -1))


def D():
    return DiffOp((RatFunc.zero(), RatFunc.one()))


def xD():
    return DiffOp((RatFunc.zero(), RatFunc(X)))


class TestBuildL:
    def test_ab_zero(self):
        L = build_L(HypParams(0, 0, 1))
        assert L.coefficient(2) == RatFunc.one()
        assert L.coefficient(1) == RatFunc(Poly.one(), X)
        assert L.coefficient(0).is_zero()

    def test_explicit_instance(self):
        L = build_L(HypParams(3, 1, Fraction(3, 2)))
        assert L.coefficient(1) == RatFunc(Poly((Fraction(3, 2), -5)), X_ONE_MINUS_X)
        assert L.coefficient(0) == RatFunc(Poly((-3,)), X_ONE_MINUS_X)

    def test_monic_in_d(self, param_pool):
        for a, c in param_pool[:6]:
            assert build_L(HypParams(a, a + c, c)).coefficient(2) == RatFunc.one()


class TestBuildH:
    def test_first_order(self):
        assert build_H(1, 1) == DiffOp((RatFunc.one(), RatFunc(X)))

    def test_second_order(self):
        H = build_H(1, 2)
        assert H == DiffOp(
            (RatFunc(Poly((2,))), RatFunc(X * 4), RatFunc(Poly((0, 0, 1))))
        )

    def test_general_b_first_order(self):
        b = Fraction(5, 7)
        assert build_H(b, 1) == DiffOp((RatFunc(Poly((b,))), RatFunc(X)))

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ParameterError):
            build_H(1, 0)


class TestOreMul:
    def test_commutation_rule(self):
        # D x = x D + 1
        x_op = DiffOp((RatFunc(X),))
        assert ore_mul(D(), x_op) == DiffOp((RatFunc.one(), RatFunc(X)))

    def test_xd_squared(self):
        assert ore_mul(xD(), xD()) == DiffOp(
            (RatFunc.zero(), RatFunc(X), RatFunc(Poly((0, 0, 1))))
        )

    def test_identity(self):
        A = build_H(Fraction(2, 3), 2)
        assert ore_mul(A, DiffOp.one()) == A
        assert ore_mul(DiffOp.one(), A) == A

    def test_associativity(self):
        A = build_H(Fraction(1, 2), 2)
        B = build_L(HypParams(Fraction(1, 3), 1, Fraction(2, 5)))
        C = xD()
        assert ore_mul(ore_mul(A, B), C) == ore_mul(A, ore_mul(B, C))

    def test_zero(self):
        assert ore_mul(DiffOp.zero(), xD()).is_zero()


class TestRightReduce:
    def test_order_one_dividend(self):
        red = right_reduce(build_H(1, 1), build_L(HypParams(Fraction(1, 2), 1, Fraction(1, 3))))
        assert red.quotient.is_zero()
        assert red.q == RatFunc(X)
        assert red.r == RatFunc.one()

    def test_order_two_dividend(self):
        a, c = Fraction(3), Fraction(3, 2)
        red = right_reduce(build_H(1, 2), build_L(HypParams(a, 1, c)))
        one_minus_x = Poly((1, -1))
        assert red.q == RatFunc(X * Poly((4 - c, a - 2)), one_minus_x)
        assert red.r == RatFunc(Poly((2, a - 2)), one_minus_x)
        assert red.quotient == DiffOp((RatFunc(Poly((0, 0, 1))),))

    def test_reconstruction(self, param_pool):
        for a, c in param_pool[:6]:
            L = build_L(HypParams(a, 1, c))
            for ell in range(1, 7):
                H = build_H(1, ell)
                red = right_reduce(H, L)
                assert red.reconstruct(L) == H

    def test_rejects_low_order_divisor(self):
        with pytest.raises(ParameterError):
            right_reduce(build_H(1, 2), xD())

    def test_rejects_non_monic_divisor(self):
        L = build_L(HypParams(Fraction(1, 2), 1, Fraction(1, 3)))
        with pytest.raises(ParameterError):
            right_reduce(build_H(1, 3), L.scale(RatFunc(2)))


class TestHRemainder:
    def test_ell_one(self):
        # H(1) = xD + b is its own remainder
        q, r = h_remainder(HypParams(Fraction(2, 7), Fraction(-3, 4), Fraction(1, 3)), 1)
        assert q == RatFunc(X) and r == RatFunc(Poly((Fraction(-3, 4),)))

    def test_rejects_bad_ell(self):
        with pytest.raises(ParameterError):
            h_remainder(HypParams(Fraction(1, 2), 1, Fraction(1, 3)), 0)

    def test_matches_right_reduce(self, param_pool):
        # the recurrence against full right division, b = 0 and b = -2
        # (nonpositive integers) included
        rng = random.Random(7_070_707)
        bs = [Fraction(1), Fraction(2), Fraction(0), Fraction(-2), Fraction(1, 2),
              Fraction(-3, 7)]
        bs += [random_rational(rng, 9, 9) for _ in range(3)]
        for (a, c), b in zip(param_pool[40:], bs):
            params = HypParams(a, b, c)
            L = build_L(params)
            for ell in range(1, 9):
                red = right_reduce(build_H(b, ell), L)
                assert h_remainder(params, ell) == (red.q, red.r), (a, b, c, ell)


def _h_remainder_reference(p: HypParams, ell: int):
    """``h_remainder``'s recurrence in ``Poly`` arithmetic, a canonical
    polynomial after every product and sum."""
    a, b, c = p.a, p.b, p.c
    Q, R = Poly.zero(), Poly.one()
    for k in range(ell):
        Q, R = (
            X_ONE_MINUS_X * (Q.derivative() + R) + Poly((b + k - c, a + 1)) * Q,
            X_ONE_MINUS_X * R.derivative() + Poly((b + k, -b)) * R + Q * (a * b),
        )
    return RatFunc._of(Q, 0, ell), RatFunc._of(R, 0, ell)


class TestHRemainderOnIntegers:
    def test_matches_poly_reference(self, param_pool):
        rng = random.Random(20261021)
        for k, (a, c) in enumerate(param_pool[100:160]):
            b = Fraction(rng.randint(-6, 3)) if k % 4 == 0 else random_rational(rng)
            ell = 1 + k % 40
            params = HypParams(a, b, c)
            got, want = h_remainder(params, ell), _h_remainder_reference(params, ell)
            assert [(f.poly, f.i, f.j) for f in got] == [
                (f.poly, f.i, f.j) for f in want
            ], (a, b, c, ell)


class TestFactorRemainder:
    def test_unit_case(self):
        red = right_reduce(build_H(1, 1), build_L(HypParams(Fraction(2, 7), 1, Fraction(1, 3))))
        fac = factor_remainder(red.q, red.r, 1)
        assert (fac.v0, fac.v1, fac.g) == (1, 0, 0)
        assert (fac.w0, fac.w1, fac.h) == (0, 0, 0)
        assert fac.q0 == Poly.one() and fac.r0 == Poly.one()

    def test_generic_exponent_pattern(self, noninteger_pool):
        checked = 0
        for a, c in noninteger_pool:
            for ell in (2, 3, 4, 10):
                params = HypParams(a, 1, c)
                if not genericity_flags(params, ell).generic_apart_from_b():
                    continue
                red = right_reduce(build_H(1, ell), build_L(params))
                fac = factor_remainder(red.q, red.r, ell)
                assert (fac.v0, fac.v1, fac.g) == (1, 1 - ell, ell - 1)
                assert (fac.w0, fac.w1, fac.h) == (0, 1 - ell, ell - 1)
                checked += 1
            if checked >= 24:
                break
        assert checked >= 24

    def test_degenerate_degree_drop(self):
        # a = 2, ell = 2: the (a-2) x coefficient vanishes, g drops to 0
        red = right_reduce(build_H(1, 2), build_L(HypParams(2, 1, Fraction(1, 2))))
        fac = factor_remainder(red.q, red.r, 2)
        assert fac.g == 0
        assert fac.q0 == Poly((4 - Fraction(1, 2),))
        assert fac.canonical_qr().q0 == Poly((Fraction(7, 2),))

    def test_exponents_are_integers_and_degrees_are_read_off(self):
        # seeded draws, a third of them at b = 0, where the remainder's r is 0
        rng = random.Random(34)
        zero_remainders = 0
        for k in range(30):
            b = 0 if k % 3 == 0 else random_rational(rng)
            params = HypParams(random_rational(rng), b, random_rational(rng))
            ell = 1 + k % 6
            fac = factor_remainder(*h_remainder(params, ell), ell)
            assert all(type(e) is int for e in (fac.v0, fac.v1, fac.w0, fac.w1)), (params, ell)
            assert (fac.g, fac.h) == (fac.q0.degree, fac.r0.degree), (params, ell)
            zero_remainders += fac.r0.is_zero()
        assert zero_remainders >= 10
        fac = factor_remainder(RatFunc.zero(), RatFunc.zero(), 2)
        assert (fac.v0, fac.v1, fac.g, fac.w0, fac.w1, fac.h) == (0, 0, None, 0, 0, None)
        assert not {f.name for f in dataclasses.fields(fac)} & {"g", "h"}

    def test_oracle_equivalence_b1(self, param_pool):
        cases = [(a, c, ell) for a, c in param_pool[:20] for ell in range(1, 7)]
        cases += [(a, c, ell) for a, c in param_pool[:3] for ell in (8, 10, 12)]
        for a, c, ell in cases:
            params = HypParams(a, 1, c)
            qr = q0_r0_by_series(params, ell)
            red = right_reduce(build_H(1, ell), build_L(params))
            canon = factor_remainder(red.q, red.r, ell).canonical_qr()
            assert canon.q0 == qr.q0
            assert canon.r0 == qr.r0

    def test_oracle_equivalence_general_b(self, param_pool):
        bs = [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3), Fraction(2)]
        for (a, c), b in zip(param_pool[:8], bs * 2):
            for ell in (1, 2, 3, 6):
                params = HypParams(a, b, c)
                qr = q0_r0_by_series(params, ell)
                red = right_reduce(build_H(b, ell), build_L(params))
                canon = factor_remainder(red.q, red.r, ell).canonical_qr()
                assert canon.q0 == qr.q0
                assert canon.r0 == qr.r0


class TestApplyToGenSeries:
    def test_power_shift(self):
        # (xD + b) x^(1-c) = (1 - c + b) x^(1-c)
        b, c = Fraction(2, 3), Fraction(1, 5)
        op = DiffOp((RatFunc(Poly((b,))), RatFunc(X)))
        g = GenSeries(1 - c, 0, TruncatedSeries.one(8))
        out = apply_to_genseries(op, g)
        assert out.matches(GenSeries(1 - c, 0, TruncatedSeries.one(8).scale(1 - c + b)), 4)

    def test_constant_action(self):
        b = Fraction(3, 4)
        op = DiffOp((RatFunc(Poly((b,))), RatFunc(X)))
        g = GenSeries(0, 0, TruncatedSeries.one(6))
        out = apply_to_genseries(op, g)
        assert out.matches(GenSeries(0, 0, TruncatedSeries.one(6).scale(b)), 3)

    def test_contiguity_on_second_solution_family(self):
        # (xD+b) x^(1-c) (1-x)^(c-a-b) F(1-a, 1-b, 2-c; x)
        #   = (b+1-c) x^(1-c) (1-x)^(c-a-b-1) F(1-a, -b, 2-c; x)
        a, b, c = Fraction(1, 2), Fraction(1), Fraction(1, 3)
        N = 32
        op = DiffOp((RatFunc(Poly((b,))), RatFunc(X)))
        g = GenSeries(1 - c, c - a - b, hyp_series(HypParams(1 - a, 1 - b, 2 - c), N))
        lhs = apply_to_genseries(op, g)
        rhs = GenSeries(
            1 - c, c - a - b - 1,
            hyp_series(HypParams(1 - a, -b, 2 - c), N).scale(b + 1 - c),
        )
        assert lhs.matches(rhs, N - 1)

    def test_shift_action_on_first_solution(self, param_pool):
        # H_1(l) F(a, 1, c; x) = (1, l) F(a, 1+l, c; x)
        N = 40
        for a, c in param_pool[:8]:
            for ell in (1, 2, 3):
                lhs = apply_to_genseries(
                    build_H(1, ell),
                    GenSeries(0, 0, hyp_series(HypParams(a, 1, c), N)),
                )
                rhs = GenSeries(
                    0, 0, hyp_series(HypParams(a, 1 + ell, c), N).scale(poch(1, ell))
                )
                assert lhs.matches(rhs, N - ell)

    def test_action_on_second_solution(self, param_pool):
        # H_1(l) y2 = (2-c, l) y2 (1-x)^(-l) F(1-a, -l, 2-c; x)
        N = 40
        for a, c in param_pool[8:16]:
            for ell in (1, 2, 3):
                y2 = GenSeries(1 - c, c - a - 1, TruncatedSeries.one(N))
                lhs = apply_to_genseries(build_H(1, ell), y2)
                tp = terminating_poly(HypParams(1 - a, -ell, 2 - c))
                rhs = GenSeries(
                    1 - c, c - a - 1 - ell,
                    TruncatedSeries.from_poly(tp, N).scale(poch(2 - c, ell)),
                )
                assert lhs.matches(rhs, N - ell)

    def test_general_b_cascade(self, param_pool):
        # H(b, l) x^(1-c) (1-x)^(c-a-b) F(1-a, 1-b, 2-c; x)
        #   = (b+1-c, l) x^(1-c) (1-x)^(c-a-b-l) F(1-a, 1-b-l, 2-c; x)
        N = 32
        bs = [Fraction(3, 2), Fraction(2, 5), Fraction(-1, 3)]
        for (a, c), b in zip(param_pool[16:22], bs * 2):
            for ell in (1, 2, 3):
                g = GenSeries(
                    1 - c, c - a - b, hyp_series(HypParams(1 - a, 1 - b, 2 - c), N)
                )
                lhs = apply_to_genseries(build_H(b, ell), g)
                rhs = GenSeries(
                    1 - c, c - a - b - ell,
                    hyp_series(HypParams(1 - a, 1 - b - ell, 2 - c), N).scale(
                        poch(b + 1 - c, ell)
                    ),
                )
                assert lhs.matches(rhs, N - ell)

    def test_rejects_foreign_denominator(self):
        # a coefficient like 1/(1+x) is refused before any operator holds it
        with pytest.raises(UnsupportedOperatorError):
            RatFunc(Poly.one(), Poly((1, 1)))

    def test_respects_order_cap(self):
        g = GenSeries(0, 0, TruncatedSeries.one(30))
        out = apply_to_genseries(build_H(1, 2), g, order=10)
        assert out.body.order <= 12  # cap applied before differentiating


class TestGenericityFlags:
    def test_integer_parameters_break_a1(self):
        flags = genericity_flags(HypParams(3, 1, Fraction(3, 2)), 2)
        assert not flags.a1
        assert not flags.details["a"] and not flags.details["b"]

    def test_e1_instance(self):
        flags = genericity_flags(HypParams(5, 1, Fraction(1, 2)), 2)
        # (1,2) - (3/2, 2) = 2 - 15/4 != 0
        assert flags.e1

    def test_e2_vacuous_for_higher_order(self):
        assert genericity_flags(HypParams(5, 1, Fraction(1, 2)), 2).e2p

    def test_e2_division_by_zero_annotated(self):
        flags = genericity_flags(HypParams(0, 1, Fraction(1, 2)), 1)
        assert not flags.e2p
        assert flags.note is not None

    def test_e2_nontrivial_failure(self):
        # ell = 1 and (b+1,0)/a == (c-a,0)/(c-b-1), i.e. a = c - b - 1
        flags = genericity_flags(
            HypParams(Fraction(1, 2), Fraction(1, 3), Fraction(11, 6)), 1
        )
        assert not flags.e2p

    def test_generic_apart_from_b(self):
        flags = genericity_flags(HypParams(Fraction(1, 5), 1, Fraction(1, 2)), 3)
        assert not flags.a1  # b = 1 is an integer
        assert flags.generic_apart_from_b()
