import random
import re
from fractions import Fraction

import pytest

from strangeval import hyp, operators, poly
from strangeval.errors import InternalInconsistencyError, ParameterError
from strangeval.hyp import (
    HypParams,
    QRPair,
    _extract_poly,
    euler_transform_series,
    hyp_series,
    q0_by_reversal,
    q0_r0_by_series,
    series_end,
    series_order,
    terminating_poly,
)
from strangeval.poly import Poly
from strangeval.scalars import poch
from strangeval.series import TruncatedSeries
from strangeval.verify import random_non_integer, random_rational


class TestHypSeries:
    def test_constant_term_is_one(self):
        s = hyp_series(HypParams(Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3)), 5)
        assert s.coeffs[0] == 1

    def test_terminating_instance(self):
        s = hyp_series(HypParams(-1, 1, 3), 3)
        assert s.coeffs == (1, Fraction(-1, 3), 0, 0)

    def test_first_coefficient(self):
        s = hyp_series(HypParams(3, 2, Fraction(3, 2)), 1)
        assert s.coeffs[1] == 4  # ab/c

    def test_pole_before_termination_rejected(self):
        with pytest.raises(ParameterError):
            hyp_series(HypParams(Fraction(1, 2), 1, -2), 5)

    def test_termination_before_pole_allowed(self):
        s = hyp_series(HypParams(-1, 1, -2), 5)
        assert s.coeffs == (1, Fraction(1, 2), 0, 0, 0, 0)
        # the factor (a+1) ends the sum at the term where c+1 = 0
        s = hyp_series(HypParams(-1, -3, -1), 3)
        assert s.coeffs == (1, -3, 0, 0)


class TestTerminatingPoly:
    def test_degree_one_instance(self):
        p = terminating_poly(HypParams(-2, -1, Fraction(1, 2)))
        assert p == Poly((1, 4))

    def test_root_matches_closed_form(self):
        # root of F(1-a, -1, 2-c; x) is (c-2)/(a-1)
        a, c = Fraction(3), Fraction(3, 2)
        p = terminating_poly(HypParams(1 - a, -1, 2 - c))
        lam = (c - 2) / (a - 1)
        assert p(lam) == 0 and lam == Fraction(-1, 4)

    def test_unit_when_a_is_one(self):
        for c in (Fraction(1, 2), Fraction(7, 3)):
            for ell in (1, 3, 5):
                assert terminating_poly(HypParams(0, -ell, 2 - c)) == Poly.one()

    def test_requires_nonpositive_integer_b(self):
        with pytest.raises(ParameterError):
            terminating_poly(HypParams(1, Fraction(1, 2), 2))

    def test_either_terminating_parameter_in_the_b_slot(self):
        # a = -1 ends the sum where c = -1 reaches its pole, in either slot
        for a, b in ((-1, -3), (-3, -1)):
            assert terminating_poly(HypParams(a, b, -1)) == Poly((1, -3))

    def test_pole_in_range_rejected(self):
        with pytest.raises(ParameterError):
            terminating_poly(HypParams(Fraction(1, 3), -3, -1))

    def test_ending_parameter_in_either_slot(self):
        # against the term ratio summed on Fractions until a factor ends it
        rng = random.Random(32)
        for _ in range(150):
            m = rng.randint(0, 8)
            other = (Fraction(-rng.randint(0, 8)) if rng.random() < 0.3
                     else random_rational(rng, 12, 7))
            c = random_non_integer(rng, 12, 7)
            coeffs, term, k = [], Fraction(1), 0
            while term:
                coeffs.append(term)
                term *= (-m + k) * (other + k) / ((c + k) * (k + 1))
                k += 1
            for p in (HypParams(-m, other, c), HypParams(other, -m, c)):
                assert terminating_poly(p) == Poly(coeffs)

    def test_neither_slot_ending_rejected(self):
        with pytest.raises(ParameterError, match="neither upper parameter"):
            terminating_poly(HypParams(Fraction(1, 2), 3, Fraction(1, 3)))


def _scan_end(A, B, C, d, order):
    """Where F(A/d, B/d, C/d; x) ends, walking its factors term by term:
    the index of the first zero upper factor, "pole" when a zero lower
    factor comes first (and before ``order``), or None."""
    for k in range(64):
        if (A + k * d) * (B + k * d) == 0:
            return k
        if C + k * d == 0 and (order is None or k < order):
            return "pole"
    return None


class TestSeriesEnd:
    def test_matches_a_term_by_term_scan(self):
        # seeded integer triples over d: the sum ends in a, in b, in both or
        # in neither, and c's pole comes before, at or after that end, or
        # only at or past the order
        rng = random.Random(30)
        seen = set()
        for _ in range(3000):
            d = rng.randint(1, 4)
            A, B, C = (
                -rng.randint(0, 10) * d if rng.random() < 0.5 else rng.randint(-30, 30)
                for _ in range(3)
            )
            order = None if rng.random() < 0.5 else rng.randint(0, 12)
            want = _scan_end(A, B, C, d, order)
            try:
                got = series_end(A, B, C, d, order)
            except ParameterError as exc:
                assert "does not terminate before the pole" in str(exc)
                got = "pole"
            assert got == want, (A, B, C, d, order)
            ka, kb, pole = (next((k for k in range(64) if x + k * d == 0), None)
                            for x in (A, B, C))
            end = min((k for k in (ka, kb) if k is not None), default=None)
            where = ("none" if pole is None else "before" if end is None or pole < end
                     else "at" if pole == end else "after")
            if where == "before" and order is not None and pole >= order:
                where = "past order"
            which = {(False, False): "neither", (True, False): "a", (False, True): "b",
                     (True, True): "both"}[ka is not None, kb is not None]
            seen.add((which, where, order is None))
        for which in ("a", "b", "both"):
            for where in ("none", "before", "at", "after"):
                assert (which, where, True) in seen and (which, where, False) in seen
        for where in ("none", "before"):
            assert ("neither", where, True) in seen and ("neither", where, False) in seen
        assert any(w == "past order" for _, w, _ in seen)


class TestQ0R0BySeries:
    def test_ell_one_is_unit_pair(self):
        qr = q0_r0_by_series(HypParams(3, 1, Fraction(3, 2)), 1)
        assert qr.q0 == Poly.one() and qr.r0 == Poly.one()

    def test_ell_two_closed_form(self):
        a, c = Fraction(3), Fraction(3, 2)
        qr = q0_r0_by_series(HypParams(a, 1, c), 2)
        assert qr.q0 == Poly((4 - c, a - 2))
        assert qr.r0 == Poly((2, a - 2))

    def test_r0_constant_term_is_factorial(self, param_pool):
        for a, c in param_pool[:12]:
            for ell in (1, 2, 3, 4):
                qr = q0_r0_by_series(HypParams(a, 1, c), ell)
                assert qr.r0.coefficient(0) == poch(1, ell)

    def test_degree_bounds(self, param_pool):
        for a, c in param_pool[:20]:
            for ell in (1, 2, 3):
                qr = q0_r0_by_series(HypParams(a, 1, c), ell)
                for p in (qr.q0, qr.r0):
                    assert p.is_zero() or p.degree <= ell - 1

    def test_rejects_integer_c(self):
        with pytest.raises(ParameterError):
            q0_r0_by_series(HypParams(Fraction(1, 2), 1, 2), 1)

    def test_rejects_small_order(self):
        with pytest.raises(ParameterError):
            q0_r0_by_series(HypParams(Fraction(1, 2), 1, Fraction(1, 2)), 2, order=10)

    def test_nonzero_tail_raises(self):
        series = TruncatedSeries((1, 2, 0, Fraction(1, 3), 0), 4)
        assert _extract_poly(series.truncate(2), 2, "combo") == Poly((1, 2))
        with pytest.raises(InternalInconsistencyError) as err:
            _extract_poly(series, 2, "combo")
        assert str(err.value) == (
            "combo: coefficient of x^3 is 1/3, expected exact 0 "
            "(tail must vanish through x^4)"
        )

    def test_tail_vanishes_with_margin(self, param_pool):
        # recompute the combinations at a deeper order and confirm the
        # extraction still succeeds (it asserts zero tails internally)
        for a, c in param_pool[:10]:
            for ell in (1, 4, 6):
                qr_deep = q0_r0_by_series(HypParams(a, 1, c), ell, order=ell + 40)
                qr = q0_r0_by_series(HypParams(a, 1, c), ell)
                assert qr_deep.q0 == qr.q0 and qr_deep.r0 == qr.r0


class TestQ0R0GeneralB:
    def test_q0_constant_term(self):
        b, ell, c = Fraction(1), 2, Fraction(1, 2)
        qr = q0_r0_by_series(HypParams(5, b, c), ell)
        expected = (poch(b + 1 - c, ell) - poch(b, ell)) / (1 - c)
        assert qr.q0.coefficient(0) == expected == Fraction(7, 2)

    def test_r0_constant_term(self):
        qr = q0_r0_by_series(HypParams(5, 2, Fraction(1, 2)), 3)
        assert qr.r0.coefficient(0) == poch(2, 3) == 24

    def test_general_b_constant_terms_random(self, param_pool):
        for (a, c), b_num in zip(param_pool[:8], range(-3, 5)):
            b = Fraction(b_num, 2)
            qr = q0_r0_by_series(HypParams(a, b, c), 2)
            assert qr.r0.coefficient(0) == poch(b, 2)
            assert qr.q0.coefficient(0) == (poch(b + 1 - c, 2) - poch(b, 2)) / (1 - c)


def _series_reference(p: HypParams, ell: int) -> QRPair:
    """The series route's combinations formed in ``TruncatedSeries``
    arithmetic, a canonical series after every product, scale and sum."""
    a, b, c = p.a, p.b, p.c
    order, one_minus_c = series_order(ell), 1 - c
    f1 = hyp_series(HypParams(c - a, c - b - ell, c), order)
    f4 = hyp_series(HypParams(1 - a, 1 - b - ell, 2 - c), order)
    q0 = (f1 * hyp_series(HypParams(a + 1 - c, b + 1 - c, 2 - c), order)).scale(
        -poch(b, ell) / one_minus_c
    ) + (hyp_series(HypParams(a, b, c), order) * f4).scale(
        poch(b + 1 - c, ell) / one_minus_c
    )
    r0 = (f1 * hyp_series(HypParams(a + 1 - c, b + 1 - c, 1 - c), order)).scale(
        poch(b, ell)
    ) + (hyp_series(HypParams(a + 1, b + 1, c + 1), order) * f4).shift_up(1).scale(
        -a * b * poch(b + 1 - c, ell) / (c * one_minus_c)
    )
    return QRPair(
        _extract_poly(q0, ell, "q0 series combination"),
        _extract_poly(r0, ell, "r0 series combination"),
        ell,
    )


def _seeded_triples(seed: int, count: int) -> list:
    """(a, b, c, ell) with general b (a quarter of them integers, some
    nonpositive), c never an integer and ell from 1 to 40."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        b = Fraction(rng.randint(-6, 3)) if k % 4 == 0 else random_rational(rng)
        ell = rng.randint(1, 40) if k % 3 else rng.randint(1, 8)
        out.append((random_rational(rng), b, random_non_integer(rng), ell))
    return out


class TestSeriesRouteOnIntegers:
    def test_matches_truncated_series_reference(self):
        for a, b, c, ell in _seeded_triples(20261020, 64):
            p = HypParams(a, b, c)
            assert q0_r0_by_series(p, ell) == _series_reference(p, ell), (a, b, c, ell)

    @pytest.mark.parametrize(
        "which, combo",
        [("f1", "q0"), ("f4", "q0"), ("g2", "q0"), ("f3", "q0"), ("g5", "r0"),
         ("f6", "r0")],
    )
    def test_perturbed_series_coefficient_raises(self, monkeypatch, which, combo):
        a, b, c, ell = Fraction(7, 3), Fraction(3, 4), Fraction(5, 11), 6
        target = {
            "f1": HypParams(c - a, c - b - ell, c),
            "f4": HypParams(1 - a, 1 - b - ell, 2 - c),
            "g2": HypParams(a + 1 - c, b + 1 - c, 2 - c),
            "f3": HypParams(a, b, c),
            "g5": HypParams(a + 1 - c, b + 1 - c, 1 - c),
            "f6": HypParams(a + 1, b + 1, c + 1),
        }[which]
        exact = hyp._hyp_poly

        def perturbed(p, order):
            f = exact(p, order)
            return f + Poly.x() ** ell * Fraction(1, 7) if p == target else f

        monkeypatch.setattr(hyp, "_hyp_poly", perturbed)
        with pytest.raises(InternalInconsistencyError) as err:
            q0_r0_by_series(HypParams(a, b, c), ell)
        assert re.fullmatch(
            rf"{combo} series combination: coefficient of x\^\d+ is -?\d+(/\d+)?, "
            rf"expected exact 0 \(tail must vanish through x\^{series_order(ell)}\)",
            str(err.value),
        ), str(err.value)


@pytest.fixture
def canonical_calls(monkeypatch):
    """The number of ``poly._canonical`` calls so far, as a list's length."""
    calls = []
    canonical = poly._canonical

    def counting(nums, den):
        calls.append(den)
        return canonical(nums, den)

    monkeypatch.setattr(poly, "_canonical", counting)
    return calls


@pytest.mark.parametrize(
    "route",
    [hyp.q0_r0_by_series, operators.h_remainder],
    ids=["q0_r0_by_series", "h_remainder"],
)
@pytest.mark.parametrize(
    "params",
    [HypParams(Fraction(7, 3), 1, Fraction(5, 11)),
     HypParams(Fraction(-2, 5), Fraction(3, 4), Fraction(3, 7))],
    ids=["b=1", "b=3/4"],
)
def test_canonical_forms_do_not_grow_with_ell(canonical_calls, route, params):
    # the exact q0 routes work on integer vectors over one running
    # denominator and canonicalise only what they return, so the number
    # of canonical forms they build is the same at every ell; the series
    # route's are its six series and its two results
    counts = []
    for ell in (5, 40):
        canonical_calls.clear()
        route(params, ell)
        counts.append(len(canonical_calls))
    assert counts[1] <= counts[0], counts
    if route is hyp.q0_r0_by_series:
        assert counts == [8, 8]


class TestQ0ByReversal:
    def test_ell_one(self):
        p = q0_by_reversal(HypParams(Fraction(1, 2), 1, Fraction(1, 3)), 1)
        assert p == Poly.one()

    def test_ell_two_matches_series(self):
        params = HypParams(Fraction(1, 2), 1, Fraction(1, 3))
        rev = q0_by_reversal(params, 2)
        assert rev == Poly((Fraction(11, 3), Fraction(-3, 2)))
        assert rev == q0_r0_by_series(params, 2).q0

    def test_cross_method_equality(self, noninteger_pool):
        for a, c in noninteger_pool[:20]:
            for ell in (1, 2, 3, 4):
                params = HypParams(a, 1, c)
                assert q0_by_reversal(params, ell) == q0_r0_by_series(params, ell).q0

    def test_degree_exactly_ell_minus_one(self, noninteger_pool):
        for a, c in noninteger_pool[:15]:
            for ell in (1, 2, 3, 5):
                assert q0_by_reversal(HypParams(a, 1, c), ell).degree == ell - 1

    def test_rejects_integer_a(self):
        with pytest.raises(ParameterError):
            q0_by_reversal(HypParams(3, 1, Fraction(1, 2)), 2)

    def test_rejects_b_other_than_one(self):
        with pytest.raises(ParameterError, match="requires b = 1"):
            q0_by_reversal(HypParams(Fraction(1, 2), 2, Fraction(1, 3)), 2)


class TestEulerTransform:
    def test_constant_terms_agree(self):
        p = HypParams(Fraction(1, 2), Fraction(1, 3), Fraction(5, 7))
        assert euler_transform_series(p, 0).coeffs[0] == 1

    def test_integer_instance(self):
        p = HypParams(1, 1, 2)
        assert hyp_series(p, 8).matches(euler_transform_series(p, 8))

    def test_rational_instance(self):
        p = HypParams(Fraction(1, 2), Fraction(1, 3), Fraction(5, 7))
        assert hyp_series(p, 32).matches(euler_transform_series(p, 32))

    def test_randomized_euler_identity(self, param_pool):
        for (a, c), (b, _) in zip(param_pool[:12], param_pool[12:24]):
            p = HypParams(a, b, c)
            assert hyp_series(p, 48).matches(euler_transform_series(p, 48))


class TestContiguityRelation:
    def test_b_shift_relation(self, param_pool):
        # (x d/dx + b) F(a, b, c; x) = b F(a, b+1, c; x), coefficientwise:
        # (n + b) f_n = b g_n
        for (a, c), (b, _) in zip(param_pool[:12], param_pool[24:36]):
            f = hyp_series(HypParams(a, b, c), 48)
            g = hyp_series(HypParams(a, b + 1, c), 48)
            for n in range(49):
                assert (n + b) * f.coeffs[n] == b * g.coeffs[n]
