"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import json
import random
import time
from fractions import Fraction

import mpmath
import pytest

from strangeval.cli import main as cli_main
from strangeval.hyp import (
    HypParams,
    euler_transform_series,
    hyp_series,
    q0_by_reversal,
    q0_r0_by_series,
    terminating_poly,
)
from strangeval.numeric import EvalContext
from strangeval.operators import (
    apply_to_genseries,
    build_H,
    build_L,
    factor_remainder,
    genericity_flags,
    h_remainder,
    right_reduce,
)
from strangeval.poly import Poly
from strangeval.scalars import is_integer, poch
from strangeval.series import GenSeries, TruncatedSeries, binomial_series
from strangeval.verify import gosper_check, random_non_integer, random_rational

CTX = EvalContext(192)


def report(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS — {detail}")


@pytest.fixture(scope="module")
def triple_runs():
    """The 200 seeded (a, c, ell) runs shared by criteria 3, 4, and 6."""
    rng = random.Random(1_202_408)
    runs = []
    for i in range(200):
        a = random_rational(rng)
        c = random_non_integer(rng)
        ell = i % 6 + 1
        params = HypParams(a, 1, c)
        qr = q0_r0_by_series(params, ell)
        red = right_reduce(build_H(1, ell), build_L(params))
        fac = factor_remainder(red.q, red.r, ell)
        runs.append((a, c, ell, params, qr, fac, red))
    return runs


def test_criterion_1_closed_forms_ell_one(capsys):
    start = time.perf_counter()
    code = cli_main(["verify", "--a", "3", "--c", "3/2", "--ell", "1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start
    assert code == 0
    (record,) = payload["records"]
    assert not record["skipped"]
    residuals = [mpmath.mpf(ch["residual"]) for ch in record["checks"]]
    assert all(r <= mpmath.mpf(1e-40) for r in residuals)

    # pin the two closed-form values independently
    mp = CTX.mp
    shifted, reflected = record["checks"]
    assert abs(mpmath.mpf(shifted["lhs"]) - mpmath.mpf(2) / 5) <= mpmath.mpf(1e-40)
    expected = mp.mpf(1) / 2 * (mp.mpf(5) / 4) ** (mp.mpf(5) / 2)
    assert abs(mpmath.mpf(reflected["lhs"]) - mpmath.mpf(str(expected))) <= mpmath.mpf(1e-38)
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, "ell=1 closed forms",
               f"residuals {[mpmath.nstr(r, 3) for r in residuals]}, {elapsed:.3f}s")


def test_criterion_2_gosper_identity(capsys):
    start = time.perf_counter()
    for a, b in [(1, 1), (2, 1), (3, 2)]:
        rep = gosper_check(a, b)
        assert rep.exact and rep.residual == 0

    rng = random.Random(777_202)
    checked = 0
    worst = CTX.mp.mpf(0)
    while checked < 25:
        a = random_non_integer(rng)  # non-integer a: the series cannot terminate
        b = random_rational(rng)
        if a + b == 0:
            continue
        z = b / (a + b)
        if z >= 1 or abs(z) > 50:  # off the cut, inside the term budget
            continue
        if is_integer(b + 2) and b + 2 <= 0:
            continue
        rep = gosper_check(a, b, tolerance=1e-40)
        assert rep.residual <= CTX.mp.mpf(1e-40), (a, b)
        worst = max(worst, rep.residual)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    with capsys.disabled():
        report(2, "Gosper identity",
               f"3 exact zeros, 25 random draws worst residual "
               f"{mpmath.nstr(worst, 3)}, {elapsed:.2f}s")


def test_criterion_3_triple_agreement(triple_runs, capsys):
    start = time.perf_counter()
    reversal_checked = 0
    for a, c, ell, params, qr, fac, red in triple_runs:
        # the remainder recurrence is the division's remainder, exactly
        assert h_remainder(params, ell) == (red.q, red.r), (a, c, ell)
        canon = fac.canonical_qr()
        assert canon.q0 == qr.q0 and canon.r0 == qr.r0, (a, c, ell)
        if not is_integer(a):
            assert q0_by_reversal(params, ell) == qr.q0, (a, c, ell)
            reversal_checked += 1

    # anchors: ell = 1 gives the unit pair, ell = 2 the explicit pair
    for a, c in [(Fraction(3), Fraction(3, 2)), (Fraction(-5, 7), Fraction(9, 4))]:
        qr1 = q0_r0_by_series(HypParams(a, 1, c), 1)
        assert qr1.q0 == Poly.one() and qr1.r0 == Poly.one()
        qr2 = q0_r0_by_series(HypParams(a, 1, c), 2)
        assert qr2.q0 == Poly((4 - c, a - 2)) and qr2.r0 == Poly((2, a - 2))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        report(3, "q0/r0 triple agreement",
               f"200 runs, reversal on {reversal_checked}, {elapsed:.2f}s")


def test_criterion_4_tail_vanishing(triple_runs, capsys):
    start = time.perf_counter()
    coefficients_checked = 0
    for a, c, ell, params, qr, _, _ in triple_runs:
        order = ell + 24
        tpoly = TruncatedSeries.from_poly(
            terminating_poly(HypParams(1 - a, -ell, 2 - c)), order
        )
        one_minus_c = 1 - c
        q_combo = binomial_series(c - a - 1, order) * hyp_series(
            HypParams(c - a, c - 1 - ell, c), order
        )
        q_combo = q_combo.scale(-poch(1, ell) / one_minus_c) + (
            hyp_series(HypParams(a, 1, c), order) * tpoly
        ).scale(poch(2 - c, ell) / one_minus_c)

        r_combo = (
            hyp_series(HypParams(c - a, c - 1 - ell, c), order)
            * hyp_series(HypParams(a + 1 - c, 2 - c, 1 - c), order)
        ).scale(poch(1, ell)) + (
            hyp_series(HypParams(a + 1, 2, c + 1), order) * tpoly
        ).shift_up(1).scale(-a * poch(2 - c, ell) / (c * one_minus_c)).truncate(order)

        for combo in (q_combo, r_combo):
            coeffs = combo.coeffs
            for i in range(ell, order + 1):
                assert coeffs[i] == 0, (a, c, ell, i)
                coefficients_checked += 1
        # and the heads are the polynomials themselves
        assert Poly(q_combo.coeffs[:ell]) == qr.q0
        assert Poly(r_combo.coeffs[:ell]) == qr.r0
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(4, "tail vanishing",
               f"{coefficients_checked} tail coefficients exactly zero, "
               f"{elapsed:.2f}s")


def test_criterion_5_theorem_sweep(capsys):
    start = time.perf_counter()
    code = cli_main(
        ["sweep", "--trials", "100", "--ell-max", "5", "--seed", "42", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert payload["failures"] == 0
    skip_rate = float(payload["skip_rate"])
    assert skip_rate < 0.25
    reasons = set()
    for rec in payload["records"]:
        reasons.update(rec["skip_reasons"])
    assert reasons <= {"branch-cut", "degenerate-connection"}
    assert elapsed < 300.0
    with capsys.disabled():
        report(5, "theorem sweep",
               f"100 trials, 0 failures, skip rate {skip_rate:.3f} "
               f"({', '.join(sorted(reasons)) or 'none'}), {elapsed:.1f}s")


def test_criterion_6_exponent_pattern(triple_runs, capsys):
    generic = 0
    for a, c, ell, params, _, fac, _ in triple_runs:
        flags = genericity_flags(params, ell)
        if is_integer(a) or not flags.generic_apart_from_b():
            continue
        assert (fac.v0, fac.v1, fac.g) == (1, 1 - ell, ell - 1), (a, c, ell)
        assert (fac.w0, fac.w1, fac.h) == (0, 1 - ell, ell - 1), (a, c, ell)
        generic += 1
    assert generic >= 100  # the pattern must actually get exercised
    with capsys.disabled():
        report(6, "exponent pattern", f"{generic} generic runs all match")


def test_criterion_7_series_identity_suite(capsys):
    start = time.perf_counter()
    rng = random.Random(515_151)
    order = 48

    for _ in range(50):  # Euler transformation
        a, b = random_rational(rng), random_rational(rng)
        c = random_non_integer(rng)
        p = HypParams(a, b, c)
        assert hyp_series(p, order).matches(euler_transform_series(p, order))

    for _ in range(50):  # contiguity in the second parameter
        a, b = random_rational(rng), random_rational(rng)
        c = random_non_integer(rng)
        f = hyp_series(HypParams(a, b, c), order)
        g = hyp_series(HypParams(a, b + 1, c), order)
        assert all(
            (n + b) * f.coeffs[n] == b * g.coeffs[n] for n in range(order + 1)
        )

    for i in range(50):  # operator shift on the first solution
        a = random_rational(rng)
        c = random_non_integer(rng)
        ell = i % 3 + 1
        lhs = apply_to_genseries(
            build_H(1, ell), GenSeries(0, 0, hyp_series(HypParams(a, 1, c), order))
        )
        rhs = GenSeries(
            0, 0, hyp_series(HypParams(a, 1 + ell, c), order).scale(poch(1, ell))
        )
        assert lhs.matches(rhs, order - ell)

    for i in range(50):  # operator action on the second solution
        a = random_rational(rng)
        c = random_non_integer(rng)
        ell = i % 3 + 1
        y2 = GenSeries(1 - c, c - a - 1, TruncatedSeries.one(order))
        lhs = apply_to_genseries(build_H(1, ell), y2)
        rhs = GenSeries(
            1 - c, c - a - 1 - ell,
            TruncatedSeries.from_poly(
                terminating_poly(HypParams(1 - a, -ell, 2 - c)), order
            ).scale(poch(2 - c, ell)),
        )
        assert lhs.matches(rhs, order - ell)

    for i in range(50):  # general-b cascade on the second solution family
        a, b = random_rational(rng), random_rational(rng)
        c = random_non_integer(rng)
        ell = i % 3 + 1
        g = GenSeries(1 - c, c - a - b, hyp_series(HypParams(1 - a, 1 - b, 2 - c), order))
        lhs = apply_to_genseries(build_H(b, ell), g)
        rhs = GenSeries(
            1 - c, c - a - b - ell,
            hyp_series(HypParams(1 - a, 1 - b - ell, 2 - c), order).scale(
                poch(b + 1 - c, ell)
            ),
        )
        assert lhs.matches(rhs, order - ell)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        report(7, "series identity suite", f"5 x 50 draws at order 48, {elapsed:.2f}s")


def test_criterion_8_integral_representation(capsys):
    from strangeval.verify import incomplete_beta_check

    start = time.perf_counter()
    residual = incomplete_beta_check(2, 3, Fraction(1, 2), order=128)
    assert residual <= CTX.mp.mpf(1e-30)

    # a = c reduction: both sides are the geometric series 1/(1-x)
    c = Fraction(7, 3)
    series = hyp_series(HypParams(c, 1, c), 32)
    assert all(cf == 1 for cf in series.coeffs)
    reduced = incomplete_beta_check(c, c, Fraction(1, 2), order=96)
    assert reduced <= CTX.mp.mpf(2) ** -150
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(8, "integral representation",
               f"residuals {mpmath.nstr(residual, 3)} and "
               f"{mpmath.nstr(reduced, 3)}, {elapsed:.3f}s")
