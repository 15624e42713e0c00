"""Self-test of the benchmark: gates must catch perturbed values, the
tracer's self-time arithmetic must be right, wrapping must reach every
binding, and BENCHMARK.json must name exactly the metrics the code prints.

    python3 bench/selftest.py

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mpmath  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from strangeval import errors, numeric, operators, poly, verify  # noqa: E402

FAILURES = []


def expect(cond, what: str):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def test_self_times():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping) and [8, 12]
    # (clipped to 10); [1, 3] has a child [1.5, 2]
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    got = spans.self_times(starts, ends, parents)
    want = [10 - (4 + 2), 2 - 0.5, 3, 4, 0.5]
    expect(all(abs(g - w) < 1e-12 for g, w in zip(got, want)),
           f"self times on a synthetic span set: {got}")
    # properly nested spans: self times add up to the root's duration
    starts, ends, parents = [0.0, 1.0, 2.0, 6.0], [9.0, 5.0, 3.0, 8.0], [-1, 0, 1, 0]
    expect(abs(sum(spans.self_times(starts, ends, parents)) - 9.0) < 1e-12,
           "nested self times partition the root span")


def test_tracer_bindings():
    original = verify.right_reduce
    tracer = spans.Tracer()
    tracer.install()
    try:
        expect(verify.right_reduce is not original
               and verify.right_reduce is operators.right_reduce,
               "right_reduce wrapped at its definition and at verify's import")
        with tracer.span("bench.item", 0):
            verify.compute_q0_all_methods(Fraction(3), Fraction(3, 2), 2, 34)
            numeric.hyp2f1_num(Fraction(1, 3), Fraction(1, 2), Fraction(5, 4),
                               complex(0.75, 0.5), numeric.EvalContext(192))
    finally:
        tracer.uninstall()
    expect(verify.right_reduce is original and "gcd" in poly.Poly.__dict__
           and not hasattr(poly.Poly.gcd, "__wrapped__"),
           "uninstall restores every binding")
    names = set(tracer.names)
    for name in ("operators.right_reduce", "poly.Poly.gcd", "hyp.q0_r0_by_series",
                 "numeric.gamma_c"):
        expect(name in names, f"span recorded for {name}")
    top = [i for i, n in enumerate(tracer.names)
           if n == spans.HYP2F1 and tracer.names[tracer.parents[i]] == "bench.item"]
    inner = [i for i, n in enumerate(tracer.names)
             if n == spans.HYP2F1 and tracer.parents[i] in top]
    expect(len(top) == 1 and tracer.tags[top[0]] == "connection-1mz"
           and len(inner) == 2,
           "2F1 recursion through numeric's globals is traced, with path tags")
    expect(tracer.mods[top[0]] is not None and 0 < tracer.mods[top[0]] < 1,
           "2F1 span carries the effective modulus of its path")
    layer = spans.layer_metrics(tracer)
    root = tracer.ends[0] - tracer.starts[0]
    expect(abs(layer["bench.covered_s"] + spans.self_times(
        tracer.starts, tracer.ends, tracer.parents)[0] - root) < 1e-9,
        "layer self times plus the item's own time equal the item span")


def test_eval_gate():
    wl = workloads.EvalGrid()
    item = wl.warm_item
    out = wl.call(item)
    check = wl.check(item, out)
    expect(check.ok and check.bits is not None and check.bits > 150,
           f"exact 2F1 value passes at {check.bits:.0f} bits, no false 1e-16")
    with mpmath.workprec(workloads.REFERENCE_BITS):
        value = mpmath.mpmathify(out.value) * (1 + mpmath.mpf(2) ** -100)
    bumped = dataclasses.replace(out, value=value)
    expect(not wl.check(item, bumped).ok, "perturbed 2F1 value is a failure")
    with mpmath.workprec(workloads.REFERENCE_BITS):
        a, b, c, z = item
        ref = mpmath.hyp2f1(*(mpmath.mpf(p.numerator) / p.denominator for p in (a, b, c)),
                            mpmath.mpc(z.real, z.imag))
        bad_ref = ref * (1 + mpmath.mpf(2) ** -100)
    expect(workloads.relative_error(item, out.value, ref) <= mpmath.mpf(2) ** -workloads.GATE_BITS
           and workloads.relative_error(item, out.value, bad_ref) > mpmath.mpf(2) ** -workloads.GATE_BITS,
           "perturbed reference is caught")
    degenerate = wl.check(item, errors.DegenerateConnectionError("x"))
    expect(degenerate.ok and degenerate.checked == 0, "documented error is a skip")
    expect(not wl.check(item, KeyError("x")).ok, "undocumented error is a failure")


def test_sweep_gate():
    wl = workloads.Sweep()
    item = wl.warm_item
    report = wl.call(item)
    expect(wl.check(item, report).ok, "flagship verify_theorem passes the gate")
    expect(not wl.check(item, dataclasses.replace(report, verdict="fail")).ok,
           "failed verdict is a failure")
    odd = dataclasses.replace(report.records[0], skipped=True, skip_reason="mystery")
    expect(not wl.check(item, dataclasses.replace(report, records=[odd])).ok,
           "undocumented skip reason is a failure")
    wrong = item[:3] + ((item[3][0] + 1,) + item[3][1:],)
    expect(not wl.check(wrong, report).ok, "wrong terminating polynomial is a failure")


def test_q0_gate():
    wl = workloads.Q0HighEll()
    item = (Fraction(7, 3), Fraction(5, 11), 6)
    out = wl.call(item)
    expect(wl.check(item, out).ok, "q0-high-ell item passes the gate")
    q0, r0, prov, tpoly, roots = out
    short = dataclasses.replace(roots, multiplicities=roots.multiplicities[1:])
    expect(not wl.check(item, (q0, r0, prov, tpoly, short)).ok,
           "multiplicities that miss the degree are a failure")
    big = poly.Poly(q0.coeffs + (Fraction(1),) * 2)
    expect(not wl.check(item, (big, r0, prov, tpoly, roots)).ok,
           "deg q0 above ell-1 is a failure")


def test_timing():
    expect(abs(run.hd_quantile([3.0, 1.0, 2.0, 5.0, 4.0], 0.5) - 3.0) < 1e-12,
           "Harrell-Davis median of symmetric data is its centre")
    expect(abs(run.hd_quantile([2.5] * 40, 0.9) - 2.5) < 1e-12,
           "Harrell-Davis quantile of constant data is the constant")
    expect((run.tail_beyond(34), run.tail_beyond(120), run.tail_beyond(600)) == (10, 10, 30),
           "tail percentile leaves 10 items, or 5% of them, beyond it")

    class Fixed:
        """Items that run the reference work ``item`` times."""

        def call(self, item):
            for _ in range(item):
                run.reference_work()

        def key(self, item, out):
            return item

    items = [4, 16]
    _, refs, _, _, changed, _ = run.timed_passes(Fixed(), items, [0, 1], 0.3)
    got = [sorted(r)[len(r) // 2] for r in refs]
    expect(not changed and all(0.8 * k <= g <= 1.5 * k for k, g in zip(items, got)),
           f"k runs of the reference work measure about k ref: {got}")


def test_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
           == [(n, u) for n, u, _, _ in spans.PER_LAYER],
           "BENCHMARK.json per_layer matches spans.PER_LAYER")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]]
           == list(run.END_TO_END.items()),
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")


if __name__ == "__main__":
    test_self_times()
    test_tracer_bindings()
    test_eval_gate()
    test_sweep_gate()
    test_q0_gate()
    test_timing()
    test_benchmark_json()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks hold")
    sys.exit(1 if FAILURES else 0)
