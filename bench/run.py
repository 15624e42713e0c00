"""strangeval benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``sweep``, ``q0-high-ell``, ``eval-grid``.
The loop is closed, with a single caller: each item starts when the last
one has returned.  A run generates a fixed item set from the seed, warms
up, then times the items in a seeded order, pass after pass, until
``--seconds`` have gone by (the first pass always completes).  Every
output of the first pass goes through its workload's correctness gate
after the timed region, and later passes must reproduce its outcome.

Item times are reported in reference units (``ref``): an item's wall time
divided by the wall time of a fixed pure-Python reference computation
(``reference_work``, about 0.5 ms, using nothing from the library) timed
right before and after each item.  On a 2-core x86-64 VM on a shared
host the interpreter's speed changes by up to half within a minute (a fixed
loop swings between 14.5 and 21.5 ms), which moves raw seconds between runs
of the same code by more than the 25% bound; the ratio cancels that drift,
and a faster library still shows in full.  Raw seconds are printed in the
details line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
item untraced and then traced, back to back, and reports the
per-layer metrics of the traced runs, the tracing overhead and the time no
layer span covers; the spans go to ``bench/out/``.

Output: a JSON line with the environment, the outcome digest and run
details, then, as the last line, ``{"correct", "attempted", "failed",
"metrics"}``.  Exits 2 without a result when the library sources are
missing.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# reference probes within this many seconds of an item set its speed
REF_WINDOW_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "items_per_kref": "1/kref",
    "item_p50_ref": "ref",
    "item_tail_ref": "ref",
    "checked_ratio": "ratio",
    "accuracy_bits": "bits",
    "peak_rss_mb": "MB",
}


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(names))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workloads, args) -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "precision": workloads.PRECISION,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": git_commit(),
    }


def run_item(workload, item):
    """Time one call; an exception is the outcome, for the gate to judge."""
    t0 = time.perf_counter()
    try:
        out = workload.call(item)
    except Exception as exc:
        out = exc
    dt = time.perf_counter() - t0
    if isinstance(out, Exception) and not isinstance(out, workload.documented):
        traceback.print_exception(out, file=sys.stderr)
    return out, dt


def reference_work() -> int:
    """Fixed work that no library change can touch: big-integer and
    Fraction arithmetic, the operations the exact layers and mpmath's
    pure-Python backend spend their time in."""
    s = 0
    for _ in range(5):
        f = Fraction(0)
        for k in range(1, 40):
            s = (s * 6364136223846793005 + k ** 7) % (1 << 191)
            f += Fraction(s % 1000 + 1, k * k + 1)
        s ^= f.denominator
    return s


def probe(starts: list, secs: list) -> None:
    """Record (start, seconds) of the reference work, the fastest of three
    back-to-back runs so that an interrupt does not count."""
    best = (float("inf"), 0.0)
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, (time.perf_counter() - t0, t0))
    secs.append(best[0])
    starts.append(best[1])


def timed_passes(workload, items, order, seconds):
    """Per-item wall times and reference units, first-pass outcomes and
    keys, the items whose outcome changed, and the pass count.

    The reference work is probed before the first item and after every
    item.  An item's reference units are its wall time over the median
    probe within REF_WINDOW_S of it, which always takes in the probes right
    before and after it."""
    walls = [[] for _ in items]
    refs = [[] for _ in items]
    outs = [None] * len(items)
    keys = [None] * len(items)
    changed = set()
    runs = []
    starts, secs = [], []
    deadline = time.perf_counter() + seconds
    passes = 0
    for _ in range(10):
        reference_work()
    probe(starts, secs)
    while passes == 0 or time.perf_counter() < deadline:
        for i in order:
            if passes and time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            out, dt = run_item(workload, items[i])
            probe(starts, secs)
            walls[i].append(dt)
            runs.append((i, t0, t0 + dt))
            key = workload.key(items[i], out)
            if passes == 0:
                outs[i], keys[i] = out, key
            elif key != keys[i]:
                changed.add(i)
        passes += 1
    for i, t0, t1 in runs:
        lo = bisect.bisect_left(starts, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(starts, t1 + REF_WINDOW_S)
        refs[i].append((t1 - t0) / statistics.median(secs[lo:hi]))
    return walls, refs, outs, keys, changed, passes


def gate(workloads, workload, items, outs, changed):
    checks = []
    for i, (item, out) in enumerate(zip(items, outs)):
        try:
            check = workload.check(item, out)
        except Exception as exc:
            check = workloads.fail(f"gate raised {type(exc).__name__}: {exc}")
        if i in changed:
            check = workloads.fail("outcome differs between passes")
        checks.append(check)
    return checks


def setup_seconds(args) -> list:
    """Wall time of fresh processes that import, generate the inputs and
    warm up, then exit: process start to the first timed item."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


def tail_beyond(n: int) -> int:
    """Items beyond the tail percentile: at least TAIL_BEYOND, and 5% of
    the items when that is more."""
    return min(max(TAIL_BEYOND, n // 20), n - 1)


def hd_quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution.  One
    order statistic moves with the noise of the single item it lands on;
    this averages the items around it."""
    import mpmath

    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def timing(per_run) -> tuple[float, float, float]:
    """(items per unit time, median, tail) over the per-item medians; the
    tail is the highest percentile with tail_beyond(n) items beyond it."""
    med = [statistics.median(t) for t in per_run]
    n = len(med)
    return n / sum(med), hd_quantile(med, 0.5), hd_quantile(med, 1 - tail_beyond(n) / n)


def end_to_end(workloads, walls, refs, checks, setups) -> tuple[dict, dict]:
    n = len(refs)
    rate, p50, tail = timing(refs)
    raw_rate, raw_p50, raw_tail = timing(walls)
    units = sum(c.units for c in checks)
    bits = [c.bits for c in checks if c.bits is not None]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_kref": 1000 * rate,
        "item_p50_ref": p50,
        "item_tail_ref": tail,
        "checked_ratio": sum(c.checked for c in checks) / units if units else 1.0,
        "accuracy_bits": min(bits, default=float(workloads.PRECISION)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "tail_percentile": 100 * (1 - tail_beyond(n) / n),
        "tail_samples_beyond": tail_beyond(n),
        "raw_items_per_s": raw_rate,
        "raw_item_p50_s": raw_p50,
        "raw_item_tail_s": raw_tail,
        "timed_s": sum(sum(t) for t in walls),
        "executions": sum(len(t) for t in walls),
        "setup_samples_s": setups,
        "units": units,
        "slowest": sorted(
            enumerate(statistics.median(t) for t in refs), key=lambda t: -t[1]
        )[:5],
    }
    return values, details


def traced_run(workloads, spans, workload, items, order, args):
    """Each item runs untraced, then traced, back to back, so that the
    machine's drift falls alike on both and the difference of their sums is
    the tracing overhead; the traced run must reproduce the outcome."""
    tracer = spans.Tracer()
    outs = [None] * len(items)
    keys = [None] * len(items)
    untraced = traced = 0.0
    for i in order:
        out, dt = run_item(workload, items[i])
        untraced += dt
        keys[i] = workload.key(items[i], out)
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.span("bench.item", i):
                outs[i], _ = run_item(workload, items[i])
            traced += time.perf_counter() - t0
        finally:
            tracer.uninstall()

    changed = {
        i for i, (item, out) in enumerate(zip(items, outs))
        if workload.key(item, out) != keys[i]
    }
    checks = gate(workloads, workload, items, outs, changed)
    layer = spans.layer_metrics(tracer)
    skips = Counter(s for c in checks for s in c.skips)
    for reason in spans.SKIP_REASONS:
        layer[f"verify.skip.{reason}.count"] = skips[reason]
    layer["bench.untraced_wall_s"] = untraced
    layer["bench.traced_wall_s"] = traced
    layer["bench.trace_overhead_s"] = traced - untraced
    layer["bench.uncovered_s"] = traced - layer["bench.covered_s"]
    metrics = {
        name: {"value": layer[name], "unit": unit}
        for name, unit, _, _ in spans.PER_LAYER
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "item", "path", "modulus"],
        "spans": tracer.dump(),
    }))
    details = {"spans": len(tracer.names), "spans_file": str(path.relative_to(ROOT))}
    return metrics, outs, checks, details


def main(argv=None) -> int:
    if not (SRC / "strangeval" / "__init__.py").is_file():
        print(f"bench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    workload = workloads.WORKLOADS[args.workload]()
    items = workload.make_items(args.seed)
    workloads.warm_up(workload)
    if args.setup_only:
        return 0
    own_setup = time.perf_counter() - T_START
    order = list(range(len(items)))
    random.Random(args.seed).shuffle(order)

    details = {"items": len(items), "excluded_draws": workload.excluded,
               "own_setup_s": own_setup}
    if args.trace:
        metrics, outs, checks, extra = traced_run(
            workloads, spans, workload, items, order, args
        )
        keys = [workload.key(item, out) for item, out in zip(items, outs)]
        details.update(extra)
    else:
        walls, refs, outs, keys, changed, passes = timed_passes(
            workload, items, order, args.seconds
        )
        checks = gate(workloads, workload, items, outs, changed)
        values, extra = end_to_end(workloads, walls, refs, checks, setup_seconds(args))
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        details.update(extra, passes=passes)

    failed = [i for i, c in enumerate(checks) if not c.ok]
    digest = hashlib.sha256(
        json.dumps(keys, separators=(",", ":")).encode()
    ).hexdigest()
    details.update(
        skips=dict(Counter(s for c in checks for s in c.skips)),
        failures=[[i, checks[i].note] for i in failed[:10]],
    )
    print(json.dumps({"env": environment(workloads, args), "digest": digest,
                      "details": details}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
