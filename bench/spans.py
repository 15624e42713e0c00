"""In-memory span tracer that wraps the library's public functions.

A traced pass installs a wrapper around every function in ``LAYERS``.  Each
wrapper records a span (name, start, end, parent, item id, tag, modulus)
with ``time.perf_counter`` and keeps it in memory; the benchmark writes the
spans out when the run ends.  Self time is a span's duration minus the part
of it that its children cover, so the self times of all spans partition the
time the spans cover.

Wrappers replace every binding of the wrapped function in the package's
modules, not only the defining one: ``verify`` imports ``hyp2f1_num``,
``find_roots`` and ``right_reduce`` by name, and ``hyp2f1_num`` reaches
itself and ``gamma_c`` (also through ``rgamma_c``) via ``numeric``'s
globals.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, attribute) of every layer boundary the trace records.  ``series``
# is covered by ``hyp.q0_r0_by_series``; ``scalars`` and ``errors`` are
# negligible; the benchmark calls the library directly and skips ``cli``.
LAYERS = (
    ("verify", "verify_theorem"),
    ("verify", "compute_q0_all_methods"),
    ("hyp", "q0_r0_by_series"),
    ("hyp", "q0_by_reversal"),
    ("hyp", "terminating_poly"),
    ("operators", "genericity_flags"),
    ("operators", "build_H"),
    ("operators", "right_reduce"),
    ("operators", "factor_remainder"),
    ("poly", "Poly.gcd"),
    ("numeric", "find_roots"),
    ("numeric", "hyp2f1_num"),
    ("numeric", "gamma_c"),
)

HYP2F1 = "numeric.hyp2f1_num"
# Path tags hyp2f1_num can return, plus "raised" for calls that end in an
# exception (DegenerateConnectionError, BranchCutError, ...).
PATHS = (
    "direct-series", "pfaff-a", "pfaff-b", "connection-1mz", "euler",
    "unsupported", "raised",
)


def path_modulus(path: str, z) -> float | None:
    """Effective argument modulus of a 2F1 path at z: the modulus of the
    series argument that path sums."""
    z = complex(z)
    if path in ("direct-series", "euler"):
        return abs(z)
    if path in ("pfaff-a", "pfaff-b"):
        return abs(z / (z - 1))
    if path == "connection-1mz":
        return min(abs(1 - z), abs(1 - 1 / z))
    return None


class Tracer:
    """Span store for one traced pass; spans are parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: list[int] = []
        self.tags: list[str | None] = []
        self.mods: list[float | None] = []
        self._stack: list[int] = []
        self.item = -1
        self._restore: list = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.items.append(self.item)
        self.tags.append(None)
        self.mods.append(None)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int, tag: str | None = None, mod: float | None = None):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self.tags[idx] = tag
        self.mods[idx] = mod

    @contextmanager
    def span(self, name: str, item: int):
        """Root span around one benchmark item."""
        self.item = item
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)
            self.item = -1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        if name == HYP2F1:
            def wrapper(a, b, c, z, *args, **kwargs):
                idx = tracer.open(name)
                try:
                    res = fn(a, b, c, z, *args, **kwargs)
                except BaseException:
                    tracer.close(idx, "raised")
                    raise
                tracer.close(idx, res.path, path_modulus(res.path, z))
                return res
        else:
            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every layer function at every binding in the package."""
        pkg = {
            mod_name: mod for mod_name, mod in sys.modules.items()
            if mod_name == "strangeval" or mod_name.startswith("strangeval.")
        }
        for mod_name, attr in LAYERS:
            name = f"{mod_name}.{attr}"
            owner = pkg[f"strangeval.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn)
            for mod in pkg.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for target, key, fn in reversed(self._restore):
            setattr(target, key, fn)
        self._restore.clear()

    def dump(self) -> list:
        return [
            [n, s, e, p, i, t, m]
            for n, s, e, p, i, t, m in zip(
                self.names, self.starts, self.ends, self.parents,
                self.items, self.tags, self.mods,
            )
        ]


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    clipped to it."""
    children: list[list[int]] = [[] for _ in starts]
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(starts[k], start), min(ends[k], end)) for k in children[idx]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


# Per-layer metrics of a traced pass, with the end-to-end metric each
# should move and the workload on which it should move it.  ``.s`` is self
# time in seconds; ``.calls`` and ``.count`` repeat exactly for a seed.
_Q0 = "q0-high-ell"
PER_LAYER = [
    ("verify.verify_theorem.self_s", "s", "item_p50_ref", "sweep"),
    ("verify.compute_q0_all_methods.s", "s", "items_per_kref, item_p50_ref",
     f"{_Q0} (about 5% of sweep)"),
    ("verify.compute_q0_all_methods.calls", "count", "items_per_kref", _Q0),
    ("hyp.q0_r0_by_series.s", "s", "item_p50_ref", _Q0),
    ("hyp.q0_by_reversal.s", "s", "item_p50_ref", _Q0),
    ("hyp.terminating_poly.s", "s", "item_p50_ref", _Q0),
    ("operators.genericity_flags.s", "s", "items_per_kref, item_tail_ref", _Q0),
    ("operators.build_H.s", "s", "items_per_kref, item_tail_ref", _Q0),
    ("operators.right_reduce.s", "s", "items_per_kref, item_tail_ref", _Q0),
    ("operators.factor_remainder.s", "s", "items_per_kref, item_tail_ref", _Q0),
    ("poly.Poly.gcd.s", "s", "items_per_kref", _Q0),
    ("poly.Poly.gcd.calls", "count", "items_per_kref", _Q0),
    ("numeric.find_roots.s", "s", "item_p50_ref", f"{_Q0} (under 1% of sweep)"),
    ("numeric.find_roots.calls", "count", "item_p50_ref", _Q0),
    ("numeric.hyp2f1_num.s", "s", "items_per_kref, item_tail_ref", "sweep, eval-grid"),
    ("numeric.hyp2f1_num.calls", "count", "items_per_kref", "sweep, eval-grid"),
    ("numeric.hyp2f1_num.max_call_s", "s", "item_tail_ref", "sweep, eval-grid"),
]
# Per path: self time, calls, and the total time of outermost calls (the
# connection path's inner series and gammas are its children, so its self
# time alone hides what it costs).
for _path in PATHS:
    _moves = {
        "pfaff-a": ("item_tail_ref", "sweep"),
        "connection-1mz": ("item_p50_ref", "eval-grid"),
    }.get(_path, ("items_per_kref", "sweep, eval-grid"))
    PER_LAYER.append((f"{HYP2F1}.{_path}.self_s", "s", *_moves))
    PER_LAYER.append((f"{HYP2F1}.{_path}.total_s", "s", *_moves))
    PER_LAYER.append((f"{HYP2F1}.{_path}.calls", "count", "items_per_kref", _moves[1]))
PER_LAYER += [
    ("numeric.gamma_c.s", "s", "item_p50_ref", "eval-grid, connection share of sweep"),
    ("numeric.gamma_c.calls", "count", "item_p50_ref", "eval-grid, sweep"),
]
# The skip reasons verify_theorem documents.
SKIP_REASONS = (
    "branch-cut", "degenerate-connection", "no-convergent-path", "eval-failed",
)
PER_LAYER += [
    (f"verify.skip.{r}.count", "count", "checked_ratio", "sweep") for r in SKIP_REASONS
]
PER_LAYER += [
    ("bench.untraced_wall_s", "s", "items_per_kref", "all"),
    ("bench.traced_wall_s", "s", "items_per_kref", "all"),
    ("bench.trace_overhead_s", "s", "none: traced minus untraced wall time", "all"),
    ("bench.uncovered_s", "s", "none: traced wall time outside every layer span", "all"),
]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self time, call counts and 2F1 path breakdown; the root
    ``bench.item`` spans only anchor the tree and are not reported."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    out: dict = {}
    for mod_name, attr in LAYERS:
        out[f"{mod_name}.{attr}.s"] = 0.0
        out[f"{mod_name}.{attr}.calls"] = 0
    for path in PATHS:
        out[f"{HYP2F1}.{path}.self_s"] = 0.0
        out[f"{HYP2F1}.{path}.total_s"] = 0.0
        out[f"{HYP2F1}.{path}.calls"] = 0
    out[f"{HYP2F1}.max_call_s"] = 0.0
    covered = 0.0
    for idx, name in enumerate(tracer.names):
        if f"{name}.s" not in out:
            continue
        out[f"{name}.s"] += selfs[idx]
        out[f"{name}.calls"] += 1
        covered += selfs[idx]
        if name == HYP2F1:
            tag = tracer.tags[idx]
            out[f"{HYP2F1}.{tag}.self_s"] += selfs[idx]
            out[f"{HYP2F1}.{tag}.calls"] += 1
            dur = tracer.ends[idx] - tracer.starts[idx]
            out[f"{HYP2F1}.max_call_s"] = max(out[f"{HYP2F1}.max_call_s"], dur)
            parent = tracer.parents[idx]
            if parent < 0 or tracer.names[parent] != HYP2F1:
                out[f"{HYP2F1}.{tag}.total_s"] += dur
    out["verify.verify_theorem.self_s"] = out.pop("verify.verify_theorem.s")
    out["bench.covered_s"] = covered
    return out
