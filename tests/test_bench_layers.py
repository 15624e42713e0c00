"""The benchmark's tracer names library functions by (module, attribute)
and tags 2F1 spans by path; a rename or deletion in the library must not
leave a name, tag or skip reason behind that ``bench/run.py`` can no
longer wrap or count, since ``--trace 1`` then ends in a ``KeyError``.
These tests import ``bench/`` and change nothing in it."""

import importlib
import sys
from pathlib import Path

import pytest

from strangeval import numeric, verify

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """bench's ``spans`` and ``workloads`` modules, imported as
    ``bench/run.py`` imports them, without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("spans", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("spans"), importlib.import_module("workloads")
    for name in ("spans", "workloads"):
        sys.modules.pop(name, None)


def test_every_traced_layer_resolves(bench):
    spans, _ = bench
    assert spans.LAYERS
    for mod_name, attr in spans.LAYERS:
        target = importlib.import_module(f"strangeval.{mod_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"strangeval.{mod_name}.{attr}"
            target = getattr(target, part)
        assert callable(target), f"strangeval.{mod_name}.{attr}"


def test_every_path_tag_is_a_bench_path(bench):
    spans, _ = bench
    assert set(numeric.KNOWN_PATHS) <= set(spans.PATHS)


def test_layer_metrics_count_every_path_tag(bench):
    spans, _ = bench
    tracer = spans.Tracer()
    tags = numeric.KNOWN_PATHS + ("raised",)
    for tag in tags:
        tracer.close(tracer.open(spans.HYP2F1), tag)
    out = spans.layer_metrics(tracer)
    assert out[f"{spans.HYP2F1}.calls"] == len(tags)
    for tag in tags:
        assert out[f"{spans.HYP2F1}.{tag}.calls"] == 1


def test_every_skip_reason_is_a_bench_reason(bench):
    spans, _ = bench
    reasons = {v for k, v in vars(verify).items() if k.startswith("SKIP_")}
    assert reasons and reasons <= set(spans.SKIP_REASONS)


def test_warm_up_runs_for_every_workload(bench):
    _, workloads = bench
    assert set(workloads.WORKLOADS) == {"sweep", "q0-high-ell", "eval-grid"}
    for cls in workloads.WORKLOADS.values():
        workloads.warm_up(cls())
