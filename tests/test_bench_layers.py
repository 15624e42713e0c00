"""The benchmark's span tracer names library functions by (module,
attribute); a rename or deletion in the library must not leave a name
behind that ``bench/run.py --trace 1`` can no longer wrap."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    spans = load_spans()
    assert spans.LAYERS
    for mod_name, attr in spans.LAYERS:
        target = importlib.import_module(f"strangeval.{mod_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"strangeval.{mod_name}.{attr}"
            target = getattr(target, part)
        assert callable(target), f"strangeval.{mod_name}.{attr}"
