"""Importing the package loads only the standard library and mpmath, and
does no numeric work: numpy and sympy stay test-only, and nothing is
built before the first call."""

import json
import os
import subprocess
import sys

import strangeval

PROBE = """
import json, sys
before = set(sys.modules)
import strangeval, strangeval.cli
from strangeval import numeric
allowed = set(sys.stdlib_module_names) | {"mpmath", "strangeval"}
print(json.dumps({
    "foreign": sorted(
        m for m in set(sys.modules) - before if m.split(".")[0] not in allowed
    ),
    "taylor": len(numeric._TAYLOR_CACHE),
    "spouge": len(numeric._SPOUGE_CACHE),
    "contexts": numeric._mp_context.cache_info().currsize,
}))
"""


def test_import_loads_only_stdlib_and_mpmath_and_builds_nothing():
    src = os.path.dirname(os.path.dirname(os.path.abspath(strangeval.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == {"foreign": [], "taylor": 0, "spouge": 0, "contexts": 0}
