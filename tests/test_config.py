"""The pytest configuration reports a failing hypothesis test as one
failure: under the repository's warning filters the session runs on to
the next test and counts both."""

import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    assert True
"""


def test_failing_given_test_does_not_abort_the_session(tmp_path):
    filters = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"][
        "ini_options"
    ]["filterwarnings"]
    ini = "[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters)
    (tmp_path / "pytest.ini").write_text(ini)
    (tmp_path / "test_probe.py").write_text(TESTS)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    text = out.stdout + out.stderr
    assert "INTERNALERROR" not in text
    assert "1 failed, 1 passed" in text
