"""The suite's own pytest settings: with warnings as errors, a failing
hypothesis test is still reported as a failure and the session goes on."""

import os
import subprocess
import sys

PYPROJECT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"))

GIVEN_FAILS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_given_test_is_reported(tmp_path):
    (tmp_path / "test_given.py").write_text(GIVEN_FAILS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT,
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert proc.returncode == 1, output
    assert "1 failed, 1 passed" in output, output
