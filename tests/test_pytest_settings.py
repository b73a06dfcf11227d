"""The pytest settings in pyproject.toml report a failing hypothesis test
as a failure, with its falsifying example."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "pyproject.toml")

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_failing_given_test_is_reported(tmp_path):
    # on a failure hypothesis imports libcst, whose import warns; with
    # filterwarnings = error that aborted the session with INTERNALERROR
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
