"""The suite's own pytest settings keep one failing test from ending the session."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True, max_examples=10)
@given(st.integers())
def test_fails(n):
    assert n < 0
'''


def test_failing_hypothesis_test_lets_later_files_run(tmp_path):
    # Reporting a failing example imports libcst, which warns; with warnings
    # as errors that warning used to end the session with an INTERNALERROR.
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_a_property.py").write_text(FAILING_PROPERTY)
    (tmp_path / "test_b_plain.py").write_text("def test_passes():\n    pass\n")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q", "-rA", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, check=False,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "FAILED test_a_property.py::test_fails" in output
    assert "PASSED test_b_plain.py::test_passes" in output
