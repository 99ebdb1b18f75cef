"""The suite's own pytest settings keep one failing test from ending the session,
and CI runs the suite with the command ROADMAP.md names."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_ci_runs_the_roadmap_tier1_command():
    yaml = pytest.importorskip("yaml")
    root = PYPROJECT.parent
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    steps = workflow["jobs"]["tests"]["steps"]
    roadmap = (root / "ROADMAP.md").read_text()
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    assert steps[-1]["run"] == command
    assert {"python-version": "3.11"} in [step.get("with") for step in steps]
    assert 'python -m pip install ".[test]"' in [step.get("run") for step in steps]
