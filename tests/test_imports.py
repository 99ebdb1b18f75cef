"""What importing a module loads: the package namespace re-exports nothing,
so `import emforge.<module>` loads only what that module imports."""

import json
import os
import subprocess
import sys

import pytest

import emforge

SRC = os.path.dirname(os.path.dirname(emforge.__file__))


def _loaded_after(statement: str) -> set[str]:
    """The sys.modules keys a fresh interpreter holds after `statement`."""
    code = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def _emforge_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name == "emforge" or name.startswith("emforge.")}


@pytest.mark.parametrize(
    "module, expected",
    [("emforge", {"emforge"}), ("emforge.png", {"emforge", "emforge.png"})],
)
def test_importing_a_module_loads_no_other_emforge_module(module, expected):
    assert _emforge_modules(_loaded_after(f"import {module}")) == expected


def test_importing_budget_loads_no_numpy():
    loaded = _loaded_after("import emforge.budget")
    assert _emforge_modules(loaded) == {"emforge", "emforge.budget"}
    assert "numpy" not in loaded


def test_importing_manifest_loads_no_numpy():
    loaded = _loaded_after("import emforge.manifest")
    assert _emforge_modules(loaded) == {"emforge", "emforge.manifest"}
    assert "numpy" not in loaded


def test_importing_metrics_loads_only_the_manifest():
    loaded = _loaded_after("import emforge.metrics")
    assert _emforge_modules(loaded) == {"emforge", "emforge.manifest", "emforge.metrics"}


def test_importing_the_cli_loads_no_build_stack():
    # Only build and render import corpus, and through it the build stack.
    build_stack = {"corpus", "builders", "instrgen", "png", "raster", "signal", "synth", "views"}
    loaded = _emforge_modules(_loaded_after("import emforge.cli"))
    assert {name.split(".")[1] for name in loaded if "." in name} & build_stack == set()
