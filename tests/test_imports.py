"""What importing a module loads: the package namespace re-exports nothing,
so `import emforge.<module>` loads only what that module imports."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_importing_the_cli_loads_no_numpy():
    # Only score imports metrics, and through it numpy.
    loaded = _loaded_after("import emforge.cli")
    assert "emforge.metrics" not in loaded
    assert "numpy" not in loaded


def _imported_by_command(*argv) -> set[str]:
    """The modules a fresh `python -m emforge <argv>` imports, as -X importtime lists them."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "emforge", *argv],
        capture_output=True, text=True, check=False, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert result.returncode == 0, result.stderr
    rows = [line.split("|") for line in result.stderr.splitlines() if line.startswith("import time:")]
    return {row[-1].strip() for row in rows[1:]}


def test_budget_and_report_load_no_numpy(tmp_path):
    from emforge.cli import main
    from emforge.corpus import CorpusSpec, build_corpus
    from emforge.manifest import gold_prediction, write_manifest

    spec = CorpusSpec.from_dict({"counts": {"MR": [0, 4], "AJSD": [3, 0]}, "per_bin_min": 0})
    train, bench = build_corpus(spec, None, render=False)
    manifest, predictions = tmp_path / "manifest.jsonl", tmp_path / "predictions.jsonl"
    write_manifest(train + bench, manifest)
    predictions.write_text("".join(
        json.dumps({"sample_id": r.sample_id, "text": gold_prediction(r)}) + "\n"
        for r in train + bench
    ))
    report = tmp_path / "report.json"
    assert main(["score", "--manifest", str(manifest), "--predictions", str(predictions),
                 "--report", str(report)]) == 0
    for argv in (["budget"], ["report", "--report", str(report)]):
        imported = _imported_by_command(*argv)
        assert "emforge.cli" in imported, argv
        assert "numpy" not in imported, argv


def test_importing_the_cli_loads_no_build_stack():
    # Only build and render import corpus, and through it the build stack.
    build_stack = {"corpus", "builders", "instrgen", "png", "raster", "signal", "synth", "views"}
    loaded = _emforge_modules(_loaded_after("import emforge.cli"))
    assert {name.split(".")[1] for name in loaded if "." in name} & build_stack == set()


def _private_imports(path) -> list[str]:
    """`module.name` for each underscore name that `path` takes from another emforge
    module, by a from-import or as an attribute of an imported emforge module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("emforge")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
                if node.module is None:  # from . import module
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_name():
    package = Path(SRC, "emforge")
    found = {str(path.relative_to(package)): _private_imports(path) for path in package.rglob("*.py")}
    assert {path: names for path, names in found.items() if names} == {}


def test_the_synth_package_exports_nothing():
    code = "import emforge.synth as s; print([n for n in vars(s) if not n.startswith('_')])"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_importing_instrgen_loads_only_the_jamming_generators():
    # instrgen needs synth.jamming's kinds, not the modulators or device models.
    loaded = _loaded_after("import emforge.instrgen")
    assert "emforge.synth.jamming" in loaded
    assert {"emforge.synth.modulations", "emforge.synth.impairments"} & loaded == set()
