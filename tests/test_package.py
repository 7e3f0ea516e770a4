"""The package layout: engine and oracle apart, one name per thing, and the
same ledger bytes on every supported interpreter."""
import ast
import importlib.util
import os
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import stakenav
import stakenav.reference

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stakenav"
ENGINE_MODULES = ("cli", "domain", "ledger", "sim")
# One CPython release per minor version that `requires-python` admits.
INTERPRETERS = ("3.10.13", "3.11.7", "3.12.1", "3.13.0")


@pytest.mark.parametrize("name", ["stakenav.navigability", "stakenav.consensus"])
def test_old_submodules_are_gone(name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(name)


def _oracle_names():
    return [
        name for name, value in vars(stakenav.reference).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == "stakenav.reference"
    ]


def test_navigability_is_the_reference_function():
    assert stakenav.reference.navigability.__module__ == "stakenav.reference"
    assert "navigability" in _oracle_names()
    assert "__getattr__" not in vars(stakenav)
    assert [name for name in _oracle_names() if hasattr(stakenav, name)] == []


def test_visibility_snapshot_belongs_to_the_oracle():
    assert stakenav.reference.VisibilitySnapshot.__module__ == "stakenav.reference"
    assert "VisibilitySnapshot" in _oracle_names()
    assert not hasattr(stakenav, "VisibilitySnapshot")
    assert [name for name in _oracle_names() if hasattr(stakenav.sim, name)] == []


def test_package_exports_only_what_its_users_name():
    # The names README's library section uses without a module prefix, the
    # ones tools/check_determinism.py imports, and the error `append_block`
    # and the dump reader raise. Everything else is imported from its module.
    assert sorted(stakenav.__all__) == [
        "Block", "Chain", "ConfigError", "DegradationScenario", "ExperimentState",
        "LedgerError", "WorldConfig", "compute_visibility", "emit_transactions",
        "init_world", "run_experiment", "verify_dump_bytes",
    ]


def test_package_holds_the_six_modules():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == [
        "__init__", "cli", "domain", "ledger", "reference", "sim",
    ]


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


@pytest.mark.parametrize("module", ENGINE_MODULES)
def test_engine_does_not_import_the_oracle(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for name in _imported_modules(tree):
        assert "reference" not in name.split("."), f"{module}.py imports {name}"


def test_the_oracle_does_not_import_the_engine():
    # The oracle shares only `domain` with the engine it checks.
    tree = ast.parse((PACKAGE / "reference.py").read_text(encoding="utf-8"))
    for name in _imported_modules(tree):
        assert not {"sim", "ledger", "cli"} & set(name.split(".")), f"reference.py imports {name}"


def _interpreter(version):
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    python = pyenv / "versions" / version / "bin" / "python"
    if not python.is_file():
        pytest.skip(f"CPython {version} is not installed")
    return python


# Run in a fresh interpreter: prints the modules of interest that importing
# the CLI newly loads, then resolves every public name with a star import.
STARTUP_PROBE = """
import sys
before = set(sys.modules)
import stakenav.cli
print(sorted((set(sys.modules) - before) & {"dataclasses", "inspect", "stakenav.reference"}))
from stakenav import *
import stakenav
print(sorted(name for name in stakenav.__all__ if name not in globals()))
"""


@pytest.mark.parametrize("version", INTERPRETERS)
def test_cli_import_loads_neither_dataclasses_nor_the_oracle(version):
    result = subprocess.run(
        [str(_interpreter(version)), "-c", STARTUP_PROBE],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[]"]


@pytest.mark.parametrize("version", INTERPRETERS)
def test_check_determinism_passes_under(version):
    python = _interpreter(version)
    result = subprocess.run(
        [str(python), str(ROOT / "tools" / "check_determinism.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def _load_tool(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/
    spec = importlib.util.spec_from_file_location(
        "check_determinism", ROOT / "tools" / "check_determinism.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_check_determinism_reports_a_dump_that_does_not_load(monkeypatch, capsys):
    tool = _load_tool(monkeypatch)
    garbled = types.SimpleNamespace(chain=types.SimpleNamespace(dumps=lambda: b"not json\n"))
    monkeypatch.setattr(tool, "run_experiment", lambda config: garbled)
    assert tool.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    first_seeds = [0] * 6 + [tool.CROSS_CELL_SEED, tool.drawn_runs()[0][0], tool.TEAM_4096_SEED]
    for line, seed in zip(lines[:9], first_seeds, strict=True):
        assert ": MISMATCH " in line
        assert line.endswith(f"; seed {seed} does not load: block 0: Expecting value: "
                             "line 1 column 1 (char 0)")
    # The exports come from the CLI's own run, which the patch leaves alone.
    assert lines[9].endswith(": seed-0 exports: ok")


def test_check_determinism_names_each_primitive_that_moved(monkeypatch, capsys):
    tool = _load_tool(monkeypatch)
    # Patched in the tool only: the runs, and so every digest, are left alone.
    monkeypatch.setattr(tool, "derive_stream", lambda seed, label: random.Random(seed))
    monkeypatch.setattr(tool, "canonical_encode", lambda obj: repr(obj).encode())
    assert tool.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert all(line.endswith(": ok") for line in lines[:10])
    assert lines[10].endswith(": primitives: MISMATCH derive_stream seed, canonical_encode")


def test_check_determinism_runs_the_cli_verify_on_its_ledger_export(monkeypatch, capsys):
    tool = _load_tool(monkeypatch)
    run_and_export = tool.run_and_export

    def run_and_cut_the_last_newline(request):
        run_and_export(request)
        ledger = Path(request.out_dir) / "ledger.jsonl"
        ledger.write_bytes(ledger.read_bytes()[:-1])

    monkeypatch.setattr(tool, "run_and_export", run_and_cut_the_last_newline)
    assert tool.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert all(line.endswith(": ok") for line in lines[:9])
    assert ": seed-0 exports: MISMATCH ledger.jsonl " in lines[9]
    assert re.search(r"; --verify exits 3: \S+ledger\.jsonl: invalid at block 30: "
                     r"line does not end with a newline$", lines[9]), lines[9]
