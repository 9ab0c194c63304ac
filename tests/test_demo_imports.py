"""The demos, checked two ways.  Each ``demos/*.py`` runs to exit code 0 in
a fresh interpreter and, on the ``fractions`` rational backend, prints
exactly ``tests/demo_output/<demo>.txt`` (demo 03 prints ``Fraction``
reprs, which the ``gmpy2`` backend writes as ``mpq``).  Each is also
parsed, so that a deleted or renamed library name is named in the failure:
every name it imports from ``lorentzlab`` must resolve, and so must every
attribute it reads off an imported ``lorentzlab`` module."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from lorentzlab import rat

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
OUTPUT = Path(__file__).resolve().parent / "demo_output"


def _unresolved(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = []
    modules = {}  # local name -> imported lorentzlab module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lorentzlab":
            mod = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    value = getattr(mod, alias.name)
                except AttributeError:
                    try:
                        value = importlib.import_module(f"{node.module}.{alias.name}")
                    except ImportError:
                        missing.append(f"{node.module}.{alias.name}")
                        continue
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lorentzlab":
                    mod = importlib.import_module(alias.name)
                    if alias.asname:
                        modules[alias.asname] = mod
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


def test_every_demo_import_resolves():
    assert len(DEMOS) >= 4
    missing = {path.name: _unresolved(path) for path in DEMOS}
    assert not any(missing.values()), missing


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    src = str(path.parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    if rat.RAT_BACKEND == "fractions":
        assert run.stdout == (OUTPUT / f"{path.stem}.txt").read_text()
