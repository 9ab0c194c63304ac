"""The demos are not run by the suite (demo 02 certifies U(7,7) and takes
seconds), so a deleted or renamed library name would break them silently.
Each ``demos/*.py`` is parsed, not run: every name it imports from
``lorentzlab`` must resolve, and so must every attribute it reads off an
imported ``lorentzlab`` module."""

import ast
import importlib
import types
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
