"""Every function, class and method in ``src/lorentzlab`` is reached by
the library: a command, a demo or the export list.  A route that only
tests call is a test oracle and lives in ``tests/oracles.py``; a name that
only its own test exercises is deleted with that test.

A function or class counts as reached when its name appears (as a
``Name``, an ``Attribute`` or an imported name) in ``src/`` outside its
own body, or anywhere in ``demos/``, or when ``__init__.py`` imports it.
A method counts as reached only through an ``Attribute`` of its name, so
a local variable that shares it does not count.  Dunders are called by
Python itself and are not checked.  The rest sit on ``ALLOWED``, each with
its reason."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "lorentzlab").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))

ALLOWED = {
    "matroid.LatticeVolume.chains": "wrapped by name in bench/tracing.py",
    "matroid.LatticeVolume.eval_bivariate": "wrapped by name in bench/tracing.py",
    "polycore.HomPoly.mixed_partial": "wrapped by name in bench/tracing.py",
    "cli._Parser.error": "argparse calls it on a usage error",
    "polycore.HomPoly.terms": "the rational reader of an exported class, named in the polycore docstring",
    "polycore.LinSubspace.basis": "the rational reader of an exported class, named in the polycore docstring",
}


def _names(node, attributes_only: bool = False) -> Counter:
    """Every name that ``node`` reads, loads or imports; with
    ``attributes_only``, the names of its ``Attribute`` nodes alone."""
    seen = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            seen[sub.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(sub, ast.Name):
            seen[sub.id] += 1
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            seen.update(alias.name.split(".")[-1] for alias in sub.names)
    return seen


def _definitions(module: str, tree):
    """(qualified name, bare name, node) for each top-level def and class
    of ``tree`` and each method of its classes but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def unreached(modules: dict, demos: list, allowed=()) -> list:
    """Qualified names of the definitions in ``modules`` (module name ->
    source) that nothing in ``modules`` outside their own body, nothing in
    ``demos`` (sources) and no ``__init__`` import reaches."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    used, attributes = Counter(), Counter()
    for tree in list(trees.values()) + [ast.parse(text) for text in demos]:
        used.update(_names(tree))
        attributes.update(_names(tree, attributes_only=True))
    exported = set(_names(trees["__init__"])) if "__init__" in trees else set()
    out = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(module, tree):
            method = qualname.count(".") == 2  # module.Class.method
            outside = (attributes if method else used)[name] - _names(node, method)[name]
            if outside <= 0 and name not in exported and qualname not in allowed:
                out.append(qualname)
    return out


def test_every_library_definition_is_reached():
    assert len(SRC) > 10 and len(DEMOS) >= 4
    modules = {path.stem: path.read_text() for path in SRC}
    demos = [path.read_text() for path in DEMOS]
    assert unreached(modules, demos, ALLOWED) == []


def test_every_allowed_name_is_still_defined():
    modules = {path.stem: ast.parse(path.read_text()) for path in SRC}
    defined = {q for module, tree in modules.items() for q, _, _ in _definitions(module, tree)}
    assert set(ALLOWED) <= defined, set(ALLOWED) - defined


def test_the_guard_flags_an_uncalled_def():
    module = "def used():\n    return 1\n\n\ndef uncalled():\n    return uncalled()\n\n\nX = used()\n"
    assert unreached({"synthetic": module}, []) == ["synthetic.uncalled"]
    assert unreached({"synthetic": module}, ["from synthetic import uncalled\n"]) == []
    assert unreached({"synthetic": module}, [], {"synthetic.uncalled": "kept"}) == []
    # a bare name does not reach a method; an attribute does
    module = "class K:\n    def m(self):\n        return 1\n\n\nm = 2\nX = K(), m\n"
    assert unreached({"synthetic": module}, []) == ["synthetic.K.m"]
    assert unreached({"synthetic": module}, ["K().m()\n"]) == []
