"""Every function, class and method in ``src/lorentzlab`` is reached by
the library: a command or a demo.  A route that only tests call is a test
oracle or fixture and lives in ``tests/oracles.py``; a name that only its
own test exercises is deleted with that test.  The export list in
``__init__.py`` is no reason to keep a name, and no module but
``__init__`` imports a name that it does not read.

A function or class counts as reached when its name appears (as a
``Name``, an ``Attribute`` or a name imported from ``lorentzlab``) in a
module of ``src/`` other than ``__init__``, outside its own body, or
anywhere in ``demos/``.  A name imported from another package, as
``product`` from ``itertools``, reaches nothing.  A method counts as
reached only through an ``Attribute`` of its name, so a local variable
that shares it does not count.  Dunders are called by Python itself and
are not checked.  The rest sit on ``ALLOWED``, each with its reason; a
reason that cites ``bench/tracing.py`` holds only while the tracer lists
the name.

A method reached only through an attribute that another definition of
the same bare name also answers to would pass unseen, so every definition
whose bare name is defined more than once sits on ``SHARED``, with the
function that calls it."""

import ast
from collections import Counter
from pathlib import Path

from test_tracing_names import _tracing_module

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "lorentzlab").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))

TRACER = "bench/tracing.py"
ALLOWED = {
    "matroid.LatticeVolume.chains": f"wrapped by name in {TRACER}",
    "matroid.LatticeVolume.eval_bivariate": f"wrapped by name in {TRACER}",
    "polycore.HomPoly.mixed_partial": f"wrapped by name in {TRACER}",
    "linalg.nullspace": f"wrapped by name in {TRACER}",
    "lorentzian.definitional_check": "acceptance criterion 12 runs it on the PSD cone, which is not polyhedral",
    "cli._Parser.error": "argparse calls it on a usage error",
    "polycore.HomPoly.terms": "the rational reader of an exported class, named in the polycore docstring",
    "polycore.LinSubspace.basis": "the rational reader of an exported class, named in the polycore docstring",
}

# definition -> a function or method (module.name or module.Class.name)
# whose body calls it
SHARED = {
    "cones.ConeByGenerators.from_json_dict": "cli.build_parser",
    "fanchow.Fan.from_json_dict": "cli.build_parser",
    "matroid.Matroid.from_json_dict": "cli.read_matroid_of_positive_rank",
    "polycore.HomPoly.from_json_dict": "cli.read_poly",
    "polytope.SimplePolytope.from_json_dict": "cli.build_parser",
    "simplicial.SimComplex.from_json_dict": "cli.read_weights_bundle",
    "subdivision.SubdivStep.from_json_dict": "cli.read_chain",
    "fanchow.Fan.to_json_dict": "cli.cmd_matroid_bergman",
    "hereditary.HLVerdict.to_json_dict": "cli.emit_hl_verdict",
    "polycore.HomPoly.to_json_dict": "cli.cmd_hereditary_from_weights",
    "polycore.LinSubspace.dim": "cli.cmd_hereditary",
    "simplicial.SimComplex.dim": "hereditary.from_weights",
    "matroid.Matroid.rank_total": "cli.read_matroid_of_positive_rank",
    "matroid.FlatLattice.rank_total": "matroid.char_poly",
    "simplicial.SimComplex.weld": "fanchow.fan_weld",
    "subdivision.weld": "subdivision.apply_chain",
    "inertia.SymMatrix._canonicalize": "inertia.SymMatrix.from_scaled",
    "polycore.LinSubspace._canonicalize": "polycore.LinSubspace._span",
    "polycore.HomPoly._build": "polycore.HomPoly._from_ratios",
    "polytope._build": "polytope.build",
}


def _names(node, attributes_only: bool = False) -> Counter:
    """Every name that ``node`` reads, loads or imports from
    ``lorentzlab`` (relatively, or from ``lorentzlab`` and its modules);
    with ``attributes_only``, the names of its ``Attribute`` nodes alone."""
    seen = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            seen[sub.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(sub, ast.Name):
            seen[sub.id] += 1
        elif isinstance(sub, ast.ImportFrom) and (sub.level or sub.module.split(".")[0] == "lorentzlab"):
            seen.update(alias.name for alias in sub.names)
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
    source) that nothing in ``modules`` but ``__init__``, outside their
    own body, and nothing in ``demos`` (sources) reaches."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    used, attributes = Counter(), Counter()
    reachers = [tree for name, tree in trees.items() if name != "__init__"]
    for tree in reachers + [ast.parse(text) for text in demos]:
        used.update(_names(tree))
        attributes.update(_names(tree, attributes_only=True))
    out = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(module, tree):
            method = qualname.count(".") == 2  # module.Class.method
            outside = (attributes if method else used)[name] - _names(node, method)[name]
            if outside <= 0 and qualname not in allowed:
                out.append(qualname)
    return out


def shared_definitions(modules: dict) -> set:
    """Qualified names of the definitions in ``modules`` (module name ->
    source) whose bare name another definition there shares."""
    defs = [(q, name) for module, text in modules.items() for q, name, _ in _definitions(module, ast.parse(text))]
    count = Counter(name for _, name in defs)
    return {q for q, name in defs if count[name] > 1}


def unused_imports(modules: dict) -> list:
    """"module.name" for each name that a top-level import of ``modules``
    (module name -> source) binds and that the module never reads as a
    ``Name``; ``__init__``, whose imports are the export list, and
    ``from __future__`` imports, which bind nothing, are skipped."""
    out = []
    for module, text in modules.items():
        if module == "__init__":
            continue
        tree = ast.parse(text)
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                out.extend(f"{module}.{name}" for name in bound if name not in read)
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


def test_every_tracer_allowance_is_still_traced():
    layers = _tracing_module().LAYERS
    cited = [q.split(".", 1) for q, reason in ALLOWED.items() if TRACER in reason]
    assert len(cited) >= 4
    stale = [".".join(q) for q in cited if q[1] not in layers.get(q[0], ())]
    assert not stale, stale


def test_the_guard_flags_an_uncalled_def():
    module = "def used():\n    return 1\n\n\ndef uncalled():\n    return uncalled()\n\n\nX = used()\n"
    assert unreached({"synthetic": module}, []) == ["synthetic.uncalled"]
    assert unreached({"synthetic": module}, ["from lorentzlab.synthetic import uncalled\n"]) == []
    assert unreached({"synthetic": module}, [], {"synthetic.uncalled": "kept"}) == []
    # a bare name does not reach a method; an attribute does
    module = "class K:\n    def m(self):\n        return 1\n\n\nm = 2\nX = K(), m\n"
    assert unreached({"synthetic": module}, []) == ["synthetic.K.m"]
    assert unreached({"synthetic": module}, ["K().m()\n"]) == []


def test_the_guard_flags_a_name_only_the_export_list_reaches():
    module = "def used():\n    return 1\n\n\ndef exported():\n    return 2\n\n\nX = used()\n"
    init = "from .synthetic import exported, used\n"
    assert unreached({"synthetic": module, "__init__": init}, []) == ["synthetic.exported"]
    # the same import in any other module is a reach
    assert unreached({"synthetic": module, "other": init}, []) == []


def test_an_import_from_another_package_reaches_nothing():
    module = "def product():\n    return 1\n"
    assert unreached({"synthetic": module, "other": "from itertools import product\n"}, []) == ["synthetic.product"]
    assert unreached({"synthetic": module}, ["from itertools import product as iproduct\n"]) == ["synthetic.product"]
    assert unreached({"synthetic": module}, ["from lorentzlab.synthetic import product\n"]) == []


def test_every_shared_name_is_listed_with_its_caller():
    modules = {path.stem: path.read_text() for path in SRC}
    assert shared_definitions(modules) == set(SHARED)
    defs = {q: node for module, text in modules.items() for q, _, node in _definitions(module, ast.parse(text))}
    for qualname, caller in SHARED.items():
        assert qualname.rsplit(".", 1)[1] in _names(defs[caller]), (qualname, caller)


def test_the_guard_flags_a_shared_name():
    a = "def f():\n    return 1\n\n\nclass K:\n    def f(self):\n        return 2\n\n    def g(self):\n        return 3\n"
    b = "class J:\n    def g(self):\n        return 4\n\n    def __init__(self):\n        pass\n"
    c = "class H:\n    def __init__(self):\n        pass\n"
    assert shared_definitions({"a": a}) == {"a.f", "a.K.f"}
    assert shared_definitions({"a": a, "b": b}) == {"a.f", "a.K.f", "a.K.g", "b.J.g"}
    # dunders are not definitions of the guard, so they share no name
    assert shared_definitions({"b": b, "c": c}) == set()


def test_no_library_module_imports_a_name_it_does_not_read():
    modules = {path.stem: path.read_text() for path in SRC}
    assert "__main__" in modules
    assert unused_imports(modules) == []


def test_the_guard_flags_an_unused_import():
    module = "from __future__ import annotations\n\nimport os.path as osp\nfrom math import lcm, prod\n\nX = prod([])\n"
    assert unused_imports({"synthetic": module}) == ["synthetic.osp", "synthetic.lcm"]
    # an attribute of that name is no read; a read inside a function is
    module = "import os\nfrom math import lcm\n\n\ndef f(k):\n    return os.sep, k.lcm\n"
    assert unused_imports({"synthetic": module}) == ["synthetic.lcm"]
    assert unused_imports({"__init__": module}) == []
