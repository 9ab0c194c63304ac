"""The order and the text of labels are decided in one place,
``simplicial.label_key``, ``face_key`` and ``label_str``: a set of labels
(a matroid flat) has a repr and a str that follow the hash seed, and those
functions list its members in a fixed order.  So no file under ``src`` but
``simplicial.py`` may sort labels by ``repr`` or turn them into text by
``map(repr, ...)`` or ``map(str, ...)``, and no file at all may print a
face as ``{set(...)}``, whose members follow the hash seed:
``simplicial.face_str`` prints it.

Beside it stands the guard of the one strict-positivity test: every cone
question goes through ``cones.orthant_shift``, so no file under ``src``
but ``cones.py`` names the simplex ``lp_max``, and none names the
mixed-system ``StrictSystem``, which lives in ``tests/oracles.py`` as a
reference.

Last stands the guard of the integer tables: ``HomPoly`` keeps its
coefficients as one integer table over a common denominator and
``LinSubspace`` its integer rows, so their arithmetic forms no rational:
with ``Q`` and ``Rational`` made to raise, it still runs.  The face walk
pins, projects and tests signs on those integers, and the simplex takes
and returns integers, so it decides integer points with no rational
formed, the orthant LPs included.  The orthant
Lorentzian test reads a text or JSON polynomial straight to that table
and decides on it, so ``poly lorentzian`` prints the same report with
``Q`` and ``Rational`` made to raise.  A polytope
body is read to integers too: on a warm normal set a second body forms
the rationals of its support numbers and vertices alone, none of its
normals, and a warm ``polytope af``, ``mixed`` or ``volume`` request
compares and hashes no ``Fraction``."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SIMPLICIAL = SRC / "lorentzlab" / "simplicial.py"
HASH_ORDER = re.compile(r"key=repr\b|map\(repr,|map\(str,")
SET_TEXT = re.compile(r"\{set\(")
CONES = SRC / "lorentzlab" / "cones.py"
SIMPLEX = re.compile(r"\blp_max\b")
MIXED_SYSTEM = re.compile(r"\bStrictSystem\b")


def test_only_simplicial_orders_labels():
    assert "def label_key" in SIMPLICIAL.read_text()
    offenders = []
    for path in sorted(SRC.glob("**/*.py")):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if SET_TEXT.search(line) or (path != SIMPLICIAL and HASH_ORDER.search(line)):
                offenders.append(f"{path.relative_to(SRC)}:{n}: {line.strip()}")
    assert not offenders, offenders


def test_only_cones_runs_the_simplex():
    assert "def lp_max" in CONES.read_text()
    offenders = []
    for path in sorted(SRC.glob("**/*.py")):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if MIXED_SYSTEM.search(line) or (path != CONES and SIMPLEX.search(line)):
                offenders.append(f"{path.relative_to(SRC)}:{n}: {line.strip()}")
    assert not offenders, offenders


def test_integer_tables_form_no_rational(monkeypatch):
    from lorentzlab import linalg, polycore, rat
    from lorentzlab.polycore import LinSubspace, parse_poly
    from oracles import subspace_sum

    f = parse_poly("1/2*t1^2 t2 + 3*t1 t2 t3 - 2/3*t3^3 + t2^2 t3")
    g = parse_poly("t1 - 5/4*t2 + t3")
    forms = {"t1": {"a": 1}, "t2": {"a": 2, "b": -1}, "t3": {"b": 3}}
    rows = [(1, -1, 0), (2, 0, 3)]

    def run():
        L = LinSubspace(f.vars, rows)
        return (f + g * g * g, f * g, f.partial("t1").partial("t3"), f.lineality_space(),
                (g * g).lineality_space(), f.substitute(("a", "b"), forms),
                L, subspace_sum(L, LinSubspace(f.vars, [(0, 1, 1)])), L.perp())

    want = run()

    def no_rational(*args):
        raise AssertionError(f"a rational was formed from {args}")

    # rat.Q too: polycore reads a coefficient to (p, q) by rat.ratio
    for module in (polycore, linalg, rat):
        monkeypatch.setattr(module, "Q", no_rational)
    monkeypatch.setattr(polycore, "Rational", no_rational)
    got = run()
    assert all(a == b for a, b in zip(got, want))
    assert got[1].den == 24 and got[4].dim == 2 and got[-1].dim == 1


def test_face_walk_forms_no_rational(monkeypatch):
    from lorentzlab import cones, hereditary, linalg, polycore, rat
    from lorentzlab.matroid import Matroid, flats, pol_matroid
    from test_fanchow import cube_fan
    from test_hereditary import triple_product

    fan = cube_fan()
    cases = [(h.delta, h.lin, h.f) for h in (triple_product(), pol_matroid(flats(Matroid.uniform(3, 4))))]
    cases.append((fan.cones, fan.lineality(), None))

    def run():
        # a fresh walk each time, so every face is built under the patch; a
        # point with a coordinate <= 0 sends the walk to the simplex
        return [[hereditary.FaceWalk(*case).member(x)
                 for x in ((1,) * n, range(1, n + 1), (0,) + (1,) * (n - 1), (-1,) + (1,) * (n - 1))]
                for case in cases for n in [len(case[1].ambient)]]

    lps = []
    inner = cones.lp_max
    with monkeypatch.context() as mp:
        mp.setattr(cones, "lp_max", lambda *a: lps.append(1) or inner(*a))
        want = run()
    assert len(lps) >= 10

    def no_rational(*args):
        raise AssertionError(f"a rational was formed from {args}")

    for module in (polycore, linalg, rat, cones, hereditary):
        monkeypatch.setattr(module, "Q", no_rational)
    for module in (polycore, cones, hereditary):
        monkeypatch.setattr(module, "Rational", no_rational)
    assert run() == want == [[True, True, True, False], [True, False, False, False], [True, True, True, False]]


def test_orthant_lorentzian_test_forms_no_rational(monkeypatch, tmp_path, capsys):
    import json

    from lorentzlab import cli, inertia, lorentzian, polycore, rat
    from lorentzlab.polycore import parse_poly

    f = (parse_poly("t1 + 2*t2 + 1/2*t3 + t4") * parse_poly("1/3*t1 + t2 + t3 + 2*t4")
         * parse_poly("t1 + t2 + 3/2*t3 + t4") * parse_poly("2*t1 + t2 + t3 + 1/5*t4"))
    paths = [tmp_path / "prod.txt", tmp_path / "prod.json"]
    paths[0].write_text(f.to_text())
    paths[1].write_text(json.dumps(f.to_json_dict()))

    def run():
        reports = []
        for path in paths:
            code = cli.main(["poly", "lorentzian", str(path)])
            reports.append((code, capsys.readouterr().out))
        return reports

    want = run()

    def no_rational(*args):
        raise AssertionError(f"a rational was formed from {args}")

    for module in (rat, polycore, lorentzian, inertia):
        for name in ("Q", "Rational"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_rational)
    assert run() == want
    assert [code for code, _ in want] == [0, 0] and '"verdict": "yes"' in want[0][1]


def test_warm_polytope_requests_form_no_rational_from_the_normals(monkeypatch, tmp_path, capsys):
    import json
    from fractions import Fraction

    from lorentzlab import cli, polytope, rat

    normals = [["1", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1"], ["-1", "0", "0"], ["0", "-1", "0"],
               ["0", "0", "-3"]]
    supports = [["1", "2", "3", "1", "1", "1"], ["2", "1", "1/2", "1", "3", "1"],
                ["1", "1", "1", "5/2", "1", "2"], ["3", "1", "2", "1", "1/3", "4"]]
    bodies = [{"dim": 3, "normals": normals, "t": t} for t in supports]
    paths = []
    for k, body in enumerate(bodies[:3]):
        paths.append(str(tmp_path / f"body{k}.json"))
        (tmp_path / f"body{k}.json").write_text(json.dumps(body))
    argvs = [["polytope", "af", *paths], ["polytope", "mixed", *paths], ["polytope", "volume", paths[0]]]
    for argv in argvs:
        assert cli.main(argv) == 0
    capsys.readouterr()

    made = []
    for module, name in ((rat, "Q"), (polytope, "Rational")):
        inner = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _inner=inner, _name=name: made.append((_name, a)) or _inner(*a))
    P = polytope.SimplePolytope.from_json_dict(bodies[3])
    assert not made, made
    # the support numbers and vertices are formed when first read, once
    assert len(P.t) + P.dim * len(P.vertices) == len(made) == 6 + 3 * 8
    assert P.t and P.vertices and P.active and len(made) == 6 + 3 * 8
    monkeypatch.undo()

    compared = []
    for name in ("__eq__", "__hash__"):
        inner = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *a, _inner=inner, _name=name: compared.append(_name) or _inner(*a))
    for argv in argvs:
        assert cli.main(argv) == 0
        assert not compared, (argv, compared)
