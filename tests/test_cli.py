"""Command-line front end: exit codes, schemas, determinism, witness
verification, and the JSON error contract for malformed inputs."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from lorentzlab import cli
from lorentzlab.cli import build_parser, main
from lorentzlab.matroid import LatticeVolume
from lorentzlab.rat import Q, Rational, read_rat, read_ratio
from conftest import in_fresh_process


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, (json.loads(out.out) if out.out.strip() else None), out.err


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, content):
        p = tmp_path / name
        p.write_text(content if isinstance(content, str) else json.dumps(content))
        paths[name] = str(p)
        return str(p)

    write("e2.txt", "t1 t2 + t1 t3 + t2 t3\n")
    write("sos.txt", "t1^2 + t2^2\n")
    write("negcoeff.txt", "t1^2 - t1*t2 + t2^2\n")
    write("edge.txt", "1/2*t1^2 + t1 t2 + 1/2*t2^2\n")
    write("quad.txt", "a0 b0 + a0 b1 + a1 b0 + a1 b1\n")
    write("zeroden.json", {"vars": ["t1", "t2"], "terms": [{"exps": [1, 1], "coeff": "1/0"}]})
    write("orthant3.json", {"generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})
    lines = [{1, 2, 3}, {1, 4, 5}, {1, 6, 7}, {2, 4, 6}, {2, 5, 7}, {3, 4, 7}, {3, 5, 6}]
    write("fano.json", {
        "ground": list(range(1, 8)),
        "bases": [sorted(b) for b in combinations(range(1, 8), 3) if set(b) not in lines],
    })
    write("u23.json", {"ground": [1, 2, 3], "bases": [[1, 2], [1, 3], [2, 3]]})
    write("square.json", {"dim": 2, "normals": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
                          "t": ["1", "1", "1", "1"]})
    write("rect.json", {"dim": 2, "normals": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
                        "t": ["2", "3", "0", "0"]})
    write("weights_edge.json", {
        "complex": {"vertices": ["t1", "t2"], "facets": [["t1", "t2"]]},
        "lineality": [["1", "-1"]],
        "weights": [{"facet": ["t1", "t2"], "w": "1"}],
    })
    write("chain.json", [
        {"kind": "subdivide", "face": ["a0", "b0"], "c": ["1", "1"]},
        {"kind": "weld", "face": ["a0", "b0"], "c": ["1", "1"]},
    ])
    write("sqfan.json", {
        "dim": 2,
        "labels": ["e", "n", "w", "s"],
        "rays": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
        "cones": [["e", "n"], ["n", "w"], ["w", "s"], ["s", "e"]],
    })
    write("sqweights.json", [
        {"facet": ["e", "n"], "w": "1"}, {"facet": ["n", "w"], "w": "1"},
        {"facet": ["w", "s"], "w": "1"}, {"facet": ["s", "e"], "w": "1"},
    ])
    write("list.json", [["1", "0"], ["0", "1"]])
    write("t5.json", {"dim": 2, "normals": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]], "t": 5})
    write("nogens.json", {"rays": [["1", "0", "0"]]})
    write("segment.json", {"dim": 1, "normals": [["1"], ["-1"]], "t": ["1", "1"]})
    write("hugeexp.json", '{"dim": 1, "normals": [["1"], ["-1"]], "t": [1e-99999999, 1]}')
    write("orthant4.json", {"generators": [[int(i == j) for j in range(4)] for i in range(4)]})
    write("fanchain.json", [{"kind": "subdivide", "ray": [1, 1], "vertex": "m"},
                            {"kind": "weld", "vertex": "m", "face": ["e", "n"]}])
    write("vars5.json", {"vars": 5, "terms": [{"exps": [1], "coeff": 1}]})
    square_rays = [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]]
    for name, cones in (("index_past_end", [[0, 1], [1, 2], [2, 3], [3, 4]]),
                        ("negative_index", [[0, 1], [1, 2], [2, 3], [3, -4]]),
                        ("boolean_index", [[0, True], [True, 2], [2, 3], [3, 0]])):
        write(f"fan_{name}.json", {"dim": 2, "rays": square_rays, "cones": cones})
    write("index_weights.json", [{"facet": [i, (i + 1) % 4], "w": "1"} for i in range(4)])
    write("bundle_no_facets.json", {"complex": {"vertices": ["t1", "t2"]}, "lineality": [["1", "-1"]],
                                    "weights": [{"facet": ["t1", "t2"], "w": "1"}]})
    write("weights_no_w.json", [{"facet": ["e", "n"]}])
    write("chain_unhashable.json", [{"kind": "subdivide", "face": [["a0"], "b0"], "c": ["1", "1"]}])
    write("fanchain_no_ray.json", [{"kind": "subdivide", "vertex": "m"}])
    write("fanchain_unknown_ray.json", [{"kind": "weld", "vertex": "zz", "face": ["e", "n"]}])
    write("fanchain_long_ray.json", [{"kind": "subdivide", "ray": [1, 1, 1], "vertex": "m"}])
    write("chain_repeated_label.json", [{"kind": "subdivide", "face": ["a0", "a0"], "c": ["1", "1"]}])
    write("fanchain_repeated_label.json", [{"kind": "subdivide", "face": ["e", "e"], "c": ["1", "1"]}])
    write("fanchain_weld_repeated_label.json", [{"kind": "subdivide", "ray": [1, 1], "vertex": "m"},
                                                {"kind": "weld", "vertex": "m", "face": ["n", "n"]}])
    # every facet twice, weights 1 and then 7: read last-wins, this is a
    # balanced functional, so only the duplicate check can refuse it
    write("weights_twice.json", [
        {"facet": ["e", "n"], "w": "1"}, {"facet": ["n", "w"], "w": "1"},
        {"facet": ["w", "s"], "w": "1"}, {"facet": ["s", "e"], "w": "1"},
        {"facet": ["n", "e"], "w": "7"}, {"facet": ["w", "n"], "w": "7"},
        {"facet": ["s", "w"], "w": "7"}, {"facet": ["e", "s"], "w": "7"},
    ])
    write("bundle_facet_twice.json", {
        "complex": {"vertices": ["t1", "t2"], "facets": [["t1", "t2"]]},
        "lineality": [["1", "-1"]],
        "weights": [{"facet": ["t1", "t2"], "w": "1"}, {"facet": ["t2", "t1"], "w": "2"}],
    })
    write("deep.json", "[" * 10000 + "]" * 10000)
    write("zero.json", {"vars": ["a", "b"], "degree": 2, "terms": []})
    write("chain_vertex0.json", [{"kind": "subdivide", "face": ["a0", "b0"], "c": ["1", "1"], "vertex": 0},
                                 {"kind": "weld", "face": ["a0", "b0"], "c": ["1", "1"], "vertex": 0}])
    letters = ["a", "b", "c", "d", "e"]
    write("u35_letters.json", {"ground": letters, "bases": [list(b) for b in combinations(letters, 3)]})
    return paths


def test_poly_lorentzian_exit_codes(capsys, files):
    code, rep, err = run(capsys, "poly", "lorentzian", files["e2.txt"])
    assert code == 0 and rep["verdict"] == "yes"
    code, rep, _ = run(capsys, "--verify-witness", "poly", "lorentzian", files["sos.txt"])
    assert code == 1 and rep["verdict"] == "no" and rep["witness_verified"] is True
    code, rep, _ = run(capsys, "poly", "lorentzian", files["sos.txt"] + ".missing")
    assert code == 2 and rep["verdict"] == "error"


def test_poly_k_lorentzian(capsys, files):
    code, rep, _ = run(capsys, "poly", "k-lorentzian", files["e2.txt"], "--cone", files["orthant3.json"])
    assert code == 0 and rep["verdict"] == "yes"


def test_hereditary_commands(capsys, files):
    code, rep, _ = run(capsys, "hereditary", "check", files["edge.txt"])
    assert code == 0 and rep["strong"] is False and rep["lineality_dim"] == 1
    code, rep, _ = run(capsys, "hereditary", "lorentzian", files["edge.txt"])
    assert code == 0 and rep["verdict"] == "yes"
    code, rep, _ = run(capsys, "hereditary", "from-weights", files["weights_edge.json"])
    assert code == 0
    got = rep["polynomial"]["terms"]
    assert {tuple(t["exps"]): t["coeff"] for t in got} == {(0, 2): "1/2", (1, 1): "1", (2, 0): "1/2"}


def test_from_weights_on_the_empty_face_only(capsys, tmp_path):
    # the complex whose only face is the empty one: the constant weight
    path = tmp_path / "empty_face.json"
    path.write_text(json.dumps({"complex": {"vertices": ["t1"], "facets": [[]]}, "lineality": [],
                                "weights": [{"facet": [], "w": "3"}]}))
    code, rep, err = run(capsys, "hereditary", "from-weights", str(path))
    assert code == 0, err
    assert rep["polynomial"] == {"vars": [], "degree": 0, "terms": [{"exps": [], "coeff": "3"}]}
    assert rep["strong"] is True


def test_subdivide_weld_chain(capsys, files, tmp_path):
    code, rep, _ = run(capsys, "subdivide", files["edge.txt"], "--face", "t1,t2",
                       "--coeffs", "1,1", "--vertex", "w0")
    assert code == 0
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps(rep["polynomial"]))
    code, rep2, _ = run(capsys, "weld", str(sub), "--face", "t1,t2", "--coeffs", "1,1", "--vertex", "w0")
    assert code == 0
    assert {tuple(t["exps"]): t["coeff"] for t in rep2["polynomial"]["terms"]} == \
           {(0, 2): "1/2", (1, 1): "1", (2, 0): "1/2"}
    code, rep3, _ = run(capsys, "chain", "apply", files["quad.txt"], files["chain.json"])
    assert code == 0 and len(rep3["steps"]) == 2
    code, rep4, _ = run(capsys, "chain", "apply", files["edge.txt"], files["chain.json"])
    assert code == 2 and "strongly hereditary" in rep4["message"]


def test_chain_apex_may_be_a_falsy_label(capsys, files):
    # the apex 0 is named, so it is used, not replaced by a fresh label
    code, rep, err = run(capsys, "chain", "apply", files["quad.txt"], files["chain_vertex0.json"])
    assert code == 0, err
    assert [step["vertex"] for step in rep["steps"]] == [0, 0]
    assert rep["polynomial"] == cli.read_poly(open(files["quad.txt"]).read()).to_json_dict()


def test_vacuous_verdict_exits_0(capsys, files):
    # exit 1 means "no, with witness"; the zero polynomial has an empty cone
    # and is "vacuous", with no witness
    code, rep, _ = run(capsys, "--verify-witness", "hereditary", "lorentzian", files["zero.json"])
    assert code == 0 and rep["verdict"] == "vacuous"
    assert rep["c_witness"] is None and rep["q_witness"] is None and "witness_verified" not in rep


def test_matroid_commands(capsys, files):
    code, rep, _ = run(capsys, "matroid", "hrw", files["fano.json"])
    assert code == 0 and rep["coefficients"] == ["8", "6", "1"]
    code, rep, _ = run(capsys, "matroid", "charpoly", files["fano.json"])
    assert code == 0 and rep["chi"] == ["-8", "14", "-7", "1"]
    code, rep, _ = run(capsys, "matroid", "flats", files["u23.json"])
    assert code == 0 and len(rep["flats"]) == 5
    code, rep, _ = run(capsys, "matroid", "bergman", files["u23.json"])
    assert code == 0 and rep["fan"]["dim"] == 2


def test_polytope_commands(capsys, files):
    code, rep, _ = run(capsys, "polytope", "volume", files["square.json"])
    assert code == 0 and rep["volume"] == "4"
    code, rep, _ = run(capsys, "polytope", "polynomial", files["square.json"])
    assert code == 0 and rep["strong"] is True
    code, rep, _ = run(capsys, "polytope", "mixed", files["square.json"], files["rect.json"])
    assert code == 0 and rep["mixed_volume"] == "10"
    code, rep, _ = run(capsys, "polytope", "af", files["square.json"], files["rect.json"])
    assert code == 0 and rep["verdict"] == "yes"


def test_non_simple_polytope_names_its_vertex_in_rat_str(capsys, tmp_path):
    """A square cut through a corner has a vertex on three facets; the error
    renders it as "p/q" text, which both rational backends print alike."""
    path = tmp_path / "cut.json"
    path.write_text(json.dumps({"dim": 2, "normals": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"], ["1", "1"]],
                                "t": ["1/2", "1/2", "1", "1", "1"]}))
    code, rep, err = run(capsys, "polytope", "volume", str(path))
    assert code == 2 and rep == {
        "message": f"{path}: vertex (1/2, 1/2) lies on 3 facets; polytope is not simple", "verdict": "error"}
    assert "vertex (1/2, 1/2) lies on 3 facets" in err


def test_polytope_polynomial_then_mixed_builds_the_polynomial_once(capsys, files, monkeypatch):
    """Count guard: `polynomial` fills the cache that `mixed` and `af` read
    on the same normals, so one process reconstructs the polynomial once."""
    from lorentzlab import hereditary, polytope

    monkeypatch.setattr(polytope, "_VOLPOLY_CACHE", {})
    calls = []
    inner = hereditary.from_weights
    monkeypatch.setattr(hereditary, "from_weights", lambda *a: calls.append(1) or inner(*a))
    for sub, paths in (("polynomial", ["square.json"]), ("mixed", ["square.json", "rect.json"]),
                       ("af", ["rect.json", "square.json"])):
        code, _, _ = run(capsys, "polytope", sub, *(files[p] for p in paths))
        assert code == 0
    assert len(calls) == 1


def test_polytope_af_eliminates_each_subset_once(capsys, tmp_path, monkeypatch):
    """Count guard: `polytope af` on d fresh bodies of one normal set runs
    C(n, d) eliminations in polytope.py, one chart per d-subset of normals,
    not one per subset and body."""
    from lorentzlab import linalg, polytope

    monkeypatch.setattr(polytope, "_BOUNDED", {})
    monkeypatch.setattr(polytope, "_VOLPOLY_CACHE", {})
    normals = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    paths = []
    for k in range(3):
        paths.append(tmp_path / f"box{k}.json")
        paths[-1].write_text(json.dumps({"dim": 3, "normals": normals, "t": [k + 1, 1, 2, 0, k, 1]}))
    calls = []
    inner = linalg.eliminate

    def spy(M):
        if sys._getframe(1).f_globals["__name__"] == "lorentzlab.polytope":
            calls.append(len(M))
        return inner(M)

    monkeypatch.setattr(linalg, "eliminate", spy)
    code, rep, _ = run(capsys, "polytope", "af", *map(str, paths))
    assert code == 0 and rep["verdict"] == "yes"
    assert calls == [3] * 20


def test_fan_commands(capsys, files, tmp_path):
    code, rep, _ = run(capsys, "fan", "check", files["sqfan.json"], "--weights", files["sqweights.json"])
    assert code == 0 and rep["verdict"] == "yes"
    code, rep, _ = run(capsys, "fan", "subdivide", files["sqfan.json"], "--ray", "1,1",
                       "--weights", files["sqweights.json"])
    assert code == 0 and len(rep["fan"]["cones"]) == 5
    fan2 = tmp_path / "fan2.json"
    fan2.write_text(json.dumps(rep["fan"]))
    w2 = tmp_path / "w2.json"
    w2.write_text(json.dumps(rep["weights"]))
    code, rep2, _ = run(capsys, "fan", "bijection", files["sqfan.json"], files["sqweights.json"],
                        str(fan2), str(w2))
    assert code == 0 and rep2["verdict"] == "yes"
    chain = tmp_path / "fanchain.json"
    chain.write_text(json.dumps([{"kind": "subdivide", "ray": [1, 1], "vertex": "m"},
                                 {"kind": "weld", "vertex": "m", "face": ["e", "n"]}]))
    code, rep3, _ = run(capsys, "fan", "transport", files["sqfan.json"], files["sqweights.json"], str(chain))
    assert code == 0 and all(e["w"] == "1" for e in rep3["weights"])


REPORTS_SCRIPT = """
import json, sys
from lorentzlab.cli import main
for argv in json.load(sys.stdin):
    print("exit", main(argv))
"""


def test_face_in_an_error_does_not_depend_on_the_hash_seed(files):
    """A face of string labels in an exit-2 message lists its members in
    ``label_key`` order; the set's own order differs under these seeds."""
    argv = [["subdivide", files["quad.txt"], "--face", "a0,a1", "--coeffs", "1,1"]]
    outs = {in_fresh_process(REPORTS_SCRIPT, json.dumps(argv), PYTHONHASHSEED=seed) for seed in "1234"}
    assert len(outs) == 1
    out = outs.pop()
    assert "{'a0', 'a1'} is not a face of the support complex" in out and out.endswith("exit 2\n")


def test_reports_do_not_depend_on_the_hash_seed(capsys, files):
    """Every fixture, fed to a command that reads it, and matroid bergman and
    hrw over string labels (whose flats are sets of strings, hashed
    differently under each seed) print the same bytes under two seeds."""
    requests = [_argv(words, parser, files) for words, parser in _leaf_commands(build_parser())]
    named = MALFORMED_ARGVS + [
        ("--verify-witness", "poly", "lorentzian", "sos.txt"),
        ("poly", "k-lorentzian", "e2.txt", "--cone", "orthant3.json"),
        ("matroid", "hrw", "fano.json"),
        ("polytope", "mixed", "square.json", "rect.json"),
        ("--verify-witness", "hereditary", "lorentzian", "zero.json"),
        ("chain", "apply", "quad.txt", "chain_vertex0.json"),
        ("matroid", "bergman", "u35_letters.json"),
        ("matroid", "hrw", "u35_letters.json"),
    ]
    assert set(files) <= {a for argv in named for a in argv} | set(VALID_FILES.values())
    requests += [[files.get(a, a) for a in argv] for argv in named]
    outs = [in_fresh_process(REPORTS_SCRIPT, json.dumps(requests), PYTHONHASHSEED=seed)
            for seed in ("0", "1")]
    assert outs[0] == outs[1]
    assert outs[0].count("exit ") == len(requests) and "frozenset({'a', 'b'})" in outs[0]
    # timing only appears under --timing
    assert "timing_ms" not in outs[0]
    main(["--timing", "matroid", "hrw", files["u23.json"]])
    assert "timing_ms" in capsys.readouterr().out


def test_malformed_inputs_name_the_field(capsys, files, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"complex": {"vertices": [], "facets": []}}))
    code, rep, _ = run(capsys, "hereditary", "from-weights", str(bad))
    assert code == 2 and "lineality" in rep["message"]
    notjson = tmp_path / "nj.json"
    notjson.write_text("{oops")
    code, rep, _ = run(capsys, "matroid", "hrw", str(notjson))
    assert code == 2 and "JSON" in rep["message"]
    # a polynomial file that starts like JSON reports its JSON error
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"vars": ["x", "y"], "terms": [')
    code, rep, _ = run(capsys, "poly", "lorentzian", str(truncated))
    assert code == 2 and "bad JSON" in rep["message"] and str(truncated) in rep["message"]
    # an unknown ray in a weld step is named, not read as a failed combination
    code, rep, _ = run(capsys, "fan", "transport", files["sqfan.json"], files["sqweights.json"],
                       files["fanchain_unknown_ray.json"])
    assert code == 2 and "no ray labelled 'zz'" in rep["message"]


@pytest.mark.parametrize("content, needle", [
    ({"graph": {"vertices": 3, "edges": [[0, 5]]}}, "edge 0"),
    ([[1, 2], [1, 3]], "JSON object"),
    ({"ground": list(range(6)), "bases": [[0, 1, 2], [0, 2, 3], [0, 3, 4], [1, 4, 5], [2, 3, 5]]},
     "exchange"),
    ({"ground": [1, 2], "bases": [[]]}, "rank >= 1"),
    ({"graph": {"vertices": 3, "edges": [[0, 1], [True, 2]]}}, "edge 1"),
])
def test_malformed_matroid_inputs_exit_2(capsys, tmp_path, content, needle):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(content))
    for sub in ("hrw", "charpoly"):
        code, rep, _ = run(capsys, "matroid", sub, str(path))
        assert code == 2 and rep["verdict"] == "error" and needle in rep["message"]
        assert str(path) in rep["message"]


@pytest.mark.parametrize("vertices", [3.5, 3.0, "3", True, -1, None, [3]])
def test_graph_vertices_must_be_a_non_negative_integer(capsys, tmp_path, vertices):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"graph": {"vertices": vertices, "edges": [[0, 1]]}}))
    code, rep, _ = run(capsys, "matroid", "hrw", str(path))
    assert code == 2 and rep["verdict"] == "error" and "vertices" in rep["message"]


SQUARE_FAN = {"dim": 2, "labels": ["e", "n", "w", "s"],
              "rays": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
              "cones": [["e", "n"], ["n", "w"], ["w", "s"], ["s", "e"]]}


UNIT_SQUARE = {"dim": 2, "normals": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]], "t": ["1", "1", "0", "0"]}


@pytest.mark.parametrize("content, argv, needle", [
    ({"vars": ["a", "b"], "degree": 2.0, "terms": [{"exps": [1, 1], "coeff": "1"}]},
     ["subdivide", "{path}", "--face", "a", "--coeffs", "1"], "degree 2.0"),
    ({"vars": ["a", "b"], "terms": [{"exps": [True, True], "coeff": "1"}]},
     ["poly", "lorentzian", "{path}"], "exps [True, True]"),
    ({"vars": ["a", "b"], "terms": [{"exps": [1.0, 1.0], "coeff": "1"}]},
     ["poly", "lorentzian", "{path}"], "exps [1.0, 1.0]"),
    (dict(SQUARE_FAN, dim=2.5), ["fan", "check", "{path}", "--weights", "{weights}"], "dim 2.5"),
    # a polytope's dim is read and must be the length of its normals
    (dict(UNIT_SQUARE, dim=2.5), ["polytope", "volume", "{path}"], "dim 2.5"),
    (dict(UNIT_SQUARE, dim=True), ["polytope", "volume", "{path}"], "dim True"),
    (dict(UNIT_SQUARE, dim=3), ["polytope", "af", "{path}", "{path}"], "dim 3"),
    (dict(UNIT_SQUARE, dim=1), ["polytope", "volume", "{path}"], "dim 1"),
])
def test_integer_fields_must_be_json_ints(capsys, tmp_path, content, argv, needle):
    path, weights = tmp_path / "in.json", tmp_path / "w.json"
    path.write_text(json.dumps(content))
    weights.write_text(json.dumps([{"facet": F, "w": "1"} for F in SQUARE_FAN["cones"]]))
    code, rep, _ = run(capsys, *(a.format(path=path, weights=weights) for a in argv))
    assert code == 2 and rep["verdict"] == "error" and needle in rep["message"]
    assert str(path) in rep["message"]


def test_graph_size_follows_the_edges_not_the_vertex_count(capsys, tmp_path):
    """Union-find runs over the edges' endpoints, so a vertex count far
    beyond memory costs nothing: K3 plus 10^12 isolated vertices is U(2,3)."""
    small, huge = tmp_path / "k3.json", tmp_path / "k3_huge.json"
    edges = [[0, 1], [1, 2], [0, 2]]
    small.write_text(json.dumps({"graph": {"vertices": 3, "edges": edges}}))
    huge.write_text(json.dumps({"graph": {"vertices": 10 ** 12, "edges": edges}}))
    got = [_report_without_command(capsys, "matroid", "hrw", str(p)) for p in (small, huge)]
    assert got[0] == got[1] and got[0][0] == 0
    assert got[0][1]["reduced"] == ["-2", "1"]
    code, rep, _ = run(capsys, "matroid", "charpoly", str(huge))
    assert code == 0 and rep["chi"] == ["2", "-3", "1"]


MALFORMED_ARGVS = [
    ("poly", "lorentzian", "negcoeff.txt"),
    ("fan", "subdivide", "sqfan.json", "--ray", "1,x"),
    ("subdivide", "edge.txt", "--face", "t1,t2", "--coeffs", "1,x"),
    ("--bogus", "poly", "lorentzian", "e2.txt"),
    ("--parallel", "2", "poly", "lorentzian", "e2.txt"),
    ("poly", "lorentzian"),
    ("nosuchgroup",),
    ("fan", "subdivide", "sqfan.json", "--ray", "1/0,1"),
    ("subdivide", "edge.txt", "--face", "t1,t2", "--coeffs", "1/0"),
    ("poly", "lorentzian", "zeroden.json"),
    ("polytope", "volume", "list.json"),
    ("fan", "check", "list.json", "--weights", "sqweights.json"),
    ("poly", "k-lorentzian", "e2.txt", "--cone", "list.json"),
    ("polytope", "volume", "t5.json"),
    ("poly", "k-lorentzian", "e2.txt", "--cone", "nogens.json"),
    ("polytope", "af", "square.json"),
    ("polytope", "af", "segment.json"),
    ("polytope", "volume", "hugeexp.json"),
    ("poly", "lorentzian", "vars5.json"),
    ("fan", "check", "fan_index_past_end.json", "--weights", "index_weights.json"),
    ("fan", "check", "fan_negative_index.json", "--weights", "index_weights.json"),
    ("fan", "check", "fan_boolean_index.json", "--weights", "index_weights.json"),
    ("hereditary", "from-weights", "bundle_no_facets.json"),
    ("fan", "check", "sqfan.json", "--weights", "weights_no_w.json"),
    ("chain", "apply", "quad.txt", "chain_unhashable.json"),
    ("fan", "transport", "sqfan.json", "sqweights.json", "fanchain_no_ray.json"),
    ("fan", "transport", "sqfan.json", "sqweights.json", "fanchain_unknown_ray.json"),
    ("weld", "edge.txt", "--face", "t1,t2", "--coeffs", "1,1"),
    ("polytope", "volume", "deep.json"),
    ("polytope", "volume", "square.json", "square.json"),
    ("subdivide", "e2.txt", "--face", "t1,t1", "--coeffs", "1,1"),
    ("weld", "e2.txt", "--face", "t2,t2", "--coeffs", "1,1", "--vertex", "t1"),
    ("chain", "apply", "quad.txt", "chain_repeated_label.json"),
    ("fan", "check", "sqfan.json", "--weights", "weights_twice.json"),
    ("hereditary", "from-weights", "bundle_facet_twice.json"),
    ("fan", "subdivide", "sqfan.json", "--ray", "1,1,1"),
    ("fan", "subdivide", "sqfan.json", "--ray", "1"),
    ("fan", "transport", "sqfan.json", "sqweights.json", "fanchain_long_ray.json"),
    ("fan", "transport", "sqfan.json", "sqweights.json", "fanchain_repeated_label.json"),
    ("fan", "transport", "sqfan.json", "sqweights.json", "fanchain_weld_repeated_label.json"),
]


@pytest.mark.parametrize("argv", MALFORMED_ARGVS)
def test_malformed_inputs_exit_2_with_json(capsys, files, argv):
    code, rep, _ = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 2 and rep["verdict"] == "error" and rep["message"]


@pytest.mark.parametrize("argv, needle", [
    (("subdivide", "e2.txt", "--face", "t1,t1", "--coeffs", "1,1"), "repeats the label 't1'"),
    (("weld", "e2.txt", "--face", "t2,t2", "--coeffs", "1,1", "--vertex", "t1"), "repeats the label 't2'"),
    (("chain", "apply", "quad.txt", "chain_repeated_label.json"), "repeats the label 'a0'"),
    (("fan", "subdivide", "sqfan.json", "--ray", "1,1,1"), "length 3, but the fan has dimension 2"),
    (("fan", "subdivide", "sqfan.json", "--ray", "1"), "length 1, but the fan has dimension 2"),
    (("fan", "transport", "sqfan.json", "sqweights.json", "fanchain_long_ray.json"),
     "length 3, but the fan has dimension 2"),
    (("fan", "transport", "sqfan.json", "sqweights.json", "fanchain_repeated_label.json"),
     "face ['e', 'e'] repeats the label 'e'"),
    (("fan", "transport", "sqfan.json", "sqweights.json", "fanchain_weld_repeated_label.json"),
     "face ['n', 'n'] repeats the label 'n'"),
])
def test_malformed_faces_and_rays_are_named(capsys, files, argv, needle):
    code, rep, _ = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 2 and needle in rep["message"], rep


@pytest.mark.parametrize("argv", [
    ("fan", "check", "sqfan.json", "--weights", "weights_twice.json"),
    ("fan", "subdivide", "sqfan.json", "--ray", "1,1", "--weights", "weights_twice.json"),
    ("fan", "bijection", "sqfan.json", "sqweights.json", "sqfan.json", "weights_twice.json"),
    ("fan", "transport", "sqfan.json", "weights_twice.json", "fanchain.json"),
    ("hereditary", "from-weights", "bundle_facet_twice.json"),
])
def test_a_facet_weighted_twice_is_an_input_error(capsys, files, argv):
    """A weights list that names one facet twice, in any order of its
    labels, is rejected and the facet named; the later weight never
    silently replaces the earlier."""
    code, rep, _ = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 2 and rep["verdict"] == "error" and "is listed twice" in rep["message"], rep
    assert "{'e', 'n'}" in rep["message"] or "{'t1', 't2'}" in rep["message"], rep


# a valid file of each format, by the name of the parser that the file
# argument's type runs
VALID_FILES = {
    "read_poly": "quad.txt",
    "ConeByGenerators.from_json_dict": "orthant4.json",
    "read_weights_bundle": "weights_edge.json",
    "read_chain": "chain.json",
    "Matroid.from_json_dict": "u23.json",
    "read_matroid_of_positive_rank": "u23.json",
    "SimplePolytope.from_json_dict": "square.json",
    "Fan.from_json_dict": "sqfan.json",
    "read_fan_weights": "sqweights.json",
    "read_fan_chain": "fanchain.json",
}
# a valid value of every required argument that is not a file
VALID_VALUES = {"face": "a0,b0", "coeffs": "1,1", "vertex": "a1", "ray": "1,1"}
SHAPES = ["{}", "[]", "[1]", "[{}]", "[[1]]", "null", '"x"', '{"x": 1}']
# a polynomial file that does not start with "{" or "[" is read in the text
# grammar, where ``null`` is a valid polynomial: the variable named null
TEXT_POLYNOMIALS = {"null"}


def _leaf_commands(parser, prefix=()):
    """(subcommand words, parser) for every subcommand of the CLI."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, prefix + (name,))
            return
    yield prefix, parser


def _argv(words, parser, files, bad=None, bad_path=None):
    """A valid command line, with the file argument ``bad`` replaced by
    ``bad_path``.  Every file argument is given, optional ones too."""
    argv = list(words)
    for action in parser._actions:
        if action.dest == "help":
            continue
        if isinstance(action.type, cli.InputFile):
            valid = files[VALID_FILES[action.type.parse.__qualname__]]
            value = bad_path if action is bad else valid
            values = [value, valid] if action.nargs == "+" else [value]
        elif action.required or not action.option_strings:
            values = [VALID_VALUES[action.dest]]
        else:
            continue
        argv += [action.option_strings[0], *values] if action.option_strings else values
    return argv


def test_every_file_argument_rejects_every_malformed_shape(capsys, files, tmp_path):
    """Walks the parser, so a new subcommand or file argument is covered as
    it is added: each file argument, fed each wrong shape of JSON while the
    other arguments stay valid, gives exit 2 and a JSON error naming it."""
    bad_files = []
    for i, shape in enumerate(SHAPES):
        bad_files.append(tmp_path / f"shape{i}.json")
        bad_files[-1].write_text(shape)
    covered = 0
    for words, parser in _leaf_commands(build_parser()):
        code, _, err = run(capsys, *_argv(words, parser, files))
        assert code in (0, 1), (words, err)
        for action in parser._actions:
            if not isinstance(action.type, cli.InputFile):
                continue
            covered += 1
            for path in bad_files:
                if action.type.parse is cli.read_poly and path.read_text() in TEXT_POLYNOMIALS:
                    continue
                code, rep, err = run(capsys, *_argv(words, parser, files, action, str(path)))
                assert code == 2 and rep["verdict"] == "error", (words, action.dest, path.read_text(), err)
                assert "Traceback" not in err
    assert covered >= 29


def _report_without_command(capsys, *argv):
    code, rep, _ = run(capsys, *argv)
    rep.pop("command")
    return code, rep


def test_one_reader_for_json_numbers(capsys, tmp_path):
    """``rat.read_rat`` takes a Python int as it is and reads every other
    value through its text: a "p/q" string and a JSON decimal exactly, and
    a bool, a list, null or a malformed string fail as ``Q(str(x))`` does,
    so a bool in a number field exits 2."""
    assert read_rat(3) == 3 and type(read_rat(3)) is Rational
    assert read_rat("-7/21") == Q(-1, 3) and read_rat(cli._JsonDecimal("0.25")) == Q(1, 4)
    for bad in (True, [1], None, "1/2x"):
        with pytest.raises(ValueError) as got:
            read_rat(bad)
        with pytest.raises(ValueError) as want:
            Q(str(bad))
        assert str(got.value) == str(want.value)
    path = tmp_path / "bool.json"
    path.write_text('{"dim": 2, "normals": [[1, 0], [0, 1], [-1, 0], [0, -1]], "t": [true, 1, 1, 1]}')
    code, rep, _ = run(capsys, "polytope", "volume", str(path))
    assert code == 2 and rep["verdict"] == "error"


def _rational_parse(x) -> tuple:
    """The value, or the error, of ``Fraction(str(x))`` through ``Q`` (which
    names a zero denominator in a ValueError), a Python int taken as it is:
    the reader that ``rat.read_ratio`` must agree with."""
    try:
        r = Q(x) if type(x) is int else Q(str(x))
    except Exception as e:
        return type(e), str(e)
    return r.numerator, r.denominator


def _ratio_or_error(x) -> tuple:
    try:
        return read_ratio(x)
    except Exception as e:
        return type(e), str(e)


def test_read_ratio_agrees_with_the_rational_parse(rng):
    """``read_ratio`` against ``Fraction(str(x))``: the same value in lowest
    terms on Python ints, or the same error type and text, on a fixed
    corpus of JSON values and edge strings and on seeded strings, most of
    them near the "p", "-p" and "p/q" of the fast path."""
    corpus = [0, 7, -12, 10 ** 40, True, False, None, 0.5, 1e300, float("nan"),
              cli._JsonDecimal("0.1000000000000000055511151231257827"), [1], {"a": 1},
              "2/4", "-0", "+2", " 3 ", "1_0", "1/0", "/2", "2/", "", "-", "-/2", "--1", "1/-2",
              "-4/6", "0/5", "007/014", "1e3", "1.50", "0x1", "1" * 5000, "1/" + "2" * 5000,
              # decimal digits of other scripts, which int and Fraction both read, and a
              # superscript and a circled digit, which isdigit accepts and both refuse
              "\u0663", "-\u0663", "\u0661/\u0662", "\u0663/2", "1/\u0663", "\u00b2", "\u2460"]
    alphabet = "0123456789" * 3 + "-+/_. e\u0663\u00b2x"
    seeded = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7))) for _ in range(3000)]
    seeded += [f"{rng.randint(-99, 99)}/{rng.randint(0, 99)}" for _ in range(1000)]
    for x in corpus + seeded:
        got, want = _ratio_or_error(x), _rational_parse(x)
        assert got == want, (x, got, want)
        if type(got[0]) is int:
            assert all(type(v) is int for v in got)


def test_json_decimals_are_exact(capsys, tmp_path):
    """A JSON decimal means its exact value, the value of the same number
    written as a "p/q" string, not the value of the nearest float."""
    text = "0.1000000000000000055511151231257827"
    exact = Fraction(text)
    normals = [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]]
    dec, frac = tmp_path / "dec.json", tmp_path / "frac.json"
    dec.write_text('{"dim": 2, "normals": %s, "t": [%s, 1, 1, 1]}' % (json.dumps(normals), text))
    frac.write_text(json.dumps({"dim": 2, "normals": normals, "t": [str(exact), 1, 1, 1]}))
    got = _report_without_command(capsys, "polytope", "volume", str(dec))
    assert got == _report_without_command(capsys, "polytope", "volume", str(frac))
    assert got[1]["volume"] == str(2 * (1 + exact)) != "11/5"
    poly = {"vars": ["t1", "t2"], "terms": [{"exps": [2, 0], "coeff": "C"}, {"exps": [1, 1], "coeff": 1},
                                            {"exps": [0, 2], "coeff": 0.5}]}
    dec.write_text(json.dumps(poly).replace('"C"', text))
    frac.write_text(json.dumps(poly).replace('"C"', f'"{exact}"'))
    argv = ("subdivide", "--face", "t1,t2", "--coeffs", "1,1", "--vertex", "w0")
    got = _report_without_command(capsys, argv[0], str(dec), *argv[1:])
    assert got == _report_without_command(capsys, argv[0], str(frac), *argv[1:])
    frac.write_text(json.dumps(poly).replace('"C"', '"1/10"'))
    assert got != _report_without_command(capsys, argv[0], str(frac), *argv[1:])


@pytest.mark.parametrize("argv, content, needle", [
    # (x + y + z)^3 / 2 on the labels 1.5, 2.25 and "t"
    (("poly", "lorentzian"), {"vars": [1.5, 2.25, "t"], "terms": [
        {"exps": list(e), "coeff": 0.5 * factorial(3) / (factorial(e[0]) * factorial(e[1]) * factorial(e[2]))}
        for e in ((3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0), (2, 0, 1), (1, 2, 0),
                  (0, 2, 1), (1, 0, 2), (0, 1, 2), (1, 1, 1))]}, '"2.25"'),
    (("hereditary", "check"), {"vars": [0.5, 1.5], "terms": [{"exps": [1, 1], "coeff": 1.5}]}, '"0.5"'),
    (("matroid", "flats"), {"ground": [0.5, 1.5, 2.5], "bases": [[0.5, 1.5], [0.5, 2.5], [1.5, 2.5]]}, '"2.5"'),
    (("polytope", "volume"), {"dim": 2, "normals": [[1.0, 0], [0, 1], [-1, 0.0], [0, -1]], "t": [1.5, 0.25, 1, 1]},
     '"25/8"'),
    (("fan", "subdivide"), {"dim": 2, "labels": [0.5, 1.5, 2.5, 3.5],
                            "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                            "cones": [[0.5, 1.5], [1.5, 2.5], [2.5, 3.5], [3.5, 0.5]]}, '"2.5"'),
])
def test_short_decimals_keep_float_reports(capsys, monkeypatch, tmp_path, argv, content, needle):
    """A decimal whose float prints as its exact value reads as that float,
    so the report, labels included, is byte for byte the one that plain
    float parsing gives."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    full = [*argv, str(path)]
    if argv[0] == "fan":
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps([{"facet": F, "w": 1.5} for F in content["cones"]]))
        full += ["--ray", "1,1", "--weights", str(weights)]
    code = main(full)
    out = capsys.readouterr().out
    monkeypatch.setattr(cli, "_json_number", float)
    assert (code, out) == (main(full), capsys.readouterr().out)
    assert code in (0, 1) and needle in out


def test_timing_ms_is_a_json_number(capsys, files):
    code, rep, _ = run(capsys, "--timing", "matroid", "hrw", files["u23.json"])
    assert code == 0 and isinstance(rep["timing_ms"], float) and rep["timing_ms"] >= 0


def test_hrw_and_charpoly_compute_one_expansion_by_covers(capsys, files, monkeypatch):
    """Each command computes the canonical expansion once, by its passes
    over the covers: neither the interval recursion runs nor is a chain of
    flats enumerated."""
    computed, other = [], []
    inner = LatticeVolume.expansion
    monkeypatch.setattr(LatticeVolume, "expansion",
                        lambda self: computed.append(self._expansion is None) or inner(self))
    for name in ("eval_bivariate", "chains"):
        monkeypatch.setattr(LatticeVolume, name, lambda self, *args, name=name: other.append(name))
    for name, alpha, beta in (("fano.json", "1/2", "4"), ("u23.json", "1", "2")):
        for command in ("charpoly", "hrw"):
            computed.clear()
            code, rep, _ = run(capsys, "matroid", command, files[name])
            assert code == 0 and computed.count(True) == 1 and not other, (name, command)
        # chi(0) is the Moebius value mu(bottom, top); d = rank - 1
        d = len(rep["chi"]) - 2
        mu = abs(int(rep["chi"][0]))
        assert rep["volume_at_alpha"] == alpha == str(Fraction(1, factorial(d)))
        assert rep["volume_at_beta"] == beta == str(Fraction(mu, factorial(d)))


def test_one_parser_serves_every_request(capsys, files):
    """Requests in one process, usage and input errors among them, report
    byte for byte what a fresh process reports."""
    assert build_parser() is build_parser()
    requests = [
        ("poly", "lorentzian", "e2.txt"),
        ("--bogus", "poly", "lorentzian", "e2.txt"),
        ("--verify-witness", "poly", "lorentzian", "sos.txt"),
        ("poly", "lorentzian", "negcoeff.txt"),
        ("fan", "subdivide", "sqfan.json", "--ray", "1/0,1"),
        ("matroid", "hrw", "u23.json"),
        ("poly", "lorentzian"),
        ("poly", "lorentzian", "e2.txt"),
    ]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for req in requests:
        argv = [files.get(a, a) for a in req]
        code = main(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "lorentzlab", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out) == (fresh.returncode, fresh.stdout), req
    assert build_parser() is build_parser()
