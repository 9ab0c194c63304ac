"""Seeded request streams for the four benchmark workloads.

A request is one CLI invocation (``argv`` for ``lorentzlab.cli.main``) or,
for ``fanchow.ample_cone_member``, which no CLI command reaches, one
library call.  Every request carries the expectations the checker holds its
report to; they come from ``expected.py`` and from theorems, never from the
code under test.  Inputs that only shape the request (polarizations,
volume polynomials, a subdivided fan to compare against) may be produced
with the library here, because generation is never inside a timed phase.

``generate`` writes the request files and a manifest into a work directory;
``load`` reads the manifest back.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
import shutil
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from pathlib import Path

import expected as ex

MANIFEST = "requests.json"


class _Writer:
    """Writes request files under one directory and names them relative to
    the repository root, which is the working directory of every run."""

    def __init__(self, workdir: Path, root: Path):
        self.workdir = workdir
        self.rel = workdir.relative_to(root)
        self.requests: list[dict] = []

    def put(self, name: str, obj) -> str:
        text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
        (self.workdir / name).write_text(text)
        return str(self.rel / name)

    def cli(self, label: str, argv: list, expect: dict | None = None, pair: str | None = None) -> str:
        rid = f"{label}#{len(self.requests)}"
        req = {"id": rid, "argv": argv, "expect": expect or {}}
        if pair is not None:
            req["same_verdict_as"] = pair
        self.requests.append(req)
        return rid

    def call(self, label: str, fn: str, args: dict, expect: dict) -> str:
        rid = f"{label}#{len(self.requests)}"
        self.requests.append({"id": rid, "call": fn, "args": args, "expect": expect})
        return rid


def _q(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else f"{x.numerator}"


def _strs(xs) -> list[str]:
    return [_q(x) for x in xs]


# ---------------------------------------------------------------------------
# matroid-hrw
# ---------------------------------------------------------------------------


def _matroid_hrw(w: _Writer, rng: random.Random):
    def both(label, path, chi):
        red = ex.reduced(chi)
        w.cli(label, ["matroid", "hrw", path], {
            "verdict": "yes", "chi": _strs(chi), "reduced": _strs(red),
            "coefficients": _strs(abs(c) for c in red), "log_concave": True, "mixed_identity": True})
        w.cli(label, ["matroid", "charpoly", path], {
            "verdict": "success", "chi": _strs(chi), "reduced": _strs(red), "routes_agree": True})

    for n in range(4, 8):
        for r in range(1, min(5, n) + 1):
            ground = rng.sample(range(1, 100), n)
            bases = [sorted(b) for b in combinations(ground, r)]
            path = w.put(f"u{r}_{n}.json", {"ground": ground, "bases": bases})
            both(f"U({r},{n})", path, ex.uniform_chi(r, n))
            if (r, n) in ((3, 5), (4, 5), (3, 6)):
                # rays: the proper flats, subsets of size 1..r-1; cones: maximal chains
                w.cli(f"U({r},{n})", ["matroid", "bergman", path],
                      {"verdict": "success", "rays": sum(comb(n, k) for k in range(1, r)),
                       "cones": factorial(n) // factorial(n - r + 1)})
    for k in (4, 5):
        edges = _shuffled_edges(rng, k, list(combinations(range(k), 2)))
        both(f"K{k}", w.put(f"k{k}.json", {"graph": {"vertices": k, "edges": edges}}), ex.complete_graph_chi(k))
    # four K5 minus one edge, all isomorphic and so equally costly: the 90th
    # percentile falls among their hrw requests, not in a gap between two
    # far-apart costs where noise would make it jump
    for k, drop in enumerate((1, 1, 1, 1, 2)):
        edges = list(combinations(range(5), 2))
        for e in rng.sample(edges, drop):
            edges.remove(e)
        edges = _shuffled_edges(rng, 5, edges)
        path = w.put(f"k5_minus{drop}_{k}.json", {"graph": {"vertices": 5, "edges": edges}})
        both(f"K5-{drop}e", path, ex.graph_chi(5, edges))
    perm = rng.sample(range(1, 8), 7)
    lines = [{perm[a - 1] for a in line} for line in ex.FANO_LINES]
    bases = [sorted(b) for b in combinations(sorted(perm), 3) if set(b) not in lines]
    both("Fano", w.put("fano.json", {"ground": sorted(perm), "bases": bases}), ex.FANO_CHI)


def _shuffled_edges(rng, k, edges):
    relabel = rng.sample(range(k), k)
    out = [sorted((relabel[a], relabel[b])) for a, b in edges]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# polytope-af
# ---------------------------------------------------------------------------


def _chamber_sample(rng, kind: str) -> list:
    """Support numbers inside the chamber of each fixed normal set."""
    def pos():
        return Fraction(rng.randint(1, 8), rng.choice((1, 2)))

    if kind == "pentagon":
        t1, t3, t4, t5 = pos(), pos(), pos(), pos()
        cap = min(t3 + t5, t1 + t4)
        s = cap * Fraction(rng.randint(1, 9), 10)
        return [t1, t1 + t3 - s, t3, t4, t5]
    return [pos() for _ in ex.NORMALS[kind]]


def _polytope_af(w: _Writer, rng: random.Random):
    bodies_per_set = 8
    for kind in ("square", "pentagon", "cube", "prism"):
        normals = [_strs(r) for r in ex.NORMALS[kind]]
        dim = len(normals[0])
        samples = [_chamber_sample(rng, kind) for _ in range(bodies_per_set)]
        paths = [w.put(f"{kind}{i}.json", {"dim": dim, "normals": normals, "t": _strs(t)})
                 for i, t in enumerate(samples)]
        for i in range(bodies_per_set):
            w.cli(kind, ["polytope", "volume", paths[i]], {"volume": _q(ex.volume(kind, samples[i]))})
            group = [(i + j) % bodies_per_set for j in range(dim)]
            w.cli(kind, ["polytope", "af"] + [paths[j] for j in group], {"verdict": "yes"})
            w.cli(kind, ["polytope", "mixed"] + [paths[j] for j in group],
                  {"mixed_volume": _q(ex.mixed_volume(kind, [samples[j] for j in group]))})


# ---------------------------------------------------------------------------
# lorentzian-mix
# ---------------------------------------------------------------------------


def _poly_json(n: int, d: int, terms: dict) -> dict:
    return {"vars": [f"t{i + 1}" for i in range(n)], "degree": d,
            "terms": [{"exps": list(e), "coeff": _q(c)} for e, c in sorted(terms.items())]}


def _orthant(n: int) -> dict:
    return {"generators": [["1" if i == j else "0" for j in range(n)] for i in range(n)]}


def _poly_text(n: int, terms: dict) -> str:
    return " + ".join(f"{c}*" + " ".join(f"t{i + 1}^{e}" for i, e in enumerate(exps) if e)
                      for exps, c in sorted(terms.items()))


def _lorentzian_mix(w: _Writer, rng: random.Random):
    orthants = {n: w.put(f"orthant{n}.json", _orthant(n)) for n in range(3, 7)}
    for n in (3, 5):
        # a linear form with positive coefficients is Lorentzian on the orthant
        linear = w.put(f"linear_{n}.txt", _poly_text(n, ex.product_of_linear_forms([[rng.randint(1, 5) for _ in range(n)]])))
        w.cli(f"linear n={n} orthant", ["poly", "k-lorentzian", linear, "--cone", orthants[n]], {"verdict": "yes"})
    for d in (3, 4, 5):
        for n in (3, 4, 5, 6):
            forms = [[rng.randint(1, 3) for _ in range(n)] for _ in range(d)]
            terms = ex.product_of_linear_forms(forms)
            # every variable occurs in a product, so the text grammar, which
            # reads the variables off the text, sees all n of them
            prod = (w.put(f"prod_{n}_{d}.txt", _poly_text(n, terms)) if d == 4
                    else w.put(f"prod_{n}_{d}.json", _poly_json(n, d, terms)))
            sparse = w.put(f"sparse_{n}_{d}.json", _poly_json(n, d, ex.sparse_form(rng, n, d)))
            p = w.cli(f"product n={n} d={d}", ["--verify-witness", "poly", "lorentzian", prod], {"verdict": "yes"})
            s = w.cli(f"sparse n={n} d={d}", ["--verify-witness", "poly", "lorentzian", sparse])
            if d == 3 and n <= 4:
                w.cli(f"product n={n} d=3 orthant", ["--verify-witness", "poly", "k-lorentzian", prod,
                                                     "--cone", orthants[n]], {"verdict": "yes"}, pair=p)
            if d == 3:
                w.cli(f"sparse n={n} d=3 orthant", ["--verify-witness", "poly", "k-lorentzian", sparse,
                                                    "--cone", orthants[n]], pair=s)


# ---------------------------------------------------------------------------
# hereditary-fan
# ---------------------------------------------------------------------------


def _fan_json(dim: int, labels: list, rays: list, cones: list) -> dict:
    return {"dim": dim, "labels": labels, "rays": [_strs(r) for r in rays], "cones": cones}


def _unit_weights(cones: list) -> list:
    return [{"facet": c, "w": "1"} for c in cones]


SQUARE_FAN = _fan_json(2, ["e", "n", "w", "s"], [(1, 0), (0, 1), (-1, 0), (0, -1)],
                       [["e", "n"], ["n", "w"], ["w", "s"], ["s", "e"]])
CUBE_FAN = _fan_json(3, ["x+", "y+", "z+", "x-", "y-", "z-"],
                     [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)],
                     [[a, b, c] for a in ("x+", "x-") for b in ("y+", "y-") for c in ("z+", "z-")])
# two complete plane fans in orthogonal coordinate planes of R^4: a valid
# fan whose cone complex is disconnected, so never Lorentzian
DISCONNECTED_FAN = _fan_json(
    4, ["a+", "b+", "a-", "b-", "c+", "d+", "c-", "d-"],
    [(1, 0, 0, 0), (0, 1, 0, 0), (-1, 0, 0, 0), (0, -1, 0, 0),
     (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, -1, 0), (0, 0, 0, -1)],
    [["a+", "b+"], ["b+", "a-"], ["a-", "b-"], ["b-", "a+"],
     ["c+", "d+"], ["d+", "c-"], ["c-", "d-"], ["d-", "c+"]])


def _bergman_fan(r: int, n: int, rng) -> tuple[dict, list]:
    """Bergman fan of U(r, n): rays are the indicators of the proper flats
    (subsets of size 1..r-1) modulo the all-ones line, cones are the chains.
    Also returns the strictly submodular |F|(n-|F|) on the rays."""
    elems = rng.sample(range(n), n)
    drop, coords = elems[-1], elems[:-1]
    flats = [F for k in range(1, r) for F in combinations(range(n), k)]
    labels = ["F" + "_".join(map(str, F)) for F in flats]
    rays = [[(1 if e in F else 0) - (1 if drop in F else 0) for e in coords] for F in flats]
    cones = []
    for top in (F for F in flats if len(F) == r - 1):
        cones.extend(_maximal_chains(top, labels, flats))
    convex = [len(F) * (n - len(F)) for F in flats]
    return _fan_json(n - 1, labels, rays, sorted(cones)), convex


def _maximal_chains(top: tuple, labels: list, flats: list) -> list:
    index = {F: i for i, F in enumerate(flats)}
    out = []

    def down(F, chain):
        if len(F) == 1:
            out.append(sorted(chain))
            return
        for e in F:
            G = tuple(x for x in F if x != e)
            down(G, chain + [labels[index[G]]])

    down(top, [labels[index[top]]])
    return out


def _polarization_forms(rng) -> list[tuple]:
    """(label, n, d, dense terms over t1..tn, expected verdict) for small forms."""
    out = []
    for n, d in ((2, 2), (3, 2), (2, 3)):
        forms = [[rng.randint(1, 3) for _ in range(n)] for _ in range(d)]
        out.append((f"product n={n} d={d}", n, d, ex.product_of_linear_forms(forms), "yes"))
    # a t1^2 + b t1 t2 + c t2^2 is Lorentzian iff b^2 >= 4ac; one of each,
    # so every seed sends the same mix
    for verdict in ("yes", "no"):
        while True:
            a, b, c = rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 4)
            if (b * b >= 4 * a * c) == (verdict == "yes"):
                break
        out.append(("binary quadratic", 2, 2, {(2, 0): a, (1, 1): b, (0, 2): c}, verdict))
    # a sum of two pure powers has a support that is not M-convex
    a, b = rng.randint(1, 5), rng.randint(1, 5)
    out.append(("pure powers", 2, 3, {(3, 0): a, (0, 3): b}, "no"))
    return out


def _hereditary_fan(w: _Writer, rng: random.Random):
    from lorentzlab import fanchow, lorentzian, polytope
    from lorentzlab.polycore import HomPoly

    for i, (label, n, d, terms, verdict) in enumerate(_polarization_forms(rng)):
        form = _poly_json(n, d, terms)
        fpath = w.put(f"form{i}.json", form)
        polar = lorentzian.polarize(HomPoly.from_json_dict(form)).to_json_dict()
        ppath = w.put(f"polar{i}.json", polar)
        base = w.cli(label, ["--verify-witness", "poly", "lorentzian", fpath], {"verdict": verdict})
        w.cli(f"polarized {label}", ["--verify-witness", "hereditary", "lorentzian", ppath],
              {"verdict": verdict}, pair=base)
        if verdict == "yes":
            face = _support_face(polar)
            chain = [{"kind": "subdivide", "face": face, "c": ["1", "2"]},
                     {"kind": "weld", "face": face, "c": ["1", "2"]}]
            w.cli(f"chain polarized {label}", ["chain", "apply", ppath, w.put(f"chain{i}.json", chain)],
                  {"polynomial": _terms_key(polar)})

    for kind in ("square", "pentagon", "cube", "prism"):
        body = polytope.build(ex.NORMALS[kind], _chamber_sample(rng, kind))
        vol = polytope.volume_polynomial(body).f.to_json_dict()
        vpath = w.put(f"volpoly_{kind}.json", vol)
        w.cli(f"volume polynomial {kind}", ["--verify-witness", "hereditary", "lorentzian", vpath],
              {"verdict": "yes"})
        if kind in ("square", "cube"):
            face = _support_face(vol)
            chain = [{"kind": "subdivide", "face": face, "c": ["2", "1"]},
                     {"kind": "weld", "face": face, "c": ["2", "1"]}]
            w.cli(f"chain volume polynomial {kind}",
                  ["chain", "apply", vpath, w.put(f"chain_{kind}.json", chain)], {"polynomial": _terms_key(vol)})

    for r, n in ((3, 3), (3, 4), (3, 5), (4, 4), (4, 5)):
        fan, convex = _bergman_fan(r, n, rng)
        fpath = w.put(f"bergman_{r}_{n}.json", fan)
        if r == 3:
            wpath = w.put(f"bergman_{r}_{n}_weights.json", _unit_weights(fan["cones"]))
            w.cli(f"Bergman U({r},{n})", ["--verify-witness", "fan", "check", fpath, "--weights", wpath],
                  {"verdict": "yes"})
        for sign, member in ((1, True), (-1, False)):
            vpath = w.put(f"bergman_{r}_{n}_v{sign}.json", [sign * x for x in convex])
            w.call(f"ample U({r},{n}) sign={sign}", "ample_cone_member", {"fan": fpath, "vector": vpath},
                   {"member": member})

    dpath = w.put("disconnected.json", DISCONNECTED_FAN)
    w.cli("disconnected fan", ["--verify-witness", "fan", "check", dpath, "--weights",
                               w.put("disconnected_weights.json", _unit_weights(DISCONNECTED_FAN["cones"]))],
          {"verdict": "no", "h_connected": False})

    for name, fan in (("square", SQUARE_FAN), ("cube", CUBE_FAN)):
        fpath = w.put(f"{name}_fan.json", fan)
        wpath = w.put(f"{name}_weights.json", _unit_weights(fan["cones"]))
        w.cli(f"{name} fan", ["--verify-witness", "fan", "check", fpath, "--weights", wpath], {"verdict": "yes"})
        ray = [rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(fan["dim"])]
        # a ray with no zero coordinate lies inside one maximal cone, which
        # the stellar subdivision splits into dim cones
        w.cli(f"{name} fan subdivide", ["fan", "subdivide", fpath, "--ray=" + ",".join(map(str, ray)),
                                        "--weights", wpath],
              {"cones": len(fan["cones"]) - 1 + fan["dim"], "rays": len(fan["rays"]) + 1})
        lib_fan = fanchow.Fan.from_json_dict(fan)
        alpha = fanchow.functional_from_weights(lib_fan, {frozenset(c): 1 for c in fan["cones"]})
        fan2, transport = fanchow.fan_subdivide(lib_fan, ray)
        alpha2 = transport(alpha)
        w2 = [{"facet": sorted(map(str, F)), "w": _q(alpha2.weight(F))} for F in fan2.cones.facets]
        w.cli(f"{name} fan bijection", ["fan", "bijection", fpath, wpath,
                                        w.put(f"{name}_fan2.json", fan2.to_json_dict()),
                                        w.put(f"{name}_weights2.json", sorted(w2, key=lambda e: e["facet"]))],
              {"verdict": "yes"})
        start = fan["cones"][0]
        inside = [sum(map(int, x)) for x in zip(*[fan["rays"][fan["labels"].index(v)] for v in start])]
        steps = [{"kind": "subdivide", "ray": inside, "vertex": "m"},
                 {"kind": "weld", "vertex": "m", "face": start}]
        w.cli(f"{name} fan transport", ["fan", "transport", fpath, wpath, w.put(f"{name}_transport.json", steps)],
              {"fan_cones": sorted(sorted(c) for c in fan["cones"]), "weights_all": "1"})


def _support_face(poly_json: dict) -> list[str]:
    """Two variables of the last monomial in two or more variables: a face of
    the support complex of a polynomial with positive coefficients."""
    for exps in sorted((t["exps"] for t in poly_json["terms"]), reverse=True):
        present = [v for v, e in zip(poly_json["vars"], exps) if e > 0]
        if len(present) >= 2:
            return present[:2]
    raise ValueError("no monomial in two variables")


def _terms_key(poly_json: dict) -> list:
    return sorted([list(t["exps"]), t["coeff"]] for t in poly_json["terms"])


GENERATORS = {
    "matroid-hrw": _matroid_hrw,
    "polytope-af": _polytope_af,
    "lorentzian-mix": _lorentzian_mix,
    "hereditary-fan": _hereditary_fan,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, workdir: Path, root: Path) -> None:
    """Write the request files and the manifest for one workload and seed."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    w = _Writer(workdir, root)
    GENERATORS[workload](w, random.Random(f"{workload}:{seed}"))
    w.put(MANIFEST, w.requests)


def load(workdir: Path) -> list[dict]:
    return json.loads((workdir / MANIFEST).read_text())
