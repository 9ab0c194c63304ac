"""Acceptance suite: every criterion is exact-oracle or property-based at
desk scale, with its stated tolerance (zero, i.e. exact rational equality,
unless a runtime bound is named).  Each test prints one PASS/FAIL line;
run with `pytest tests/test_acceptance.py -v -s` to see them inline.
"""

import random
import time
from itertools import combinations
from math import comb, factorial

import numpy as np
import pytest

from conftest import hereditary_fixture_pool, nonneg_cubics_and_quartics
from lorentzlab import hereditary as hered
from lorentzlab import matroid as mat
from lorentzlab import polytope as pt
from lorentzlab.cones import ConeByGenerators
from lorentzlab.fanchow import (
    build_fan,
    canonical_bijection_check,
    check_fan_lorentzian,
    fan_subdivide,
    functional_from_weights,
)
from lorentzlab.inertia import SymMatrix, inertia
from lorentzlab.lorentzian import (
    definitional_check,
    is_k_lorentzian,
    is_lorentzian,
    is_m_convex,
    MSet,
    polarized_hereditary_verdict,
)
from lorentzlab.matroid import volume_engine
from lorentzlab.polycore import HomPoly, parse_poly
from lorentzlab.rat import Q
from lorentzlab.subdivision import subdivide, weld
from oracles import (
    congruence_diagonalize,
    fraction_triangulation_volume,
    in_deformation_cone,
    is_lorentzian_v2,
    m_is_H_connected,
    m_partial,
    m_truncate,
    oracle_chains,
    oracle_single_gap,
    random_sym,
)

pytestmark = pytest.mark.acceptance


def _report(num: int, ok: bool, desc: str):
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    print(line)
    assert ok, line


# -- independent Moebius-sum oracle, implemented before anything it checks --


def oracle_char_poly(ground, bases):
    """Characteristic polynomial from scratch: own closure enumeration, own
    Moebius recursion; shares no code with the library lattice."""
    bases = [frozenset(b) for b in bases]

    def rank(S):
        return max(len(S & b) for b in bases)

    def closure(S):
        S = frozenset(S)
        r = rank(S)
        return frozenset(e for e in ground if rank(S | {e}) == r)

    flats = set()
    for k in range(len(ground) + 1):
        for S in combinations(ground, k):
            flats.add(closure(S))
    flats = sorted(flats, key=lambda F: (len(F), sorted(map(repr, F))))
    bottom = closure(())
    top = frozenset(ground)
    mob = {}

    def mobius(F):
        if F == bottom:
            return 1
        if F not in mob:
            mob[F] = -sum(mobius(G) for G in flats if bottom <= G < F)
        return mob[F]

    r_top = rank(top)
    chi = [0] * (r_top + 1)
    for F in flats:
        chi[r_top - rank(F)] += mobius(F)
    return chi


CATALOG_SPECS = None


def catalog_specs():
    global CATALOG_SPECS
    if CATALOG_SPECS is None:
        out = []
        for n in range(1, 8):
            for r in range(1, n + 1):
                M = mat.Matroid.uniform(r, n)
                out.append((f"U({r},{n})", M))
        out.append(("K4", mat.Matroid.from_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])))
        out.append(("Fano", mat.Matroid.fano()))
        CATALOG_SPECS = out
    return CATALOG_SPECS


def test_criterion_01_matroid_catalog_hrw(catalog):
    t0 = time.monotonic()
    ok = True
    for name, M in catalog_specs():
        L = catalog[name]
        chi_oracle = oracle_char_poly(M.ground, M.bases)
        rep = mat.char_poly(L)
        ok = ok and [int(c) for c in rep.chi] == chi_oracle
        hr = mat.hrw_check(L)
        ok = ok and hr.log_concave and hr.mixed_identity
        if name == "Fano":
            ok = ok and [int(c) for c in rep.reduced] == [8, -6, 1]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30
    _report(1, ok, f"catalog log-concavity + Fano reduced charpoly + Moebius oracle agreement ({elapsed:.1f}s < 30s)")


def test_criterion_02_charpoly_cross_check(catalog):
    ok = all(mat.char_poly(catalog[name]).agree for name, _ in catalog_specs())
    _report(2, ok, "Moebius-sum route equals (t-1) * derivative route exactly, all catalog entries")


def test_criterion_03_closed_form_evaluations(catalog):
    ok = True
    for name, _ in catalog_specs():
        L = catalog[name]
        d = L.rank_total - 1
        ok = ok and mat.eval_alpha(L) == Q(1, factorial(d))
        ok = ok and mat.eval_beta(L) == Q(abs(L.mobius_row(0)[-1]), factorial(d))
    _report(3, ok, "volume values 1/d! and |mu|/d! at the canonical points, all catalog entries")


def test_criterion_04_catalog_certification(catalog):
    ok = True
    total_certs = 0
    for name, _ in catalog_specs():
        L = catalog[name]
        eng = volume_engine(L)
        v = eng.hl_check()
        d = L.rank_total - 1
        # one certificate per rank-3 interval: the distinct single-gap keys
        # of the codimension-2 faces
        expected = len({oracle_single_gap(L, c) for c in oracle_chains(L) if len(c) == d - 2} - {None})
        ok = ok and v.value == "yes" and len(v.q_certificates) == expected
        ok = ok and all(i.pos <= 1 for _, i in v.q_certificates)
        total_certs += len(v.q_certificates)
    _report(4, ok, f"hereditary-Lorentzian verdict yes for every catalog matroid ({total_certs} inertia certificates)")


POLYTOPE_FIXTURES = [
    ("square", [(1, 0), (0, 1), (-1, 0), (0, -1)], (1, 1, 1, 1)),
    ("triangle", [(-1, 0), (0, -1), (1, 1)], (0, 0, 1)),
    ("pentagon", [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], (1, 1, 1, 1, Q(3, 2))),
    ("cube", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)], (1,) * 6),
    ("simplex", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)], (0, 0, 0, 1)),
    ("prism", [(-1, 0, 0), (0, -1, 0), (1, 1, 0), (0, 0, 1), (0, 0, -1)], (0, 0, 1, 1, 0)),
]


def _sample_in_chamber(rng, P, den=8, spread=2):
    while True:
        t = [x + Q(rng.randint(-spread, spread), den) for x in P.t]
        if in_deformation_cone(P, t):
            return t


def test_criterion_05_volume_polynomials(rng):
    ok = True
    for name, normals, t in POLYTOPE_FIXTURES:
        P = pt.build(normals, t)
        pol = pt.volume_polynomial(P).f
        for _ in range(50):
            tv = _sample_in_chamber(rng, P)
            ok = ok and pol.evaluate(tv) == fraction_triangulation_volume(pt.build(P.normals, tv))
    # the box identity
    sq = pt.build(*[POLYTOPE_FIXTURES[0][1]], POLYTOPE_FIXTURES[0][2])
    pol = pt.volume_polynomial(sq).f
    t1, t2, t3, t4 = (HomPoly.variable(pol.vars, v) for v in pol.vars)
    ok = ok and pol == (t1 + t3) * (t2 + t4)
    # simplex polynomials are powers of the kernel linear form
    from lorentzlab import linalg

    for name, normals, t in (POLYTOPE_FIXTURES[1], POLYTOPE_FIXTURES[4]):
        P = pt.build(normals, t)
        h = pt.volume_polynomial(P)
        v = linalg.nullspace(linalg.transpose(P.normals), len(P.labels))[0]
        v = v if v[0] > 0 else tuple(-x for x in v)
        form = HomPoly(h.f.vars, 1, {((i, 1),): c for i, c in enumerate(v)})
        power = form.pow(P.dim)
        key = next(iter(h.f.terms))
        ok = ok and power.scale(h.f.terms[key] / power.terms[key]) == h.f
    _report(5, ok, "volume polynomial equals the triangulation volume at 50 random points per fixture; box and simplex forms exact")


def test_criterion_06_alexandrov_fenchel(rng):
    t0 = time.monotonic()
    plan = [(POLYTOPE_FIXTURES[0], 400), (POLYTOPE_FIXTURES[2], 200),
            (POLYTOPE_FIXTURES[3], 250), (POLYTOPE_FIXTURES[5], 150)]
    ok = True
    total = 0
    for (name, normals, t), count in plan:
        P = pt.build(normals, t)
        for _ in range(count):
            triple = [pt.build(P.normals, _sample_in_chamber(rng, P, den=6, spread=1), P.labels)
                      for _ in range(3)]
            if P.dim == 2:
                ok = ok and pt.af_check(triple[:2]) and pt.af_check(triple[1:]) \
                    and pt.af_check([triple[0], triple[2]])
            else:
                ok = ok and pt.af_check(triple)
            total += 1
    elapsed = time.monotonic() - t0
    ok = ok and total == 1000 and elapsed < 60
    _report(6, ok, f"Alexandrov-Fenchel inequality on 1000 random rational triples, dims 2-3 ({elapsed:.1f}s < 60s)")


def test_criterion_07_subdivision_round_trips(rng):
    from lorentzlab.hereditary import check_hereditary, is_hereditary_lorentzian

    pool = hereditary_fixture_pool(rng)
    ok = True
    for k in range(200):
        h = pool[k % len(pool)]
        faces = sorted((f for f in h.delta.faces() if f), key=lambda s: sorted(map(repr, s)))
        S = tuple(sorted(faces[rng.randrange(len(faces))], key=repr))
        c = [Q(rng.randint(1, 4), rng.randint(1, 3)) for _ in S]
        g = subdivide(h.f, S, c, "w")
        ok = ok and weld(g, S, c, "w") == h.f
        ok = ok and subdivide(weld(g, S, c, "w"), S, c, "w") == g
    transported = 0
    for k in range(50):
        h = pool[k % len(pool)]
        if not h.strong:
            continue
        faces = sorted((f for f in h.delta.faces() if f), key=lambda s: sorted(map(repr, s)))
        S = tuple(sorted(faces[rng.randrange(len(faces))], key=repr))
        c = [Q(rng.randint(1, 3)) for _ in S]
        g = check_hereditary(subdivide(h.f, S, c, "w"))
        v1, v2 = is_hereditary_lorentzian(h), is_hereditary_lorentzian(g)
        if "vacuous" in (v1.value, v2.value):
            continue
        ok = ok and v1.value == v2.value
        transported += 1
    ok = ok and transported >= 40
    _report(7, ok, f"weld/subdivide round trips exact on 200 fixtures; verdicts agree across {transported} chains")


def test_criterion_08_lorentzian_equivalences(rng):
    ok = True
    yes_count = 0
    for f in nonneg_cubics_and_quartics(rng):
        n = len(f.vars)
        orthant = ConeByGenerators(tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n)))
        a = is_lorentzian(f).value == "yes"
        b = is_lorentzian_v2(f).value == "yes"
        c = is_k_lorentzian(f, orthant).value == "yes"
        e = polarized_hereditary_verdict(f).value == "yes"
        ok = ok and (a == b == c == e)
        yes_count += a
    ok = ok and yes_count >= 20
    _report(8, ok, f"four-way verdict agreement on 200 random nonneg cubics/quartics ({yes_count} Lorentzian)")


def test_criterion_09_m_convexity_decomposition(rng):
    ok = True
    for _ in range(500):
        r = rng.choice([3, 4])
        pts = set()
        for _ in range(rng.randint(1, 10)):
            p = [0, 0, 0, 0]
            for _ in range(r):
                p[rng.randrange(4)] += 1
            pts.add(tuple(p))
        M = MSet(4, pts)
        full = is_m_convex(M)[0]
        decomposed = m_is_H_connected(m_truncate(M)) and all(
            is_m_convex(m_partial(M, alpha))[0] for alpha in _multis(4, r - 2)
        )
        ok = ok and full == decomposed
    _report(9, ok, "exchange axiom equals the connectivity decomposition on 500 random subsets")


def _multis(n, total):
    from itertools import combinations_with_replacement

    for combo in combinations_with_replacement(range(n), total):
        out = [0] * n
        for i in combo:
            out[i] += 1
        yield tuple(out)


def test_criterion_10_inertia_engine(rng):
    ok = True
    for _ in range(1000):
        n = rng.randint(2, 8)
        rows = [[Q(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = Q(rng.randint(-6, 6), rng.randint(1, 3))
        M = SymMatrix(tuple(range(n)), rows)
        exact = inertia(M)
        vals = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in M.entries]))
        ok = ok and (int((vals > 1e-6).sum()), int((vals < -1e-6).sum())) == (exact.pos, exact.neg)
    # three-way equivalence on 200 sampled instances
    from lorentzlab import linalg

    count = 0
    while count < 200:
        n = rng.randint(2, 5)
        M = random_sym(rng, n)
        v0 = tuple(Q(rng.randint(1, 3)) for _ in range(n))
        if not M.apply(v0, v0) > 0:
            continue
        count += 1
        if inertia(M).pos == 1:
            for _ in range(10):
                x = tuple(Q(rng.randint(-4, 4)) for _ in range(n))
                ok = ok and M.apply(v0, x) ** 2 >= M.apply(v0, v0) * M.apply(x, x)
        else:
            row = [linalg.dot(M.entries[i], v0) for i in range(n)]
            basis = linalg.nullspace([row], n)
            sub = [[linalg.dot(b1, linalg.mat_vec(M.entries, b2)) for b2 in basis] for b1 in basis]
            D, T = congruence_diagonalize(SymMatrix(tuple(range(len(basis))), sub))
            kpos = next(k for k in range(len(basis)) if D[k][k] > 0)
            coeffs = [T[i][kpos] for i in range(len(basis))]
            x = [sum(cc * bb[i] for cc, bb in zip(coeffs, basis)) for i in range(n)]
            ok = ok and M.apply(v0, x) ** 2 < M.apply(v0, v0) * M.apply(x, x)
    _report(10, ok, "1000 matrices against the floating eigensolver; 200 signature/inequality equivalences")


def test_criterion_11_fan_suite():
    ok = True
    for r, n in ((2, 3), (3, 4)):
        L = mat.flats(mat.Matroid.uniform(r, n))
        fan = mat.bergman_fan(L)
        alpha = functional_from_weights(fan, {F: 1 for F in fan.cones.facets})
        ok = ok and check_fan_lorentzian(alpha).value == "yes"
    # canonical bijection across a one-step subdivision of the square fan
    fan = build_fan(2, ("e", "n", "w", "s"), [(1, 0), (0, 1), (-1, 0), (0, -1)],
                    [{"e", "n"}, {"n", "w"}, {"w", "s"}, {"s", "e"}])
    alpha = functional_from_weights(fan, {F: 1 for F in fan.cones.facets})
    fan2, transport = fan_subdivide(fan, (1, 3))
    ok = ok and canonical_bijection_check(fan, alpha, fan2, transport(alpha))
    # a disconnected positive 2-dimensional fan fails connectivity, with witness
    rays = {"a+": (1, 0, 0, 0), "b+": (0, 1, 0, 0), "a-": (-1, 0, 0, 0), "b-": (0, -1, 0, 0),
            "c+": (0, 0, 1, 0), "d+": (0, 0, 0, 1), "c-": (0, 0, -1, 0), "d-": (0, 0, 0, -1)}
    cones = [{"a+", "b+"}, {"b+", "a-"}, {"a-", "b-"}, {"b-", "a+"},
             {"c+", "d+"}, {"d+", "c-"}, {"c-", "d-"}, {"d-", "c+"}]
    labels = tuple(rays)
    disc = build_fan(4, labels, [rays[k] for k in labels], cones)
    disc.verify_fan_axioms()
    beta = functional_from_weights(disc, {F: 1 for F in disc.cones.facets})
    v = check_fan_lorentzian(beta)
    ok = ok and v.value == "no" and v.h_connected is False and v.c_witness is not None
    _report(11, ok, "Bergman fans certify; bijection invariant across subdivision; disconnected fan refuted with witness")


def test_criterion_12_psd_smoke(rng):
    vars = ("x11", "x12", "x13", "x22", "x23", "x33")
    det3 = parse_poly("x11 x22 x33 + 2*x12 x13 x23 - x11 x23^2 - x22 x13^2 - x33 x12^2",
                      vars=vars)

    def random_pd():
        while True:
            B = [[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)] for _ in range(3)]
            G = [[sum(B[i][k] * B[j][k] for k in range(3)) for j in range(3)] for i in range(3)]
            if G[0][0] * (G[1][1] * G[2][2] - G[1][2] ** 2) != 0:
                det = (G[0][0] * (G[1][1] * G[2][2] - G[1][2] ** 2)
                       - G[0][1] * (G[0][1] * G[2][2] - G[1][2] * G[0][2])
                       + G[0][2] * (G[0][1] * G[1][2] - G[1][1] * G[0][2]))
                if det > 0:
                    return (G[0][0], G[0][1], G[0][2], G[1][1], G[1][2], G[2][2])

    samples = [[random_pd() for _ in range(3)] for _ in range(200)]
    verdict = definitional_check(det3, samples)
    ok = verdict.value == "consistent"
    _report(12, ok, "determinant smoke test: 200 PSD direction tuples, no positivity/signature violation")
