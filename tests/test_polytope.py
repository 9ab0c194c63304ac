"""Simple polytopes: vertex enumeration, the volume polynomial rebuilt from
its vertex weights against the facet-recursion oracle and the triangulation
volume, mixed volumes and the Alexandrov-Fenchel check, and the
deformation-cone membership test that samples chambers (an oracle)."""

import copy
import pickle
from itertools import permutations

import pytest

from lorentzlab import cones, linalg, polytope
from lorentzlab import hereditary as hered
from lorentzlab.fanchow import build_fan
from lorentzlab.inertia import SymMatrix
from lorentzlab.polycore import HomPoly, LinSubspace, parse_poly
from lorentzlab.polytope import (
    PolytopeError,
    SimplePolytope,
    af_check,
    build,
    mixed_volume,
    volume,
    volume_polynomial,
)
from lorentzlab.rat import Q, Rational
from lorentzlab.simplicial import label_key
from oracles import (
    chain_mixed_volume,
    facet_recursion_volume_polynomial,
    fraction_triangulation_volume,
    in_deformation_cone,
    lp_is_bounded,
    rank_solve_vertices,
    rename_vars,
    subset_elimination_build,
)


def square(t=(1, 1, 1, 1)):
    return build([(1, 0), (0, 1), (-1, 0), (0, -1)], t)


def triangle(t=(0, 0, 1)):
    return build([(-1, 0), (0, -1), (1, 1)], t)


def pentagon(t=(1, 1, 1, 1, Q(3, 2))):
    return build([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], t)


def cube(t=(1, 1, 1, 1, 1, 1)):
    return build([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)], t)


def simplex3(t=(0, 0, 0, 1)):
    return build([(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)], t)


def prism(t=(0, 0, 1, 1, 0)):
    return build([(-1, 0, 0), (0, -1, 0), (1, 1, 0), (0, 0, 1), (0, 0, -1)], t)


FIXTURES = [square, triangle, pentagon, cube, simplex3, prism]


def scaled_triangle(t=(0, 0, 1)):
    return build([(-2, 0), (0, -3), (1, 1)], t)


def skew_quadrilateral(t=(3, 3, 3, 2)):
    return build([(2, 1), (-1, 3), (-1, -2), (1, -1)], t)


def scaled_box(t=(2, 3, 5, 1, 1, 1)):
    return build([(2, 0, 0), (0, 3, 0), (0, 0, 5), (-1, 0, 0), (0, -1, 0), (0, 0, -1)], t)


def wedge_prism(t=(3, 1, 1, 7, 1)):
    return build([(3, 0, 0), (0, 1, 0), (-2, -1, 0), (0, 0, 7), (0, 0, -1)], t)


def tilted_simplex(t=(0, 0, 0, 30)):
    return build([(-1, 0, 0), (0, -1, 0), (0, 0, -1), (2, 3, 5)], t)


def rational_triangle(t=(Q(1, 3), Q(1, 4), Q(1, 6))):
    return build([(Q(1, 2), 0), (0, Q(2, 3)), (Q(-1, 5), Q(-1, 7))], t)


# normals that are not unit vectors, so that 1 / |det| differs from 1
NON_UNIT = [scaled_triangle, skew_quadrilateral, scaled_box, wedge_prism, tilted_simplex]
# normals and support numbers that are rationals with different denominators
RATIONAL = [rational_triangle]


def test_build_examples():
    sq = square()
    assert sorted(sq.vertices) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    tr = triangle()
    assert sorted(tr.vertices) == [(0, 0), (0, 1), (1, 0)]
    with pytest.raises(PolytopeError, match="empty"):
        build([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], [1, 1, 1, 1, 10])
    with pytest.raises(PolytopeError, match="unbounded"):
        build([(1, 0), (0, 1)], [1, 1])
    with pytest.raises(PolytopeError, match="not simple"):
        build([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)], [1, 1, 1, 1, 3])


def test_volume_examples():
    assert volume(square((1, 1, 0, 0))) == 1
    assert volume(triangle()) == Q(1, 2)
    assert volume(cube((1, 1, 1, 0, 0, 0))) == 1
    assert volume(pentagon()) == 4 - Q(1, 8)
    assert volume(prism()) == Q(1, 2)
    assert volume(simplex3()) == Q(1, 6)


def test_volume_polynomial_box():
    pol = volume_polynomial(square()).f
    t1, t2, t3, t4 = (parse_poly(f"v{i}", vars=tuple(f"v{j}" for j in range(1, 5))) for i in range(1, 5))
    want = (t1 + t3) * (t2 + t4)
    assert rename_vars(pol, {v: f"v{v}" for v in pol.vars}) == want
    cube_pol = volume_polynomial(cube()).f
    assert cube_pol.evaluate((1, 2, 3, 1, 0, 1)) == 2 * 2 * 4


def test_simplex_polynomial_is_power_of_linear_form():
    # coefficients proportionality with the positive kernel vector of the
    # normal matrix
    for P in (triangle(), simplex3()):
        h = volume_polynomial(P)
        d = P.dim
        grads = [h.f.coeff(tuple(d if j == i else 0 for j in range(len(P.labels))))
                 for i in range(len(P.labels))]
        # f = c (v1 t1 + ... )^d with sum v_i rho_i = 0: recover v from the
        # pure powers and verify the whole polynomial matches
        v = linalg.nullspace(linalg.transpose(P.normals), len(P.labels))
        assert len(v) == 1
        vpos = v[0] if v[0][0] > 0 else tuple(-x for x in v[0])
        assert all(x > 0 for x in vpos)
        form = HomPoly(h.f.vars, 1, {((i, 1),): c for i, c in enumerate(vpos)})
        power = form.pow(d)
        ratio = None
        for key, c in h.f.terms.items():
            ratio = c / power.terms[key]
            break
        assert power.scale(ratio) == h.f and ratio > 0


def test_oracle_agreement_random_support_vectors(rng):
    for make in FIXTURES + NON_UNIT:
        P = make()
        pol = volume_polynomial(P).f
        found = 0
        while found < 12:
            t = [x + Q(rng.randint(-2, 2), 8) for x in P.t]
            if not in_deformation_cone(P, t):
                continue
            found += 1
            Q2 = build(P.normals, t, P.labels)
            assert pol.evaluate(t) == fraction_triangulation_volume(Q2)


def test_translation_invariance(rng):
    for make in (square, cube):
        P = make()
        pol = volume_polynomial(P)
        idx = {v: k for k, v in enumerate(pol.f.vars)}
        for b in P.lin.basis:
            assert pol.lin.contains([b[idx.get(v, P.labels.index(v))] for v in pol.f.vars])
        # direct check at a sample point
        y = [Q(rng.randint(-2, 2), 3) for _ in range(P.dim)]
        shift = [sum(r[k] * y[k] for k in range(P.dim)) for r in P.normals]
        t = list(P.t)
        assert pol.f.evaluate([a + s for a, s in zip(t, shift)]) == pol.f.evaluate(t)


def test_minkowski_linearity_of_support(rng):
    P = square()
    for _ in range(10):
        lam, mu = Q(rng.randint(1, 4)), Q(rng.randint(1, 4))
        tQ = [Q(rng.randint(1, 3)) for _ in range(4)]
        tR = [Q(rng.randint(1, 3)) for _ in range(4)]
        combo = [lam * a + mu * b for a, b in zip(tQ, tR)]
        # support numbers are linear under scaling and Minkowski sums, so the
        # combined vector stays in the chamber and volumes expand binomially
        assert in_deformation_cone(P, combo)
        vol = fraction_triangulation_volume(build(P.normals, combo))
        polf = volume_polynomial(P).f
        assert vol == polf.evaluate(combo)


def test_mixed_volume_examples():
    K1 = build([(1, 0), (0, 1), (-1, 0), (0, -1)], [2, 3, 0, 0])
    K2 = build([(1, 0), (0, 1), (-1, 0), (0, -1)], [5, 7, 0, 0])
    assert mixed_volume([K1, K2]) == 2 * 7 + 3 * 5
    sq = square((1, 1, 0, 0))
    assert mixed_volume([sq, sq]) == 2 * volume(sq)
    s1, s2 = simplex3(), simplex3((0, 0, 0, 2))
    assert mixed_volume([s1, s1, s1]) == 6 * volume(s1)
    assert mixed_volume([s1, s1, s2]) == 2 * mixed_volume([s1, s1, s1])


def test_mixed_volume_symmetric_multilinear(rng):
    P = square()
    bodies = []
    while len(bodies) < 3:
        t = [x + Q(rng.randint(-2, 2), 8) for x in P.t]
        if in_deformation_cone(P, t):
            bodies.append(build(P.normals, t))
    A, B, C = bodies
    assert mixed_volume([A, B]) == mixed_volume([B, A])
    lam = Q(3, 2)
    scaled = build(P.normals, [lam * x for x in A.t])
    assert mixed_volume([scaled, B]) == lam * mixed_volume([A, B])


def test_af_examples(rng):
    K1 = build([(1, 0), (0, 1), (-1, 0), (0, -1)], [2, 3, 0, 0])
    K2 = build([(1, 0), (0, 1), (-1, 0), (0, -1)], [5, 7, 0, 0])
    assert af_check([K1, K2])  # (ae+bc)^2 >= 4abce
    assert af_check([K1, K1])
    P = cube()
    bodies = []
    while len(bodies) < 3:
        t = [x + Q(rng.randint(-1, 1), 6) for x in P.t]
        if in_deformation_cone(P, t):
            bodies.append(build(P.normals, t))
    assert af_check(bodies)


def test_volume_polynomial_is_hereditary_lorentzian():
    for make in FIXTURES:
        P = make()
        h = volume_polynomial(P)
        assert h.strong
        assert h.delta == P.delta  # the face complexes coincide
        assert hered.is_positive(h)
        v = hered.is_hereditary_lorentzian(h)
        assert v.value == "yes", make.__name__


def test_deformation_cone_membership():
    P = square()
    assert in_deformation_cone(P, (2, 1, 1, 1))
    assert not in_deformation_cone(P, (-1, 0, 0, 0))
    # the defining support vector of any fixture lies in its own chamber
    for make in FIXTURES:
        Q2 = make()
        assert in_deformation_cone(Q2, Q2.t)
    # the polytope cone sits inside the polynomial's cone
    h = volume_polynomial(P)
    assert hered.cone_member(h, tuple(P.t))


def test_json_round_trip():
    """The JSON form of the pentagon, as ``polytope`` commands read it,
    gives back the body ``build`` makes."""
    P = pentagon()
    again = SimplePolytope.from_json_dict(
        {"dim": 2, "normals": [[1, 0], ["0", 1], [-1, 0], [0, "-1"], [1, 1]], "t": [1, "1", 1, 1, "3/2"]})
    assert again.vertices == P.vertices and again.delta == P.delta


def _chamber_samples(rng, P, count):
    out = []
    while len(out) < count:
        t = [x + Q(rng.randint(-2, 2), 8) for x in P.t]
        if in_deformation_cone(P, t):
            out.append(build(P.normals, t, P.labels))
    return out


def test_vertices_match_rank_solve_oracle(rng):
    """The integer vertex test against rank and solve on rationals, on unit,
    non-unit and rational facet data and on seeded random polytopes."""
    for make in FIXTURES + NON_UNIT + RATIONAL:
        P = make()
        for K in [P] + _chamber_samples(rng, P, 6):
            assert dict(zip(K.vertices, K.active)) == rank_solve_vertices(K.normals, K.t, K.labels)
    for K in _random_polytopes(rng, 12):
        assert dict(zip(K.vertices, K.active)) == rank_solve_vertices(K.normals, K.t, K.labels)


def test_vertices_are_formed_sorted_when_first_read(rng):
    """A body forms its rational vertices only when they are read, sorted
    by ``label_key``, each beside its active set, and keeps them."""
    for make in FIXTURES + NON_UNIT + RATIONAL:
        P = make()
        for K in [P] + _chamber_samples(rng, P, 4) + _random_polytopes(rng, 2):
            assert "vertices" not in vars(K) and "active" not in vars(K)
            assert list(K.vertices) == sorted(K.vertices, key=label_key)
            assert dict(zip(K.vertices, K.active)) == rank_solve_vertices(K.normals, K.t, K.labels)
            assert K.vertices is K.vertices and K.active is K.active


def test_volume_matches_fraction_triangulation_oracle(rng):
    """The volume, the volume polynomial at the body's own support numbers,
    against the triangulation on rational vertices, on the unit, non-unit
    and rational fixtures (the
    rational triangle has a chart with prev < 0), seeded bodies in their
    chambers, and seeded random polytopes."""
    for make in FIXTURES + NON_UNIT + RATIONAL:
        P = make()
        for K in [P] + _chamber_samples(rng, P, 4):
            got = volume(K)
            assert type(got) is Rational and got == fraction_triangulation_volume(K), (make.__name__, K.t)
    for K in _random_polytopes(rng, 12):
        assert volume(K) == fraction_triangulation_volume(K), (K.normals, K.t)


def test_rational_fixture_eliminates_to_a_negative_prev():
    """Some chart of the rational fixture's normal set ends its elimination
    with prev < 0, so the sign of the integer slacks is exercised."""
    P = rational_triangle()
    charts = polytope._require_bounded(P.labels, *linalg.integer_scaled(P.normals)).charts
    prevs = [prev for _, prev, _, _, _ in charts]
    assert min(prevs) < 0 < max(prevs)


def _outcome(make, *args):
    try:
        return make(*args)
    except (PolytopeError, TypeError) as e:
        return type(e), str(e)


def _agreement_cases(rng):
    """Seeded build inputs: support vectors near those of the unit,
    non-unit and rational fixtures, in their chamber or not, half of them
    with normals, support numbers and labels shuffled together; random
    normal sets of every shape of ``_seeded_normals``; and fixed unbounded,
    non-simple, empty-facet, no-vertex, inconsistent, no-facet and float
    data."""
    for make in FIXTURES + NON_UNIT + RATIONAL:
        P = make()
        for k in range(8):
            t = [x + Q(rng.randint(-3, 3), rng.choice((1, 4, 8))) for x in P.t]
            rows = list(zip(P.normals, t, P.labels))
            if k % 2:
                rng.shuffle(rows)
            normals, t, labels = zip(*rows)
            yield normals, t, labels
    for k in range(120):
        normals = _seeded_normals(rng, k)
        yield normals, [Q(rng.randint(-2, 4), rng.randint(1, 3)) for _ in normals], None
    yield [(1, 0), (0, 1)], [1, 1], None
    yield [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)], [1, 1, 1, 1, 3], None
    yield [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], [1, 1, 1, 1, 10], None
    yield [(1, 0), (0, 1), (-1, 0), (0, -1)], [-1, 1, -1, 1], None
    yield [(1, 0), (0, 1), (-1, 0)], [1, 1], None
    yield [(1, 0), (0, 1, 2), (-1, 0)], [1, 1, 1], None
    yield [], [], None
    yield [(1.0, 0), (0, 1), (-1, -1)], [1, 1, 1], None
    yield [(1, 0), (0, 1), (-1, -1)], [1, 1, 0.5], None


def test_charts_match_subset_elimination_oracle(rng):
    """The chart route against one elimination of [A | t] per d-subset and
    body: an equal SimplePolytope, or the same error type and text."""
    kinds = ("floats", "unbounded", "vertex", "facet(s)", "no vertices", "no facets", "inconsistent")
    seen = set()
    for normals, t, labels in _agreement_cases(rng):
        args = (normals, t) if labels is None else (normals, t, labels)
        got = _outcome(build, *args)
        assert got == _outcome(subset_elimination_build, *args), args
        seen.add("ok" if isinstance(got, SimplePolytope) else next(k for k in kinds if got[1].startswith(k)))
    assert seen == {"ok", *kinds}, seen


def test_second_body_on_a_normal_set_eliminates_nothing(monkeypatch):
    """Count guard: once a normal set has its charts, a build on it makes
    no linalg.eliminate call and no cones.lp_max call."""
    monkeypatch.setattr(polytope, "_BOUNDED", {})
    calls = []
    for mod, name in ((linalg, "eliminate"), (cones, "lp_max")):
        inner = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _inner=inner, _name=name: calls.append(_name) or _inner(*a))
    for make in (cube, prism, rational_triangle):
        P = make()
        assert "eliminate" in calls and "lp_max" in calls
        calls.clear()
        build(P.normals, [2 * x + 1 for x in P.t], P.labels)
        assert not calls, make.__name__


def test_mixed_volume_matches_chain_oracle(rng):
    """Polarization against chained directional derivatives, with the
    repeated bodies of ``af_check``."""
    for make in FIXTURES + NON_UNIT + RATIONAL:
        P = make()
        for _ in range(4):
            K1, K2, *rest = _chamber_samples(rng, P, P.dim)
            for bodies in ([K1, K2] + rest, [K1, K1] + rest, [K2, K2] + rest, [P] * P.dim):
                assert mixed_volume(bodies) == chain_mixed_volume(bodies)


def test_boundedness_is_tested_once_per_normal_set(monkeypatch):
    """Count guard: a second build on the same normals solves no LP; an
    unbounded normal set is tested, and raises, on every build."""
    monkeypatch.setattr(polytope, "_BOUNDED", {})
    calls = []
    inner = cones.lp_max
    monkeypatch.setattr(cones, "lp_max", lambda *a: calls.append(1) or inner(*a))
    cube()
    assert calls
    calls.clear()
    cube((2, 1, 1, 1, 1, 1))
    assert not calls
    for _ in range(3):
        with pytest.raises(PolytopeError, match="unbounded"):
            build([(1, 0), (0, 1), (1, 1)], [1, 1, 1])
        assert calls
        calls.clear()


def _seeded_normals(rng, k):
    """Seeded normal sets in dimensions 1-4, four shapes in turn: free
    draws; draws closed by their negated sum (bounded whenever they have
    full rank); square N (n = d); and rank-deficient N (last coordinate 0)."""
    d = rng.randint(1, 4)
    kind = k % 4
    n = d if kind == 2 else rng.randint(1, d + 4)
    normals = [[Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(d)] for _ in range(n)]
    if kind == 1:
        normals.append([-sum(col) for col in zip(*normals)])
    if kind == 3:
        normals = [r[:-1] + [Q(0)] for r in normals]
    return tuple(tuple(r) for r in normals)


def test_boundedness_matches_lp_oracle(rng, monkeypatch):
    """One orthant test on lin^perp (Stiemke's lemma) against the 2d LPs
    of the oracle, on seeded normal sets of every shape."""
    monkeypatch.setattr(polytope, "_BOUNDED", {})
    seen = set()
    for k in range(400):
        normals = _seeded_normals(rng, k)
        labels = tuple(range(1, len(normals) + 1))
        try:
            lin = polytope._require_bounded(labels, *linalg.integer_scaled(normals)).lin
        except PolytopeError as e:
            assert "unbounded" in str(e)
            got = False
        else:
            got = True
            assert lin == LinSubspace(labels, list(zip(*normals)))
        assert got == lp_is_bounded(normals), normals
        seen.add((k % 4, got))
    assert seen >= {(0, True), (0, False), (1, True), (2, False), (3, False)}


def test_af_check_needs_d_bodies_in_dimension_at_least_2():
    seg = build([(1,), (-1,)], [1, 1])
    sq = square()
    for bodies in ([], [sq], [seg], [seg, seg], [sq, sq, sq]):
        with pytest.raises(PolytopeError, match="Alexandrov-Fenchel"):
            af_check(bodies)


def test_mixed_volume_needs_d_bodies_in_dimension_d():
    sq = square()
    for bodies in ([], [sq], [sq, sq, sq]):
        with pytest.raises(PolytopeError, match="bodies in dimension"):
            mixed_volume(bodies)


# one normal set, two chambers: the square pyramid's normals over a base
# at height -t5, cut by the two slopes in different orders
TWO_CHAMBERS = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (0, 0, -1)]


def test_two_chambers_on_one_normal_set_have_their_own_polynomials():
    """Two simple bodies on one normal set with different incidence
    complexes: the first body's polynomial reads 243/4 at the second
    body's support numbers, so a cache keyed on the normal set alone would
    give the second body that value instead of its volume, 63."""
    x = build(TWO_CHAMBERS, (1, 1, 3, 3, 1))
    y = build(TWO_CHAMBERS, (3, 2, 1, 1, 2))
    assert x.delta != y.delta
    assert volume_polynomial(x).f.evaluate(y.t) == Q(243, 4)
    assert volume(x) == fraction_triangulation_volume(x) == Q(80, 3)
    assert volume(y) == fraction_triangulation_volume(y) == 63
    assert volume_polynomial(y).f.evaluate(y.t) == 63


def test_mixed_and_af_refuse_bodies_in_different_chambers():
    """Body 0's polynomial gives mixed volumes only on body 0's closed
    chamber: unchecked, ``mixed x x y`` read 264 and ``mixed y x x`` 288.
    Every order raises; within one chamber the mixed volume is the same in
    every order, and its diagonal is 3! times the volume."""
    x = build(TWO_CHAMBERS, (1, 1, 3, 3, 1))
    y = build(TWO_CHAMBERS, (3, 2, 1, 1, 2))
    for bodies in ([x, x, y], [y, x, x], [x, y, y], [y, y, x]):
        for check in (mixed_volume, af_check):
            with pytest.raises(PolytopeError, match="facet-incidence complex"):
                check(bodies)
    for ts, want in ((((1, 1, 3, 3, 1), (2, 1, 3, 3, 1), (1, 1, 4, 4, 2)), 276),
                     (((3, 2, 1, 1, 2), (4, 3, 2, 1, 3), (3, 3, 1, 1, 2)), 585)):
        family = [build(TWO_CHAMBERS, t) for t in ts]
        assert all(K.delta == family[0].delta for K in family)
        for bodies in permutations(family):
            assert mixed_volume(list(bodies)) == want and af_check(list(bodies))
        for K in family:
            assert mixed_volume([K, K, K]) == 6 * fraction_triangulation_volume(K)


def test_immutable_classes_survive_deepcopy_and_pickle():
    """``SimComplex``, ``HomPoly``, ``LinSubspace`` and ``SymMatrix`` refuse
    attribute writes, so copy and pickle rebuild them through their
    constructors; the bodies, polynomials and fans that hold them copy
    too."""
    K = build(TWO_CHAMBERS, (1, 1, 3, 3, 1))
    h = volume_polynomial(K)
    fan = build_fan(2, "enws", [(1, 0), (0, 1), (-1, 0), (0, -1)], ["en", "nw", "ws", "se"])
    for obj in (K.delta, K.lin, h.f, SymMatrix(["a", "b"], [[1, Q(1, 2)], [Q(1, 2), 3]]), K, h, fan):
        for clone in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(clone) is type(obj) and clone is not obj and clone == obj
            assert type(obj).__hash__ is None or hash(clone) == hash(obj)
    fresh = build(TWO_CHAMBERS, (3, 2, 1, 1, 2))
    for clone in (copy.deepcopy(fresh), pickle.loads(pickle.dumps(fresh))):
        assert volume(clone) == volume(fresh) == 63


def _random_polytopes(rng, count):
    """Boxes with one or two random integer cuts and random support numbers;
    draws that are unbounded, not simple or leave a facet empty are skipped,
    so the incidence complexes vary from draw to draw."""
    out = []
    while len(out) < count:
        d = rng.choice((2, 3))
        normals = [tuple(s if j == i else 0 for j in range(d)) for s in (1, -1) for i in range(d)]
        normals += [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 2))]
        t = [rng.randint(1, 4) for _ in range(2 * d)] + [rng.randint(1, 6) for _ in normals[2 * d:]]
        try:
            out.append(build(normals, t))
        except PolytopeError:
            continue
    return out


def test_volume_polynomial_matches_facet_recursion_oracle(rng):
    """The weights 1 / |det(normals of F)| at the vertices rebuild the
    polynomial that the facet recursion assembles, on unit and non-unit
    normals and on seeded random polytopes, and it gives their volume."""
    for make in FIXTURES + NON_UNIT:
        P = make()
        assert volume_polynomial(P).f == facet_recursion_volume_polynomial(P), make.__name__
    for K in _random_polytopes(rng, 12):
        h = volume_polynomial(K)
        assert h.f == facet_recursion_volume_polynomial(K), K.normals
        assert h.f.evaluate(K.t) == fraction_triangulation_volume(K)
        assert h.strong and h.delta == K.delta


def test_af_check_evaluates_each_subset_sum_once(monkeypatch, rng):
    """Count guard: on a cube triple the three mixed volumes share 11
    distinct subset sums (7 of V(K1, K2, K3), two more each for the
    repeated bodies), and af_check evaluates the integer polynomial at each
    once (``polytope._int_value``)."""
    P = cube()
    volume_polynomial(P)
    bodies = _chamber_samples(rng, P, 3)
    calls = []
    inner = polytope._int_value
    monkeypatch.setattr(polytope, "_int_value", lambda terms, x: calls.append(tuple(x)) or inner(terms, x))
    assert af_check(bodies)
    assert len(calls) == len(set(calls)) == 11


def test_af_check_matches_three_mixed_volumes(rng):
    for make in FIXTURES + NON_UNIT + RATIONAL:
        P = make()
        for _ in range(3):
            K1, K2, *rest = _chamber_samples(rng, P, P.dim)
            lhs = mixed_volume([K1, K2] + rest)
            want = lhs ** 2 >= mixed_volume([K1, K1] + rest) * mixed_volume([K2, K2] + rest)
            assert af_check([K1, K2] + rest) == want
