"""Hereditary polynomials: heredity detection, projections, face
restrictions, the recursive cone (against a literal reference
implementation), reconstruction from weights, and the certification."""

import pytest

from conftest import hereditary_fixture_pool, nonneg_cubics_and_quartics, rand_product_of_linears
from oracles import rational_orthant_shift
from lorentzlab.hereditary import (
    BalancingError,
    HereditaryPoly,
    NotHereditaryError,
    FaceWalk,
    check_hereditary,
    cone_member,
    cone_nonempty,
    cone_system,
    from_weights,
    is_hereditary_lorentzian,
    is_positive,
    face_complex,
    require_hereditary,
    restrict_poly,
)
from lorentzlab import linalg
from lorentzlab.fanchow import fan_subdivide, functional_from_weights
from lorentzlab.lorentzian import polarize
from lorentzlab.matroid import Matroid, bergman_fan, flats, modular_space, order_complex, pol_matroid
from lorentzlab.polytope import volume_polynomial
from lorentzlab.polycore import HomPoly, LinSubspace, parse_poly
from lorentzlab.rat import Q
from lorentzlab.simplicial import SimComplex
from oracles import (
    euler_from_weights,
    fraction_cone_system,
    fraction_face_points,
    fraction_walk_member,
    partials_lineality_space,
    product,
    projection_pi,
    restrict_fS,
    skeleton_require_hereditary,
    solve_member_with_values,
    space_dimension,
)
from test_fanchow import cube_fan, square_fan
from test_polycore import random_subspace
from test_polytope import _chamber_samples, _random_polytopes, pentagon, prism


def edge_square():
    """One half of a squared edge: the reconstruction fixture (t1+t2)^2/2."""
    delta = SimComplex(("t1", "t2"), [{"t1", "t2"}])
    L = LinSubspace(("t1", "t2"), [(1, -1)])
    return from_weights(delta, L, {frozenset({"t1", "t2"}): 1})


def test_check_hereditary_examples():
    with pytest.raises(NotHereditaryError) as err:
        check_hereditary(parse_poly("t1 t2 + t2 t3 + t1 t3"))
    assert len(err.value.face) == 1
    h = check_hereditary(parse_poly("t1 t3 + t1 t4 + t2 t3 + t2 t4"))  # (t1+t2)(t3+t4)
    assert h.strong and h.lin.dim == 2
    from lorentzlab.lorentzian import polarize

    hp = check_hereditary(polarize(parse_poly("t1^2")))
    assert hp.strong


def triple_product():
    # (a0+a1)(b0+b1)(c0+c1): strongly hereditary cube of linear factors
    f = parse_poly("a0 + a1") 
    from lorentzlab.hereditary import _extend_vars
    vars = ("a0", "a1", "b0", "b1", "c0", "c1")
    g = (_extend_vars(parse_poly("a0 + a1"), vars)
         * _extend_vars(parse_poly("b0 + b1"), vars)
         * _extend_vars(parse_poly("c0 + c1"), vars))
    return check_hereditary(g)


def test_projection_identity():
    # (d/dt)^S f (t) = f^S(pi_S(t)) exactly, for all skeleton faces
    fixtures = [
        edge_square(),
        check_hereditary(parse_poly("t1 t3 + t1 t4 + t2 t3 + t2 t4")),
        triple_product(),
    ]
    for h in fixtures:
        for S in sorted(h.delta.skeleton().faces(), key=lambda s: sorted(map(repr, s))):
            if not S:
                continue
            V_S, rows = projection_pi(h, S)
            lhs = h.f.mixed_partial(S)
            rhs = restrict_poly(h, S).substitute_linear(rows, h.vars)
            assert lhs == rhs, (h.f, S)


def test_projection_spec_example():
    h = check_hereditary(parse_poly("t1^2 + 2*t1 t2 + t2^2"))
    V_S, rows = projection_pi(h, {"t1"})
    assert V_S == ("t2",)
    assert restrict_poly(h, {"t1"}) == parse_poly("2*t2")
    assert h.f.partial("t1") == restrict_poly(h, {"t1"}).substitute_linear(rows, h.vars)


def test_restrict_examples():
    h = triple_product()
    assert restrict_poly(h, {"a0"}) == parse_poly("b0 c0 + b0 c1 + b1 c0 + b1 c1")
    h2 = edge_square()
    assert restrict_poly(h2, {"t1"}) == parse_poly("t2", vars=("t2",)).scale(1)
    sub = restrict_fS(h2, {"t1"})
    assert isinstance(sub, HereditaryPoly) and sub.degree == 1


def test_euler_recursion():
    # (d - |S|) f^S = sum_i t_i f^(S+i)(pi(t)), checked at the empty face
    for h in [edge_square(), check_hereditary(parse_poly("t1 t3 + t1 t4 + t2 t3 + t2 t4"))]:
        d = h.degree
        acc = HomPoly.zero(h.vars, d)
        for i in h.delta.link_vertices(()):
            V_S, rows = projection_pi(h, {i})
            child = restrict_poly(h, {i}).substitute_linear(rows, h.vars)
            acc = acc + HomPoly.variable(h.vars, i) * child
        assert acc == h.f.scale(d)


def cone_member_reference(h: HereditaryPoly, v, pick_last: bool) -> bool:
    """Literal recursion from the definition; the pinned-element descent
    order is a free choice, exercised both ways."""
    f = h.f
    d = f.degree
    from lorentzlab.polycore import direction_coords

    coords = direction_coords(v, f.vars)
    if d == 1:
        return f.evaluate(coords) > 0
    if rational_orthant_shift(coords, h.lin) is None:
        return False
    verts = h.delta.link_vertices(())
    order = sorted(verts, key=repr, reverse=pick_last)
    for i in order:
        ell = solve_member_with_values(h.lin, {i: Q(1)})
        if ell is None:
            return False
        idx = {u: k for k, u in enumerate(f.vars)}
        xi = coords[idx[i]]
        shifted = [c - xi * e for c, e in zip(coords, ell)]
        sub = restrict_fS(h, {i})
        sub_coords = [shifted[idx[u]] for u in sub.vars]
        if not cone_member_reference(sub, sub_coords, pick_last):
            return False
    return True


def test_cone_member_matches_reference(rng):
    fixtures = [
        edge_square(),
        check_hereditary(parse_poly("t1 t3 + t1 t4 + t2 t3 + t2 t4")),
        triple_product(),
    ]
    for h in fixtures:
        hits = 0
        for _ in range(60):
            v = [Q(rng.randint(-3, 6), rng.randint(1, 2)) for _ in h.vars]
            a = cone_member(h, v)
            assert a == cone_member_reference(h, v, True) == cone_member_reference(h, v, False)
            hits += a
        assert 0 < hits < 60  # probes saw both sides


def test_cone_examples():
    hl = check_hereditary(parse_poly("t1 + t2"))
    assert cone_member(hl, (1, Q(-1, 2)))
    assert not cone_member(hl, (-2, 1))
    h = triple_product()
    assert cone_member(h, (1,) * 6)
    w = cone_nonempty(h)
    assert w is not None and cone_member(h, [w[v] for v in h.vars])


def test_cone_projection_inclusion(rng):
    # pi_S(K_f) lands in the restriction's cone
    h = check_hereditary(parse_poly("t1 t3 + t1 t4 + t2 t3 + t2 t4"))
    found = 0
    for _ in range(40):
        v = [Q(rng.randint(-2, 5)) for _ in h.vars]
        if not cone_member(h, v):
            continue
        found += 1
        for i in h.vars:
            V_S, rows = projection_pi(h, {i})
            image = [sum(r * c for r, c in zip(row, v)) for row in rows]
            assert cone_member(restrict_fS(h, {i}), image)
    assert found > 0


def _walk_cases(rng):
    """Seeded face walks, each with the points it is walked at: with a
    polynomial (the fixture pool, seeded polarizations of products of
    linear forms, volume polynomials, the matroid polynomial of U(4,5)) and
    without one (the Bergman fans of U(3,5) and U(4,5), the cube fan)."""
    hs = hereditary_fixture_pool(rng) + [pol_matroid(flats(Matroid.uniform(4, 5)))]
    while len(hs) < 13:
        try:
            hs.append(check_hereditary(polarize(rand_product_of_linears(rng, rng.randint(2, 3), 3))))
        except NotHereditaryError:
            continue
    hs += [volume_polynomial(P) for P in [pentagon(), prism()] + _random_polytopes(rng, 4)]
    walks = [FaceWalk(h.delta, h.lin, h.f) for h in hs]
    fans = [bergman_fan(flats(Matroid.uniform(r, 5))) for r in (3, 4)] + [cube_fan()]
    walks += [FaceWalk(fan.cones, fan.lineality()) for fan in fans]
    for walk in walks:
        n = len(walk.face(frozenset()).V_S)
        yield walk, [(1,) * n] + [[Q(rng.randint(-3, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(4)]


def test_face_walk_points_match_fraction_projection(rng):
    """The walk projects integer vectors over a positive denominator: each
    is the rational projection of the oracle, every face keeps its parent's
    pinning row signed so that c > 0, and the verdict is the rational
    walk's."""
    flips = faces = members = probes = 0
    for walk, xs in _walk_cases(rng):
        for S in walk.order:
            if S:
                fd = walk.face(S)
                row, c, _ = walk.face(S - {fd.vertex}).lin.pin(fd.vertex, fd.V_S)
                assert fd.c == abs(c) > 0 and fd.row == tuple(a if c > 0 else -a for a in row)
                flips += c < 0
        for x in xs:
            (y0,), den0 = linalg.integer_scaled([x])
            want = fraction_face_points(walk, x)
            seen = []
            for S, y, den in walk.points(y0, den0):
                assert type(den) is int and den > 0 and all(type(a) is int for a in y)
                assert tuple(Q(a, den) for a in y) == want[S], S
                seen.append(S)
            assert seen == walk.order
            faces += len(seen)
            got = walk.member(x)
            assert got == fraction_walk_member(walk, x), x
            members += got
            probes += 1
    assert flips > 0 and faces > 1000 and 0 < members < probes


def test_cone_system_matches_fraction_projection(rng):
    # the coupled system turns each integer column into the rationals that
    # the oracle projection gives, so the search and its point stay as they are
    for h in hereditary_fixture_pool(rng) + [triple_product(), pol_matroid(flats(Matroid.uniform(4, 5)))]:
        A = cone_system(h)
        assert A == fraction_cone_system(h) and A


def four_cycle_alternating():
    # alternating weights on the 4-cycle balance against the two-dimensional
    # alternating lineality space
    delta = SimComplex((1, 2, 3, 4), [{1, 2}, {2, 3}, {3, 4}, {1, 4}])
    L = LinSubspace((1, 2, 3, 4), [(1, 1, 1, 1), (1, -1, 1, -1)])
    w = {frozenset({1, 2}): 1, frozenset({2, 3}): -1, frozenset({3, 4}): 1, frozenset({1, 4}): -1}
    return from_weights(delta, L, w)


def test_is_positive():
    assert is_positive(edge_square())
    assert not is_positive(four_cycle_alternating())
    assert is_positive(check_hereditary(HomPoly.zero(("a",), 2)))


def test_from_weights_examples():
    # three isolated points with unit weights: the sum of the variables
    d3 = SimComplex(("a", "b", "c"), [{"a"}, {"b"}, {"c"}])
    L3 = LinSubspace(("a", "b", "c"), [(1, -1, 0), (0, 1, -1)])
    h3 = from_weights(d3, L3, {frozenset({"a"}): 1, frozenset({"b"}): 1, frozenset({"c"}): 1})
    assert h3.f == parse_poly("a + b + c")
    # squared edge
    hw = edge_square()
    assert hw.f == parse_poly("1/2*t1^2 + t1 t2 + 1/2*t2^2")
    assert hw.f.mixed_partial({"t1", "t2"}).terms[()] == 1
    # heredity failure reported before balancing on a path with trivial lineality
    path = SimComplex((1, 2, 3), [{1, 2}, {2, 3}])
    with pytest.raises(NotHereditaryError):
        from_weights(path, LinSubspace((1, 2, 3), []), {frozenset({1, 2}): 1, frozenset({2, 3}): 1})


def test_from_weights_balancing_error():
    delta = SimComplex(("t1", "t2"), [{"t1", "t2"}])
    L = LinSubspace(("t1", "t2"), [(1, -2)])  # pins the cross derivative differently
    with pytest.raises(BalancingError):
        # weight 1 on the edge cannot balance against this lineality:
        # the linear form t2 must vanish on the pinned complement
        from_weights(
            SimComplex(("t1", "t2", "t3"), [{"t1", "t2"}, {"t2", "t3"}]),
            LinSubspace(("t1", "t2", "t3"), [(1, 0, -1), (0, 1, 0)]),
            {frozenset({"t1", "t2"}): 1, frozenset({"t2", "t3"}): 1},
        )


def test_from_weights_on_the_empty_face_is_the_constant():
    # d = 0: the only face is the empty one, and its weight is the polynomial
    h = from_weights(SimComplex(("t1",), [set()]), LinSubspace(("t1",), []), {frozenset(): 3})
    assert h.f == HomPoly.constant((), 3) and h.degree == 0 and h.strong
    assert h.delta == SimComplex.empty_face_only()


def _chamber_weights(P):
    """The inputs ``polytope.volume_polynomial`` hands to ``from_weights``."""
    normal = dict(zip(P.labels, P.normals))
    return P.delta, P.lin, {F: 1 / abs(linalg.det([normal[lab] for lab in F])) for F in P.active}


def _euler_oracle_cases(rng, catalog):
    fans = [square_fan(), cube_fan()] + [bergman_fan(flats(Matroid.uniform(r, n)))
                                         for r, n in ((3, 4), (3, 5), (4, 5))]
    for fan in fans:
        yield fan.cones, fan.lineality(), {F: 1 for F in fan.cones.facets}
    for name, L in sorted(catalog.items()):
        if name in ("K4", "Fano") or 2 <= L.rank_total <= 4:
            delta = order_complex(L)
            yield delta, modular_space(L), {F: 1 for F in delta.facets}
    for P in [pentagon(), prism()] + _random_polytopes(rng, 6):
        yield _chamber_weights(P)
        for K in _chamber_samples(rng, P, 2):
            yield _chamber_weights(K)
    fan = square_fan()
    fan2, transport = fan_subdivide(fan, (1, 2))
    alpha2 = transport(functional_from_weights(fan, {F: 1 for F in fan.cones.facets}))
    yield fan2.cones, fan2.lineality(), {F: alpha2.weight(F) for F in fan2.cones.facets}
    yield (SimComplex((1, 2, 3, 4), [{1, 2}, {2, 3}, {3, 4}, {1, 4}]),
           LinSubspace((1, 2, 3, 4), [(1, 1, 1, 1), (1, -1, 1, -1)]),
           {frozenset({1, 2}): 1, frozenset({2, 3}): -1, frozenset({3, 4}): 1, frozenset({1, 4}): -1})
    yield (SimComplex(("a", "b", "c"), [{"a"}, {"b"}, {"c"}]),
           LinSubspace(("a", "b", "c"), [(2, -1, 0), (1, 0, -3)]),
           {frozenset({"a"}): 1, frozenset({"b"}): 2, frozenset({"c"}): Q(1, 3)})


def test_from_weights_matches_euler_recursion_oracle(rng, catalog):
    """Each coefficient from one linear relation gives the polynomial that
    the Euler recursion on face polynomials assembles, with the same
    lineality space and strong flag: fans, Bergman fans, matroid volume
    polynomials, polytope chamber weights, a stellar subdivision, the
    alternating four-cycle and degree 1."""
    count = 0
    for delta, lin, w in _euler_oracle_cases(rng, catalog):
        got, want = from_weights(delta, lin, w), euler_from_weights(delta, lin, w)
        assert (got.f, got.lin, got.strong) == (want.f, want.lin, want.strong), delta
        count += 1
    assert count > 30


@pytest.mark.parametrize("delta, lin, w", [
    (SimComplex((1, 2, 3), [{1, 2}, {2, 3}]), LinSubspace((1, 2, 3), []),
     {frozenset({1, 2}): 1, frozenset({2, 3}): 1}),
    (SimComplex(("t1", "t2", "t3"), [{"t1", "t2"}, {"t2", "t3"}]),
     LinSubspace(("t1", "t2", "t3"), [(1, 0, -1), (0, 1, 0)]),
     {frozenset({"t1", "t2"}): 1, frozenset({"t2", "t3"}): 1}),
], ids=["path", "unbalanced"])
def test_from_weights_refuses_as_the_euler_recursion_does(delta, lin, w):
    with pytest.raises(ValueError) as got:
        from_weights(delta, lin, w)
    with pytest.raises(ValueError) as want:
        euler_from_weights(delta, lin, w)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    assert type(got.value) in (NotHereditaryError, BalancingError)


def test_from_weights_uniqueness_round_trip():
    # reading weights off a reconstructed polynomial reproduces it exactly
    for h in [edge_square(), check_hereditary(parse_poly("t1 t3 + t1 t4 + t2 t3 + t2 t4"))]:
        w = {F: h.f.mixed_partial(F).terms[()] for F in h.delta.facets}
        lin = h.lin
        rebuilt = from_weights(SimComplex(h.vars, h.delta.facets), lin, w)
        assert rebuilt.f == h.f


def test_hereditary_lorentzian_examples():
    # degree 1
    d3 = SimComplex(("a", "b", "c"), [{"a"}, {"b"}, {"c"}])
    L3 = LinSubspace(("a", "b", "c"), [(1, -1, 0), (0, 1, -1)])
    h3 = from_weights(d3, L3, {frozenset({"a"}): 1, frozenset({"b"}): 1, frozenset({"c"}): 1})
    assert is_hereditary_lorentzian(h3).value == "yes"
    # rank-3 style quadratic with the one-positive-eigenvalue Hessian
    from lorentzlab.matroid import Matroid, flats, pol_matroid

    h = pol_matroid(flats(Matroid.uniform(3, 4)))
    v = is_hereditary_lorentzian(h)
    assert v.value == "yes" and v.q_certificates[0][1].pos == 1


def two_positive_quadratic():
    """(t1+t2+t3)^2 + (t1+t2-t0)^2: the interval deformation with a negative
    squared term flipped positive."""
    return check_hereditary(parse_poly(
        "2*t1^2 + 4*t1 t2 + 2*t1 t3 - 2*t0 t1 + 2*t2^2 + 2*t2 t3 - 2*t0 t2 + t3^2 + t0^2"
    ))


def test_hereditary_lorentzian_q_failure():
    # strongly hereditary with a two-positive Hessian, so the certification
    # must fail at (Q) with a witness
    h = two_positive_quadratic()
    assert h.strong
    v = is_hereditary_lorentzian(h)
    assert v.value == "no" and v.q_witness == frozenset()
    inr = dict(v.q_certificates)[frozenset()]
    assert inr.pos == 2


def test_codim2_hessians_read_off_coefficients(rng, monkeypatch):
    """The Hessian of each codimension-2 face restriction f^S is the Hessian
    of (d/dt)^S f on the link vertices, read off f's coefficients; the
    certification forms no f^S, and its certificates are the inertias of
    the restrictions' Hessians."""
    import lorentzlab.hereditary as hered
    from conftest import hereditary_fixture_pool
    from lorentzlab.inertia import derivative_hessian, hessian, inertia
    from lorentzlab.lorentzian import polarize

    pool = [h for h in hereditary_fixture_pool(rng) if h.degree >= 2]
    pool += [triple_product(), two_positive_quadratic()]
    a, b, c = parse_poly("t1 + t2 + t3"), parse_poly("t1 + 2*t2 + 0*t3"), parse_poly("0*t1 + t2 + t3")
    pool += [check_hereditary(polarize(a * b * c)), check_hereditary(polarize(a * b * b * c))]
    want = {}
    for k, h in enumerate(pool):
        for S in h.delta.faces_of_size(h.degree - 2):
            H = hessian(restrict_poly(h, S))
            indicator = [1 if v in S else 0 for v in h.vars]
            assert derivative_hessian(h.f, indicator, over=h.delta.link_vertices(S)) == H, (h.f, S)
            want[k, S] = inertia(H)
    calls = []
    monkeypatch.setattr(hered, "restrict_poly", lambda *args: calls.append(args))
    verdicts = [is_hereditary_lorentzian(h) for h in pool]
    assert calls == []
    assert {v.value for v in verdicts} == {"yes", "no"}
    got = {(k, S): inr for k, v in enumerate(verdicts) for S, inr in v.q_certificates}
    assert got == want


def test_hereditary_lorentzian_theta_family():
    # same family with the strictly convex sign: certified Lorentzian
    good = parse_poly(
        "2*t0 t1 + 2*t0 t2 - t0^2 + 2*t1 t3 + 2*t2 t3 + t3^2"
    )  # (t1+t2+t3)^2 - (t1+t2-t0)^2
    h = check_hereditary(good)
    assert h.strong
    assert is_hereditary_lorentzian(h).value == "yes"


def test_vacuous_verdict_for_empty_cone():
    # opposite-sign weights on two isolated points: no positive value exists
    # after projecting, so the cone is empty and the verdict is "vacuous"
    z = HomPoly.zero(("a", "b"), 2)
    assert is_hereditary_lorentzian(check_hereditary(z)).value == "vacuous"
    const = check_hereditary(HomPoly.constant((), 5))
    assert is_hereditary_lorentzian(const).value == "yes"
    neg = check_hereditary(HomPoly.constant((), -2))
    assert is_hereditary_lorentzian(neg).value == "no"


def test_main_remark_equivalence():
    # degree >= 3: the verdict equals "face complex connected and every
    # single-vertex restriction hereditary Lorentzian", recursively
    def reference(h: HereditaryPoly) -> bool:
        d = h.degree
        if d <= 1:
            return is_hereditary_lorentzian(h).value == "yes"
        if cone_nonempty(h) is None:
            return False
        if d == 2:
            from lorentzlab.inertia import hessian, inertia

            return inertia(hessian(h.f)).pos <= 1
        if not h.delta.is_connected():
            return False
        return all(reference(restrict_fS(h, {i})) for i in h.delta.link_vertices(()))

    fixtures = [
        triple_product(),
        product(
            check_hereditary(parse_poly("s1 + s2")),
            check_hereditary(parse_poly("u1 v1 + u1 v2 + u2 v1 + u2 v2")),
        ),
    ]
    from lorentzlab.matroid import Matroid, flats, pol_matroid

    fixtures.append(pol_matroid(flats(Matroid.uniform(4, 4))))
    for h in fixtures:
        assert (is_hereditary_lorentzian(h).value == "yes") == reference(h)


def test_product():
    ha = check_hereditary(parse_poly("t1 + t2"))
    hb = check_hereditary(parse_poly("t3 + t4"))
    hp = product(ha, hb)
    assert hp.strong and hp.f == parse_poly("t1 t3 + t1 t4 + t2 t3 + t2 t4")
    assert is_hereditary_lorentzian(hp).value == "yes"
    one = check_hereditary(HomPoly.constant((), 1))
    assert product(one, ha).f.degree == 1
    with pytest.raises(ValueError):
        product(ha, check_hereditary(parse_poly("t1 + t2")))


def test_product_hereditary_lorentzian_closure():
    # positive hereditary Lorentzian factors give a hereditary Lorentzian product
    from lorentzlab.matroid import Matroid, flats, pol_matroid

    pairs = [
        (check_hereditary(parse_poly("t1 + t2")), check_hereditary(parse_poly("t3 + t4"))),
        (
            check_hereditary(parse_poly("t1 + 2*t2")),
            check_hereditary(parse_poly("u1 v1 + u1 v2 + u2 v1 + u2 v2")),
        ),
        (pol_matroid(flats(Matroid.uniform(2, 3))), check_hereditary(parse_poly("z1 + z2"))),
    ]
    for ha, hb in pairs:
        assert is_positive(ha) and is_positive(hb)
        assert is_hereditary_lorentzian(ha).value == "yes"
        assert is_hereditary_lorentzian(hb).value == "yes"
        assert is_hereditary_lorentzian(product(ha, hb)).value == "yes"


def test_space_dimension_examples():
    delta = SimComplex(("t1", "t2"), [{"t1", "t2"}])
    L = LinSubspace(("t1", "t2"), [(1, -1)])
    assert space_dimension(delta, L, 2) == 1
    assert space_dimension(delta, L, 0) == 1
    # simplex normal-fan data: one-dimensional top graded piece
    from lorentzlab.polytope import build, volume_polynomial

    tr = build([(-1, 0), (0, -1), (1, 1)], [0, 0, 1])
    h = volume_polynomial(tr)
    assert space_dimension(h.delta, h.lin, 2) == 1
    # nothing above the top grade
    assert space_dimension(h.delta, h.lin, 3) == 0


def _heredity(check, delta, lin):
    """check's strong flag, or the face named by its NotHereditaryError."""
    try:
        return check(delta, lin)
    except NotHereditaryError as err:
        return err.face


def test_facets_first_heredity_matches_skeleton_oracle(rng):
    # seeded complexes against random sparse subspaces, most of them not
    # hereditary; the failing faces must be the oracle's minimal ones
    seen = {"face": 0, "strong": 0, "weak": 0}
    for _ in range(400):
        n = rng.randint(3, 6)
        verts = tuple(f"v{i}" for i in range(n))
        delta = SimComplex(verts, [rng.sample(verts, rng.randint(1, min(4, n))) for _ in range(rng.randint(1, 4))])
        lin = random_subspace(rng, verts, rng.randint(0, n))
        got = _heredity(require_hereditary, delta, lin)
        assert got == _heredity(skeleton_require_hereditary, delta, lin), (delta.facets, lin.basis)
        seen["face" if isinstance(got, frozenset) else "strong" if got else "weak"] += 1
    assert min(seen.values()) > 10


def test_strong_flag_matches_skeleton_oracle_on_fixture_pool(rng):
    # the fixture pool holds strong and weak polynomials; the seeded cubics
    # and quartics are mostly not hereditary, so they check the failing face
    pool = hereditary_fixture_pool(rng) + [edge_square(), triple_product(), four_cycle_alternating()]
    flags = [h.strong for h in pool]
    assert flags == [skeleton_require_hereditary(h.delta, h.lin) for h in pool]
    assert True in flags and False in flags
    faces = 0
    for f in nonneg_cubics_and_quartics(rng):
        want = _heredity(skeleton_require_hereditary, face_complex(f), f.lineality_space())
        try:
            got = check_hereditary(f).strong
        except NotHereditaryError as err:
            got = err.face
        assert got == want, f
        faces += isinstance(got, frozenset)
    assert faces


def test_coupled_cone_search_lands_in_the_cone(monkeypatch):
    """pol_matroid of U(4,5) with no hint: the all-ones point misses, so the
    coupled search runs, once, and its point passes the membership test."""
    from lorentzlab import cones
    from lorentzlab.matroid import Matroid, flats, pol_matroid

    h = pol_matroid(flats(Matroid.uniform(4, 5)))
    assert not cone_member(h, [1] * len(h.vars))
    calls = []
    inner = cones.strict_feasible
    monkeypatch.setattr(cones, "strict_feasible", lambda A: calls.append(len(A)) or inner(A))
    w = cone_nonempty(h)
    assert len(calls) == 1 and w is not None and cone_member(h, w)


def test_face_linealities_are_built_from_the_pinned_part(rng, monkeypatch):
    """The cone walk of pol_matroid(U(4,5)) forms the lineality of f^S once
    per face with 0 < |S| <= d - 2, each from the parent's pinned
    lineality, and none where f^S is linear; every face lineality of the
    seeded walks with a polynomial is the partials oracle's."""
    h = check_hereditary(pol_matroid(flats(Matroid.uniform(4, 5))).f)
    d = h.degree
    calls = []
    inner = HomPoly.lineality_space
    monkeypatch.setattr(HomPoly, "lineality_space",
                        lambda p, known=None: calls.append((p.degree, known is not None)) or inner(p, known))
    cone_system(h)
    assert not cone_member(h, [1] * len(h.vars))
    monkeypatch.undo()
    faces = [S for S in h.delta.faces(max_size=d - 2) if S]
    assert len(calls) == len(faces) > 20 and all(deg > 1 and known for deg, known in calls)
    linear = checked = 0
    for walk, _ in _walk_cases(rng):
        if walk.face(frozenset()).poly is None:
            continue
        for S in walk.order:
            fd = walk.face(S)
            if S and fd.poly.degree == 1:
                assert fd.lin is None and fd.form is not None
                linear += 1
            else:
                assert fd.lin == partials_lineality_space(fd.poly), S
                checked += 1
    assert linear > 100 and checked > 100


def test_from_weights_refuses_a_polynomial_that_lost_the_lineality(monkeypatch):
    # the given lineality is the reconstructed polynomial's known part: a
    # table that is no longer invariant along it fails the exact check
    delta = SimComplex(("t1", "t2"), [{"t1", "t2"}])
    L = LinSubspace(("t1", "t2"), [(1, -1)])
    w = {frozenset({"t1", "t2"}): 1}
    assert from_weights(delta, L, w).f == parse_poly("1/2 t1^2 + t1 t2 + 1/2 t2^2")
    dense = HomPoly.from_dense
    monkeypatch.setattr(HomPoly, "from_dense", classmethod(
        lambda cls, vars, d, table: dense(vars, d, {**table, (2, 0): table[(2, 0)] + 1})))
    with pytest.raises(AssertionError, match="reconstructed polynomial lost a lineality vector"):
        from_weights(delta, L, w)


def test_relation_pins_form_no_subspace(monkeypatch):
    # the relations of the reconstruction read the pinning row alone; only
    # the face walk pins, onto the link vertices of a nonempty face
    fan = bergman_fan(flats(Matroid.uniform(4, 5)))
    keeps = []
    pin = LinSubspace.pin
    monkeypatch.setattr(LinSubspace, "pin", lambda L, v, keep: keeps.append(tuple(keep)) or pin(L, v, keep))
    rows = []
    pinning_row = LinSubspace.pinning_row
    monkeypatch.setattr(LinSubspace, "pinning_row", lambda L, v: rows.append(v) or pinning_row(L, v))
    h = from_weights(fan.cones, fan.lineality(), {F: 1 for F in fan.cones.facets})
    assert h.degree == 3 and rows and keeps and all(keeps)
