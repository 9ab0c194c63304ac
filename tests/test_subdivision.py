"""Subdivision/weld operators: exact round trips, the single-derivative
link rules, lineality lifting, chain transport of the Lorentzian verdict,
and cone transport for shifted points."""

import pytest

from conftest import hereditary_fixture_pool
from oracles import cone_transport_check, lineality_extend, transport_eps_search
from lorentzlab.hereditary import check_hereditary, is_hereditary_lorentzian, restrict_poly
from lorentzlab.polycore import parse_poly
from lorentzlab.rat import Q
from lorentzlab.subdivision import (
    SubdivStep,
    apply_chain,
    subdivide,
    weld,
)


def random_face_and_coeffs(rng, h):
    faces = sorted((f for f in h.delta.faces() if f), key=lambda s: sorted(map(repr, s)))
    S = tuple(sorted(faces[rng.randrange(len(faces))], key=repr))
    c = [Q(rng.randint(1, 4), rng.randint(1, 3)) for _ in S]
    return S, c


def test_weld_examples():
    g = parse_poly("t0^2", vars=("t0", "t1"))
    assert weld(g, ("t1",), (1,), "t0") == parse_poly("t1^2", vars=("t1",))
    g2 = parse_poly("t0 t2", vars=("t0", "t1", "t2", "t3"))
    assert weld(g2, ("t1", "t3"), (1, 1), "t0") == parse_poly("t1 t2 + t2 t3", vars=("t1", "t2", "t3"))


def test_round_trips_random(rng):
    pool = hereditary_fixture_pool(rng)
    for _ in range(60):
        h = pool[rng.randrange(len(pool))]
        S, c = random_face_and_coeffs(rng, h)
        g = subdivide(h.f, S, c, "w")
        assert weld(g, S, c, "w") == h.f
        assert subdivide(weld(g, S, c, "w"), S, c, "w") == g
        # the face derivative of the image vanishes identically
        der = g
        for i in S:
            der = der.partial(i)
        assert der.is_zero()


def test_singleton_rule(rng):
    h = check_hereditary(parse_poly("t1 t2 + t1 t3 + t2 t3 + t1^2"))
    # not hereditary necessarily; the rename rule is purely formal
    f = parse_poly("t1^2 t2")
    g = subdivide(f, ("t1",), (Q(3),), "w")
    assert g == f.substitute(("t1", "t2", "w"), {"t1": {"w": Q(1, 3)}, "t2": {"t2": 1}})


def test_link_rules(rng):
    # single-vertex restrictions commute with subdivision
    pool = hereditary_fixture_pool(rng)
    for h in pool[:5]:
        if h.degree < 2:
            continue
        S, c = random_face_and_coeffs(rng, h)
        g = check_hereditary(subdivide(h.f, S, c, "w"))
        for i in sorted(h.delta.link_vertices(()), key=repr)[:3]:
            if not g.delta.has_face({i}):
                continue
            lhs = restrict_poly(g, {i})
            fi = restrict_poly(h, {i})
            if i not in S:
                if not all(v in fi.vars for v in S):
                    continue  # the face is not inside the restricted complex
                rhs = subdivide(fi, S, c, "w")
            else:
                rest = tuple(v for v in S if v != i)
                cmap = dict(zip(S, c))
                if not rest:
                    continue
                if not all(v in fi.vars for v in rest):
                    continue
                rhs = subdivide(fi, rest, [cmap[v] for v in rest], "w")
            keep = lhs.vars
            assert lhs == rhs.restrict_vars(keep) or lhs == rhs, (h.f, S, i)


def test_lineality_extend():
    from lorentzlab.polycore import LinSubspace

    L = LinSubspace(("a", "b"), [(1, -1)])
    L2 = lineality_extend(L, ("a", "b"), (1, 2), "w")
    assert L2.dim == 1 and L2.contains((1, -1, 1 - 2))
    Lz = lineality_extend(LinSubspace(("a", "b"), []), ("a",), (1,), "w")
    assert Lz.dim == 0
    Lf = lineality_extend(LinSubspace(("a", "b"), [(1, 0), (0, 1)]), ("b",), (Q(1, 2),), "w")
    assert Lf.dim == 2 and Lf.contains((0, 2, 1))


def test_extended_pair_stays_hereditary(rng):
    # the subdivided image keeps the lifted lineality and stays hereditary
    pool = hereditary_fixture_pool(rng)
    for h in pool[:6]:
        S, c = random_face_and_coeffs(rng, h)
        g = subdivide(h.f, S, c, "w")
        hg = check_hereditary(g)
        lifted = lineality_extend(h.lin, S, c, "w")
        idx = {v: k for k, v in enumerate(lifted.ambient)}
        for b in lifted.basis:
            assert hg.lin.contains([b[idx[v]] for v in hg.vars])


def test_chain_identity_and_errors(rng):
    h = hereditary_fixture_pool(rng)[3]
    res = apply_chain(h.f, [])
    assert res.poly == h.f
    S, c = random_face_and_coeffs(rng, h)
    res2 = apply_chain(h.f, [
        SubdivStep("subdivide", S, c),
        SubdivStep("weld", S, c),
    ])
    assert res2.poly == h.f and len(res2.certificates) == 2
    with pytest.raises(ValueError, match="strongly hereditary"):
        apply_chain(parse_poly("t1^2 + 2*t1 t2 + t2^2"), [])


def test_transport_of_verdict(rng):
    # the certification verdict travels along subdivision chains
    pool = hereditary_fixture_pool(rng)
    bad = check_hereditary(parse_poly(
        "2*t1^2 + 4*t1 t2 + 2*t1 t3 - 2*t0 t1 + 2*t2^2 + 2*t2 t3 - 2*t0 t2 + t3^2 + t0^2"
    ))
    cases = pool[:5] + [bad]
    for h in cases:
        if not h.strong:
            continue
        S, c = random_face_and_coeffs(rng, h)
        g = check_hereditary(subdivide(h.f, S, c, "w"))
        v1, v2 = is_hereditary_lorentzian(h), is_hereditary_lorentzian(g)
        if "vacuous" in (v1.value, v2.value):
            continue
        assert v1.value == v2.value, (h.f, S, c)


def test_cone_transport(rng):
    pool = hereditary_fixture_pool(rng)
    checked = 0
    for h in pool:
        from lorentzlab.hereditary import cone_nonempty

        w = cone_nonempty(h)
        if w is None:
            continue
        v = [w[x] for x in h.vars]
        S, c = random_face_and_coeffs(rng, h)
        eps = transport_eps_search(h, S, c, v)
        assert eps is not None
        assert cone_transport_check(h, S, c, v, eps)
        checked += 1
    assert checked >= 5
