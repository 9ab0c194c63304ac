"""Simplicial complexes: links, skeletons, purity, H-connectedness, stellar
subdivision and joins."""

import pytest

from lorentzlab.simplicial import SimComplex, fresh_vertex


def facets(c: SimComplex):
    return sorted(sorted(f, key=str) for f in c.facets)


def test_link_examples():
    tri = SimComplex((1, 2, 3), [{1, 2}, {1, 3}, {2, 3}])
    assert facets(tri.link({1})) == [[2], [3]]
    assert tri.link(()) == SimComplex((1, 2, 3), tri.facets)
    full = SimComplex((1, 2, 3), [{1, 2, 3}])
    assert facets(full.link({1, 2})) == [[3]]
    with pytest.raises(ValueError):
        tri.link({1, 2, 3})


def test_skeleton_examples():
    full = SimComplex((1, 2, 3), [{1, 2, 3}])
    assert facets(full.skeleton()) == [[1, 2], [1, 3], [2, 3]]
    pts = SimComplex((1, 2), [{1}, {2}])
    assert pts.skeleton() == SimComplex.empty_face_only((1, 2))
    tri = SimComplex((1, 2, 3), [{1, 2}, {1, 3}, {2, 3}])
    assert facets(tri.skeleton()) == [[1], [2], [3]]


def test_facets_reduce_to_an_antichain(rng):
    # a mixed family keeps its maximal sets only; distinct sets of one size
    # are all kept
    mixed = SimComplex((1, 2, 3, 4), [{1, 2, 3}, {1, 2}, {3}, {4}, {2, 4}, set(), {2, 4}])
    assert facets(mixed) == [[1, 2, 3], [2, 4]]
    assert facets(SimComplex((1, 2, 3), [{1, 2}, {2, 3}, {1, 2}])) == [[1, 2], [2, 3]]
    assert SimComplex((1,), [set()]).facets == {frozenset()}
    for _ in range(200):
        family = [frozenset(v for v in range(6) if rng.random() < 0.5) for _ in range(rng.randint(1, 12))]
        maximal = {f for f in family if not any(f < g for g in family)}
        assert SimComplex(range(6), family).facets == maximal, family


def test_purity():
    tri = SimComplex((1, 2, 3), [{1, 2}, {1, 3}, {2, 3}])
    assert tri.is_pure(2) and not tri.is_pure(3)
    mixed = SimComplex((1, 2, 3), [{1, 2}, {3}])
    assert not mixed.is_pure(2)


def test_h_connected_examples():
    tri = SimComplex((1, 2, 3), [{1, 2}, {1, 3}, {2, 3}])
    assert tri.is_H_connected() == (True, None)
    disj = SimComplex((1, 2, 3, 4), [{1, 2}, {3, 4}])
    ok, wit = disj.is_H_connected()
    assert not ok and wit == frozenset()
    glued = SimComplex((1, 2, 3, 4, 5), [{1, 2, 3}, {1, 4, 5}])
    ok, wit = glued.is_H_connected()
    assert not ok and wit == frozenset({1})
    points = SimComplex((1, 2), [{1}, {2}])
    assert points.is_H_connected() == (True, None)  # dimension-0 convention


def test_stellar_subdivision_examples():
    edge = SimComplex((1, 2), [{1, 2}])
    sub = edge.stellar_subdivide({1, 2}, new_vertex=0)
    assert facets(sub) == [[0, 1], [0, 2]]
    tri = SimComplex((1, 2, 3), [{1, 2, 3}])
    sub2 = tri.stellar_subdivide({1, 2}, new_vertex=0)
    assert facets(sub2) == [[0, 1, 3], [0, 2, 3]]
    single = tri.stellar_subdivide({1}, new_vertex=0)
    assert facets(single) == [[0, 2, 3]]  # rename convention


def test_subdivision_link_rules():
    # links of the subdivided complex follow the three stated identities
    delta = SimComplex((1, 2, 3, 4), [{1, 2, 3}, {2, 3, 4}])
    S = frozenset({2, 3})
    sub = delta.stellar_subdivide(S, new_vertex=0)
    for i in delta.vertices:
        if not delta.has_face({i}):
            continue
        li = delta.link({i})
        li_full = SimComplex(delta.link_vertices({i}), li.facets)
        if i not in S:
            want = li_full.stellar_subdivide(S, new_vertex=0)
            assert sub.link({i}).facets == want.facets
        else:
            want = li_full.stellar_subdivide(S - {i}, new_vertex=0)
            assert sub.link({i}).facets == want.facets
    lk0 = sub.link({0})
    want = {frozenset(R) for R in [{1, 2}, {1, 3}, {2, 4}, {3, 4}]}
    assert lk0.facets == frozenset(want)


def test_h_connected_transport_under_subdivision(rng):
    fixtures = [
        SimComplex((1, 2, 3), [{1, 2}, {1, 3}, {2, 3}]),
        SimComplex((1, 2, 3, 4), [{1, 2}, {3, 4}]),
        SimComplex((1, 2, 3, 4), [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]),
        SimComplex((1, 2, 3, 4, 5), [{1, 2, 3}, {1, 4, 5}]),
    ]
    for delta in fixtures:
        for _ in range(4):
            faces = sorted(delta.faces() - {frozenset()}, key=lambda f: sorted(f, key=str))
            S = faces[rng.randrange(len(faces))]
            sub = delta.stellar_subdivide(S)
            assert delta.is_H_connected()[0] == sub.is_H_connected()[0]


def test_weld_inverts_subdivision(rng):
    delta = SimComplex((1, 2, 3, 4), [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}])
    for S in [{1}, {1, 2}, {1, 2, 3}]:
        sub = delta.stellar_subdivide(S, new_vertex="w")
        assert sub.weld("w", S) == delta


def test_fresh_vertex():
    assert fresh_vertex(("w0", "w1", 3)) == "w2"
    assert fresh_vertex(()) == "w0"


def test_void_and_empty_face_complexes():
    void = SimComplex.void(("a",))
    assert void.is_void() and void.dim is None and not void.has_face(())
    eo = SimComplex.empty_face_only(("a",))
    assert not eo.is_void() and eo.dim == -1 and eo.has_face(())
