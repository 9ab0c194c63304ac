"""Lorentzian characterizations: M-convexity, the two support variants, the
extreme-ray cone test, polarization equivalence, log-concavity, and the
interior deformation."""

import time
from itertools import combinations, product

import pytest

from conftest import nonneg_cubics_and_quartics, rand_nonneg_poly, rand_product_of_linears, rand_q
from lorentzlab import lorentzian
from lorentzlab.cones import ConeByGenerators
from lorentzlab.hereditary import check_hereditary, cone_member, face_complex, is_hereditary_lorentzian
from lorentzlab.inertia import SymMatrix, derivative_hessian, hessian, inertia
from lorentzlab.lorentzian import (
    MSet,
    definitional_check,
    is_k_lorentzian,
    is_lorentzian,
    is_m_convex,
    log_concave_seq,
    polarization_vars,
    polarize,
    polarized_hereditary_verdict,
    support_mset,
)
from lorentzlab.polycore import HomPoly, LinSubspace, parse_poly
from lorentzlab.rat import Q
from lorentzlab.simplicial import connected
from oracles import (
    brute_force_is_m_convex,
    chain_is_k_lorentzian,
    chain_log_concave_seq,
    derived_supports,
    interior_certificate,
    is_k_lorentzian_alt,
    is_lorentzian_v2,
    m_is_H_connected,
    m_is_connected,
    m_partial,
    m_truncate,
    partial_h1_scan,
    perturb_interior,
    product_check,
    subset_polarized_verdict,
)


def orthant(n):
    return ConeByGenerators(tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n)))


def test_m_convex_examples():
    assert is_m_convex(MSet(3, {(1, 1, 0), (1, 0, 1), (0, 1, 1)}))[0]
    ok, wit = is_m_convex(MSet(2, {(2, 0), (0, 2)}))
    assert not ok and wit is not None
    assert is_m_convex(MSet(4, {(1, 2, 0, 1)}))[0]


def test_m_ops_examples():
    M = MSet(3, {(1, 1, 0), (1, 0, 1), (0, 1, 1)})
    assert m_truncate(M).points == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert m_partial(MSet(2, {(2, 0), (1, 1)}), (1, 0)).points == {(1, 0), (0, 1)}
    assert not m_is_connected(MSet(3, {(2, 0, 0), (0, 0, 2)}))
    assert m_is_H_connected(M)


def test_char_mc_equivalence(rng):
    # connected truncation plus codimension-2 exchange equals the full axiom
    for _ in range(200):
        r = rng.choice([3, 4])
        pts = set()
        for _ in range(rng.randint(1, 9)):
            p = [0, 0, 0, 0]
            for _ in range(r):
                p[rng.randrange(4)] += 1
            pts.add(tuple(p))
        M = MSet(4, pts)
        full = is_m_convex(M)[0]
        decomposed = m_is_H_connected(m_truncate(M)) and all(
            is_m_convex(m_partial(M, alpha))[0]
            for alpha in _multi(4, r - 2)
        )
        assert full == decomposed, sorted(pts)


def _multi(n, total):
    from itertools import combinations_with_replacement

    for combo in combinations_with_replacement(range(n), total):
        out = [0] * n
        for i in combo:
            out[i] += 1
        yield tuple(out)


def test_is_lorentzian_examples():
    assert is_lorentzian(parse_poly("t1 t2 + t1 t3 + t2 t3")).value == "yes"
    v = is_lorentzian(parse_poly("t1^2 + t2^2"))
    assert v.value == "no" and v.witness[0] in ("support", "hessian")
    assert is_lorentzian(parse_poly("t1^2 + 3*t1 t2 + t2^2")).value == "yes"
    with pytest.raises(ValueError):
        is_lorentzian(parse_poly("t1^2 - t2^2"))
    assert is_lorentzian(HomPoly.constant(("a",), 2)).value == "yes"


def test_v1_v2_agree(rng):
    for _ in range(120):
        f = rand_nonneg_poly(rng, rng.randint(2, 4), rng.randint(2, 4))
        assert is_lorentzian(f).value == is_lorentzian_v2(f).value, f.to_text()


def test_quadratic_support_lemma(rng):
    # nonnegative quadratics passing the Hessian condition have M-convex support
    for _ in range(150):
        f = rand_nonneg_poly(rng, rng.randint(2, 4), 2)
        if inertia(hessian(f)).pos <= 1:
            assert is_m_convex(support_mset(f))[0], f.to_text()


def test_derivative_closure(rng):
    for _ in range(60):
        f = rand_product_of_linears(rng, 3, 3)
        assert is_lorentzian(f).value == "yes"
        v = [Q(rng.randint(0, 3)) for _ in range(3)]
        g = f.dir_derivative(v)
        if not g.is_zero():
            assert is_lorentzian(g).value == "yes"


def test_polarize_examples():
    p = polarize(parse_poly("t1^2"))
    assert p.degree == 2 and len(p.vars) == 3
    assert p == parse_poly("t1^2").substitute(p.vars, {"t1": {v: 1 for v in p.vars}})
    q = polarize(parse_poly("t1 t2"))
    assert len(q.vars) == 4 and all(c == 1 for c in q.terms.values())
    f = rand_nonneg_poly(__import__("random").Random(3), 3, 3)
    assert polarize(f).degree == f.degree
    assert all(c > 0 for c in polarize(f).terms.values())


def test_polarization_is_strongly_hereditary(rng):
    for _ in range(10):
        f = rand_nonneg_poly(rng, 3, 3)
        assert check_hereditary(polarize(f)).strong


def test_polarized_verdict_matches_generic(rng, monkeypatch):
    # the virtual-complex fast path equals the fully generic certification;
    # it takes no partial derivative, and each certificate is the inertia of
    # the block expansion of the Hessian of the matching derivative of f
    partial, partials = HomPoly.partial, []
    monkeypatch.setattr(HomPoly, "partial", lambda self, v: partials.append(v) or partial(self, v))
    checked = 0
    for _ in range(25):
        f = rand_nonneg_poly(rng, rng.randint(2, 3), rng.randint(2, 3), terms=rng.randint(1, 4))
        partials.clear()
        fast = polarized_hereditary_verdict(f)
        assert partials == [], f.to_text()
        h = check_hereditary(polarize(f))
        assert fast.value == is_hereditary_lorentzian(h).value, f.to_text()
        for S, inr in fast.q_certificates:
            cv = [sum(1 for pv in S if pv[0] == v) for v in f.vars]
            Hq = hessian(f.mixed_partial(cv)).entries
            members = h.delta.link_vertices(S)
            block = [f.vars.index(pv[0]) for pv in members]
            rows = [[Hq[a][b] for b in block] for a in block]
            assert inertia(SymMatrix(members, rows)) == inr, (f.to_text(), S)
            checked += 1
    assert checked > 25


def _polarized_forms(rng):
    """Acceptance criterion 08's forms, then 200 more seeded draws of
    degree 2 to 4: every third a product of linear forms, the rest sparse."""
    yield from nonneg_cubics_and_quartics(rng)
    for k in range(200):
        d = rng.choice([2, 3, 4])
        n = rng.randint(2, 3 if d == 4 else 4)
        yield (rand_product_of_linears if k % 3 == 0 else rand_nonneg_poly)(rng, n, d)


def _count_vector(f, S) -> tuple:
    return tuple(sum(1 for pv in S if pv[0] == v) for v in f.vars)


def test_count_vector_route_matches_subset_oracle(rng, monkeypatch):
    # one decision per count vector beta, at the representative face of the
    # first beta_v copies of each block: the verdict is the oracle's, each
    # certificate's inertia is the oracle's at every face with its count
    # vector, and each witness face fails its test on the explicit
    # polarization
    calls = []
    for name in ("connected", "inertia"):
        real = getattr(lorentzian, name)
        monkeypatch.setattr(lorentzian, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    fast_s = slow_s = 0.0
    forms = 0
    for f in _polarized_forms(rng):
        calls.clear()
        t0 = time.process_time()
        fast = polarized_hereditary_verdict(f)
        t1 = time.process_time()
        slow = subset_polarized_verdict(f)
        fast_s, slow_s = fast_s + t1 - t0, slow_s + time.process_time() - t1
        forms += 1
        assert (fast.value, fast.h_connected) == (slow.value, slow.h_connected), f.to_text()
        assert fast.value in ("yes", "no")
        betas = {b for a in f.support() for b in product(*(range(x + 1) for x in a)) if sum(b) <= f.degree - 2}
        assert len(calls) <= len(betas)
        copies = {v: [pv for pv in polarization_vars(f) if pv[0] == v] for v in f.vars}
        certs = {}
        for S, inr in fast.q_certificates:
            cv = _count_vector(f, S)
            assert cv not in certs and S == {pv for v, b in zip(f.vars, cv) for pv in copies[v][:b]}
            certs[cv] = inr
        for S, inr in slow.q_certificates:
            cv = _count_vector(f, S)
            assert certs[cv] == inr if cv in certs else fast.value == "no", (f.to_text(), S)
        if fast.value == "yes":
            assert certs.keys() == {_count_vector(f, S) for S, _ in slow.q_certificates}
            continue
        g = polarize(f)
        delta = face_complex(g)
        if fast.c_witness is not None:
            S = fast.c_witness
            verts = delta.link_vertices(S)
            assert not connected(verts, {a: [b for b in verts if b != a and delta.has_face(S | {a, b})]
                                         for a in verts}), f.to_text()
        else:
            S = fast.q_witness
            indicator = [1 if pv in S else 0 for pv in g.vars]
            inr = inertia(derivative_hessian(g, indicator, over=delta.link_vertices(S)))
            assert inr.pos > 1 and inr == fast.q_certificates[-1][1], f.to_text()
    assert forms > 390 and fast_s < slow_s


def test_all_ones_point_lies_in_the_polarized_cone(rng):
    # the lemma of polarized_hereditary_verdict, by the generic cone
    # membership test on the explicit polarization
    for k in range(150):
        d = rng.choice([2, 3])
        n = rng.randint(2, 3)
        f = (rand_product_of_linears if k % 3 == 0 else rand_nonneg_poly)(rng, n, d)
        h = check_hereditary(polarize(f))
        assert cone_member(h, [1] * len(h.vars)), f.to_text()


def test_polarization_equivalence(rng):
    # Lorentzian on the orthant iff the polarization certifies hereditarily
    for _ in range(60):
        f = rand_nonneg_poly(rng, rng.randint(2, 4), rng.randint(2, 4))
        assert (is_lorentzian(f).value == "yes") == (polarized_hereditary_verdict(f).value == "yes")
    for _ in range(20):
        f = rand_product_of_linears(rng, rng.randint(2, 4), rng.randint(2, 4))
        assert is_lorentzian(f).value == "yes"
        assert polarized_hereditary_verdict(f).value == "yes"


def test_k_lorentzian_orthant_agrees(rng):
    for _ in range(40):
        f = rand_nonneg_poly(rng, rng.randint(2, 3), rng.randint(2, 3))
        n = len(f.vars)
        assert (is_lorentzian(f).value == "yes") == (is_k_lorentzian(f, orthant(n)).value == "yes")


def test_k_lorentzian_change_of_variables(rng):
    # rank-one boundary generators of the determinant cone; the pullback
    # along the generator matrix is the change-of-variables oracle
    f = parse_poly("t1 t2 - t3^2")
    gens = [(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 1, -1)]
    A = [[g[k] for g in gens] for k in range(3)]
    pullback = f.substitute_linear(A, ("s1", "s2", "s3", "s4"))
    assert all(c > 0 for c in pullback.terms.values())
    assert is_lorentzian(pullback).value == "yes"
    assert is_k_lorentzian(f, ConeByGenerators(tuple(gens))).value == "yes"
    # adding a ray outside the cone breaks the sign condition
    assert is_k_lorentzian(f, ConeByGenerators(tuple(gens + [(1, -1, 0)]))).value == "no"


def test_k_lorentzian_hyperbolic_quadratic():
    h = parse_poly("t1^2 - t2^2 - t3^2")
    gens = [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (5, 3, 4), (5, -3, 4), (13, 5, 12)]
    assert is_k_lorentzian(h, ConeByGenerators(tuple(gens))).value == "yes"
    assert is_k_lorentzian(parse_poly("t1^2 + t2^2 + t3^2"),
                           ConeByGenerators(((1, 0, 0), (0, 1, 0)))).value == "no"


def _signed_form(rng, vars, d):
    dense = {}
    for _ in range(rng.randint(2, 6)):
        exps = [0] * len(vars)
        for _ in range(d):
            exps[rng.randrange(len(vars))] += 1
        dense[tuple(exps)] = rand_q(rng, -1, 5, 2)
    return HomPoly.from_dense(vars, d, dense)


def test_k_lorentzian_matches_chain_oracle(rng):
    """Pull-back coefficients against directional-derivative chains: the
    same value, witness and certificates on the orthant, on the light cone
    of demo 01 and on a simplicial cone, with "no" answers from each of the
    three conditions.  On the simplicial cone with generator matrix G,
    f(x) = g(G^-1 x) has the verdict of g on the orthant."""
    vars = ("t1", "t2", "t3")
    light = ConeByGenerators(((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (5, 3, 4)))
    simplicial = ConeByGenerators(((1, 0, 0), (1, 1, 0), (1, 1, 1)))
    G_inv = [[1, -1, 0], [0, 1, -1], [0, 0, 1]]
    fixed = [parse_poly(t) for t in ("t1^3 + t2^3 + t3^3", "t1^2 + t2^2 + t3^2", "t1^2 - t2^2 + t3^2",
                                     "t1 t2 + t1 t3 + t2 t3")]
    forms = fixed + [_signed_form(rng, vars, rng.randint(2, 3)) for _ in range(40)]
    cases = [("light", parse_poly("t1^2 - t2^2 - t3^2"), light)]
    for f in forms:
        cases += [("orthant", f, orthant(3)), ("simplicial", f.substitute_linear(G_inv, vars), simplicial),
                  ("light", f, light)]
    for _ in range(20):
        f = _signed_form(rng, ("t1", "t2"), rng.randint(2, 4))
        cases.append(("orthant", f, orthant(2)))
    answers = {}
    for name, f, cone in cases:
        got, want = is_k_lorentzian(f, cone), chain_is_k_lorentzian(f, cone)
        assert (got.value, got.witness, got.certificates) == (want.value, want.witness, want.certificates), (name, f)
        answers.setdefault(name, set()).add(got.witness[0] if got.value == "no" else got.value)
    assert answers["orthant"] == answers["simplicial"] == {"yes", "derivative", "hessian", "support"}
    assert {"yes", "derivative", "hessian"} <= answers["light"]


def test_k_lorentzian_memoizes_derived_supports(monkeypatch):
    """Count guard: on the orthant, the 924 derived supports of U(3,7)'s
    basis generating polynomial are decided by the supports J_S of its
    pull-back on the generator sets S, 6 distinct sets (the 3-subsets of
    an |S|-set, |S| = 1..6), each tested once."""
    import lorentzlab.lorentzian as lor

    vars = tuple(f"t{i}" for i in range(7))
    f = HomPoly.from_dense(vars, 3, {tuple(int(i in B) for i in range(7)): 1 for B in combinations(range(7), 3)})
    calls = []
    inner = lor.is_m_convex
    monkeypatch.setattr(lor, "is_m_convex", lambda M: calls.append(M) or inner(M))
    assert is_k_lorentzian(f, orthant(7)).value == "yes"
    assert len(calls) == len(set(calls)) == 6


def _generator_set_support(T, slot_support):
    """J_S, S = set(T), in S's coordinates: the slot sums per generator of
    the points of a derived support (every point of J_S has a lift)."""
    S = tuple(dict.fromkeys(T))
    sums = set()
    for alpha in slot_support:
        beta = [0] * len(S)
        for j, a in zip(T, alpha):
            beta[S.index(j)] += a
        sums.add(tuple(beta))
    return MSet(len(S), sums)


def test_k_lorentzian_derived_supports_match_slot_oracle(monkeypatch):
    """For every 2d-fold generator multiset T, the slot-by-slot oracle's
    derived support is M-convex exactly when J_S is (S = set(T)), on cones
    where T repeats a generator: the orthant (2d slots, fewer generators)
    and cones that list one generator twice.  On the "yes" cases condition
    (ii) visits every T and tests exactly the sets J_S; on the "no" case
    its witness is the first T whose J_S fails."""
    import lorentzlab.lorentzian as lor

    tested = []
    inner = lor.is_m_convex
    monkeypatch.setattr(lor, "is_m_convex", lambda M: tested.append(M) or inner(M))
    e2 = parse_poly("t1 t2 + t1 t3 + t2 t3")
    cases = [
        (e2, orthant(3)),
        (e2, ConeByGenerators(((1, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1)))),
        (parse_poly("t1^2 t2 + 2*t1 t2^2 + t2^3"), ConeByGenerators(((1, 0), (1, 1), (1, 1)))),
        (parse_poly("t1^3 + t2^3 + t3^3"), ConeByGenerators(((1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1)))),
    ]
    verdicts = set()
    for f, cone in cases:
        tested.clear()
        v = is_k_lorentzian(f, cone)
        by_T = {}
        for T, pts in derived_supports(f, cone).items():
            J = _generator_set_support(T, pts)
            by_T[T] = (J, inner(MSet(2 * f.degree, pts))[0])
            assert by_T[T][1] == inner(J)[0], (f, T)
        failing = [T for T, (_, ok) in by_T.items() if not ok]
        verdicts.add(v.value)
        if v.value == "yes":
            assert not failing
            assert set(tested) == {J for J, _ in by_T.values()}
        else:
            assert v.witness[:2] == ("support", failing[0])
    assert verdicts == {"yes", "no"}


def test_splitting_lemma(rng):
    """A split of J (each coordinate copied into as many slots as a seeded
    multiplicity pattern says, the points those whose slot sums lie in J)
    is M-convex exactly when J is, both sides by the brute-force oracle, on
    seeded J in 2 to 4 coordinates."""
    verdicts = set()
    for _ in range(150):
        k, r = rng.randint(2, 4), rng.randint(1, 3)
        full = _simplex(k, r)
        J = rng.sample(full, rng.randint(1, len(full)))
        owner = [s for s in range(k) for _ in range(rng.randint(1, 3 if k < 4 else 2))]
        split = set()
        for alpha in _simplex(len(owner), r):
            sums = [0] * k
            for s, a in zip(owner, alpha):
                sums[s] += a
            if tuple(sums) in J:
                split.add(alpha)
        want = brute_force_is_m_convex(MSet(k, J))[0]
        assert brute_force_is_m_convex(MSet(len(owner), split))[0] == want, (sorted(J), owner)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_k_lorentzian_matches_slot_oracle_on_many_generators(rng):
    """The cone test against the slot-by-slot oracle on (value, witness,
    certificates), for the "no" answers among seeded signed forms on cones
    with more than 2d generators, some listed twice: degree 2 with five
    generators and degree 3 with seven, with "no" answers from each of the
    three conditions.  (A full "yes" scan of the oracle at degree 3 takes
    over half a second; ``test_k_lorentzian_matches_chain_oracle`` compares
    "yes" answers.)"""
    cones = {
        2: ConeByGenerators(((1, 0), (0, 1), (1, 0), (2, 1), (0, 3))),
        3: ConeByGenerators(((1, 0), (0, 1), (2, 0), (1, 0), (0, 3), (3, 0), (0, 1))),
    }
    forms = [(parse_poly("t1^3 + t2^3"), cones[3]), (parse_poly("t1^2 t2 + t2^3"), cones[3])]
    for k in range(40):
        d = 2 if k % 2 == 0 else 3
        forms.append((_signed_form(rng, ("t1", "t2"), d), cones[d]))
    answers = []
    for f, cone in forms:
        got = is_k_lorentzian(f, cone)
        if got.value == "yes":
            continue
        want = chain_is_k_lorentzian(f, cone)
        assert (got.value, got.witness, got.certificates) == (want.value, want.witness, want.certificates), f
        answers.append((f.degree, got.witness[0]))
    assert len(answers) >= 20
    assert {w for _, w in answers} == {"derivative", "hessian", "support"}
    assert {d for d, _ in answers} == {2, 3}


def test_k_lorentzian_alt_agrees(rng):
    w3 = (1, 1, 1)
    for _ in range(25):
        f = rand_nonneg_poly(rng, 3, 3)
        a = is_k_lorentzian(f, orthant(3)).value == "yes"
        b = is_k_lorentzian_alt(f, orthant(3), w3).value == "yes"
        assert a == b, f.to_text()
    hyp = parse_poly("t1^2 - t2^2 - t3^2")
    cone = ConeByGenerators(((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)))
    assert is_k_lorentzian_alt(hyp, cone, (1, 0, 0)).value == "yes"


def test_ordered_tuple_spot_checks(rng):
    # derived verdicts are invariant under reordering the generator tuple
    f = rand_product_of_linears(rng, 3, 3)
    gens = [(1, 0, 0), (1, 1, 0), (0, 1, 1)]
    for _ in range(10):
        tup = [gens[rng.randrange(3)] for _ in range(3)]
        g1, g2 = f, f
        for v in tup:
            g1 = g1.dir_derivative(v)
        for v in reversed(tup):
            g2 = g2.dir_derivative(v)
        assert g1 == g2
    # M-convexity is invariant under coordinate permutation
    M = {(1, 1, 0, 2), (1, 0, 1, 2), (0, 1, 1, 2), (2, 0, 0, 2)}
    perm = [2, 0, 3, 1]
    M2 = {tuple(p[i] for i in perm) for p in M}
    assert is_m_convex(MSet(4, M))[0] == is_m_convex(MSet(4, M2))[0]


def test_definitional_check_examples(rng):
    f = parse_poly("t1^2 + t2^2")
    samples = [[(1, 1), (2, 1)], [(1, 2), (1, 1)]]
    assert definitional_check(f, samples).value == "no"
    e2 = parse_poly("t1 t2 + t1 t3 + t2 t3")
    tuples = []
    for _ in range(40):
        tuples.append([tuple(Q(rng.randint(1, 5)) for _ in range(3)) for _ in range(2)])
    assert definitional_check(e2, tuples).value == "consistent"


def test_boundary_coefficient_regression():
    # zeroing one coefficient of a certified polynomial keeps the decision
    # well-defined (weak positivity handled, no strictness assumed)
    f = parse_poly("t1 t2 + t1 t3 + t2 t3")
    assert is_lorentzian(f).value == "yes"
    g = parse_poly("t1 t2 + t1 t3")  # drop the t2 t3 coefficient
    assert is_lorentzian(g).value == "yes"
    assert is_k_lorentzian(g, orthant(3)).value == "yes"
    # a vanished derivative direction does not trip the sign stage
    assert g.dir_derivative((0, 1, 0)).dir_derivative((0, 0, 1)).is_zero()


def test_log_concave_examples():
    f = parse_poly("t1^2 + 2*t1 t2 + t2^2")
    seq, ok = log_concave_seq(f, (1, 0), (0, 1))
    assert seq == [2, 2, 2] and ok
    seq2, ok2 = log_concave_seq(parse_poly("t1 t2"), (1, 0), (0, 1))
    assert seq2 == [0, 1, 0] and ok2
    bad = parse_poly("t1^2 + t2^2")
    seq3, ok3 = log_concave_seq(bad, (1, 0), (0, 1))
    assert seq3 == [2, 0, 2] and not ok3


def test_log_concave_seq_matches_derivative_chains(rng):
    """The pull-back sequence equals the dir_derivative chains on seeded
    polynomials of degree 0 to 4, zero ones included, along rational
    directions."""
    seen = set()
    for k in range(300):
        n, d = rng.randint(1, 4), rng.randint(0, 4)
        f = rand_nonneg_poly(rng, n, d)
        if k % 5 == 0:
            f = HomPoly.zero(f.vars, d)
        elif k % 5 == 1:
            f = f.scale(Q(-1, rng.randint(1, 3)))
        u, v = ([rand_q(rng) for _ in range(n)] for _ in range(2))
        got = log_concave_seq(f, u, v)
        assert got == chain_log_concave_seq(f, u, v), (f, u, v)
        seen.add((d == 0, f.is_zero(), got[1]))
    assert {(True, False, True), (False, True, True), (False, False, True), (False, False, False)} <= seen


def test_perturb_interior(rng):
    # the deformation lands strictly inside: all sign and signature
    # predicates hold at the extreme directions, with trivial kernel
    f = parse_poly("t1 t2 + t1 t3 + t2 t3")
    dual = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    g = perturb_interior(f, (1, 1, 1), dual, C=Q(1, 2), s=Q(1))
    dirs = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    kernel = LinSubspace(("t1", "t2", "t3"), [])
    assert interior_certificate(g, dirs, kernel)
    assert not interior_certificate(f, dirs, kernel)  # boundary instance: singular Hessian
    g2 = perturb_interior(parse_poly("t1 t2"), (1, 1), [(1, 0), (0, 1)], C=Q(1, 3), s=Q(2))
    assert interior_certificate(g2, [(1, 0), (0, 1)], LinSubspace(("t1", "t2"), []))
    g3 = perturb_interior(parse_poly("t1 t2 t3"), (1, 1, 1), dual)
    assert interior_certificate(g3, dirs, kernel)


def test_product_closure(rng):
    cone3 = orthant(3)
    fixtures = [
        (parse_poly("t1 + t2 + t3"), parse_poly("t1 t2 + t1 t3 + t2 t3")),
        (parse_poly("t1 + 2*t2"), parse_poly("t1 + t3")),
        (rand_product_of_linears(rng, 3, 2), rand_product_of_linears(rng, 3, 1)),
    ]
    for f, g in fixtures:
        vars = sorted(set(f.vars) | set(g.vars))
        from lorentzlab.hereditary import _extend_vars

        fe = _extend_vars(f, tuple(vars)) if f.vars != tuple(vars) else f
        ge = _extend_vars(g, tuple(vars)) if g.vars != tuple(vars) else g
        assert product_check(fe, ge, orthant(len(vars)))


# ---------------------------------------------------------------------------
# exchange masks and coefficient Hessians against their oracles
# ---------------------------------------------------------------------------


def _simplex(n, d):
    """All lattice points of {x >= 0, sum x = d} in n coordinates."""
    return list(_multi(n, d))


def _assert_m_convex_as_oracle(M):
    assert is_m_convex(M) == brute_force_is_m_convex(M), sorted(M.points)


def test_m_convex_matches_oracle_on_random_sets(rng):
    verdicts = set()
    for k in range(600):
        n, d = rng.randint(1, 6), rng.randint(0, 4)
        full = _simplex(n, d)
        if k % 2:
            pts = set(rng.sample(full, rng.randint(1, min(len(full), 9))))
        else:  # near-full: the simplex less a few points
            pts = set(full) - set(rng.sample(full, rng.randint(0, min(len(full) - 1, 3))))
        M = MSet(n, pts)
        _assert_m_convex_as_oracle(M)
        verdicts.add(brute_force_is_m_convex(M)[0])
    assert verdicts == {True, False}


def test_m_convex_matches_oracle_on_ungraded_iterables(rng):
    """Plain iterables need not share a coordinate sum or be nonnegative;
    there a pair can fail with no coordinate to move into, and no move is
    skipped."""
    for _ in range(400):
        n = rng.randint(1, 5)
        lo = rng.choice([0, -2])
        pts = [tuple(rng.randint(lo, 2) for _ in range(n)) for _ in range(rng.randint(1, 8))]
        assert is_m_convex(pts) == brute_force_is_m_convex(pts), pts
    assert is_m_convex([(2, 0), (1, 0)]) == (False, ((2, 0), (1, 0), 0))
    with pytest.raises(ValueError, match="different lengths"):
        is_m_convex([(1, 0), (1,)])


def test_m_convex_matches_oracle_on_full_simplex():
    M = MSet(8, _simplex(8, 4))
    assert len(M.points) == 330
    _assert_m_convex_as_oracle(M)
    # every point of the simplex has every move available, so no pair is
    # examined: a tenth of the pairwise oracle's time is a loose bound
    fast = min(_seconds(is_m_convex, M) for _ in range(3))
    slow = min(_seconds(brute_force_is_m_convex, M) for _ in range(3))
    assert 10 * fast < slow, (fast, slow)


def _seconds(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _bases(L):
    """Bases of a lattice of flats: r-sets of the ground set lying in no hyperplane."""
    r = L.rank_total
    hyperplanes = [F for F, k in zip(L.flats, L.ranks) if k == r - 1]
    return [frozenset(B) for B in combinations(L.elems, r) if not any(set(B) <= H for H in hyperplanes)]


def _indicator(L, B):
    return tuple(int(e in B) for e in L.elems)


def test_m_convex_matches_oracle_on_catalog(catalog):
    for name, L in catalog.items():
        pts = [_indicator(L, B) for B in _bases(L)]
        M = MSet(len(L.elems), pts)
        assert is_m_convex(M) == brute_force_is_m_convex(M) == (True, None), name
        # one basis fewer is a matroid again only by accident
        if len(pts) > 1:
            _assert_m_convex_as_oracle(MSet(len(L.elems), pts[1:]))


def _basis_polynomial(L):
    vars = tuple(f"t{e}" for e in L.elems)
    return HomPoly.from_dense(vars, L.rank_total, {_indicator(L, B): 1 for B in _bases(L)})


def test_m_convex_matches_oracle_on_k_lorentzian_supports(catalog):
    """The derived supports of the cone test on the orthant, as the
    slot-by-slot oracle assembles them, for the catalog matroids of rank at
    most 3: the basis generating polynomial (Lorentzian: every derived
    support is M-convex) and the power sum of the same degree on the same
    variables (at degree 3 its Hessians pass and a derived support fails)."""
    seen = set()
    for name, L in catalog.items():
        r, n = L.rank_total, len(L.elems)
        if r > 3:  # at rank 4 a 7-element ground set has C(14, 8) multisets T
            continue
        f = _basis_polynomial(L)
        assert is_k_lorentzian(f, orthant(n)).value == "yes", name
        power_sum = HomPoly(f.vars, r, {((i, r),): 1 for i in range(n)})
        v = is_k_lorentzian(power_sum, orthant(n))
        if r == 3:
            assert v.value == "no" and v.witness[0] == "support", name
        for g in (f, power_sum):
            seen.update(MSet(2 * r, pts) for pts in derived_supports(g, orthant(n)).values())
    assert len(seen) > 100
    verdicts = set()
    for M in seen:
        assert is_m_convex(M) == brute_force_is_m_convex(M), sorted(M.points)
        verdicts.add(is_m_convex(M)[0])
    assert verdicts == {True, False}


def _product_924():
    """The degree-6 product of positive linear forms in 7 variables: all
    C(12, 6) = 924 monomials."""
    vars = tuple(f"t{i + 1}" for i in range(7))
    f = HomPoly.constant(vars, 1)
    for k in range(6):
        f = f * HomPoly(vars, 1, {((i, 1),): Q(1 + (i + k) % 3, 1 + (i * k) % 2) for i in range(7)})
    assert len(f.terms) == 924
    return f


def _assert_scan_as_oracle(f):
    from lorentzlab.lorentzian import _h1_scan

    got, want = _h1_scan(f), partial_h1_scan(f)
    assert (got.value, got.witness, got.certificates) == (want.value, want.witness, want.certificates), f.to_text()
    return got


def test_hessian_scan_matches_oracle_on_random_forms(rng):
    values = set()
    for _ in range(80):
        n, d = rng.randint(1, 4), rng.randint(2, 5)
        vars = tuple(f"t{i + 1}" for i in range(n))
        dense = {}
        for _ in range(rng.randint(1, 8)):
            exps = [0] * n
            for _ in range(d):
                exps[rng.randrange(n)] += 1
            dense[tuple(exps)] = rand_q(rng, -5, 5, 4)
        values.add(_assert_scan_as_oracle(HomPoly.from_dense(vars, d, dense)).value)
    for _ in range(20):
        _assert_scan_as_oracle(rand_product_of_linears(rng, rng.randint(2, 4), rng.randint(2, 4)))
    assert values == {"yes", "no"}


def test_hessian_scan_matches_oracle_on_quadratics():
    for text in ("t1 t2 + t1 t3 + t2 t3", "t1^2 + t2^2", "1/2*t1^2 + t1 t2 + 1/2*t2^2", "3*t1^2"):
        v = _assert_scan_as_oracle(parse_poly(text))
        assert [c for c, _ in v.certificates] == [()]
    assert _assert_scan_as_oracle(HomPoly.zero(("a", "b"), 2)).certificates == [((), (0, 0, 2))]


def test_hessian_scan_matches_oracle_on_924_terms():
    v = _assert_scan_as_oracle(_product_924())
    assert v.value == "yes" and len(v.certificates) == 210


def test_hessian_scan_stops_where_oracle_stops():
    stops = []
    for text in ("t1^2 t2 + t2^2 t3 + 5*t3^2 t1 + t1 t2 t3", "t1^4 + t1^2 t2^2 + t2^4 + t3^4",
                 "3*t1 t3^3 + t2^2 t3^2", "5*t1 t2^2 t3 + 2*t2 t3^3", "2*t1 t2^2 t3 + 3*t1^2 t3^2 + 3*t1^3 t3"):
        v = _assert_scan_as_oracle(parse_poly(text))
        assert v.value == "no" and v.certificates[-1][0] == v.witness[1]
        stops.append(len(v.certificates))
    assert stops == [1, 1, 6, 5, 3]


def test_is_lorentzian_reads_hessians_off_coefficients(monkeypatch):
    """Count guard: no partial derivative, one inertia per (d-2)-multiset."""
    import lorentzlab.lorentzian as lor

    f = _product_924()
    calls = {"partial": 0, "inertia": 0}
    partial, inertia_ = HomPoly.partial, lor.inertia

    def counting_partial(self, v):
        calls["partial"] += 1
        return partial(self, v)

    def counting_inertia(M):
        calls["inertia"] += 1
        return inertia_(M)

    monkeypatch.setattr(HomPoly, "partial", counting_partial)
    monkeypatch.setattr(lor, "inertia", counting_inertia)
    assert is_lorentzian(f).value == "yes"
    assert calls == {"partial": 0, "inertia": 210}


def test_hessian_scan_forms_no_rational(monkeypatch):
    """Guard: once an integer product form is built, the Hessian scan reads
    its Hessians off the integer coefficient table and eliminates integer
    rows, so no module of the package calls ``rat.Q``."""
    import sys

    from lorentzlab import rat
    from lorentzlab.lorentzian import _h1_scan

    vars = tuple(f"t{i + 1}" for i in range(7))
    f = HomPoly.constant(vars, 1)
    for k in range(6):
        f = f * HomPoly(vars, 1, {((i, 1),): 1 + (i + k) % 3 for i in range(7)})
    assert len(f.terms) == 924 and all(c.denominator == 1 for c in f.terms.values())
    calls = []
    original = rat.Q

    def counting_q(*args):
        calls.append(args)
        return original(*args)

    patched = set()
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "lorentzlab" and getattr(mod, "Q", None) is original:
            monkeypatch.setattr(mod, "Q", counting_q)
            patched.add(name)
    assert {"lorentzlab.rat", "lorentzlab.polycore", "lorentzlab.linalg"} <= patched
    assert "lorentzlab.lorentzian" in patched or not hasattr(sys.modules["lorentzlab.lorentzian"], "Q")
    v = _h1_scan(f)
    assert v.value == "yes" and len(v.certificates) == 210
    assert calls == []
