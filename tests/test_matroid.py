"""Matroid pipeline: lattice axioms, the reconstruction fixtures, closed-form
evaluations, characteristic polynomial routes, Moebius sign alternation, and
agreement between the explicit polynomial path and the evaluation engine."""

import inspect
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from math import factorial

import pytest

from lorentzlab import hereditary as hered
from lorentzlab.matroid import (
    FlatLattice,
    LatticeVolume,
    Matroid,
    bergman_fan,
    char_poly,
    eval_alpha,
    eval_beta,
    flats,
    hrw_check,
    modular_space,
    order_complex,
    pol_matroid,
    submodular_witness,
    volume_engine,
)
from lorentzlab.rat import Q
from lorentzlab.inertia import hessian, inertia
from conftest import in_fresh_process
from oracles import (
    alpha_beta,
    basis_pass_closure,
    chain_hl_check,
    closure_cover_flats,
    exchange_message,
    fraction_eval_bivariate,
    interval,
    is_semimodular_spot,
    layered_pin,
    lp_gap_feasible,
    orthant_gap_feasible,
    oracle_chain_points,
    oracle_chains,
    oracle_flats,
    oracle_gaps,
    oracle_is_basis_family,
    oracle_max_forests,
    oracle_mobius,
    oracle_single_gap,
    quadratic_oracle,
    spot_check_rank_axioms,
)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K5_EDGES = list(combinations(range(5), 2))
K6_EDGES = list(combinations(range(6), 2))
# equicardinal but fails exchange ({0,1,2} and {0,3,4} at 2): closing every
# subset gives 17 sets that are not graded by covers, while cover generation
# alone finds 8 sets that pass the lattice checks
NON_MATROID = (tuple(range(6)), ({0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {1, 4, 5}, {2, 3, 5}))


def test_matroid_basics(rng):
    M = Matroid.uniform(2, 3)
    assert M.rank_total == 2 and M.rank({1}) == 1 and M.rank({1, 2}) == 2
    L = flats(M)
    assert frozenset({1}) in L.index and L.bottom == frozenset()
    spot_check_rank_axioms(M, rng)
    with pytest.raises(ValueError):
        Matroid((1, 2), ({1}, {1, 2}))  # not equicardinal


def test_flats_examples():
    L = flats(Matroid.uniform(2, 3))
    assert sorted(len(F) for F in L.flats) == [0, 1, 1, 1, 3]
    L1 = flats(Matroid.uniform(1, 1))
    assert [set(F) for F in L1.flats] == [set(), {1}]
    LK3 = flats(Matroid.from_graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert sorted(len(F) for F in LK3.flats) == [0, 1, 1, 1, 3]  # isomorphic to U(2,3)


def test_graphic_k4():
    L = flats(Matroid.from_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    assert L.rank_total == 3
    rep = char_poly(L)
    assert [int(c) for c in rep.chi] == [-6, 11, -6, 1]
    assert [int(c) for c in rep.reduced] == [6, -5, 1]


def test_fano():
    L = flats(Matroid.fano())
    assert len(L.flats) == 16  # bottom, 7 points, 7 lines, top
    rep = char_poly(L)
    assert [int(c) for c in rep.chi] == [-8, 14, -7, 1]
    assert [int(c) for c in rep.reduced] == [8, -6, 1]
    assert rep.agree


def test_lattice_axioms_and_semimodularity(catalog):
    for name in ("U(2,3)", "U(3,5)", "K4", "Fano"):
        L = catalog[name]
        assert is_semimodular_spot(L)
        for a in L.flats:
            for b in L.flats:
                rb = L.rank[a] + L.rank[b]
                assert L.rank[a & b] + L.rank[min(
                    (F for F in L.flats if a <= F and b <= F), key=lambda F: L.rank[F]
                )] <= rb


def test_mobius_alternation(catalog):
    for name in ("U(3,5)", "K4", "Fano", "U(4,5)"):
        L = catalog[name]
        for a in L.flats:
            for b in L.flats:
                if a <= b:
                    mu = L.mobius_row(L.index[a])[L.index[b]]
                    assert (-1) ** (L.rank[b] - L.rank[a]) * mu >= 0


def test_order_complex_examples():
    L = flats(Matroid.uniform(2, 3))
    delta = order_complex(L)
    assert all(len(f) == 1 for f in delta.facets) and len(delta.facets) == 3
    L2 = flats(Matroid.uniform(2, 2))  # Boolean rank 2
    delta2 = order_complex(L2)
    assert len(delta2.facets) == 2
    L1 = flats(Matroid.uniform(1, 2))
    assert order_complex(L1).has_face(()) and not order_complex(L1).facets - {frozenset()}


def test_modular_space():
    L = flats(Matroid.uniform(2, 3))
    lin = modular_space(L)
    assert lin.dim == 2
    alpha, beta = alpha_beta(L)
    assert alpha.coords == (Q(1, 3),) * 3 and beta.coords == (Q(2, 3),) * 3
    # y values really are layered sums
    vals = layered_pin(L, [], L.proper[0], L.proper)
    assert vals[L.proper[0]] == 1
    assert lin.contains([vals[F] for F in lin.ambient])


def test_pol_examples():
    L = flats(Matroid.uniform(2, 3))
    h = pol_matroid(L)
    assert h.f.degree == 1 and len(h.f.terms) == 3
    assert h.strong
    # rank-3: the two-term square identity
    L34 = flats(Matroid.uniform(3, 4))
    h34 = pol_matroid(L34)
    rank1 = [F for F in L34.proper if L34.rank[F] == 1]
    rank2 = [F for F in L34.proper if L34.rank[F] == 2]
    from lorentzlab.polycore import HomPoly

    sq1 = HomPoly(h34.f.vars, 1, {((h34.f.vars.index(F), 1),): Q(1) for F in rank1})
    acc = sq1 * sq1
    for G in rank2:
        form = {((h34.f.vars.index(G), 1),): Q(1)}
        for F in rank1:
            if F < G:
                form[((h34.f.vars.index(F), 1),)] = Q(-1)
        lf = HomPoly(h34.f.vars, 1, form)
        acc = acc - lf * lf
    assert acc == h34.f.scale(2)


def test_closed_form_evaluations(catalog):
    for name in ("U(2,3)", "U(3,4)", "K4", "Fano", "U(4,6)"):
        L = catalog[name]
        d = L.rank_total - 1
        assert eval_alpha(L) == Q(1, factorial(d))
        assert eval_beta(L) == Q(abs(L.mobius_row(L.index[L.bottom])[L.index[L.top]]), factorial(d))


def test_interval_evaluations():
    # the closed forms hold on interval lattices too
    L = flats(Matroid.fano())
    lines = [F for F in L.proper if L.rank[F] == 2]
    I = interval(L, L.bottom, lines[0])
    assert eval_alpha(I) == 1 and eval_beta(I) == abs(I.mobius_row(I.index[I.bottom])[I.index[I.top]])


def test_factorization_over_chains(rng):
    # restriction at a chain face factors into interval volume polynomials
    L = flats(Matroid.uniform(4, 5))
    h = pol_matroid(L)
    chains = [S for S in h.delta.faces() if S and len(S) <= 2]
    for _ in range(6):
        S = sorted(chains[rng.randrange(len(chains))], key=lambda F: L.rank[F])
        fS = hered.restrict_poly(h, frozenset(S))
        seq = [L.bottom] + list(S) + [L.top]
        factor_vals = []
        for lo, hi in zip(seq, seq[1:]):
            I = interval(L, lo, hi)
            if I.rank_total >= 2:
                factor_vals.append(pol_matroid(I))
        # compare after matching variables through the product
        prod = None
        for piece in factor_vals:
            prod = piece if prod is None else hered.product(prod, piece)
        if prod is None:
            assert fS.degree == 0
            continue
        # same coefficients once variables are matched by flat label
        assert fS.degree == prod.f.degree
        remap = {v: v for v in prod.f.vars}
        assert {tuple(sorted(map(repr, k))): c for k, c in _dense(fS).items()} == \
               {tuple(sorted(map(repr, k))): c for k, c in _dense(prod.f).items()}


def _dense(f):
    out = {}
    for key, c in f.terms.items():
        out[tuple(f.vars[i] for i, _ in key for _ in range(dict(key)[i]))] = c
    return out


def test_modeq_membership(catalog):
    # the canonical directions differ from their 0/1 localizations by
    # modular vectors
    for name in ("U(2,3)", "U(3,4)", "K4"):
        L = catalog[name]
        lin = modular_space(L)
        alpha, beta = alpha_beta(L)
        for i in sorted(L.top - L.bottom, key=repr):
            ai = tuple(Q(1) if i in F else Q(0) for F in L.proper)
            bi = tuple(Q(0) if i in F else Q(1) for F in L.proper)
            assert lin.contains(tuple(a - x for a, x in zip(alpha.coords, ai)))
            assert lin.contains(tuple(b - x for b, x in zip(beta.coords, bi)))


def test_char_poly_routes_agree(catalog):
    for name, L in catalog.items():
        rep = char_poly(L)
        assert rep.agree, name


def test_hrw_all_small(catalog):
    for name in ("U(2,3)", "U(3,4)", "U(2,5)", "K4", "Fano"):
        hr = hrw_check(catalog[name])
        assert hr.log_concave and hr.mixed_identity, name


def test_submodular_witness_in_cone():
    for make in (lambda: flats(Matroid.uniform(2, 3)), lambda: flats(Matroid.uniform(3, 4)),
                 lambda: flats(Matroid.fano())):
        L = make()
        h = pol_matroid(L)
        v = submodular_witness(L)
        assert all(c > 0 for c in v.coords)
        assert hered.cone_member(h, v)


def test_engine_matches_explicit(catalog, rng):
    # evaluation engine vs the materialized polynomial, and both
    # certification paths, on the small catalog entries (the explicit path
    # re-derives every restriction's lineality space, so it is reserved for
    # lattices with few chains)
    for name in ("U(2,2)", "U(2,3)", "U(2,4)", "U(3,3)", "U(3,4)", "U(3,5)", "U(4,4)", "K4", "Fano"):
        L = catalog[name]
        h = pol_matroid(L)
        eng = volume_engine(L)
        for _ in range(5):
            v = {F: Q(rng.randint(-3, 5), rng.randint(1, 2)) for F in L.proper}
            assert eng.eval_bivariate(v, {})[0] == h.f.evaluate([v[F] for F in h.f.vars])
        fast = eng.hl_check()
        slow = hered.is_hereditary_lorentzian(h, cone_hints=[submodular_witness(L)])
        assert fast.value == slow.value == "yes", name
        # one certificate per rank-3 interval, naming one of its faces; the
        # explicit route's other faces share an interval's inertia or have
        # two gaps of rank 2 and inertia (1, 1, n - 2)
        explicit = dict(slow.q_certificates)
        by_key = {}
        for S, inr in fast.q_certificates:
            assert explicit[S] == inr, (name, S)
            by_key[oracle_single_gap(L, S)] = inr
        assert len(by_key) == len(fast.q_certificates)
        for S, inr in explicit.items():
            key = oracle_single_gap(L, S)
            assert inr == (by_key[key] if key else (1, 1, sum(inr) - 2)), (name, S)


def test_gap_test_matches_lp_oracle(catalog, rng):
    """The gap test, one orthant test on the image of the sum-zero layer
    vectors, against the mixed system in the layer unknowns, at seeded
    integer points on sampled intervals of rank at least 2 of every catalog
    lattice of rank >= 3."""
    verdicts = set()
    for name, L in catalog.items():
        if L.rank_total < 3:
            continue
        eng = volume_engine(L)
        gaps = [(lo, hi, mids) for lo, hi, _, mids in eng._intervals()]
        for lo, hi, mids in rng.sample(gaps, min(len(gaps), 12)):
            for _ in range(3):
                x = {g: rng.randint(-3, 3) for g in range(len(L.masks)) if mids >> g & 1}
                got = orthant_gap_feasible(L, lo, hi, mids, x)
                assert got == lp_gap_feasible(L, lo, hi, mids, x), (name, lo, hi, mids, x)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_bergman_fan_identities():
    for make in (lambda: flats(Matroid.uniform(2, 3)), lambda: flats(Matroid.uniform(3, 4))):
        L = make()
        fan = bergman_fan(L)
        assert fan.cones == order_complex(L)
        # ray lineality equals the modular space
        assert fan.lineality() == modular_space(L)
    fan23 = bergman_fan(flats(Matroid.uniform(2, 3)))
    assert fan23.dim == 2 and sorted(fan23.rays) == sorted([(Q(1), Q(0)), (Q(0), Q(1)), (Q(-1), Q(-1))])


def test_rank_one_conventions():
    L = flats(Matroid.uniform(1, 3))
    assert L.rank_total == 1
    h = pol_matroid(L)
    assert h.f.degree == 0 and h.f.terms[()] == 1
    assert eval_alpha(L) == 1 and eval_beta(L) == 1
    rep = char_poly(L)
    assert [int(c) for c in rep.chi] == [-1, 1] and [int(c) for c in rep.reduced] == [1]


def test_loops_are_quotiented_out():
    # a graph with a self-loop: the loop lands in the bottom flat and the
    # pipeline works over the loop-free part throughout
    M = Matroid.from_graph(3, [(0, 0), (0, 1), (1, 2)])
    assert basis_pass_closure(M.ground, M.bases, ()) == frozenset({0})
    L = flats(M)
    assert L.bottom == frozenset({0})
    assert L.rank_total == 2
    rep = char_poly(L)
    assert rep.agree and [int(c) for c in rep.reduced] == [-1, 1]
    h = pol_matroid(L)
    assert hered.is_hereditary_lorentzian(h, cone_hints=[submodular_witness(L)]).value == "yes"


def _seeded_families(rng):
    """300 equicardinal families of 1 to 8 subsets of range(6)."""
    ground = tuple(range(6))
    for _ in range(300):
        r = rng.randint(1, 4)
        pool = list(combinations(ground, r))
        yield ground, rng.sample(pool, rng.randint(1, min(8, len(pool))))


def test_exchange_check_matches_oracle(rng):
    """Matroid(...) accepts exactly the basis families, and a rejection
    names the pair of bases and the element that the pairwise loop of
    ``exchange_message`` fails at first."""
    with pytest.raises(ValueError, match="exchange"):
        Matroid(*NON_MATROID)
    assert not oracle_is_basis_family(NON_MATROID[1])
    accepted = rejected = 0
    for ground, family in _seeded_families(rng):
        bases = tuple(frozenset(b) for b in family)
        expected = exchange_message(Matroid._by_construction(ground, bases))
        assert (expected is None) == oracle_is_basis_family(family), family
        if expected is None:
            M = Matroid(ground, bases)
            assert set(flats(M).flats) == oracle_flats(ground, family)
            accepted += 1
        else:
            with pytest.raises(ValueError) as err:
                Matroid(ground, bases)
            assert str(err.value) == expected, family
            rejected += 1
    assert accepted >= 20 and rejected >= 20


def _multigraphs(rng):
    """Seeded multigraphs on 3 to 5 vertices with self-loops and parallel
    edges: the bottom flat holds the loops, and parallel edges share every
    flat."""
    for _ in range(8):
        n = rng.randint(3, 5)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(4, 9))]
        edges += [edges[0], (edges[-1][0], edges[-1][0])]
        yield f"multigraph {n} {edges}", Matroid.from_graph(n, edges)


def test_flats_match_subset_closure_oracle(rng):
    """flats(M) against closing every subset and against one closure per
    cover with ranks by longest chains (``closure_cover_flats``): the same
    flats and ranks, and, against the lattice built from the oracle's
    family, the same order, covers, containment bitsets and Moebius row of
    the bottom."""
    # first, so that these are the families the exchange test accepts
    matroids = [(f"family {family}", Matroid(ground, tuple(frozenset(b) for b in family)))
                for ground, family in _seeded_families(rng) if oracle_is_basis_family(family)]
    matroids += [(f"U({r},{n})", Matroid.uniform(r, n)) for n in range(1, 8) for r in range(0, n + 1)]
    matroids += [("K4", Matroid.from_graph(4, K4_EDGES)), ("M(K5)", Matroid.from_graph(5, K5_EDGES)),
                 ("Fano", Matroid.fano())]
    for _ in range(6):
        edges = rng.sample(K5_EDGES, rng.randint(4, 9))
        matroids.append((f"K5 subgraph {edges}", Matroid.from_graph(5, edges)))
    matroids += list(_multigraphs(rng))
    assert any(basis_pass_closure(M.ground, M.bases, ()) for _, M in matroids)
    for name, M in matroids:
        L, ranks = flats(M), closure_cover_flats(M)
        assert L.rank == ranks and set(L.flats) == oracle_flats(M.ground, M.bases), name
        P = FlatLattice(M.ground, ranks)
        assert (P.flats, P.ranks, P.covers_up, P.up, P.down) == (L.flats, L.ranks, L.covers_up, L.up, L.down), name
        memo = {}
        assert L.mobius_row(0) == [oracle_mobius(L, L.bottom, F, memo) for F in L.flats], name


def _seeded_pairs(L, rng) -> list:
    """Seeded point pairs on L's proper flats: two dense pairs, one with
    half its coordinates 0, and one with va = vb, where many interval
    values cancel to zero."""
    def point(zeros):
        return {F: Q(0) if rng.random() < zeros else Q(rng.randint(-6, 6), rng.randint(1, 7)) for F in L.proper}

    va = point(0.5)
    return [(point(0), point(0)), (point(0), point(0)), (point(0.5), point(0.5)), (va, va)]


def test_integer_recursion_matches_fraction_oracle(catalog, rng):
    for name, L in catalog.items():
        eng = volume_engine(L)
        n_chains = len(eng.chains())
        if n_chains > 5000:
            continue
        alpha, beta = alpha_beta(L)
        va, vb = dict(zip(alpha.vars, alpha.coords)), dict(zip(beta.vars, beta.coords))
        assert eng.eval_bivariate(va, vb) == fraction_eval_bivariate(L, va, vb), name
        if n_chains > 1500:
            continue
        for va, vb in _seeded_pairs(L, rng):
            assert eng.eval_bivariate(va, vb) == fraction_eval_bivariate(L, va, vb), name
            assert eng.eval_bivariate(va, {})[0] == fraction_eval_bivariate(L, va, {})[0], name


def test_integer_recursion_matches_fraction_oracle_on_graphic_lattices(rng):
    """M(K5) and two seeded subgraphs of K5: their intervals are partition
    lattices, not Boolean, so the layer sizes |g - lo| differ within one
    rank."""
    lattices = {"M(K5)": flats(Matroid.from_graph(5, K5_EDGES))}
    for _ in range(2):
        edges = sorted(rng.sample(K5_EDGES, rng.randint(6, 9)))
        lattices[f"M(K5 on {edges})"] = flats(Matroid.from_graph(5, edges))
    for name, L in lattices.items():
        eng = volume_engine(L)
        alpha, beta = alpha_beta(L)
        canonical = (dict(zip(alpha.vars, alpha.coords)), dict(zip(beta.vars, beta.coords)))
        for va, vb in [canonical, *_seeded_pairs(L, rng)]:
            assert eng.eval_bivariate(va, vb) == fraction_eval_bivariate(L, va, vb), name
            assert eng.eval_bivariate(va, {})[0] == fraction_eval_bivariate(L, va, {})[0], name


def _count_line_runs(func, prefix, call) -> int:
    """How many times ``call()`` runs the first line of ``func`` whose text
    starts with ``prefix``, by a line tracer on ``func``'s frames only."""
    lines, start = inspect.getsourcelines(func)
    target = start + next(i for i, line in enumerate(lines) if line.strip().startswith(prefix))
    runs = 0

    def local(frame, event, arg):
        nonlocal runs
        if event == "line" and frame.f_lineno == target:
            runs += 1
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is func.__code__ else None)
    try:
        call()
    finally:
        sys.settrace(None)
    return runs


def test_canonical_recursion_skips_zero_intervals():
    """Count guard: at the canonical pair, V vanishes on every interval with
    two proper ends, so U(8,8)'s expansion evaluates Y(g) on at most
    10,000 of its 52,670 triples lo < g < hi."""
    eng = volume_engine(flats(Matroid.uniform(8, 8)))
    runs = _count_line_runs(type(eng).eval_bivariate, "ys = ", lambda: eng.eval_bivariate(
        *(dict(zip(v.vars, v.coords)) for v in alpha_beta(eng.L))))
    assert 0 < runs <= 10_000, runs


def test_char_poly_routes_agree_up_to_rank_8():
    for r, n in ((6, 7), (7, 7), (8, 8)):
        L = flats(Matroid.uniform(r, n))
        assert char_poly(L).agree and hrw_check(L).mixed_identity, (r, n)


def test_canonical_expansion_is_computed_once_by_covers(catalog, monkeypatch):
    """hrw_check, char_poly and both closed-form values share one expansion,
    which runs neither the interval recursion nor the chain enumeration."""
    L = catalog["Fano"]
    eng = volume_engine(L)
    eng._expansion = None
    computed, other = [], []
    inner = LatticeVolume.expansion
    monkeypatch.setattr(LatticeVolume, "expansion",
                        lambda self: computed.append(self._expansion is None) or inner(self))
    for name in ("eval_bivariate", "chains"):
        monkeypatch.setattr(LatticeVolume, name, lambda self, *args, name=name: other.append(name))
    hr = hrw_check(L)
    assert char_poly(L).expansion == hr.char.expansion
    assert eval_alpha(L) == Q(1, 2) and eval_beta(L) == 4
    assert computed.count(True) == 1 and not other


def _expansion_lattices(rng) -> dict:
    """The lattices the canonical expansion is checked on besides the
    catalog: U(r,8), M(K4) to M(K6) with seeded edge deletions, and a loop,
    parallel elements and a coloop."""
    out = {f"U({r},8)": flats(Matroid.uniform(r, 8)) for r in range(1, 9)}
    for n, edges in ((4, K4_EDGES), (5, K5_EDGES), (6, K6_EDGES)):
        out[f"M(K{n})"] = flats(Matroid.from_graph(n, edges))
        for _ in range(2):
            kept = sorted(rng.sample(edges, rng.randint(n, len(edges) - 1)))
            out[f"M(K{n} on {kept})"] = flats(Matroid.from_graph(n, kept))
    out["loop"] = flats(Matroid.from_graph(4, [(0, 0), *K4_EDGES[:4]]))
    out["parallel"] = flats(Matroid.from_graph(4, [(0, 1), (0, 1), (0, 1), *K4_EDGES[1:]]))
    out["coloop"] = flats(Matroid.from_graph(5, [*K4_EDGES, (3, 4)]))
    return out


def test_canonical_expansion_matches_both_recursions(catalog, rng):
    """expansion() against eval_bivariate at the canonical pair on every
    lattice, ranks 1 and 2 among them, and against the chain oracle
    ``fraction_eval_bivariate`` on the lattices with at most 5,000 chains
    (U(8,8) has 545,835; eval_bivariate is checked against the chain
    oracle on its own above)."""
    lattices = {**catalog, **_expansion_lattices(rng)}
    assert lattices["loop"].bottom and lattices["coloop"].rank_total == 4
    assert len({len(F - lattices["parallel"].bottom) for F in lattices["parallel"].proper}) > 1
    assert {L.rank_total for L in lattices.values()} >= {1, 2}
    oracle_checked = 0
    for name, L in lattices.items():
        alpha, beta = alpha_beta(L)
        va, vb = dict(zip(alpha.vars, alpha.coords)), dict(zip(beta.vars, beta.coords))
        eng = LatticeVolume(L)
        got = eng.expansion()
        assert got == eng.eval_bivariate(va, vb), name
        if len(eng.chains()) <= 5000:
            assert got == fraction_eval_bivariate(L, va, vb), name
            oracle_checked += 1
    assert oracle_checked >= 40, oracle_checked


def test_canonical_expansion_visits_each_cover_twice():
    """Count guard: U(8,8)'s expansion evaluates its cover term at most
    2,048 times, twice per pair of flats one covering the other (1,024)."""
    eng = LatticeVolume(flats(Matroid.uniform(8, 8)))
    runs = _count_line_runs(LatticeVolume.expansion, "acc += ", eng.expansion)
    assert 0 < runs <= 2048, runs


def test_canonical_expansion_reads_no_moebius_value(catalog, monkeypatch):
    """The volume route and the Moebius route stay independent, so
    char_poly's ``agree`` and hrw_check's ``mixed_identity`` compare two
    computations, not one with itself."""
    calls = []
    monkeypatch.setattr(FlatLattice, "mobius_row", lambda self, i: calls.append(i))
    for name in ("U(1,3)", "U(2,4)", "U(4,6)", "K4", "Fano"):
        assert LatticeVolume(catalog[name]).expansion(), name
    assert not calls


def test_from_graph_matches_max_forest_oracle(rng):
    graphs = [(4, K4_EDGES), (5, K5_EDGES), (6, K6_EDGES),
              (3, [(0, 0), (0, 1), (1, 2)]),          # a loop
              (3, [(0, 1), (0, 1), (1, 2), (1, 2)]),  # parallel edges
              (4, [(0, 1), (1, 2), (0, 2)]),          # an isolated vertex
              (3, [])]                                # no edges
    for k in range(8):
        graphs.append((6, rng.sample(K6_EDGES, rng.randint(3, 12))))
    for n_vertices, edges in graphs:
        M = Matroid.from_graph(n_vertices, edges)
        rank, bases = oracle_max_forests(n_vertices, edges)
        assert M.rank_total == rank and set(M.bases) == bases, (n_vertices, edges)


def _few_chain_lattices(catalog):
    """The catalog entries with at most 1,500 chains, and M(K5)."""
    lattices = {name: L for name, L in catalog.items() if len(oracle_chains(L)) <= 1500}
    lattices["M(K5)"] = flats(Matroid.from_graph(5, K5_EDGES))
    return lattices


def test_chain_faces_reduce_to_intervals(catalog, rng):
    """The lemma behind hl_check: at every chain, the projected point on
    each occupied gap is a positive multiple of that interval's normalized
    point; a codimension-2 face with one occupied gap has that interval's
    quadratic_hessian, and one with two has inertia (1, 1, n - 2)."""
    checked = {"points": 0, "single": 0, "double": 0}
    for name, L in _few_chain_lattices(catalog).items():
        eng = volume_engine(L)
        chains = oracle_chains(L)
        d = L.rank_total - 1
        w = submodular_witness(L)
        points = [dict(zip(w.vars, w.coords))]
        points += [{F: Q(rng.randint(-6, 6), rng.randint(1, 7)) for F in L.proper} for _ in range(2)]
        for v in points:
            x = eng._scaled(v)
            for chain, p in oracle_chain_points(L, v, chains).items():
                for lo, hi, mids in oracle_gaps(L, chain):
                    if not mids:
                        continue
                    y = eng._normalized(x, L.index[lo], L.index[hi])
                    pairs = [(p[F], y[L.index[F]]) for F in mids]
                    scale = next((a / b for a, b in pairs if b), None)
                    assert scale is None or scale > 0, (name, chain, lo, hi)
                    assert all(a == (scale or 0) * b for a, b in pairs), (name, chain, lo, hi)
                    checked["points"] += 1
        for chain in chains:
            if len(chain) != d - 2:
                continue
            H = hessian(quadratic_oracle(L, chain))
            key = oracle_single_gap(L, chain)
            if key:
                assert H == eng.quadratic_hessian(L.index[key[0]], L.index[key[1]]), (name, chain)
                checked["single"] += 1
            else:
                assert inertia(H) == (1, 1, len(H.vars) - 2), (name, chain)
                checked["double"] += 1
    assert min(checked.values()) > 300, checked


def test_interval_route_matches_chain_oracle(catalog):
    for name, L in _few_chain_lattices(catalog).items():
        fast, slow = volume_engine(L).hl_check(), chain_hl_check(L)
        assert (fast.value, fast.h_connected, fast.cone_witness) == \
               (slow.value, slow.h_connected, slow.cone_witness), name
        oracle = dict(slow.q_certificates)
        assert all(oracle[S] == inr for S, inr in fast.q_certificates), name
        keys = {oracle_single_gap(L, S) for S in oracle} - {None}
        assert len(fast.q_certificates) == len(keys), name


def test_rank_8_certificate_walks_no_chain(monkeypatch):
    from lorentzlab.matroid import LatticeVolume

    def no_chains(self):
        raise AssertionError("hl_check enumerated chains")

    monkeypatch.setattr(LatticeVolume, "chains", no_chains)
    v = volume_engine(flats(Matroid.uniform(8, 8))).hl_check()
    assert v.value == "yes" and len(v.q_certificates) == 1792
    assert all(inr.pos <= 1 for _, inr in v.q_certificates)


def test_cone_witness_accepts_submodular_point(catalog):
    for name, L in catalog.items():
        if L.rank_total < 3:
            continue
        eng = volume_engine(L)
        w = submodular_witness(L)
        v = dict(zip(w.vars, w.coords))
        intervals = sum(1 for lo in L.flats for hi in L.flats if lo < hi and L.rank[hi] - L.rank[lo] >= 2)
        assert eng._cone_witness_intervals(v) == (True, intervals), name
        assert eng._cone_witness_intervals({F: -x for F, x in v.items()}) == (False, 0), name


def test_failed_cone_witness_falls_back_to_the_exact_route(catalog, monkeypatch):
    # a witness that fails on some face proves nothing about the cone, so
    # hl_check decides on the explicit polynomial instead of "vacuous"
    from lorentzlab.matroid import LatticeVolume

    monkeypatch.setattr(LatticeVolume, "_cone_witness_intervals", lambda self, vmap: (False, 0))
    for name in ("U(3,4)", "Fano"):
        L = catalog[name]
        generic = hered.is_hereditary_lorentzian(pol_matroid(L))
        assert volume_engine(L).hl_check().value == generic.value == "yes", name


def test_rank_2_failed_gap_test_falls_back_to_the_exact_route(catalog, monkeypatch):
    # rank-2 lattices take the common path: the one interval (bottom, top)
    # is tested.  The canonical witness is positive there, so it is negated
    # to fail the test, and the verdict comes from the exact route.
    from lorentzlab import matroid

    def negated_witness(L):
        w = submodular_witness(L)
        return type(w)(w.vars, tuple(-c for c in w.coords))

    calls = []
    exact = hered.is_hereditary_lorentzian
    monkeypatch.setattr(matroid, "submodular_witness", negated_witness)
    monkeypatch.setattr(hered, "is_hereditary_lorentzian", lambda *a: calls.append(a) or exact(*a))
    for name in ("U(2,3)", "U(2,4)"):
        calls.clear()
        assert volume_engine(catalog[name]).hl_check().value == "yes", name
        assert len(calls) == 1, name


def test_canonical_witness_never_needs_the_gap_test():
    """The lemma of ``_cone_witness_intervals``: the canonical witness's
    normalized point is E |g - lo| |hi - g| > 0 at every flat g of every
    interval with k >= 2, so no sum-zero shift is ever needed; on U(r,n)
    for n <= 8, Fano, M(K5) and M(K6)."""
    lattices = {f"U({r},{n})": flats(Matroid.uniform(r, n)) for n in range(1, 9) for r in range(1, n + 1)}
    lattices.update({"Fano": flats(Matroid.fano()), "M(K5)": flats(Matroid.from_graph(5, K5_EDGES)),
                     "M(K6)": flats(Matroid.from_graph(6, K6_EDGES))})
    tested = 0
    for name, L in lattices.items():
        eng = volume_engine(L)
        w = submodular_witness(L)
        x = eng._scaled(dict(zip(w.vars, w.coords)))
        size = [m.bit_count() for m in L.masks]
        for lo, hi, _, _ in eng._intervals():
            for g, y in eng._normalized(x, lo, hi).items():
                assert y == eng.lcm_n * (size[g] - size[lo]) * (size[hi] - size[g]) > 0, (name, lo, g, hi)
                tested += 1
    assert tested > 10000


def test_engine_chains_match_oracle_order(catalog):
    lattices = dict(catalog, **{"M(K5)": flats(Matroid.from_graph(5, K5_EDGES))})
    for name, L in lattices.items():
        eng = volume_engine(L)
        chains = oracle_chains(L)
        assert [eng.flats_of(c) for c in eng.chains()] == list(chains), name


# one malformed family per rejection, in the order the checks run; a
# family that passes the first two checks has no overlapping cover
# differences (two covers of F overlapping outside F meet in a flat strictly
# between F and either cover), so there is no overlap check to reject one
@pytest.mark.parametrize("family, message", [
    ([(), (1,), (1, 2), (3,), (1, 2, 3)], "lattice is not graded by containment covers"),
    ([(), (1, 2), (2, 3), (1, 2, 3)], "intersection {2} is not a flat"),
    ([(), (1,), (1, 2), (1, 3), (1, 2, 3)],
     "cover differences above set() do not partition the complement"),
])
def test_flat_lattice_rejections(family, message):
    with pytest.raises(ValueError) as err:
        FlatLattice((1, 2, 3, 4), [frozenset(F) for F in family])
    assert str(err.value) == message


LIBRARY_REPORTS_SCRIPT = """
import json
from itertools import combinations
from lorentzlab.hereditary import is_hereditary_lorentzian
from lorentzlab.lorentzian import polarized_hereditary_verdict
from lorentzlab.matroid import Matroid, bergman_fan, flats, pol_matroid
from lorentzlab.polycore import parse_poly
L = flats(Matroid("abcde", [set(b) for b in combinations("abcde", 4)]))
h = pol_matroid(L)
f = parse_poly("a^2 b + a^2 c + a b^2 + 2 a b c + a c^2 + b^2 c + b c^2")
print(json.dumps([h.f.to_json_dict(), bergman_fan(L).to_json_dict(),
                  is_hereditary_lorentzian(h).to_json_dict(),
                  polarized_hereditary_verdict(f).to_json_dict()], indent=1))
"""


def test_library_reports_do_not_depend_on_the_hash_seed():
    # the flats of U(4,5) over strings are sets of strings, whose iteration
    # order and repr follow the hash seed, and so are the faces of the
    # polarized verdict's certificates; the two processes run side by side
    with ThreadPoolExecutor(2) as pool:
        outs = list(pool.map(lambda seed: in_fresh_process(LIBRARY_REPORTS_SCRIPT, PYTHONHASHSEED=seed),
                             ("0", "1")))
    assert outs[0] == outs[1] and "frozenset({'a', 'b', 'c'})" in outs[0] and "('c', 0)" in outs[0]


def test_mobius_matches_frozenset_recursion(catalog):
    for name, L in catalog.items():
        memo = {}
        for a in L.flats:
            for b in L.flats:
                assert L.mobius_row(L.index[a])[L.index[b]] == oracle_mobius(L, a, b, memo), (name, a, b)
