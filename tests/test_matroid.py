"""Matroid pipeline: lattice axioms, the reconstruction fixtures, closed-form
evaluations, characteristic polynomial routes, Moebius sign alternation, and
agreement between the explicit polynomial path and the evaluation engine."""

import inspect
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from math import comb, factorial

import pytest

from lorentzlab import hereditary as hered
from lorentzlab import matroid as matroid_module
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
    _missing_counts,
)
from lorentzlab.rat import Q
from lorentzlab.simplicial import face_key, label_key
from lorentzlab.inertia import hessian, inertia
from conftest import in_fresh_process
from oracles import (
    alpha_beta,
    basis_pass_closure,
    chain_hl_check,
    closure_cover_flats,
    containment_bitsets,
    decoded_flat_order,
    decoded_mobius_row,
    exchange_message,
    flat_index,
    flats_missing,
    fraction_eval_bivariate,
    interval,
    interval_normalized,
    is_semimodular_spot,
    lattice_of_family,
    layered_pin,
    lp_gap_feasible,
    matroid_rank,
    orthant_gap_feasible,
    oracle_chain_points,
    oracle_chains,
    oracle_chromatic,
    oracle_components,
    oracle_flats,
    oracle_gaps,
    oracle_is_basis_family,
    oracle_max_forests,
    oracle_mobius,
    oracle_single_gap,
    product,
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
    assert M.rank_total == 2 and matroid_rank(M, {1}) == 1 and matroid_rank(M, {1, 2}) == 2
    L = flats(M)
    assert frozenset({1}) in L.flats and L.bottom == frozenset()
    spot_check_rank_axioms(M, rng)
    with pytest.raises(ValueError):
        Matroid((1, 2), ({1}, {1, 2}))  # not equicardinal


def test_uniform_needs_rank_between_0_and_n():
    for r, n in ((5, 3), (4, 3), (-1, 3), (-1, 0)):
        with pytest.raises(ValueError, match=rf"U\({r},{n}\) needs 0 <= r <= n"):
            Matroid.uniform(r, n)
    assert Matroid.uniform(0, 3).bases == (frozenset(),)
    assert Matroid.uniform(3, 3).bases == (frozenset({1, 2, 3}),)


def test_bases_come_in_face_key_order():
    """The bases, sorted by the integer key of their masks, are in face-key
    order whatever the order of the ground set; a bases list given in any
    order and with repeats reads the same."""
    for M in (Matroid.uniform(3, 6), Matroid.fano(), Matroid.from_graph(4, K4_EDGES),
              _uniform_over(3, [10, 2, 33, 1, 7]), _uniform_over(2, ["b", 12, "a", 3])):
        assert list(M.bases) == sorted(M.bases, key=face_key)
        again = Matroid(M.ground, tuple(reversed(M.bases)) + M.bases[:2])
        assert again.bases == M.bases and again._basis_masks == M._basis_masks


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
        rank = dict(zip(L.flats, L.ranks))
        for a in L.flats:
            for b in L.flats:
                join = min((F for F in L.flats if a <= F and b <= F), key=rank.get)
                assert rank[a & b] + rank[join] <= rank[a] + rank[b]


def test_mobius_alternation(catalog):
    for name in ("U(3,5)", "K4", "Fano", "U(4,5)"):
        L = catalog[name]
        for i, a in enumerate(L.flats):
            for j, b in enumerate(L.flats):
                if a <= b:
                    assert (-1) ** (L.ranks[j] - L.ranks[i]) * L.mobius_row(i)[j] >= 0


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
    rank1 = [F for F, k in zip(L34.flats, L34.ranks) if k == 1]
    rank2 = [F for F, k in zip(L34.flats, L34.ranks) if k == 2]
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
        assert eval_beta(L) == Q(abs(L.mobius_row(0)[-1]), factorial(d))


def test_interval_evaluations():
    # the closed forms hold on interval lattices too
    L = flats(Matroid.fano())
    lines = [F for F, k in zip(L.flats, L.ranks) if k == 2]
    I = interval(L, L.bottom, lines[0])
    assert eval_alpha(I) == 1 and eval_beta(I) == abs(I.mobius_row(0)[-1])


def test_factorization_over_chains(rng):
    # restriction at a chain face factors into interval volume polynomials
    L = flats(Matroid.uniform(4, 5))
    h = pol_matroid(L)
    chains = [S for S in h.delta.faces() if S and len(S) <= 2]
    for _ in range(6):
        S = sorted(chains[rng.randrange(len(chains))], key=flat_index(L).get)
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
            prod = piece if prod is None else product(prod, piece)
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


def _uniform_over(r: int, ground) -> Matroid:
    """U(r, n) over ``ground``, in that order, from its bases."""
    ground = tuple(ground)
    return Matroid(ground, tuple(frozenset(b) for b in combinations(ground, r)))


def _deletion_lattices(rng) -> list:
    """(name, lattice): K3 to K7 on shuffled edges, U(r, n) for n <= 7
    over shuffled samples of 1..99, Fano, the seeded multigraphs (loops,
    parallel edges) and the seeded basis families."""
    out = []
    for n in range(3, 8):
        edges = list(combinations(range(n), 2))
        rng.shuffle(edges)
        out.append((f"K{n} on {edges}", flats(Matroid.from_graph(n, edges))))
    for n in range(1, 8):
        for r in range(1, n + 1):
            ground = rng.sample(range(1, 100), n)
            out.append((f"U({r},{n}) over {ground}", flats(_uniform_over(r, ground))))
    out.append(("Fano", flats(Matroid.fano())))
    out += [(name, flats(Matroid.from_graph(n, edges))) for name, n, edges in _multigraphs(rng)]
    out += [(f"family {family}", flats(Matroid(ground, tuple(frozenset(b) for b in family))))
            for ground, family in _seeded_families(rng) if oracle_is_basis_family(family)]
    return [(name, L) for name, L in out if L.rank_total >= 1]


def test_deletion_counts_match_the_decoded_oracle(rng):
    """The deletion check counts the flats missing each atom, by popcounts
    against the atom's up-set; the oracle lists the decoded flats missing
    each element.  They agree for every element of every atom, so parallel
    elements share their atom's counts.  hrw_check reads the counts of the
    first atom: it holds the least element of top - bottom in label_key
    order, and the mixed identity holds with the oracle's flats missing
    that element."""
    checked = 0
    for name, L in _deletion_lattices(rng):
        atoms = [i for i, k in enumerate(L.ranks) if k == 1]
        counts = _missing_counts(L, L.layers[1])
        assert len(counts) == len(atoms), name
        for a, got in zip(atoms, counts):
            for e in L.flats[a] - L.bottom:
                assert got == Counter(flats_missing(L, e)), (name, e)
        least = min(L.top - L.bottom, key=label_key)
        assert least in L.flats[1], name
        d = L.rank_total - 1
        rhs = [0] * (d + 1)
        for rho, m in flats_missing(L, least):
            rhs[rho] += comb(d, rho) * abs(m)
        assert [c * factorial(d) for c in char_poly(L).expansion] == rhs, name
        assert hrw_check(L).mixed_identity, name
        checked += 1
    assert checked >= 60, checked


def test_a_dropped_flat_fails_the_deletion_check(catalog, monkeypatch):
    """Mutant: the counts of the last atom lose one flat of nonzero Moebius
    value.  char_poly must then report its routes in disagreement, and
    hrw_check refuse."""
    counts = matroid_module._missing_counts

    def drop_one(L, atoms):
        out = counts(L, atoms)
        last = out[-1]
        km = max(km for km in last if km[1])
        last[km] -= 1
        return out

    monkeypatch.setattr(matroid_module, "_missing_counts", drop_one)
    for name in ("U(1,3)", "U(2,4)", "U(4,6)", "K4", "Fano"):
        assert not char_poly(catalog[name]).agree, name
        with pytest.raises(AssertionError, match="routes disagree"):
            hrw_check(catalog[name])


def test_flat_order_matches_the_decoded_sort(rng):
    """FlatLattice orders each rank by an integer key (its order lemma):
    the same masks in the same order as decoding each flat and sorting by
    rank and face key, on grounds whose input order is not label_key
    order: U(2,4) over [42, 7, 13, 99], seeded U(3,7) over samples of
    1..99, K6 and K7 ('10' < '2'), and U(2,18), whose masks span five
    4-bit tables.  Built again from shuffled layers, the lattice is the
    same."""
    L = flats(_uniform_over(2, [42, 7, 13, 99]))
    assert L.elems == (42, 7, 13, 99)
    assert [sorted(F) for F in L.flats[1:5]] == [[13], [42], [7], [99]]
    lattices = [("U(2,4) over [42, 7, 13, 99]", L)]
    for _ in range(5):
        ground = rng.sample(range(1, 100), 7)
        lattices.append((f"U(3,7) over {ground}", flats(_uniform_over(3, ground))))
    for n in (6, 7):
        edges = list(combinations(range(n), 2))
        rng.shuffle(edges)
        lattices.append((f"K{n} on {edges}", flats(Matroid.from_graph(n, edges))))
    ground = rng.sample(range(1, 100), 18)
    lattices.append((f"U(2,18) over {ground}", flats(_uniform_over(2, ground))))
    for name, L in lattices:
        layers = [[m for m, k in zip(L.masks, L.ranks) if k == r] for r in range(L.rank_total + 1)]
        assert L.masks == decoded_flat_order(L.elems, layers), name
        for layer in layers:
            rng.shuffle(layer)
        covers = {m: [L.masks[j] for j in range(len(L.masks)) if c >> j & 1] for m, c in zip(L.masks, L.covers_up)}
        again = FlatLattice(L.elems, layers, covers)
        assert (again.masks, again.ranks, again.layers) == (L.masks, L.ranks, L.layers), name
        assert (again.covers_up, again.up, again.down) == (L.covers_up, L.up, L.down), name


def test_char_poly_and_hrw_decode_no_flat():
    """char_poly and hrw_check read masks, ranks, covers and Moebius values
    alone: no frozenset of flats is formed until one is read.  The witness
    takes its values from popcounts, |F - bottom| |top - F| on the
    decoded flats."""
    for M in (Matroid.uniform(3, 6), Matroid.from_graph(5, K5_EDGES), Matroid.fano(),
              _uniform_over(2, [42, 7, 13, 99])):
        L = flats(M)
        assert char_poly(L).agree and hrw_check(L).mixed_identity
        assert not {"flats", "proper", "bottom", "top"} & vars(L).keys()
        v = submodular_witness(L)
        assert v.vars == L.proper == L.flats[1:-1] and (L.bottom, L.top) == (L.flats[0], L.flats[-1])
        assert v.coords == tuple(len(F - L.bottom) * len(L.top - F) for F in L.proper)


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
        slow = hered.is_hereditary_lorentzian(h)
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


def test_rank_zero_lattice_is_refused_by_name():
    L = flats(Matroid.uniform(0, 3))
    for check in (char_poly, hrw_check, pol_matroid, lambda L: volume_engine(L).hl_check()):
        with pytest.raises(ValueError, match="need rank >= 1"):
            check(L)
    with pytest.raises(ValueError, match="needs rank >= 1, got rank 0"):
        bergman_fan(L)


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
    assert hered.is_hereditary_lorentzian(h).value == "yes"


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
        expected = exchange_message(ground, bases)
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
        yield f"multigraph {n} {edges}", n, edges


def test_flats_match_subset_closure_oracle(rng):
    """flats(M) against closing every subset and against one closure per
    cover with ranks by longest chains (``closure_cover_flats``): the same
    flats and ranks, the flats in rank and then face-key order, the covers
    and the up and down sets those of frozenset containment
    (``containment_bitsets``), and the Moebius row of the bottom that of
    the frozenset recursion."""
    # first, so that these are the families the exchange test accepts
    matroids = [(f"family {family}", Matroid(ground, tuple(frozenset(b) for b in family)))
                for ground, family in _seeded_families(rng) if oracle_is_basis_family(family)]
    matroids += [(f"U({r},{n})", Matroid.uniform(r, n)) for n in range(1, 8) for r in range(0, n + 1)]
    matroids += [("K4", Matroid.from_graph(4, K4_EDGES)), ("M(K5)", Matroid.from_graph(5, K5_EDGES)),
                 ("Fano", Matroid.fano())]
    for _ in range(6):
        edges = rng.sample(K5_EDGES, rng.randint(4, 9))
        matroids.append((f"K5 subgraph {edges}", Matroid.from_graph(5, edges)))
    matroids += [(name, Matroid.from_graph(n, edges)) for name, n, edges in _multigraphs(rng)]
    assert any(basis_pass_closure(M.ground, M.bases, ()) for _, M in matroids)
    for name, M in matroids:
        L, ranks = flats(M), closure_cover_flats(M)
        assert dict(zip(L.flats, L.ranks)) == ranks and set(L.flats) == oracle_flats(M.ground, M.bases), name
        assert L.flats == tuple(sorted(ranks, key=lambda F: (ranks[F], face_key(F)))), name
        assert L.ranks == [ranks[F] for F in L.flats], name
        assert (L.covers_up, L.up, L.down) == containment_bitsets(L.flats), name
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


def _graphs(rng):
    """(name, n_vertices, edges): K3 to K7, seeded edge deletions from K5
    and K6, the seeded multigraphs, and loops, parallel edges, isolated
    vertices, two components and no edge at all on their own."""
    out = [(f"K{n}", n, list(combinations(range(n), 2))) for n in range(3, 8)]
    for n, edges in ((5, K5_EDGES), (6, K6_EDGES)):
        for _ in range(3):
            kept = sorted(rng.sample(edges, rng.randint(n - 1, len(edges) - 1)))
            out.append((f"K{n} on {kept}", n, kept))
    out += _multigraphs(rng)
    out += [("loops", 3, [(0, 0), (0, 1), (1, 1), (1, 2)]),
            ("parallel", 3, [(0, 1), (1, 2), (0, 1), (1, 2), (0, 2)]),
            ("isolated", 6, [(3, 1), (1, 4), (3, 4)]),
            ("two components", 6, [*K4_EDGES[:5], (4, 5), (5, 4)]),
            ("no edge", 3, [])]
    return out


def test_bond_lattice_matches_the_bases_route(rng):
    """flats of a cycle matroid, read off the connected partitions of its
    graph, against flats of the same matroid given by the bases that
    ``oracle_max_forests`` finds, which has no graph and takes the bases
    scan: the same masks, ranks, covers, up and down sets and flats.  The
    graph's side forms no basis until one is read, and then equals the
    other matroid."""
    for name, n, edges in _graphs(rng):
        G = Matroid.from_graph(n, edges)
        L = flats(G)
        assert "bases" not in vars(G) and "_basis_masks" not in vars(G), name
        M = Matroid(tuple(range(len(edges))), tuple(oracle_max_forests(n, edges)[1]))
        B = flats(M)
        assert M._graph is None, name
        assert L.masks == B.masks and L.ranks == B.ranks and L.flats == B.flats, name
        assert L.covers_up == B.covers_up and L.up == B.up and L.down == B.down, name
        assert G == M and hash(G) == hash(M) and repr(G) == repr(M), name


def _falling(n: int) -> list:
    """(t - 1)(t - 2)...(t - n + 1), coefficients by power of t."""
    out = [1]
    for k in range(1, n):
        out = [a - k * b for a, b in zip([0, *out], [*out, 0])]
    return out


def test_whitney_chromatic_polynomial(rng):
    """chi_G(t) = t^c(G) chi_M(G)(t) (Whitney 1932): the chromatic polynomial
    by deletion and contraction against ``char_poly`` on the bond lattice,
    on every graph of ``_graphs`` with at most 6 vertices and rank >= 1.
    The lattice starts at the loops, so its chi is that of M(G) with the
    loops deleted, and the loops are deleted on the chromatic side too.
    For K2 to K9, chi_M(K_n)(t) = (t - 1)(t - 2)...(t - n + 1), and the
    Moebius rows equal the decoded recursion: every row up to K5, the row
    of the bottom up to K8 (K9's 21,147 flats make the decoding slow)."""
    checked = 0
    for name, n, edges in _graphs(rng):
        M = Matroid.from_graph(n, edges)
        if n > 6 or M.rank_total < 1:
            continue
        loopless = [e for e in edges if e[0] != e[1]]
        chi = [0] * oracle_components(n, loopless) + char_poly(flats(M)).chi
        assert chi == oracle_chromatic(n, loopless), name
        checked += 1
    assert checked >= 20, checked
    for n in range(2, 10):
        L = flats(Matroid.from_graph(n, list(combinations(range(n), 2))))
        assert char_poly(L).chi == _falling(n), n
        for i in range(len(L.flats) if n <= 5 else 1 if n <= 8 else 0):
            assert L.mobius_row(i) == decoded_mobius_row(L, i), (n, i)


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
        eng, ix = volume_engine(L), flat_index(L)
        chains = oracle_chains(L)
        d = L.rank_total - 1
        w = submodular_witness(L)
        points = [dict(zip(w.vars, w.coords))]
        points += [{F: Q(rng.randint(-6, 6), rng.randint(1, 7)) for F in L.proper} for _ in range(2)]
        for v in points:
            (x,), _ = eng._scaled(v)
            for chain, p in oracle_chain_points(L, v, chains).items():
                for lo, hi, mids in oracle_gaps(L, chain):
                    if not mids:
                        continue
                    y = interval_normalized(eng, x, ix[lo], ix[hi])
                    pairs = [(p[F], y[ix[F]]) for F in mids]
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
                assert H == eng.quadratic_hessian(ix[key[0]], ix[key[1]]), (name, chain)
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
    from lorentzlab import matroid

    def refuse(what):
        def call(*args):
            raise AssertionError(f"hl_check called {what}")
        return call

    monkeypatch.setattr(LatticeVolume, "chains", refuse("chains"))
    monkeypatch.setattr(matroid, "pol_matroid", refuse("pol_matroid"))
    monkeypatch.setattr(hered, "is_hereditary_lorentzian", refuse("is_hereditary_lorentzian"))
    v = volume_engine(flats(Matroid.uniform(8, 8))).hl_check()
    assert v.value == "yes" and len(v.q_certificates) == 1792
    assert v.note == "cone witness certified on 5281 intervals"
    assert all(inr.pos <= 1 for _, inr in v.q_certificates)


def test_canonical_witness_never_needs_the_gap_test():
    """The lemma of ``LatticeVolume.hl_check``: the canonical witness's
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
        (x,), _ = eng._scaled(dict(zip(w.vars, w.coords)))
        size = [m.bit_count() for m in L.masks]
        for lo, hi, _, _ in eng._intervals():
            for g, y in interval_normalized(eng, x, lo, hi).items():
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
# between F and either cover), so there is no overlap check to reject one.
# Then the three families on four elements that pass the graded and the
# partition check but not the intersection check, as a search over every
# family of subsets of {0, 1, 2, 3} finds: every 3-subset above a perfect
# matching of atoms.
@pytest.mark.parametrize("family, message", [
    ([(), (1,), (1, 2), (3,), (1, 2, 3)], "lattice is not graded by containment covers"),
    ([(), (1, 2), (2, 3), (1, 2, 3)], "intersection {2} is not a flat"),
    ([(), (1,), (1, 2), (1, 3), (1, 2, 3)],
     "cover differences above set() do not partition the complement"),
    *(([(), *atoms, *combinations(range(4), 3), (0, 1, 2, 3)], "intersection {0} is not a flat")
      for atoms in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))),
])
def test_flat_lattice_rejections(family, message):
    with pytest.raises(ValueError) as err:
        lattice_of_family([frozenset(F) for F in family])
    assert str(err.value) == message


def _mutant_flats(old: str, new: str):
    """``flats`` with the line ``old`` of its scan replaced by ``new``,
    compiled in a copy of its module's namespace."""
    source = inspect.getsource(flats)
    assert source.count(old) == 1, old
    namespace = dict(vars(sys.modules[flats.__module__]))
    exec(source.replace(old, new), namespace)
    return namespace["flats"]


# each mutant takes the cover through e to be F + e, which misses a
# parallel element; the next layer's scan must refuse that member
@pytest.mark.parametrize("M, old, message", [
    (Matroid.from_graph(3, [(0, 1), (0, 1), (1, 2)]), "G = F | (A & B)",
     "the flat scan found {0}, which is not closed: edge 1 has both ends in one of its blocks"),
    (Matroid((1, 2, 3), ({1, 3}, {2, 3})), "G = full & ~(reduce(or_, filter(e.__and__, carried)) & ~e)",
     "the flat scan found {1}, which is not closed: an element outside it lies in no basis of its contraction"),
], ids=["graph", "bases"])
def test_flats_certificate_refuses_a_set_that_is_not_closed(M, old, message):
    assert len(flats(M).flats) == 4
    with pytest.raises(ValueError) as err:
        _mutant_flats(old, "G = F | e")(M)
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
        for i, a in enumerate(L.flats):
            for j, b in enumerate(L.flats):
                assert L.mobius_row(i)[j] == oracle_mobius(L, a, b, memo), (name, a, b)
