"""Test oracles: slower, literal routes that the library's fast routes are
checked against.

* :func:`oracle_chains` enumerates the chains of proper flats and their
  links by frozenset containment, and :func:`oracle_link` takes one link
  literally; the library keeps chains and links as integer bitsets over
  flat indices.
* :func:`fraction_eval_bivariate` is the chain recursion of the volume
  polynomial written on exact ``Fraction``-style rationals, with no
  scaling, over the chains of :func:`oracle_chains`: every pinned vector
  comes from :func:`layered_pin`, set arithmetic on the flats, and every
  value is divided by its degree on the spot.  ``LatticeVolume.eval_bivariate``
  reaches the same values by a recursion over intervals on scaled
  integers, enumerating no chain.
* :func:`quadratic_oracle` builds the codimension-2 face restriction of the
  volume polynomial as a ``HomPoly``, by substituting the pinned vectors of
  :func:`layered_pin` into the top layers; the library assembles its
  Hessian directly from integer pinned vectors, once per interval.
* :func:`chain_hl_check` certifies a lattice of flats chain by chain: the
  witness projected down every chain (:func:`oracle_chain_points`), a gap
  test per gap (:func:`oracle_gaps`, :func:`lp_gap_feasible`), every link's
  connectivity and every codimension-2 Hessian from :func:`quadratic_oracle`;
  ``LatticeVolume.hl_check`` decides connectivity and the Hessians once per
  interval and tests no witness: a lemma in its docstring shows the
  canonical point positive on every interval.  :func:`interval_normalized`
  computes that lemma's normalized point, so that the tests can check the
  lemma; the library needs no such point.
* :func:`oracle_mobius` is the Moebius recursion on frozensets;
  :func:`is_semimodular_spot` and :func:`spot_check_rank_axioms` check
  semimodularity of a lattice and the rank axioms of a matroid on sets.
  The library reads Moebius values off the containment bitsets.
* :func:`oracle_max_forests` finds the rank and bases of a cycle matroid by
  growing every acyclic edge subset one edge at a time; the library takes
  the rank from one union-find pass and reads the flats off connected
  partitions of the graph, without bases.  :func:`oracle_chromatic` is the
  chromatic polynomial by deletion and contraction and
  :func:`oracle_components` counts components, for Whitney's
  chi_G(t) = t^c(G) chi_M(G)(t) against the library's characteristic
  polynomial.
* :func:`decoded_mobius_row` is the Moebius recursion on the up and down
  bitsets, each down-set decoded; the library sums by value masks.
* :func:`flats_missing` lists, for one element, the rank and Moebius value
  of each decoded flat other than the top that misses it, as the deletion
  check once read them; the library counts them once per atom, by
  popcounts against the atom's up-set (``matroid._missing_counts``).
* :func:`decoded_flat_order` orders flat masks by rank and then by face
  key by decoding each mask into its members' ``label_key`` strings and
  sorting; ``FlatLattice`` sorts each rank by an integer key, by the order
  lemma in its docstring.
* :func:`oracle_flats` and :func:`oracle_is_basis_family` share no code
  with ``src/``: flats by closing every subset of the ground set with a
  max-intersection rank, and basis exchange checked literally on sets.
* :func:`closure_cover_flats` generates the flats by one closure
  (:func:`basis_pass_closure`, a pass over all bases on frozensets) per
  cover, from the closure of the empty set, and ranks them by peeling off
  longest chains on frozensets; it reads only the ground set and the
  bases.  ``flats`` generates them one rank layer at a time, each flat's
  covers read off the bases of its contraction.
* :func:`containment_bitsets` takes the covers and the up and down sets
  of a list of flats by frozenset containment; the library takes the
  covers that ``flats`` finds and ORs the up and down sets along them.
  :func:`lattice_of_family` builds a ``FlatLattice`` from any family of
  sets, ranked by longest chains (:func:`longest_chain_ranks`) with
  those covers and checks the lattice axioms on it, pairwise intersections
  included; ``flats`` needs no such check, as each flat it finds is
  certified closed.  :func:`interval` gives the interval [a, b] of a
  lattice of flats as a lattice of its own, and :func:`flat_index` the
  index of each flat, which the library never looks up.
* :func:`alpha_beta` gives the canonical direction pair as ``Direction``
  objects; the library evaluates at the integer points n alpha and
  n beta (``LatticeVolume.expansion``).
* :func:`matroid_rank` is the rank of a set by its largest intersection
  with a basis, on frozensets, and :func:`subspace_sum` the sum of two
  subspaces; the library needs neither.
* :func:`exchange_message` is the pairwise basis-exchange loop (each pair
  of bases, one AND per element of A - B), returning the message of its
  first failure; ``Matroid`` makes one bitset test per basis and element
  and must name the same failure.
* :class:`StrictSystem` is a conjunction of strict, weak and equality
  constraints in named unknowns, and :func:`lp_strict_feasible` decides it
  by one LP in those unknowns.  The library asks every such question as
  one orthant test, ``cones.orthant_shift`` (y + l > 0 for some l in a
  subspace L, on integers; :func:`rational_orthant_shift` asks it at a
  rational point and returns l as rationals), after a reformulation:
  :func:`orthant_system` and :func:`homogeneous_system` write the orthant
  test and Az > 0 as mixed systems; :func:`lp_is_bounded` decides that
  polytope normals positively span the space by 2d LPs (the library: one
  orthant test on lin^perp, Stiemke's lemma); :func:`lp_verify_fan_axioms`
  checks the fan axioms by one LP per pair in the ray coefficients, built
  by :func:`cone_pair_system` (the library: the separation lemma);
  :func:`lp_gap_feasible` is the matroid gap test in the layer unknowns
  and :func:`orthant_gap_feasible` the same test as one orthant test on the
  image of the sum-zero layer vectors (the library needs no gap test: the
  canonical witness is positive on every interval).
* :func:`fourier_motzkin_feasible` decides strict feasibility by variable
  elimination, independently of the simplex in ``lorentzlab.cones``.
* :func:`dense_lp_max` is the simplex of ``cones.lp_max`` on a dense
  ``Fraction`` tableau: every pivot divides the pivot row by the pivot and
  rewrites every column, and ratios are compared as rationals.  The library
  pivots an integer tableau over one common denominator and compares
  ratios by cross-multiplying.
* :func:`fraction_rref` and :func:`fraction_det` are Gauss-Jordan
  elimination and Bareiss' determinant on ``Fraction``-style rationals; the
  library runs both on integers and forms the rationals once at the end.
* :func:`berkowitz_inertia` takes the characteristic polynomial by the
  division-free Berkowitz iteration (:func:`char_poly_coeffs`) and counts
  positive eigenvalues by Descartes' rule of signs
  (:func:`descartes_positive_roots`), exact because a symmetric matrix is
  real-rooted; zero eigenvalues are the trailing zero coefficients.  The
  library reads the counts off one symmetric elimination instead (Sylvester's
  law of inertia).  :func:`congruence_diagonalize` is a rational congruence
  diagonalization that also returns its transformation, and
  :func:`random_sym` draws the seeded symmetric matrices both are run on.
* :func:`rank_solve_vertices` enumerates a polytope's vertices by taking
  the rank of each d-subset of facet normals and then solving for the
  vertex, and :func:`subset_elimination_build` builds a polytope by one
  elimination of [A | t] per d-subset, body by body; the library eliminates
  each d-subset once per normal set and reads every body's vertices off
  the resulting charts.
* :func:`in_deformation_cone` tests that a support vector lies in the
  chamber of a polytope by building the polytope it cuts; the tests
  sample chambers with it.
* :func:`facet_recursion_volume_polynomial` builds a polytope's volume
  polynomial by recursion over facets in intrinsic hyperplane coordinates;
  the library rebuilds it with ``hereditary.from_weights`` from the
  weights 1 / |det(normals of F)| at its vertices F.
* :func:`euler_from_weights` rebuilds a hereditary polynomial from its
  facet weights by the Euler recursion on face polynomials, substituting
  each child's projection into its parent face (``HomPoly.substitute``);
  ``hereditary.from_weights`` fills each coefficient from one linear
  relation of the lineality and substitutes nothing.
* :func:`fraction_triangulation_volume` takes a polytope's volume by the
  same pulling triangulation on rational vertices, with base vertices
  chosen by ``label_key`` and each simplex's determinant by
  :func:`fraction_det`; the library triangulates the vertices scaled to
  integers once and forms one rational at the end.
* :func:`chain_mixed_volume` takes the mixed volume by a chain of
  ``HomPoly.dir_derivative`` calls on the volume polynomial; the library
  evaluates the polynomial at the distinct partial sums of the bodies.
* :func:`derived_supports` assembles the derived support of every
  2d-fold generator multiset T of the cone test by expanding each
  composition into the multiset it names, slot by slot, and differentiating
  along it by ``dir_derivative`` chains; the library decides each T by the
  support J_S of the pull-back on S = set(T), which the derived support
  splits.
* :func:`all_orderings_ample_member` is the ample-cone recursion over every
  ordering of every face's vertices, with its own projections; the library
  visits each face once, by one canonical descent.
* :func:`fraction_face_points` projects a point along the face walk's
  descent on rationals, each pin solved by
  :func:`solve_member_with_values`; :func:`fraction_walk_member` decides
  membership and :func:`fraction_cone_system` builds the coupled system on
  those points.  The library's walk carries integer vectors over one
  positive denominator, projects them by the integer pinning row of
  ``LinSubspace.pin`` and tests signs on integers.
* :func:`solve_member_with_values` and :func:`nullspace_vanishing_restrict`
  pin a lineality vector by solving for basis coefficients and restrict a
  lineality to the elements vanishing on a set by a nullspace, both by
  :func:`fraction_rref`; the library takes both from one elimination step
  on the canonical basis (``LinSubspace.pin``).
* :func:`partials_lineality_space` builds every partial derivative
  ``HomPoly.partial`` of f and stacks their coefficients by monomial into
  the system D_v f = 0, solved by :func:`fraction_rref`; the library reads
  the rows (beta_i + 1) c_{beta+e_i} straight off the coefficients of f.
* :class:`FracPoly` holds a polynomial as a plain dict of ``Fraction``
  coefficients by dense exponents, with its own ring operations,
  derivatives, substitution, evaluation, lineality and text and JSON
  forms; the library keeps one integer table over a common denominator.
* :func:`euler_defect` is d f - sum_i t_i (d/dt_i) f, zero by Euler's
  identity, and :func:`rename_vars` relabels a polynomial through the
  validating ``HomPoly`` constructor.
* :func:`projection_pi` is the matrix of the projection pi_S, with every
  pin solved against the full lineality space.
* :func:`lp_overlapping_facet_pairs` decides every pair of maximal cones
  of two fans by the exact LP of a common point with positive ray
  coefficients; the library decides full-dimensional pairs by their
  integer facet normals first and falls back to one orthant test on
  ker [R_A | -R_B].
* :func:`skeleton_require_hereditary` checks projection onto every facet
  of the skeleton and searches the minimal failing face, each projection
  a :func:`fraction_rref` rank (:func:`fraction_projects_onto`); the
  library eliminates integer rows, checks the facets of the complex first
  and reaches the skeleton only when one of them fails.
* :func:`brute_force_is_m_convex` runs the exchange axiom on every ordered
  pair; the library tests each pair against exchange masks built once per
  point.
* :func:`partial_h1_scan` derives every (d-2)-fold coordinate derivative
  from f by chains of ``HomPoly.partial`` and takes its Hessian; the
  library reads the Hessians off f's coefficients.
* :func:`chain_is_k_lorentzian` is the cone test with every derivative
  along a generator multiset formed by chains of
  ``HomPoly.dir_derivative``, and each derived support assembled slot by
  slot and tested afresh; the library reads the top derivatives and the
  derived supports off the signs of one pull-back of f along the
  generators, and tests each generator set's support once.
* :func:`chain_log_concave_seq` forms each a_k by a chain of
  ``HomPoly.dir_derivative`` calls; ``log_concave_seq`` reads every a_k
  off one pull-back of f to the plane of u and v.

Alternative routes to the library's own verdicts, kept to cross-check it:

* :func:`is_lorentzian_v2` replaces M-convexity of the support by
  H-connectedness of its truncation.
* :func:`m_truncate`, :func:`m_partial`, :func:`m_is_connected` and
  :func:`m_is_H_connected` decide M-convexity the second way: a connected
  truncation plus M-convexity of every codimension-2 derived set.
* :func:`cone_transport_check` and :func:`transport_eps_search` move a
  cone point across a stellar subdivision, shifted along the new apex.
* :func:`is_k_lorentzian_alt` runs the degree-2 cone test on every
  quadratic derived along generators and an interior direction.
* :func:`interior_certificate` checks strict positivity and the
  nonsingular Lorentz signature at given directions, on instances that
  :func:`perturb_interior` deforms into the interior.
* :func:`product_check` runs the cone test on a product.
* :func:`subset_polarized_verdict` certifies the polarization of f face by
  face over the subsets of its variables, and checks the all-ones cone
  witness at every face; ``polarized_hereditary_verdict`` decides each
  condition once per count vector, and proves the witness.

Routes that no command or demo reaches, kept for the tests that call them:

* :func:`lorentz_signature` checks one positive eigenvalue and a kernel
  equal to a given subspace, for :func:`interior_certificate`.
* :func:`product` multiplies strongly hereditary polynomials on disjoint
  variable sets, and :func:`restrict_fS` wraps a face restriction as a
  hereditary polynomial; both build fixtures.
* :func:`space_dimension` is the dimension of the degree-k polynomials
  supported on a complex and invariant along a lineality space.
* :func:`lineality_extend` lifts a lineality space across a stellar
  subdivision, l_vertex = sum c_i l_i.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product as iproduct
from math import factorial, lcm
from typing import Iterable, Sequence

from lorentzlab import hereditary as hered
from lorentzlab import linalg, polytope
from lorentzlab.cones import lp_max, orthant_shift
from lorentzlab.inertia import Inertia, SymMatrix, derivative_hessian, hessian, inertia
from lorentzlab.lorentzian import (
    LorentzVerdict,
    MSet,
    _bounded_multiindices,
    _DerivativeCache,
    _h1_scan,
    _require_nonneg,
    is_k_lorentzian,
    is_m_convex,
    polarization_vars,
    support_mset,
)
from lorentzlab.matroid import FlatLattice, pol_matroid, submodular_witness
from lorentzlab.polycore import Direction, HomPoly, LinSubspace, direction_coords
from lorentzlab.rat import Q, ONE, ZERO, Rational, rat_str
from lorentzlab.simplicial import SimComplex, connected, face_key, face_str, fresh_vertex, label_key
from lorentzlab.subdivision import subdivide


def layered_pin(L, chain, G, flats) -> dict:
    """The modular vector that is 1 at G and 0 on the chain, constant per
    element on each layer, at each of the given flats.  Only the layers
    next to G, G - below and above - G for the nearest chain flats, carry
    a nonzero per-element value."""
    below = max((F for F in chain if F < G), key=len, default=L.bottom)
    above = min((F for F in chain if G < F), key=len, default=L.top)
    lo, hi = G - below, above - G
    return {H: Q(len(H & lo), len(lo)) - Q(len(H & hi), len(hi)) for H in flats}


def oracle_chains(L) -> dict:
    """Every chain of proper flats as a rank-sorted tuple, mapped to its
    link (the proper flats comparable to every member, in ``L.proper``
    order), by depth-first search over frozenset containment: the children
    of a chain are its extensions by each proper flat above its top flat,
    in ``L.proper`` order, and a child's link is the parent's link less the
    flats not comparable to the new one."""
    out = {}

    def extend(chain, link):
        out[chain] = link
        low = chain[-1] if chain else L.bottom
        for G in L.proper:
            if low < G:
                extend(chain + (G,), [H for H in link if H < G or G < H])

    extend((), list(L.proper))
    return out


def oracle_link(L, chain) -> list:
    """The proper flats comparable to every flat of the chain and not in it."""
    return [G for G in L.proper if all(G < F or F < G for F in chain)]


def quadratic_oracle(L, chain) -> HomPoly:
    """The codimension-2 face restriction of the volume polynomial at a
    chain (a tuple of flats) of length d - 2, built from the top layers:
    the sum over the extensions G of x_G times the linear form of the
    extended chain, with the pinned vector at G substituted in, halved."""
    assert len(chain) == L.rank_total - 3
    V_S = tuple(oracle_link(L, chain))
    acc = HomPoly.zero(V_S, 2)
    for G in V_S:
        verts = tuple(oracle_link(L, chain + (G,)))
        lin_child = HomPoly(verts, 1, {((k, 1),): ONE for k in range(len(verts))})
        ell = layered_pin(L, chain, G, verts)
        forms = {H: {H: ONE, G: -ell[H]} for H in verts}
        acc = acc + HomPoly.variable(V_S, G) * lin_child.substitute(V_S, forms)
    return acc.scale(Q(1, 2))


def oracle_gaps(L, chain) -> list:
    """(lo, hi, flats strictly between) for the consecutive flats of bottom,
    the chain (a rank-sorted tuple) and top."""
    ends = (L.bottom, *chain, L.top)
    return [(lo, hi, [F for F in L.proper if lo < F < hi]) for lo, hi in zip(ends, ends[1:])]


def oracle_single_gap(L, face):
    """The one gap (lo, hi) with rank(hi) - rank(lo) = 3 of a codimension-2
    face (a set of d - 2 proper flats), or None when the face has two gaps
    with rank difference 2 instead."""
    ix = flat_index(L)
    ends = (L.bottom, *sorted(face, key=ix.get), L.top)
    keys = [(lo, hi) for lo, hi in zip(ends, ends[1:]) if L.ranks[ix[hi]] - L.ranks[ix[lo]] == 3]
    return keys[0] if keys else None


def oracle_chain_points(L, v, chains) -> dict:
    """The point v (a map on the proper flats) projected to every chain of
    length < d of ``chains`` (as from :func:`oracle_chains`), on exact
    rationals: each chain from its parent, the chain less its top flat G,
    by subtracting v(G) times the pinned vector of :func:`layered_pin`."""
    d = L.rank_total - 1
    pts = {(): {F: Q(v.get(F, 0)) for F in L.proper}}
    for chain, link in chains.items():
        if not chain or len(chain) >= d:
            continue
        parent, G = chain[:-1], chain[-1]
        px = pts[parent]
        ell = layered_pin(L, parent, G, link)
        pts[chain] = {H: px[H] - px[G] * ell[H] for H in link}
    return pts


def interval_normalized(eng, x, lo, hi) -> dict:
    """Y(g) = E * (x(g) - x(lo)) + (x(lo) - x(hi)) * (E / |hi - lo|) * |g - lo|
    at the flats g strictly between the flat indices lo and hi, for x a
    point on integers at every flat index (``LatticeVolume._scaled``):
    E = lcm(1..n) times the point normalized to the interval, the Y of
    ``LatticeVolume.eval_bivariate`` and of the lemma of
    ``LatticeVolume.hl_check``."""
    L, E = eng.L, eng.lcm_n
    n_lo = L.masks[lo].bit_count()
    step = (x[lo] - x[hi]) * (E // (L.masks[hi].bit_count() - n_lo))
    mids = L.up[lo] & L.down[hi]
    return {g: E * (x[g] - x[lo]) + step * (L.masks[g].bit_count() - n_lo)
            for g in range(len(L.flats)) if mids >> g & 1}


def fraction_eval_bivariate(L, va, vb) -> list:
    """Coefficients [c_0, ..., c_d] of pol(s va + t vb), c_j the coefficient
    of s^(d-j) t^j, by the rational chain recursion over the chains and
    links of :func:`oracle_chains`, at the points of
    :func:`oracle_chain_points`."""
    d = L.rank_total - 1
    if d < 0:
        raise ValueError("rank must be at least 1")
    if d == 0:
        return [ONE]
    chains = oracle_chains(L)
    pa, pb = oracle_chain_points(L, va, chains), oracle_chain_points(L, vb, chains)
    # values bottom-up by chain length
    memo, ix = {}, flat_index(L)
    for chain in sorted(chains, key=len, reverse=True):
        k = d - len(chain)
        if k == 0:
            memo[chain] = [ONE]  # facet weight 1
            continue
        acc = [ZERO] * (k + 1)
        for G in chains[chain]:
            child = memo[tuple(sorted(chain + (G,), key=ix.get))]
            a, b = pa[chain][G], pb[chain][G]
            for j, cv in enumerate(child):
                acc[j] += a * cv
                acc[j + 1] += b * cv
        memo[chain] = [c / k for c in acc]
    return memo[()]


def chain_hl_check(L) -> hered.HLVerdict:
    """The hereditary-Lorentzian certification of a lattice of flats walked
    chain by chain, on frozensets and exact rationals.  The canonical
    strictly submodular point is projected to every chain of length < d
    (:func:`oracle_chain_points`); at chains of length d - 1 it must sum
    positive over the link, and at shorter ones every gap must be positive
    or made so by a sum-zero layer shift (:func:`lp_gap_feasible`); a failure
    falls back to ``is_hereditary_lorentzian`` on the explicit polynomial.
    Then the link of every chain of length <= d - 2 must have a connected
    comparability graph, and every chain of length d - 2 gets the inertia of
    the Hessian of :func:`quadratic_oracle`.  ``LatticeVolume.hl_check``
    decides the same conditions once per interval."""
    d = L.rank_total - 1
    if d == 0:
        return hered.HLVerdict(value="yes", note="constant volume polynomial")
    w = submodular_witness(L)
    vmap = dict(zip(w.vars, w.coords))
    chains, ix = oracle_chains(L), flat_index(L)
    for chain, x in oracle_chain_points(L, vmap, chains).items():
        if len(chain) == d - 1:
            ok = sum(x.values()) > 0
        else:
            ok = all(all(x[F] > 0 for F in mids)
                     or lp_gap_feasible(L, ix[lo], ix[hi], sum(1 << ix[F] for F in mids),
                                        {ix[F]: x[F] for F in mids})
                     for lo, hi, mids in oracle_gaps(L, chain) if mids)
        if not ok:
            return hered.is_hereditary_lorentzian(pol_matroid(L))
    for chain, link in chains.items():
        if len(chain) > d - 2 or not link:
            continue
        seen, todo = {link[0]}, [link[0]]
        while todo:
            F = todo.pop()
            for G in link:
                if G not in seen and (F < G or G < F):
                    seen.add(G)
                    todo.append(G)
        if len(seen) < len(link):
            return hered.HLVerdict(value="no", h_connected=False, c_witness=frozenset(chain), cone_witness=vmap)
    certs = [(frozenset(chain), inertia(hessian(quadratic_oracle(L, chain))))
             for chain in chains if len(chain) == d - 2]
    q_wit = next((S for S, inr in certs if inr.pos > 1), None)
    if q_wit is not None:
        return hered.HLVerdict(value="no", h_connected=True, q_certificates=certs, q_witness=q_wit,
                               cone_witness=vmap, note="codimension-2 Hessian fails")
    return hered.HLVerdict(value="yes", h_connected=True, q_certificates=certs, cone_witness=vmap)


def oracle_mobius(L, a, b, memo=None) -> int:
    """The Moebius function by the lower-interval recursion on frozensets:
    mu(a, a) = 1 and mu(a, b) = -sum of mu(a, c) over the flats a <= c < b."""
    if a == b:
        return 1
    if not a < b:
        return 0
    memo = {} if memo is None else memo
    if (a, b) not in memo:
        memo[a, b] = -sum(oracle_mobius(L, a, c, memo) for c in L.flats if a <= c < b)
    return memo[a, b]


def is_semimodular_spot(L) -> bool:
    """a, b covering their meet forces the join to cover both."""
    flats = set(L.flats)
    rank = dict(zip(L.flats, L.ranks))
    for a in L.flats:
        for b in L.flats:
            meet = a & b
            if meet not in flats:
                return False
            if meet in (a, b):
                continue
            if rank[a] == rank[meet] + 1 and rank[b] == rank[meet] + 1:
                join = min((F for F in L.flats if a <= F and b <= F), key=rank.get)
                if not (rank[join] == rank[a] + 1 and rank[join] == rank[b] + 1):
                    return False
    return True


def matroid_rank(M, S) -> int:
    """rank(S): the largest |S & B| over the bases B, on frozensets."""
    return max(len(frozenset(S) & B) for B in M.bases)


def spot_check_rank_axioms(M, rng) -> None:
    """Sampled unit-increase and submodularity checks on a matroid's rank
    (:func:`matroid_rank`)."""
    ground = list(M.ground)
    for _ in range(50):
        S = frozenset(e for e in ground if rng.random() < 0.5)
        T = frozenset(e for e in ground if rng.random() < 0.5)
        rS, rT = matroid_rank(M, S), matroid_rank(M, T)
        if not (matroid_rank(M, S | T) + matroid_rank(M, S & T) <= rS + rT):
            raise AssertionError("rank submodularity fails")
        e = rng.choice(ground)
        re = matroid_rank(M, S | {e})
        if not (rS <= re <= rS + 1):
            raise AssertionError("rank unit increase fails")


def oracle_flats(ground, bases) -> set:
    """Every closed set, by closing every subset of the ground set."""
    bases = [frozenset(b) for b in bases]

    def rank(S):
        return max(len(S & b) for b in bases)

    def closure(S):
        r = rank(S)
        return frozenset(e for e in ground if rank(S | {e}) == r)

    return {closure(frozenset(S)) for k in range(len(ground) + 1) for S in combinations(ground, k)}


def basis_pass_closure(ground, bases, S) -> frozenset:
    """cl(S) by one pass over the bases: the elements outside S that some
    basis meeting S in rank(S) elements contains are exactly those raising
    the rank; every other element of the ground set is in the closure."""
    S = frozenset(S)
    r = max(len(S & B) for B in bases)
    grow = frozenset().union(*(B for B in bases if len(S & B) == r))
    return frozenset(ground) - (grow - S)


def closure_cover_flats(M) -> dict:
    """Flat -> rank, from ``M.ground`` and ``M.bases`` alone.  The flats:
    from the closure of the empty set, the closure of F + e for every flat
    F found so far and every e outside F, skipping the rest of G - F once
    F + e has closed to G (:func:`basis_pass_closure`).  The ranks: by
    longest chains (:func:`longest_chain_ranks`)."""
    ground, bases = frozenset(M.ground), [frozenset(B) for B in M.bases]
    bottom = basis_pass_closure(ground, bases, ())
    found, todo = {bottom}, [bottom]
    while todo:
        F = todo.pop()
        covered = F
        for e in ground - F:
            if e not in covered:
                G = basis_pass_closure(ground, bases, F | {e})
                covered |= G
                if G not in found:
                    found.add(G)
                    todo.append(G)
    return longest_chain_ranks(found)


def longest_chain_ranks(family) -> dict:
    """Set -> the length of the longest chain below it in ``family``: a set
    has rank > k exactly when some set of rank >= k lies strictly below
    it."""
    level, rank, k = set(family), {}, 0
    while level:
        rank.update(dict.fromkeys(level, k))
        level = {F for F in level if any(G < F for G in level)}
        k += 1
    return rank


def containment_bitsets(sets: Sequence[frozenset]) -> tuple[list, list, list]:
    """(covers_up, up, down) of a list of sets under strict containment, as
    bitsets over positions in the list: j is in up[i] exactly when
    sets[i] < sets[j], i is in down[j] exactly then, and j is in
    covers_up[i] when, besides, no set lies strictly between them."""
    n = len(sets)
    up = [sum(1 << j for j in range(n) if sets[i] < sets[j]) for i in range(n)]
    down = [sum(1 << j for j in range(n) if sets[j] < sets[i]) for i in range(n)]
    covers_up = [sum(1 << j for j in range(n) if up[i] >> j & 1 and not up[i] & down[j]) for i in range(n)]
    return covers_up, up, down


def lattice_of_family(family) -> FlatLattice:
    """The ``FlatLattice`` of a family of sets, ranked by longest chains
    (:func:`longest_chain_ranks`) with the minimal strict supersets of each
    set as its covers (:func:`containment_bitsets`), both on frozensets.

    The family must be a lattice of flats.  Three checks run, in this
    order, each failure a ValueError: every cover is one rank up; every
    pair of sets meets in a set of the family (the first failing pair in
    flats order is named); and at each set the cover differences partition
    its complement in the top.  The first and last do not imply the
    second: on four elements, atoms {0, 1} and {2, 3} under every 3-subset
    pass them and lack {0}.  ``flats`` runs none of the three, as its lemma
    shows them unneeded; it certifies each flat closed on its route."""
    family = sorted({frozenset(F) for F in family}, key=face_key)
    elems = tuple(sorted(set().union(*family), key=label_key))
    mask = [sum(1 << elems.index(e) for e in F) for F in family]
    rank = longest_chain_ranks(family)
    layers = [[m for F, m in zip(family, mask) if rank[F] == k] for k in range(max(rank.values()) + 1)]
    covers_up, _, _ = containment_bitsets(family)
    covers = {m: [mask[j] for j in range(len(family)) if c >> j & 1] for m, c in zip(mask, covers_up)}
    L = FlatLattice(elems, layers, covers)
    for c, k in zip(L.covers_up, L.ranks):
        if c & ~L.layers[k + 1]:
            raise ValueError("lattice is not graded by containment covers")
    present = set(L.masks)
    for i, m in enumerate(L.masks):
        for j in range(i + 1, len(L.masks)):
            if m & L.masks[j] not in present:
                raise ValueError(f"intersection {face_str(L.flats[i] & L.flats[j])} is not a flat")
    top = L.masks[-1]
    for F, m in zip(L.flats, L.masks):
        seen = 0
        for G in covers[m]:
            seen |= G
        if seen & ~m != top & ~m:
            raise ValueError(f"cover differences above {face_str(F)} do not partition the complement")
    return L


def flat_index(L) -> dict:
    """Flat -> its index in ``L.flats``, where ``L.ranks`` holds its rank;
    the library reads flats by index and decodes them only for output."""
    return {F: i for i, F in enumerate(L.flats)}


def interval(L, a, b) -> FlatLattice:
    """The interval [a, b] of a lattice of flats, as the lattice of flats
    of a minor (:func:`lattice_of_family`)."""
    return lattice_of_family([F for F in L.flats if a <= F <= b])


def alpha_beta(L) -> tuple[Direction, Direction]:
    """The canonical direction pair on the proper flats: the rank density
    |F - bottom| / n and the corank density |top - F| / n."""
    proper = L.proper
    n = len(L.top - L.bottom)
    alpha = Direction(proper, tuple(Q(len(F - L.bottom), n) for F in proper))
    beta = Direction(proper, tuple(Q(len(L.top - F), n) for F in proper))
    return alpha, beta


def exchange_message(ground, bases) -> str | None:
    """For every pair of bases A, B of the family in face-key order and
    every a in A - B (in ground order), some x outside A with A - a + x a
    basis must lie in B; the message for the first pair and element that
    fails, or None."""
    elems = tuple(dict.fromkeys(ground))
    bases = sorted(set(map(frozenset, bases)), key=face_key)
    masks = [sum(1 << i for i, e in enumerate(elems) if e in b) for b in bases]
    present, full = set(masks), (1 << len(elems)) - 1

    def bits(mask):
        return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]

    swaps = [{a: sum(x for x in bits(full & ~A) if (A ^ a) | x in present) for a in bits(A)}
             for A in masks]
    for A, sw, bA in zip(masks, swaps, bases):
        for B, bB in zip(masks, bases):
            for a in bits(A & ~B):
                if not sw[a] & B:
                    e = elems[a.bit_length() - 1]
                    return (f"bases {sorted(bA, key=label_key)} and {sorted(bB, key=label_key)} violate basis "
                            f"exchange at {e!r}: the family is not a matroid")
    return None


def oracle_is_basis_family(bases) -> bool:
    """Basis exchange on sets: for A, B and a in A - B, some b in B - A
    makes (A - a) + b a member."""
    family = {frozenset(b) for b in bases}
    return all(
        any((A - {a}) | {b} in family for b in B - A)
        for A in family for B in family for a in A - B
    )


def oracle_max_forests(n_vertices, edges) -> tuple:
    """(rank, bases) of the cycle matroid: the acyclic edge subsets, each
    grown from a smaller one by an edge of higher index that merges two
    vertex classes (a set holding a cycle has no acyclic superset, so none
    is missed), and the bases are the largest of them.  A loop is a cycle
    of one edge."""
    forests = []

    def grow(S, cls, start):
        forests.append(frozenset(S))
        for i in range(start, len(edges)):
            u, v = edges[i]
            if v in cls[u]:
                continue
            merged = cls[u] | cls[v]
            grown = dict(cls)
            for w in merged:
                grown[w] = merged
            grow(S + (i,), grown, i + 1)

    grow((), {v: frozenset({v}) for v in range(n_vertices)}, 0)
    rank = max(map(len, forests))
    return rank, {F for F in forests if len(F) == rank}


def oracle_chromatic(n_vertices, edges) -> list:
    """The chromatic polynomial of a graph, coefficients by power of t, by
    deletion and contraction: chi(G) = chi(G - e) - chi(G / e), t^n with no
    edge, 0 with a loop.  A contraction keeps the parallel edges it makes,
    and memoizes on the vertex count and the edge multiset."""
    memo = {}

    def chi(n, es):
        if any(u == v for u, v in es):
            return [0] * (n_vertices + 1)
        if not es:
            return [0] * n + [1] + [0] * (n_vertices - n)
        key = (n, es)
        if key not in memo:
            (u, v), rest = es[0], es[1:]
            # edges are kept as (u, v) with u < v: contract v into u, then
            # close the gap that v leaves
            relabel = {w: (u if w == v else w) - (w > v) for w in range(n)}
            merged = tuple(sorted(tuple(sorted((relabel[a], relabel[b]))) for a, b in rest))
            memo[key] = [a - b for a, b in zip(chi(n, rest), chi(n - 1, merged))]
        return memo[key]

    return chi(n_vertices, tuple(sorted(tuple(sorted(e)) for e in edges)))


def oracle_components(n_vertices, edges) -> int:
    """The number of connected components, isolated vertices included, by
    merging vertex classes."""
    cls = {v: frozenset({v}) for v in range(n_vertices)}
    for u, v in edges:
        merged = cls[u] | cls[v]
        for w in merged:
            cls[w] = merged
    return len(set(cls.values()))


def decoded_mobius_row(L, i) -> list:
    """mu(flats[i], flats[j]) for every index j by the lower-interval
    recursion, each sum over the decoded positions of the flats of [i, c)
    below c."""
    def positions(mask):
        return [k for k in range(mask.bit_length()) if mask >> k & 1]

    row = [0] * len(L.flats)
    row[i] = 1
    closed = L.up[i] | 1 << i
    for c in positions(L.up[i]):
        row[c] = -sum(row[j] for j in positions(L.down[c] & closed))
    return row


def flats_missing(L, e) -> list:
    """(rank(F), mu(bottom, F)) for the flats F other than the top that
    miss the element e, in index order, on the decoded flats."""
    return [(k, m) for F, k, m in zip(L.flats[:-1], L.ranks, L.mobius_row(0)) if e not in F]


def decoded_flat_order(elems, layers) -> tuple:
    """The masks of ``layers`` (the flats of rank k, as masks over
    ``elems``, in layer k) by rank and then by face key: each mask decoded
    into the sorted ``label_key`` strings of its members, and sorted by
    (rank, those strings)."""
    keys = [label_key(e) for e in elems]
    decoded = {}
    for k, layer in enumerate(layers):
        for m in layer:
            decoded[m] = (k, tuple(sorted(keys[i] for i in range(len(elems)) if m >> i & 1)))
    return tuple(sorted(decoded, key=decoded.get))


GT, GE, EQ = ">", ">=", "="


@dataclass(frozen=True)
class Constraint:
    """coeffs . x + const REL 0 with REL in {">", ">=", "="}."""

    coeffs: tuple  # (label, rational) pairs, zero coefficients dropped
    const: object
    rel: str

    def satisfied_by(self, point) -> bool:
        val = self.const + sum((c * Q(point.get(v, 0)) for v, c in self.coeffs), ZERO)
        return val > 0 if self.rel == GT else val >= 0 if self.rel == GE else val == 0


@dataclass
class StrictSystem:
    """A conjunction of strict, weak and equality constraints on the
    unknowns ``vars``."""

    vars: tuple = ()
    constraints: list = field(default_factory=list)

    def add(self, coeffs, rel: str, const=0):
        assert rel in (GT, GE, EQ), rel
        items = tuple((v, Q(c)) for v, c in coeffs.items() if Q(c) != 0)
        self.constraints.append(Constraint(items, Q(const), rel))

    def verify(self, point) -> bool:
        return all(c.satisfied_by(point) for c in self.constraints)


def lp_strict_feasible(sys: StrictSystem) -> dict | None:
    """A witness of a mixed system, or None, by one homogeneous LP in its
    own unknowns: each unknown x split as p - m, each constant c multiplied
    by a new unknown s, each strict row lam.x + c s >= eps, each weak row
    lam.x + c s >= 0, each equality two weak rows, a row s >= eps, and eps
    maximized under eps <= 1.  Every right-hand side but the cap's is 0, so
    the LP starts at its slack basis.  The system is feasible iff the
    optimum is positive: a point x with margin eps0 > 0 gives the feasible
    (t x, s = t, eps = min(t eps0, t, 1)) for any t > 0, and a positive
    optimum has s >= eps > 0 and gives the witness (p - m) / s, which is
    checked against every constraint.  The LP runs on ``cones.lp_max``,
    whose pivots the suite checks against :func:`dense_lp_max` one by one;
    the dense tableau itself would make the fan comparisons six to eight
    times slower."""
    pos = {v: i for i, v in enumerate(sys.vars)}
    n = 2 * len(pos) + 2  # p_i, m_i per unknown, then s, eps last
    A = []
    for con in sys.constraints:
        row = [ZERO] * n
        for v, c in con.coeffs:
            row[2 * pos[v]], row[2 * pos[v] + 1] = -c, c
        row[-2] = -con.const
        if con.rel == GT:
            row[-1] = ONE
        A.append(row)
        if con.rel == EQ:
            A.append([-x for x in row])
    A.append([ZERO] * (n - 2) + [-ONE, ONE])  # eps <= s
    A.append([ZERO] * (n - 1) + [ONE])  # eps <= 1
    _, x, value = lp_max([ZERO] * (n - 1) + [ONE], A, [ZERO] * (len(A) - 1) + [ONE])
    if value <= 0:
        return None
    witness = {v: (x[2 * i] - x[2 * i + 1]) / x[-2] for v, i in pos.items()}
    assert sys.verify(witness), "the oracle LP produced an invalid witness"
    return witness


def rational_orthant_shift(y, L) -> tuple | None:
    """An exact l in L with y + l strictly positive, or None: the point y
    (over L.ambient) scaled to integers z over its least common denominator
    den, and ``cones.orthant_shift`` on (z, den) against the rows of L,
    whose shift s / q is l = s / (q den)."""
    (z,), den = linalg.integer_scaled([direction_coords(y, L.ambient)])
    got = orthant_shift(z, den, L.rows)
    if got is None:
        return None
    s, q = got
    return tuple(Rational(a, q * den) for a in s)


def orthant_system(y, L) -> StrictSystem:
    """y + sum_k a_k b_k > 0 in every coordinate, in the coefficients a_k
    of the rational basis b_k of the subspace L."""
    sys = StrictSystem(vars=tuple(range(L.dim)))
    basis = L.basis
    for j, yj in enumerate(direction_coords(y, L.ambient)):
        sys.add({k: b[j] for k, b in enumerate(basis)}, GT, yj)
    return sys


def homogeneous_system(A) -> StrictSystem:
    """Az > 0 in every row of A."""
    sys = StrictSystem(vars=tuple(range(len(A[0]))))
    for row in A:
        sys.add(dict(enumerate(row)), GT)
    return sys


def fourier_motzkin_feasible(sys: StrictSystem) -> bool:
    """Independent strict-feasibility oracle by variable elimination.

    Constraints are kept one per positive multiple, scaled so that their
    largest absolute entry is 1; of two that agree up to that scaling the
    strict one is kept.  Intended for systems with at most ~4 unknowns; the
    constraint count can grow quadratically per eliminated variable.
    """
    def keep(out: dict, d: dict, const, rel: str):
        d = {w: x for w, x in d.items() if x != 0}
        s = max(map(abs, [*d.values(), const]))
        if s:
            d = {w: x / s for w, x in d.items()}
            const /= s
        key = (frozenset(d.items()), const)
        if key not in out or rel == GT:
            out[key] = (d, const, rel)

    cons: dict = {}
    for c in sys.constraints:
        d = dict(c.coeffs)
        if c.rel == EQ:
            keep(cons, d, c.const, GE)
            keep(cons, {v: -x for v, x in d.items()}, -c.const, GE)
        else:
            keep(cons, d, c.const, c.rel)
    for v in sys.vars:
        pos, neg, new = [], [], {}
        for key, (d, const, rel) in cons.items():
            c = d.get(v, ZERO)
            if c > 0:
                pos.append((d, const, rel))
            elif c < 0:
                neg.append((d, const, rel))
            else:
                new[key] = (d, const, rel)
        for dp, cp, rp in pos:
            a = dp[v]
            for dn, cn, rn in neg:
                bb = -dn[v]
                d = {}
                for w in set(dp) | set(dn):
                    if w == v:
                        continue
                    d[w] = bb * dp.get(w, ZERO) + a * dn.get(w, ZERO)
                rel = GT if (rp == GT or rn == GT) else GE
                keep(new, d, bb * cp + a * cn, rel)
        cons = new
    for d, const, rel in cons.values():
        if any(x != 0 for x in d.values()):
            raise AssertionError("elimination left a variable behind")
        if rel == GT and not const > 0:
            return False
        if rel == GE and not const >= 0:
            return False
    return True


def fraction_rref(A):
    """Reduced row echelon form on rationals; returns (R, pivot columns)."""
    R = [list(map(Q, row)) for row in A]
    if not R:
        return [], []
    m, n = len(R), len(R[0])
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if R[i][c] != 0), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        inv = ONE / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(m):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [tuple(row) for row in R], pivots


def fraction_det(A):
    """Determinant by Bareiss elimination on rationals."""
    n = len(A)
    if n == 0:
        return ONE
    M = [list(map(Q, row)) for row in A]
    sign = ONE
    prev = ONE
    for k in range(n - 1):
        if M[k][k] == 0:
            p = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if p is None:
                return ZERO
            M[k], M[p] = M[p], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) / prev
            M[i][k] = ZERO
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def random_sym(rng, n) -> SymMatrix:
    """A symmetric n x n matrix with entries a / b, |a| <= 6, 1 <= b <= 3."""
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Q(rng.randint(-6, 6), rng.randint(1, 3))
    return SymMatrix(tuple(range(n)), rows)


def char_poly_coeffs(M) -> list[int]:
    """Coefficients [1, c1, ..., cn] of det(xI - c M), by Berkowitz
    iteration, for c > 0 the common denominator of M's entries (scaling by a
    positive constant moves no eigenvalue sign)."""
    den = 1
    for row in M.entries:
        for x in row:
            den = lcm(den, int(x.denominator))
    A = [[int(x * den) for x in row] for row in M.entries]
    n = len(A)
    poly = [1]
    for k in range(n):
        # extend from the k x k leading block to (k+1) x (k+1)
        a = A[k][k]
        R = A[k][:k]
        items = [1, -a]
        w = [A[i][k] for i in range(k)]  # column C, then A C, A^2 C, ...
        for _ in range(k):
            items.append(-sum(r * x for r, x in zip(R, w)))
            w = [sum(A[i][j] * w[j] for j in range(k)) for i in range(k)]
        new = []
        for i in range(k + 2):
            s = 0
            for j in range(len(poly)):
                if 0 <= i - j < len(items):
                    s += items[i - j] * poly[j]
            new.append(s)
        poly = new
    return poly


def descartes_positive_roots(coeffs) -> int:
    """Sign variations of the coefficient sequence; exact for real-rooted polys."""
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def berkowitz_inertia(M) -> Inertia:
    """(positive, negative, zero) eigenvalue counts from the characteristic
    polynomial: zero is the multiplicity of the root 0, and Descartes' rule
    counts the positive roots of the rest."""
    coeffs = char_poly_coeffs(M)
    zero = 0
    while coeffs and coeffs[-1] == 0:
        zero += 1
        coeffs.pop()
    pos = descartes_positive_roots(coeffs)
    return Inertia(pos=pos, neg=M.n - pos - zero, zero=zero)


def congruence_diagonalize(M):
    """Rational congruence diagonalization (with the 2x2 off-diagonal
    trick); returns (D, T) with T^t M T = D diagonal."""
    n = M.n
    A = [list(row) for row in M.entries]
    T = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]

    def add_col_row(i, j, c):
        for k in range(n):
            A[k][j] += c * A[k][i]
        for k in range(n):
            A[j][k] += c * A[i][k]
        for k in range(n):
            T[k][j] += c * T[k][i]

    for p in range(n):
        if A[p][p] == 0:
            q = next((q for q in range(p + 1, n) if A[p][q] != 0), None)
            if q is None:
                continue
            add_col_row(q, p, ONE)
        for q in range(p + 1, n):
            if A[p][q] != 0:
                add_col_row(p, q, -A[p][q] / A[p][p])
    return A, T


def dense_lp_max(c, A, b, pivots=None):
    """``cones.lp_max`` on a dense rational tableau: maximize c.x subject to
    Ax <= b, x >= 0, for b >= 0, by Bland's rule from the slack basis;
    returns (status, x, value), and appends each pivot's (row, column) to
    ``pivots`` when given one."""
    m, n = len(A), len(c)
    c = [Q(x) for x in c]
    b = [Q(x) for x in b]
    if any(x < 0 for x in b):
        raise ValueError("dense_lp_max needs b >= 0")
    rows = [[Q(x) for x in row] + [ONE if i == j else ZERO for j in range(m)] for i, row in enumerate(A)]
    basis = list(range(n, n + m))
    obj = c + [ZERO] * m
    while True:
        col = next((j for j in range(n + m) if obj[j] > 0 and j not in basis), None)
        if col is None:
            break
        best, r = None, None
        for i in range(m):
            if rows[i][col] > 0:
                ratio = b[i] / rows[i][col]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[r]):
                    best, r = ratio, i
        if r is None:
            return "unbounded", None, None
        if pivots is not None:
            pivots.append((r, col))
        inv = ONE / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        b[r] *= inv
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                b[i] -= f * b[r]
        f = obj[col]
        obj = [x - f * y for x, y in zip(obj, rows[r])]
        basis[r] = col
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = b[i]
    return "optimal", tuple(x), linalg.dot(c, x)


def rank_solve_vertices(normals, t, labels) -> dict:
    """vertex -> active facet labels, by rank(A) and then solve(A, t) for
    every d-subset A of the facet normals (no simplicity check)."""
    normals = [tuple(Q(x) for x in r) for r in normals]
    t = [Q(x) for x in t]
    n, d = len(normals), len(normals[0])
    verts = {}
    for combo in combinations(range(n), d):
        A = [normals[i] for i in combo]
        if linalg.rank(A) != d:
            continue
        x = linalg.solve(A, [t[i] for i in combo])
        vals = [linalg.dot(normals[i], x) for i in range(n)]
        if any(vals[i] > t[i] for i in range(n)):
            continue
        verts[x] = frozenset(labels[i] for i in range(n) if vals[i] == t[i])
    return verts


def in_deformation_cone(P: polytope.SimplePolytope, t: Sequence) -> bool:
    """Whether the support vector cuts a simple polytope with the same
    incidence complex (the chamber of P)."""
    try:
        Q2 = polytope.build(P.normals, t, P.labels)
    except polytope.PolytopeError:
        return False
    return Q2.delta == P.delta


def subset_elimination_build(normals, t, labels=None) -> polytope.SimplePolytope:
    """``polytope.build`` by one elimination of the integer [A | t] per
    d-subset A of the facet normals, for every body anew, with boundedness
    decided by :func:`lp_is_bounded`: the same checks in the same order,
    raising the same ``PolytopeError`` texts."""
    PolytopeError = polytope.PolytopeError
    normals = tuple(tuple(Q(x) for x in r) for r in normals)
    t = tuple(Q(x) for x in t)
    if not normals:
        raise PolytopeError("no facets")
    d, n = len(normals[0]), len(normals)
    labels = tuple(range(1, n + 1)) if labels is None else tuple(labels)
    if len(t) != n or len(labels) != n or any(len(r) != d for r in normals):
        raise PolytopeError("inconsistent facet data")
    if not lp_is_bounded(normals):
        raise PolytopeError("unbounded: the normals do not positively span the space")
    rows, _ = linalg.integer_scaled([r + (ti,) for r, ti in zip(normals, t)])
    verts = {}
    for combo in combinations(range(n), d):
        # [A | t] ends at [prev I | y] when A has rank d; the vertex is y / prev
        M, pivots, prev, _ = linalg.eliminate([rows[i] for i in combo])
        if pivots != list(range(d)):
            continue
        y = [row[d] for row in M]
        sgn = 1 if prev > 0 else -1
        slack = [sgn * (r[d] * prev - sum(a * b for a, b in zip(r, y))) for r in rows]
        if min(slack) < 0:
            continue
        x = tuple(Q(a, prev) for a in y)
        act = frozenset(labels[i] for i, s in enumerate(slack) if not s)
        if len(act) != d:
            raise PolytopeError(f"vertex ({', '.join(map(rat_str, x))}) lies on {len(act)} facets; "
                                "polytope is not simple")
        verts[x] = act
    if not verts:
        raise PolytopeError("no vertices; the data does not bound a polytope")
    covered = set().union(*verts.values())
    missing = [lab for lab in labels if lab not in covered]
    if missing:
        raise PolytopeError(f"facet(s) {missing} are empty (redundant constraints)")
    order = sorted(verts, key=label_key)
    return polytope.SimplePolytope(
        dim=d, labels=labels, normals=normals, t=t, vertices=tuple(order),
        active=tuple(verts[v] for v in order), delta=SimComplex(labels, set(verts.values())),
        lin=LinSubspace(labels, list(zip(*normals))),
    )


def facet_recursion_volume_polynomial(P) -> HomPoly:
    """The volume polynomial of a simple polytope by recursion over its
    facets.  Each facet is rewritten in rational coordinates of its
    hyperplane (a basis of the normal's orthogonal complement), its
    neighbours' support numbers become a linear substitution, and the change
    of measure contributes |det [basis; normal]| / <normal, normal>.
    Segments have length t_a / |a| + t_b / |b|, and
    d * pol = sum_i t_i * (d/dt_i) pol stitches the facets together."""
    return _facet_recursion(P.labels, dict(zip(P.labels, P.normals)), P.delta, P.dim)


def _facet_recursion(labels, normals, delta, k) -> HomPoly:
    labels = tuple(labels)
    if k == 1:
        if len(labels) != 2:
            raise polytope.PolytopeError(f"segment face with {len(labels)} facets")
        a, b = labels
        if not normals[a][0] * normals[b][0] < 0:
            raise polytope.PolytopeError("segment normals do not oppose")
        return HomPoly(labels, 1, {
            ((0, 1),): ONE / abs(normals[a][0]),
            ((1, 1),): ONE / abs(normals[b][0]),
        })
    acc = HomPoly.zero(labels, k)
    for i in labels:
        rho = normals[i]
        rr = linalg.dot(rho, rho)
        B = linalg.nullspace([rho], k)
        scale = abs(linalg.det(list(B) + [rho])) / rr
        child_labels = delta.link_vertices({i})
        child_normals = {j: linalg.mat_vec(B, normals[j]) for j in child_labels}
        child_delta = SimComplex(child_labels, delta.link({i}).facets)
        q = _facet_recursion(child_labels, child_normals, child_delta, k - 1)
        forms = {}
        for j in child_labels:
            g = linalg.dot(normals[j], rho) / rr
            form = {j: ONE}
            if g != 0:
                form[i] = -g
            forms[j] = form
        acc = acc + HomPoly.variable(labels, i) * q.substitute(labels, forms).scale(scale)
    return acc.scale(Q(1, k))


def fraction_triangulation_volume(P) -> Fraction:
    """Volume by a pulling triangulation of the face lattice on rational
    vertices: each face is coned from its least vertex in ``label_key``
    order over the triangulations of its facets that miss that vertex, and
    each simplex adds |det| of its rational edge vectors."""
    face_vertices: dict[frozenset, list] = {}
    for act, v in zip(P.active, P.vertices):
        for k in range(len(act) + 1):
            for S in combinations(act, k):
                face_vertices.setdefault(frozenset(S), []).append(v)

    def triangulate(S: frozenset) -> list[list[tuple]]:
        verts = face_vertices[S]
        if len(S) == P.dim:
            return [[verts[0]]]
        base = min(verts, key=label_key)
        simplices = []
        for j in P.delta.link_vertices(S):
            sub = S | {j}
            if base in face_vertices[sub]:
                continue
            for simplex in triangulate(sub):
                simplices.append([base] + simplex)
        return simplices

    total = ZERO
    for simplex in triangulate(frozenset()):
        edges = [[a - b for a, b in zip(p, simplex[0])] for p in simplex[1:]]
        total += abs(fraction_det(edges))
    return total / factorial(P.dim)


def chain_mixed_volume(bodies):
    """D_{t_1} ... D_{t_d} of the volume polynomial by d chained
    directional derivatives."""
    g = polytope.volume_polynomial(bodies[0]).f
    for K in bodies:
        g = g.dir_derivative(tuple(K.t))
    return g.terms.get((), ZERO)


def derived_supports(f, cone) -> dict:
    """T -> derived support, for every 2d-fold generator multiset T: alpha
    is in the support of T when the derivative of f along the multiset
    that repeats T[k] alpha_k times, for every slot k, is positive."""
    d = f.degree
    gens = list(cone.generators)
    cache = _DerivativeCache(f, gens)
    out = {}
    for T in combinations_with_replacement(range(len(gens)), 2 * d):
        pts = set()
        for alpha in _compositions(d, 2 * d):
            merged = tuple(sorted(_expand(T, alpha)))
            if cache.poly(merged).terms.get((), ZERO) > 0:
                pts.add(alpha)
        out[T] = frozenset(pts)
    return out


def euler_from_weights(delta, lin, w) -> hered.HereditaryPoly:
    """The hereditary polynomial with facet derivatives w, by the Euler
    recursion on face polynomials: (d - |S|) g^S = sum_i t_i g^{S+{i}}(pi(t))
    bottom-up, with g at the empty face returned.  The projection pi along i
    is x - x_i l, with l the lineality at S (a face of the walk with no
    polynomial) pinned at i, substituted into each child by
    ``HomPoly.substitute``.  The checks before and after the recursion are
    the library's, so both routes refuse the same inputs with the same
    errors."""
    if delta.is_void():
        raise ValueError("cannot reconstruct over a void complex")
    d = delta.dim + 1
    if not delta.is_pure(d):
        raise ValueError("complex must be pure")
    w = {frozenset(F): Q(c) for F, c in w.items() if Q(c) != 0}
    if set(w) != set(delta.facets):
        missing = set(delta.facets) - set(w)
        extra = set(w) - set(delta.facets)
        raise ValueError(f"weights must be nonzero exactly on facets (missing {missing}, extra {extra})")
    hered.require_hereditary(delta, lin)
    walk = hered.FaceWalk(delta, lin)
    hered.check_balancing(walk, w)

    memo: dict = {}

    def g(S: frozenset) -> HomPoly:
        if S in memo:
            return memo[S]
        if len(S) == d:
            out = HomPoly.constant((), w[S])
        else:
            V_S = delta.link_vertices(S)
            k = d - len(S)
            acc = HomPoly.zero(V_S, k)
            for i in V_S:
                child = g(S | {i})
                if len(S) + 1 == d:
                    term = HomPoly.variable(V_S, i).scale(child.constant_term())
                else:
                    fd = walk.face(S)
                    row, c, _ = fd.lin.pin(i, ())
                    if row is None:
                        raise hered.NotHereditaryError(S | {i})
                    ell = [Q(x, c) for x in row]
                    pos = {v: r for r, v in enumerate(fd.V_S)}
                    forms = {}
                    for j in delta.link_vertices(S | {i}):
                        form = {j: ONE}
                        e = ell[pos[j]]
                        if e != 0:
                            form[i] = form.get(i, ZERO) - e
                        forms[j] = form
                    term = HomPoly.variable(V_S, i) * child.substitute(V_S, forms)
                acc = acc + term
            out = acc.scale(Q(1, k))
        memo[S] = out
        return out

    f = g(frozenset())
    h = hered.check_hereditary(f)
    amb_idx = {v: k for k, v in enumerate(lin.ambient)}
    for b in lin.rows:
        if not h.lin.contains([b[amb_idx[v]] for v in f.vars]):
            raise AssertionError("reconstructed polynomial lost a lineality vector")
    for F in delta.facets:
        if f.squarefree_coeff(F) != w[F]:
            raise AssertionError(f"reconstruction failed facet check at {face_str(F)}")
    if h.delta != SimComplex(f.vars, delta.facets):
        raise AssertionError("reconstructed polynomial has the wrong face complex")
    return h


def subspace_sum(A: LinSubspace, B: LinSubspace) -> LinSubspace:
    """A + B, the span of both subspaces' rows."""
    if A.ambient != B.ambient:
        raise ValueError("subspaces of different ambient spaces")
    return LinSubspace(A.ambient, list(A.rows) + list(B.rows))


def solve_member_with_values(lin, values) -> tuple | None:
    """The element of lin with the prescribed coordinates, as the basic
    solution (free basis coefficients zero) of the system on the basis
    coefficients, or None when there is none."""
    k, basis = lin.dim, lin.basis
    aug = [[b[lin.ambient.index(v)] for b in basis] + [Q(c)] for v, c in values.items()]
    R, pivots = fraction_rref(aug)
    if k in pivots:
        return None
    a = [ZERO] * k
    for r, c in enumerate(pivots):
        a[c] = R[r][k]
    return tuple(sum((c * b[j] for c, b in zip(a, basis)), ZERO) for j in range(len(lin.ambient)))


def nullspace_vanishing_restrict(lin, zero_on, coords) -> LinSubspace:
    """{ l|coords : l in lin, l_j = 0 for j in zero_on }: the basis
    combinations in the nullspace of the zero_on coordinates, restricted to
    coords, with the nonzero rows of their reduced form as the basis."""
    basis = lin.basis
    A = [[b[lin.ambient.index(v)] for b in basis] for v in zero_on]
    kernel = _fraction_nullspace(A, lin.dim)
    pos = [lin.ambient.index(v) for v in coords]
    rows = [[sum((c * b[p] for c, b in zip(a, basis)), ZERO) for p in pos] for a in kernel]
    R, pivots = fraction_rref(rows)
    return LinSubspace(tuple(coords), R[:len(pivots)])


def _fraction_nullspace(A, k) -> list:
    """A basis of {a : A a = 0} in k unknowns, by :func:`fraction_rref`."""
    R, pivots = fraction_rref(A)
    kernel = []
    for f in (c for c in range(k) if c not in pivots):
        a = [ZERO] * k
        a[f] = ONE
        for r, c in enumerate(pivots):
            a[c] = -R[r][f]
        kernel.append(a)
    return kernel


def partials_lineality_space(f) -> LinSubspace:
    """L_f = {v : D_v f = 0}: the coefficient of each monomial in
    sum_i v_i D_i f is one equation, its entries taken from the partials."""
    n = len(f.vars)
    rows: dict = {}
    for i, v in enumerate(f.vars):
        for key, c in f.partial(v).terms.items():
            rows.setdefault(key, [ZERO] * n)[i] = c
    return LinSubspace(f.vars, _fraction_nullspace(list(rows.values()), n))


def euler_defect(f) -> HomPoly:
    """d*f - sum_i t_i * (d/dt_i) f; identically zero by Euler's identity."""
    out = f.scale(f.degree)
    for v in f.vars:
        out = out - HomPoly.variable(f.vars, v) * f.partial(v)
    return out


def rename_vars(f, mapping) -> HomPoly:
    return HomPoly(tuple(mapping.get(v, v) for v in f.vars), f.degree, f.terms)


class FracPoly:
    """A homogeneous polynomial as a plain dict {dense exponent tuple:
    Fraction}, with no scaling and no code shared with ``HomPoly``: the
    reference its integer coefficient table is checked against."""

    def __init__(self, vars, degree, terms):
        self.vars, self.degree = tuple(vars), degree
        self.terms = {tuple(e): Fraction(c) for e, c in terms.items() if c}

    @classmethod
    def of(cls, f: HomPoly) -> "FracPoly":
        dense = {}
        for key, c in f.terms.items():
            exps = [0] * len(f.vars)
            for i, e in key:
                exps[i] = e
            dense[tuple(exps)] = Fraction(int(c.numerator), int(c.denominator))
        return cls(f.vars, f.degree, dense)

    def same(self, f: HomPoly) -> bool:
        other = FracPoly.of(f)
        return (self.vars, self.degree, self.terms) == (other.vars, other.degree, other.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return FracPoly(self.vars, self.degree, out)

    def __sub__(self, other):
        return self + FracPoly(other.vars, other.degree, {e: -c for e, c in other.terms.items()})

    def __mul__(self, other):
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return FracPoly(self.vars, self.degree + other.degree, out)

    def pow(self, n):
        out = FracPoly(self.vars, 0, {(0,) * len(self.vars): 1})
        for _ in range(n):
            out = out * self
        return out

    def partial(self, v):
        i = self.vars.index(v)
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        return FracPoly(self.vars, max(self.degree - 1, 0), out)

    def evaluate(self, point):
        total = Fraction(0)
        for e, c in self.terms.items():
            for x, k in zip(point, e):
                c *= Fraction(x) ** k
            total += c
        return total

    def substitute(self, new_vars, forms):
        """Each old variable replaced by its linear form {new label: c}."""
        new_vars = tuple(new_vars)
        out = FracPoly(new_vars, self.degree, {})
        for e, c in self.terms.items():
            term = FracPoly(new_vars, 0, {(0,) * len(new_vars): c})
            for v, k in zip(self.vars, e):
                form = {tuple(int(w == u) for u in new_vars): Fraction(x)
                        for w, x in forms.get(v, {}).items()}
                term = term * FracPoly(new_vars, 1, form).pow(k)
            out = out + term
        return out

    def restrict_vars(self, keep):
        pos = [self.vars.index(v) for v in keep]
        return FracPoly(keep, self.degree, {tuple(e[i] for i in pos): c for e, c in self.terms.items()})

    def lineality_space(self) -> LinSubspace:
        """{v : sum_i v_i D_i f = 0}, one equation per monomial of the
        partials, solved by :func:`fraction_rref`."""
        n = len(self.vars)
        rows: dict = {}
        for i, v in enumerate(self.vars):
            for e, c in self.partial(v).terms.items():
                rows.setdefault(e, [Fraction(0)] * n)[i] = c
        return LinSubspace(self.vars, _fraction_nullspace(list(rows.values()), n))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, c in sorted((tuple((i, k) for i, k in enumerate(e) if k), c) for e, c in self.terms.items()):
            mono = " ".join(str(self.vars[i]) + (f"^{k}" if k > 1 else "") for i, k in key)
            body = f"{_frac_text(abs(c))}*{mono}" if mono else _frac_text(abs(c))
            parts.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def to_json_dict(self) -> dict:
        return {"vars": [str(v) for v in self.vars], "degree": self.degree,
                "terms": [{"exps": list(e), "coeff": _frac_text(c)} for e, c in sorted(self.terms.items())]}


def _frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def projection_pi(h, S) -> tuple[tuple, list]:
    """The matrix of pi_S as (link vertices V_S, rows over the full variable
    set); the pin at each i in S is the element of the lineality with l_i = 1
    and l_j = 0 on the rest of S."""
    S = frozenset(S)
    if S and not h.delta.has_face(S):
        raise ValueError(f"{set(S)} is not a face")
    if not (h.strong or not S or h.delta.skeleton().has_face(S)):
        raise ValueError(f"{set(S)} is a facet and the polynomial is not strongly hereditary")
    V_S = h.delta.link_vertices(S)
    n = len(h.vars)
    idx = {v: k for k, v in enumerate(h.vars)}
    ells = {}
    for i in sorted(S, key=repr):
        values = {j: ZERO for j in S if j != i}
        values[i] = ONE
        ells[i] = solve_member_with_values(h.lin, values)
        if ells[i] is None:
            raise hered.NotHereditaryError(S, f"no lineality element pinning {i!r} over {set(S)}")
    rows = []
    for j in V_S:
        row = [ZERO] * n
        row[idx[j]] = ONE
        for i, ell in ells.items():
            row[idx[i]] -= ell[idx[j]]
        rows.append(tuple(row))
    return V_S, rows


def all_orderings_ample_member(fan, v) -> bool:
    """Membership in the cone of strictly convex support elements, by the
    literal recursion over every ordering of every face's vertices: at
    every face of size < d the projected point must be shiftable into the
    open orthant by a lineality vector vanishing on the face.
    """
    delta = fan.cones
    if delta.is_void():
        raise ValueError("fan has no cones")
    d = delta.dim + 1
    lin = fan.lineality()
    skel = delta.skeleton()
    for T in sorted(skel.facets, key=lambda f: sorted(map(repr, f))):
        if T and not lin.projects_onto(tuple(sorted(T, key=repr))):
            raise hered.NotHereditaryError(T)
    coords = dict(zip(fan.ray_labels, direction_coords(v, fan.ray_labels)))
    amb_idx = {u: i for i, u in enumerate(fan.ray_labels)}

    def project(x: dict, S: frozenset, i) -> dict:
        values = {j: ZERO for j in S}
        values[i] = ONE
        ell = solve_member_with_values(lin, values)
        if ell is None:
            raise hered.NotHereditaryError(S | {i})
        xi = x[i]
        return {u: xu - xi * ell[amb_idx[u]] for u, xu in x.items()}

    def face_ok(S: frozenset, x: dict) -> bool:
        V_S = delta.link_vertices(S)
        LS = nullspace_vanishing_restrict(lin, tuple(S), V_S)
        sys = StrictSystem(vars=tuple(("a", k) for k in range(LS.dim)))
        basis = LS.basis
        for r, u in enumerate(V_S):
            row = {("a", k): basis[k][r] for k in range(LS.dim)}
            sys.add(row, GT, x[u])
        return lp_strict_feasible(sys) is not None

    def descend(S: frozenset, x: dict) -> bool:
        if not face_ok(S, x):
            return False
        if len(S) == d - 1:
            return True
        return all(
            descend(S | {i}, project(x, S, i))
            for i in delta.link_vertices(S)
        )

    return descend(frozenset(), coords)


def fraction_face_points(walk, x) -> dict:
    """{S: x projected to V_S} for every face S of ``walk.order``, on
    rationals: descending by i moves the parent's point x to x - x_i l on
    V_S, with l the element of the parent's lineality with l_i = 1 solved
    by :func:`solve_member_with_values`."""
    points = {}
    for S in walk.order:
        if not S:
            y = tuple(Q(a) for a in x)
        else:
            fd = walk.face(S)
            i = fd.vertex
            parent = walk.face(S - {i})
            ell = solve_member_with_values(parent.lin, {i: ONE})
            pidx = {v: k for k, v in enumerate(parent.V_S)}
            px = points[S - {i}]
            y = tuple(px[pidx[j]] - px[pidx[i]] * ell[pidx[j]] for j in fd.V_S)
        points[S] = y
    return points


def _fraction_linear_coeffs(fd) -> list | None:
    """The rational coefficients of f^S over V_S where f^S is linear."""
    if fd.poly is None or fd.poly.degree != 1:
        return None
    return [fd.poly.coeff([int(u == v) for u in fd.V_S]) for v in fd.V_S]


def fraction_walk_member(walk, x) -> bool:
    """Membership in the walk's cone on the points of
    :func:`fraction_face_points`: f^S positive where it is linear, else the
    rational orthant test :func:`rational_orthant_shift`."""
    for S, y in fraction_face_points(walk, x).items():
        fd = walk.face(S)
        coeffs = _fraction_linear_coeffs(fd)
        if coeffs is not None:
            ok = sum((c * a for c, a in zip(coeffs, y)), ZERO) > 0
        else:
            ok = rational_orthant_shift(y, fd.lin) is not None
        if not ok:
            return False
    return True


def fraction_cone_system(h) -> list[list]:
    """``hereditary.cone_system`` with the columns mu_S from
    :func:`fraction_face_points` of the unit vectors and the linear rows
    from the rational coefficients of f^S."""
    walk = hered.FaceWalk(h.delta, h.lin, h.f)
    n = len(h.vars)
    cols = [fraction_face_points(walk, [int(r == c) for r in range(n)]) for c in range(n)]
    rows, naux = [], 0
    for S in walk.order:
        fd = walk.face(S)
        coeffs = _fraction_linear_coeffs(fd)
        if coeffs is not None:
            rows.append(([sum((c * m for c, m in zip(coeffs, col[S])), ZERO) for col in cols], {}))
        else:
            B = fd.lin.rows
            for r in range(len(fd.V_S)):
                rows.append(([col[S][r] for col in cols], {naux + k: b[r] for k, b in enumerate(B)}))
            naux += len(B)
    return [point + [aux.get(k, 0) for k in range(naux)] for point, aux in rows]


def cone_pair_system(fan1, A, fan2, B, rel) -> StrictSystem:
    """A common point of cone A of fan1 and cone B of fan2, in the ray
    coefficients l of A and m of B, each ``rel`` 0, labels in a fixed
    order."""
    idx1, idx2 = fan1._index(), fan2._index()
    la, lb = sorted(A, key=label_key), sorted(B, key=label_key)
    sys = StrictSystem(vars=tuple(("l", v) for v in la) + tuple(("m", v) for v in lb))
    for v in la:
        sys.add({("l", v): ONE}, rel)
    for v in lb:
        sys.add({("m", v): ONE}, rel)
    for k in range(fan1.dim):
        row = {("l", v): fan1.rays[idx1[v]][k] for v in la}
        for v in lb:
            row[("m", v)] = -fan2.rays[idx2[v]][k]
        sys.add(row, EQ)
    return sys


def lp_overlapping_facet_pairs(fan1, fan2) -> list:
    """Maximal cone pairs whose relative interiors meet, one LP per pair."""
    out = []
    for A in sorted(fan1.cones.facets, key=face_key):
        for B in sorted(fan2.cones.facets, key=face_key):
            if lp_strict_feasible(cone_pair_system(fan1, A, fan2, B, GT)) is not None:
                out.append((A, B))
    return out


def lp_verify_fan_axioms(fan) -> None:
    """Pairwise cone intersections are common faces, one LP per pair of
    maximal cones: a common point with nonnegative ray coefficients that
    uses a ray outside the shared face is a violation.  Raises on the first
    violating pair, in label order, with the library's message."""
    for A, B in combinations(sorted(fan.cones.facets, key=face_key), 2):
        sys = cone_pair_system(fan, A, fan, B, GE)
        outside = ({("l", v): ONE for v in A - B} | {("m", v): ONE for v in B - A})
        sys.add(outside, GT)
        if lp_strict_feasible(sys) is not None:
            raise ValueError(f"cones {face_str(A)} and {face_str(B)} do not meet in a common face")


def lp_is_bounded(normals) -> bool:
    """Whether the normals positively span the space, by 2d LPs: they do
    not exactly when some x has N x <= 0 and x_k != 0 for some k."""
    d = len(normals[0])
    for k in range(d):
        for s in (ONE, -ONE):
            sys = StrictSystem(vars=tuple(range(d)))
            for r in normals:
                sys.add({j: -Q(r[j]) for j in range(d)}, GE)
            sys.add({k: s}, GT)
            if lp_strict_feasible(sys) is not None:
                return False
    return True


def orthant_gap_feasible(lattice, lo, hi, mids, x) -> bool:
    """Whether a shift c on the layer of elements in hi but not lo, with
    sum 0, makes x[g] + sum_{e in g - lo} c_e positive at every gap flat g
    (indices into ``lattice.masks``, ``mids`` a bitset of them): the orthant
    test at x, with L the image of the sum-zero layer vectors, spanned by
    the images of e_first - e over the layer."""
    masks = lattice.masks
    gaps = [g for g in range(len(masks)) if mids >> g & 1]
    first, *rest = [1 << e for e in range(len(lattice.elems)) if (masks[hi] & ~masks[lo]) >> e & 1]
    rows = [[int(bool(masks[g] & first)) - int(bool(masks[g] & e)) for g in gaps] for e in rest]
    return rational_orthant_shift([x[g] for g in gaps], LinSubspace(gaps, rows)) is not None


def lp_gap_feasible(lattice, lo, hi, mids, x) -> bool:
    """The gap test of :func:`orthant_gap_feasible` as one mixed system:
    unknowns c_e on the elements of the layer hi - lo, sum c_e = 0, and
    x[g] + sum_{e in g - lo} c_e > 0 at every gap flat g (indices into
    ``lattice.masks``, ``mids`` a bitset of them)."""
    masks = lattice.masks
    layer = [e for e in range(len(lattice.elems)) if masks[hi] >> e & 1 and not masks[lo] >> e & 1]
    sys = StrictSystem(vars=tuple(layer))
    sys.add({e: ONE for e in layer}, EQ)
    for g in range(len(masks)):
        if mids >> g & 1:
            sys.add({e: ONE for e in layer if masks[g] >> e & 1}, GT, x[g])
    return lp_strict_feasible(sys) is not None


def fraction_projects_onto(lin, coords) -> bool:
    pos = [lin.ambient.index(v) for v in coords]
    return len(fraction_rref([[b[p] for p in pos] for b in lin.basis])[1]) == len(pos)


def skeleton_require_hereditary(delta, lin) -> bool:
    """Projection onto every facet of the skeleton of delta, raising
    NotHereditaryError at the first failing one with the smallest failing
    subset of it (by size, then in label order); returns the strong flag,
    projection onto every facet of delta."""
    for T in sorted(delta.skeleton().facets, key=face_key):
        if T and not fraction_projects_onto(lin, T):
            for k in range(1, len(T) + 1):
                sub = next((c for c in combinations(sorted(T, key=label_key), k)
                            if not fraction_projects_onto(lin, c)), None)
                if sub is not None:
                    raise hered.NotHereditaryError(sub)
    return all(not F or fraction_projects_onto(lin, F) for F in delta.facets)


def m_truncate(M: MSet) -> MSet:
    """tau(M): all points reachable by decrementing one coordinate."""
    pts = {p[:i] + (p[i] - 1,) + p[i + 1 :] for p in M.points for i in range(M.n) if p[i] > 0}
    return MSet(M.n, pts)


def m_partial(M: MSet, beta: Sequence[int]) -> MSet:
    """The points p - beta of M that stay nonnegative."""
    beta = tuple(int(b) for b in beta)
    pts = set()
    for p in M.points:
        q = tuple(c - b for c, b in zip(p, beta))
        if all(c >= 0 for c in q):
            pts.add(q)
    return MSet(M.n, pts)


def m_is_connected(M: MSet) -> bool:
    """No split of the coordinates separates the supports (sum <= 1:
    connected by convention): the graph of points whose supports meet is
    connected."""
    if sum(next(iter(M.points), ())) <= 1:  # the coordinate sum r
        return True
    supports = [frozenset(i for i, c in enumerate(p) if c) for p in M.points]
    meets = {a: [b for b, T in enumerate(supports) if S & T] for a, S in enumerate(supports)}
    return connected(meets, meets)


def m_is_H_connected(M: MSet) -> bool:
    """Every derived set by at most r-2 decrements is connected."""
    r = sum(next(iter(M.points), ()))
    if r <= 1:
        return True
    caps = [max(p[i] for p in M.points) for i in range(M.n)]
    for k in range(r - 1):
        for alpha in _bounded_multiindices(M.n, k, caps):
            sub = m_partial(M, alpha)
            if sub.points and not m_is_connected(sub):
                return False
    return True


def brute_force_is_m_convex(M) -> tuple:
    """Brute-force exchange axiom; returns (verdict, violating (a, b, i)).

    For every ordered pair the candidate moves are limited to coordinates
    where the pair actually differs, computed once per pair.
    """
    pts = M.points if isinstance(M, MSet) else frozenset(map(tuple, M))
    ordered = sorted(pts)
    for a in ordered:
        for b in ordered:
            if a == b:
                continue
            ups = []
            downs = []
            for k, (ak, bk) in enumerate(zip(a, b)):
                if ak > bk:
                    ups.append(k)
                elif bk > ak:
                    downs.append(k)
            for i in ups:
                la = list(a)
                la[i] -= 1
                ok = False
                for j in downs:
                    la[j] += 1
                    if tuple(la) in pts:
                        ok = True
                        la[j] -= 1
                        break
                    la[j] -= 1
                if not ok:
                    return False, (a, b, i)
    return True, None


def _hessian_multisets(f):
    """(multiset, quadratic) for every (d-2)-fold coordinate derivative."""
    d = f.degree
    for combo in combinations_with_replacement(f.vars, d - 2):
        q = f
        for v in combo:
            q = q.partial(v)
        yield combo, q


def partial_h1_scan(f) -> LorentzVerdict:
    """The Hessian scan of ``is_lorentzian`` by partial-derivative chains."""
    certs = []
    for combo, q in _hessian_multisets(f):
        inr = inertia(hessian(q))
        certs.append((combo, inr))
        if inr.pos > 1:
            return LorentzVerdict(
                value="no", witness=("hessian", combo, inr),
                detail="Hessian with more than one positive eigenvalue",
                certificates=certs,
            )
    return LorentzVerdict(value="yes", certificates=certs)


def chain_log_concave_seq(f, u, v) -> tuple[list, bool]:
    """``log_concave_seq`` with a_k formed by k ``HomPoly.dir_derivative``
    steps along u and d - k along v."""
    d = f.degree
    seq = []
    for k in range(d + 1):
        g = f
        for w in [u] * k + [v] * (d - k):
            g = g.dir_derivative(w)
        seq.append(g.constant_term())
    return seq, all(seq[k] ** 2 >= seq[k - 1] * seq[k + 1] for k in range(1, d))


def chain_is_k_lorentzian(f, cone) -> LorentzVerdict:
    """The cone test of ``is_k_lorentzian`` with every derivative along a
    generator multiset formed by directional-derivative chains, and each
    derived support regenerated from its compositions and M-convexity
    tested afresh."""
    d = f.degree
    if d < 2:
        return is_k_lorentzian(f, cone)
    gens = list(cone.generators)
    m = len(gens)
    cache = _DerivativeCache(f, gens)

    def constant(T):
        return cache.poly(T).terms.get((), ZERO)

    # (i) nonnegative d-fold derivatives
    for T in combinations_with_replacement(range(m), d):
        val = constant(T)
        if val < 0:
            return LorentzVerdict(value="no", witness=("derivative", T, val),
                                  detail="negative mixed derivative along generators")

    # (iii) Hessians for (d-2)-fold multisets (checked before (ii))
    certs = []
    for T in combinations_with_replacement(range(m), d - 2):
        inr = inertia(hessian(cache.poly(T)))
        certs.append((T, inr))
        if inr.pos > 1:
            return LorentzVerdict(value="no", witness=("hessian", T, inr),
                                  detail="Hessian with more than one positive eigenvalue",
                                  certificates=certs)

    # (ii) M-convex derived supports over 2d-fold multisets
    for T in combinations_with_replacement(range(m), 2 * d):
        pts = set()
        for alpha in _compositions(d, 2 * d):
            merged = tuple(sorted(_expand(T, alpha)))
            if constant(merged) > 0:
                pts.add(alpha)
        ok, wit = is_m_convex(MSet(2 * d, pts))
        if not ok:
            return LorentzVerdict(value="no", witness=("support", T, wit),
                                  detail="derived support is not M-convex",
                                  certificates=certs)
    return LorentzVerdict(value="yes", certificates=certs)


def _compositions(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for c in range(total + 1):
        for rest in _compositions(total - c, slots - 1):
            yield (c,) + rest


def _expand(T: tuple, alpha: tuple) -> list:
    out = []
    for idx, mult in zip(T, alpha):
        out.extend([idx] * mult)
    return out


def is_lorentzian_v2(f) -> LorentzVerdict:
    """Variant test: H-connected truncated support instead of M-convexity."""
    _require_nonneg(f)
    if f.degree < 2:
        return LorentzVerdict(value="yes", detail="degree < 2 convention")
    M = support_mset(f)
    if M.points and not m_is_H_connected(m_truncate(M)):
        return LorentzVerdict(value="no", witness=("truncated-support",), detail="truncated support is not H-connected")
    return _h1_scan(f)


def subset_polarized_verdict(f: HomPoly) -> hered.HLVerdict:
    """Hereditary-Lorentzian verdict of the polarization, face by face over
    the subsets of the polarized variables: every face of each size, with
    the all-ones cone witness projected and checked at each, the link of
    every face of size <= d - 3 tested for connectivity, and the block
    expansion of a Hessian of f taken at every face of size d - 2.
    """
    HLVerdict = hered.HLVerdict
    _require_nonneg(f)
    d = f.degree
    if f.is_zero():
        return HLVerdict(value="vacuous", note="zero polynomial")
    if d == 0:
        return HLVerdict(value="yes", note="constant convention")
    pvars = tuple(polarization_vars(f))
    supp = f.support()
    dominated: set[tuple] = set()
    for alpha in supp:
        for beta in iproduct(*[range(a + 1) for a in alpha]):
            dominated.add(beta)

    block_of = {pv: i for i, v in enumerate(f.vars) for pv in pvars if pv[0] == v}
    block_members: dict[int, list] = {}
    for pv in pvars:
        block_members.setdefault(block_of[pv], []).append(pv)

    def count_vec(S: Iterable) -> tuple:
        counts = [0] * len(f.vars)
        for pv in S:
            counts[block_of[pv]] += 1
        return tuple(counts)

    def is_face(S: frozenset) -> bool:
        return count_vec(S) in dominated

    if d == 1:
        return HLVerdict(value="yes", cone_witness={pv: ONE for pv in pvars}, note="degree 1, nonzero nonneg")

    # cone nonemptiness: the all-ones point, pushed through canonical
    # projections that swap each pinned copy against a same-block partner,
    # stays strictly positive at every face and positive on the base linear
    # restrictions; verified face by face below
    witness_ok = True
    faces_by_size: dict[int, list] = {0: [frozenset()]}
    for k in range(1, d):
        faces_by_size[k] = [frozenset(S) for S in combinations(pvars, k) if is_face(frozenset(S))]
    for k in range(0, d):
        for S in faces_by_size[k]:
            x = {pv: ONE for pv in pvars}
            ok_partner = True
            for pv in sorted(S, key=label_key):
                partner = next((q for q in block_members[block_of[pv]] if q not in S), None)
                if partner is None:
                    ok_partner = False
                    break
                xi = x[pv]
                x[pv] -= xi
                x[partner] += xi
            if not ok_partner:
                witness_ok = False
                break
            V_S = [pv for pv in pvars if pv not in S and is_face(S | {pv})]
            if k < d - 1:
                if any(not x[pv] > 0 for pv in V_S):
                    witness_ok = False
                    break
            else:
                cv = count_vec(S)
                total = ZERO
                for pv in V_S:
                    alpha = tuple(c + (1 if i == block_of[pv] else 0) for i, c in enumerate(cv))
                    total += f.derivative_value(alpha) * x[pv]
                if not total > 0:
                    witness_ok = False
                    break
        if not witness_ok:
            break
    if not witness_ok:
        return HLVerdict(value="vacuous", note="all-ones cone witness not certified")

    # (C): H-connectedness of the skeleton, on the virtual complex
    for k in range(0, d - 2):
        for S in faces_by_size[k]:
            verts = [pv for pv in pvars if pv not in S and is_face(S | {pv})]
            if len(verts) <= 1:
                continue
            adj = {v: [] for v in verts}
            for a_i in range(len(verts)):
                for b_i in range(a_i + 1, len(verts)):
                    e = S | {verts[a_i], verts[b_i]}
                    if is_face(e):
                        adj[verts[a_i]].append(verts[b_i])
                        adj[verts[b_i]].append(verts[a_i])
            if not connected(verts, adj):
                return HLVerdict(value="no", h_connected=False, c_witness=S,
                                 note="polarized skeleton is not H-connected")

    # (Q): codimension-2 Hessians are block-constant expansions of the
    # Hessians of the corresponding (d-2)-fold derivatives of f; inertia
    # cached per exponent
    inertia_cache: dict[tuple, Inertia] = {}
    certs = []
    for S in faces_by_size[d - 2]:
        cv = count_vec(S)
        if cv not in inertia_cache:
            Hq = derivative_hessian(f, cv)
            members = [pv for pv in pvars if pv not in S and is_face(S | {pv})]
            rows = [
                [Hq.rows[block_of[a]][block_of[b]] for b in members] for a in members
            ]
            inertia_cache[cv] = inertia(SymMatrix.from_scaled(members, rows, Hq.den))
        inr = inertia_cache[cv]
        certs.append((S, inr))
        if inr.pos > 1:
            return HLVerdict(value="no", h_connected=True, q_certificates=certs, q_witness=S,
                             note="polarized codimension-2 Hessian fails")
    return HLVerdict(value="yes", h_connected=True, q_certificates=certs,
                     cone_witness={pv: ONE for pv in pvars})


def is_k_lorentzian_alt(f, cone, w) -> LorentzVerdict:
    """The interior-direction variant: every quadratic obtained by k
    generator derivatives and (d-2-k) derivatives along the interior point w
    must itself pass the degree-2 cone test."""
    d = f.degree
    if d < 2:
        return is_k_lorentzian(f, cone)
    wc = direction_coords(w, f.vars)
    gens = list(cone.generators)
    cache = _DerivativeCache(f, gens)
    for k in range(d - 1):
        for T in combinations_with_replacement(range(len(gens)), k):
            q = cache.poly(T)
            for _ in range(d - 2 - k):
                q = q.dir_derivative(wc)
            sub = is_k_lorentzian(q, cone)
            if not sub:
                return LorentzVerdict(value="no", witness=("quadratic", T, k, sub.witness),
                                      detail="derived quadratic fails the cone test")
    return LorentzVerdict(value="yes")


def perturb_interior(f: HomPoly, v, dual_basis: Sequence[Sequence], C=Q(1, 2), s=ONE) -> HomPoly:
    """Deformation producing strictly interior test instances: pull f along
    t + s <t, w> v (w the sum of the dual basis) and subtract the scaled
    d-th powers of the dual coordinates.

    C in (0,1) and s > 0; validation against the interior predicates is the
    caller's (test suite's) job.
    """
    C, s = Q(C), Q(s)
    if not (0 < C < 1) or not s > 0:
        raise ValueError("need 0 < C < 1 and s > 0")
    n = len(f.vars)
    vc = direction_coords(v, f.vars)
    ws = [direction_coords(wj, f.vars) for wj in dual_basis]
    w = tuple(sum(col, ZERO) for col in zip(*ws))
    A = [
        tuple((ONE if i == j else ZERO) + s * vc[i] * w[j] for j in range(n))
        for i in range(n)
    ]
    out = f.substitute_linear(A, f.vars)
    fv = f.evaluate(vc)
    d = f.degree
    for wj in ws:
        form = HomPoly(f.vars, 1, {((i, 1),): wj[i] for i in range(n) if wj[i] != 0})
        out = out - form.pow(d).scale(C * s**d * fv)
    return out


def interior_certificate(f, dirs, kernel) -> bool:
    """Strict positivity and nonsingular Lorentz signature (kernel exactly
    the cone's lineality) over all multisets from the given directions."""
    d = f.degree
    coords = [direction_coords(x, f.vars) for x in dirs]
    for T in combinations_with_replacement(range(len(coords)), d - 2):
        g = f
        for i in T:
            g = g.dir_derivative(coords[i])
        H = hessian(g)
        if not lorentz_signature(H, kernel):
            return False
        for a in range(len(coords)):
            for b in range(a, len(coords)):
                if not H.apply(coords[a], coords[b]) > 0:
                    return False
    return True


def product_check(f, g, cone) -> bool:
    """Closure under products, verified directly on the given fixtures."""
    return bool(is_k_lorentzian(f * g, cone))


def cone_transport_check(f: hered.HereditaryPoly, S: Sequence, c: Sequence, v, eps) -> bool:
    """Whether the shifted point (v, sum c_i v_i - eps) lands in the cone of
    the subdivided polynomial; eps is caller-chosen (see
    :func:`transport_eps_search`)."""
    if not hered.cone_member(f, v):
        raise ValueError("base point is not in the cone")
    S = tuple(S)
    c = [Q(x) for x in c]
    g = subdivide(f.f, S, c, fresh_vertex(f.vars))
    hg = hered.check_hereditary(g)
    coords = direction_coords(v, f.vars)
    idx = {lab: k for k, lab in enumerate(f.vars)}
    v0 = sum((ci * coords[idx[i]] for i, ci in zip(S, c)), ZERO) - Q(eps)
    return hered.cone_member(hg, coords + (v0,))


def transport_eps_search(f: hered.HereditaryPoly, S: Sequence, c: Sequence, v, start=1, tries: int = 12):
    """Halve eps from ``start`` until the shifted point enters the cone.

    Returns the first working eps, or None after ``tries`` halvings (no
    closed-form threshold is claimed; membership holds for all small
    enough eps when v is in the cone).
    """
    eps = Q(start)
    for _ in range(tries):
        if cone_transport_check(f, S, c, v, eps):
            return eps
        eps = eps / 2
    return None


def lorentz_signature(M: SymMatrix, expected_kernel: LinSubspace) -> bool:
    """Exactly one positive eigenvalue and kernel equal to the given subspace."""
    inr = inertia(M)
    if inr.pos != 1 or inr.zero != expected_kernel.dim:
        return False
    kern = LinSubspace(M.vars, linalg.nullspace(M.rows, M.n))
    return kern == LinSubspace(M.vars, expected_kernel.rows)


def product(h1: hered.HereditaryPoly, h2: hered.HereditaryPoly) -> hered.HereditaryPoly:
    """Product of strongly hereditary polynomials on disjoint variable sets."""
    if set(h1.vars) & set(h2.vars):
        raise ValueError("variable sets must be disjoint")
    if not (h1.strong and h2.strong):
        raise ValueError("product needs strongly hereditary factors")
    vars = h1.vars + h2.vars
    return hered.check_hereditary(hered._extend_vars(h1.f, vars) * hered._extend_vars(h2.f, vars))


def restrict_fS(h: hered.HereditaryPoly, S: Iterable) -> hered.HereditaryPoly:
    """f^S wrapped with its own face data; hereditary again by inheritance."""
    return hered.check_hereditary(hered.restrict_poly(h, S))


def space_dimension(delta: SimComplex, lin: LinSubspace, k: int) -> int:
    """dim of the degree-k polynomials supported on delta and invariant
    under translation along lin, by exact linear algebra on coefficients."""
    verts = tuple(delta.vertices)
    vidx = {v: i for i, v in enumerate(verts)}
    monos: list[tuple] = []
    seen = set()
    for face in delta.faces(max_size=min(k, (delta.dim or 0) + 1)):
        fl = sorted(face, key=label_key)
        if len(fl) > k:
            continue
        for combo in combinations_with_replacement(fl, k):
            if set(combo) == set(fl):
                exps = [0] * len(verts)
                for v in combo:
                    exps[vidx[v]] += 1
                t = tuple(exps)
                if t not in seen:
                    seen.add(t)
                    monos.append(t)
    if not monos:
        return 0
    mono_pos = {m: j for j, m in enumerate(monos)}
    amb_idx = {v: i for i, v in enumerate(lin.ambient)}
    rows = []
    for b in lin.rows:
        derivative_rows: dict[tuple, list] = {}
        for m in monos:
            for v in verts:
                i = vidx[v]
                if m[i] == 0:
                    continue
                coef = b[amb_idx[v]] * m[i]
                if coef == 0:
                    continue
                lower = list(m)
                lower[i] -= 1
                row = derivative_rows.setdefault(tuple(lower), [0] * len(monos))
                row[mono_pos[m]] += coef
        rows.extend(tuple(r) for r in derivative_rows.values())
    return len(monos) - linalg.rank(rows)


def lineality_extend(L: LinSubspace, S: Sequence, c: Sequence, vertex) -> LinSubspace:
    """Lift L to the extended space: l_vertex = sum_{i in S} c_i l_i."""
    S = tuple(S)
    c = [Q(x) for x in c]
    idx = {v: k for k, v in enumerate(L.ambient)}
    rows = []
    for b in L.rows:
        l0 = sum((ci * b[idx[i]] for i, ci in zip(S, c)), ZERO)
        rows.append(tuple(b) + (l0,))
    return LinSubspace(L.ambient + (vertex,), rows)
