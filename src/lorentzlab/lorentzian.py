"""Lorentzian polynomials on the positive orthant and on finitely generated
cones: M-convex supports, Hessian sign conditions, polarization, and the
extreme-ray characterizations.

All quantifiers over generator families run over multisets rather than
ordered tuples: mixed directional derivatives commute, so permuting a tuple
permutes the coordinates of the derived support set and transposes the
derived bilinear forms, neither of which moves a verdict.  Randomized
ordered-tuple spot checks in the test suite back this reduction.

M-convexity, of supports and of the cone test's derived supports, is
decided by exchange masks on Kronecker keys (``is_m_convex``), on the
exponents of a table as they are: they meet ``MSet``'s invariants.  The
cone test decides the derived supports once per generator set: the
derived support of a generator multiset T is a split of the support J_S
of the pull-back on S = set(T), and a split is M-convex exactly when the
set it splits is (the proof is in ``is_k_lorentzian``).

Derivative values are read off coefficients, since (d/dt)^beta f equals
beta! c_beta for |beta| = d: ``HomPoly.derivative_value`` gives the value
and ``inertia.derivative_hessian`` the Hessian of a (d-2)-fold derivative,
on integer rows read off f's table by key.  The orthant scan and the
polarized verdict read f itself; the cone test reads the signs of its
pull-back's integer coefficients along the generators for the top
derivatives and the derived supports.  Only the cone test's Hessians,
taken in f's own coordinates, are formed by directional-derivative
chains.

The polarized verdict decides each face condition once per count vector,
the number of copies of each variable in a face, and proves rather than
checks that the all-ones point lies in the polarized cone (the proof is in
``polarized_hereditary_verdict``).

Every "no" verdict carries a finite witness that re-verifies in isolation;
the sampling-based check for non-polyhedral cones never answers "yes", only
"no with witness" or "consistent".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement, product as iproduct
from operator import mul
from typing import Iterable, Sequence

from .cones import ConeByGenerators
from .inertia import SymMatrix, derivative_hessian, hessian, inertia
from .polycore import HomPoly, direction_coords, kron_weights
from .rat import ONE
from .simplicial import connected


@dataclass
class LorentzVerdict:
    value: str                  # "yes" | "no" | "consistent"
    witness: object = None      # refutation data, re-checkable in isolation
    detail: str = ""
    certificates: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.value == "yes"


# ---------------------------------------------------------------------------
# M-convex sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MSet:
    """A finite set of lattice points with constant coordinate sum."""

    n: int
    points: frozenset

    def __post_init__(self):
        pts = frozenset(tuple(int(c) for c in p) for p in self.points)
        for p in pts:
            if len(p) != self.n or any(c < 0 for c in p):
                raise ValueError(f"bad lattice point {p}")
        sums = {sum(p) for p in pts}
        if len(sums) > 1:
            raise ValueError("points do not have constant sum")
        object.__setattr__(self, "points", pts)


def _unchecked_mset(n: int, points: frozenset) -> MSet:
    """The MSet of points that meet its invariants by construction."""
    M = object.__new__(MSet)
    M.__dict__.update(n=n, points=points)
    return M


def is_m_convex(M: MSet | Iterable) -> tuple[bool, tuple | None]:
    """Exchange axiom by exchange masks; returns (verdict, violating (a, b, i)).

    For each point a and move i, ``ex[i]`` is the bitmask of the j != i
    with a - e_i + e_j in the set, read off a table that maps the Kronecker
    key (``polycore``) of every a - e_i to those j.  With lo and hi the
    extreme coordinates, every a and a - e_i has its coordinates in
    [lo - 1, hi], so the offset 1 - lo makes them numerals of base
    B = hi - lo + 2; it moves every key by one constant, so keys are
    injective and k(a - e_i) = k(a) - B^i.  A pair (a, b) fails at i, with
    a_i > b_i, exactly when ``ex[i]`` holds no j with b_j > a_j.  When the
    points are nonnegative with one coordinate sum, every b != a has such
    a j, so an i whose mask holds every j != i never fails, and an a with
    no other i is skipped.  Pairs are visited in sorted (a, b) order and
    moves i in increasing order, so the witness is the first violation in
    that order.  Points must have one length.
    """
    pts = M.points if isinstance(M, MSet) else frozenset(map(tuple, M))
    ordered = sorted(pts)
    if len(set(map(len, ordered))) > 1:
        raise ValueError("points have different lengths")
    lo, hi = min(chain.from_iterable(ordered), default=0), max(chain.from_iterable(ordered), default=0)
    graded = len(set(map(sum, ordered))) <= 1 and lo >= 0
    W = kron_weights(len(ordered[0]) if ordered else 0, hi - lo + 2)
    ups: dict[int, int] = {}  # k(a - e_i) -> bitmask of the j with a - e_i + e_j in the set
    moves = []
    for a in ordered:
        k = sum(map(mul, a, W))
        qs = []
        for i, w in enumerate(W):
            if graded and not a[i]:
                continue
            q = k - w
            ups[q] = ups.get(q, 0) | 1 << i
            qs.append((i, q))
        moves.append(qs)
    n, full = len(W), (1 << len(W)) - 1
    for a, qs in zip(ordered, moves):
        crit = [(i, ups[q] & ~(1 << i)) for i, q in qs if not graded or ups[q] != full]
        if not crit:
            continue
        for b in ordered:
            D = -1
            for i, ex in crit:
                if a[i] > b[i]:
                    if D < 0:
                        D = 0
                        for j in range(n):
                            if b[j] > a[j]:
                                D |= 1 << j
                    if not ex & D:
                        return False, (a, b, i)
    return True, None


# ---------------------------------------------------------------------------
# Lorentzian on the positive orthant
# ---------------------------------------------------------------------------


def _require_nonneg(f: HomPoly):
    exps = next((exps for exps, c in f.coeffs.items() if c < 0), None)
    if exps is not None:
        key = tuple((i, e) for i, e in enumerate(exps) if e)
        raise ValueError(f"negative coefficient {f.coeff(exps)} at {key}; test requires nonnegative coefficients")


def is_lorentzian(f: HomPoly) -> LorentzVerdict:
    """Support M-convexity plus the one-positive-eigenvalue Hessian condition.

    Requires nonnegative coefficients (raises otherwise).  Degree 0 and 1
    polynomials with nonnegative coefficients qualify by convention.
    """
    _require_nonneg(f)
    if f.degree < 2:
        return LorentzVerdict(value="yes", detail="degree < 2 convention")
    ok, wit = is_m_convex(f.coeffs)
    if not ok:
        return LorentzVerdict(value="no", witness=("support", wit), detail="support is not M-convex")
    return _h1_scan(f)


def _h1_scan(f: HomPoly) -> LorentzVerdict:
    """Inertia of the Hessian of every (d-2)-fold coordinate derivative,
    each read off the coefficients by ``derivative_hessian``."""
    n = len(f.vars)
    certs = []
    for combo in combinations_with_replacement(range(n), f.degree - 2):
        alpha = [0] * n
        for k in combo:
            alpha[k] += 1
        inr = inertia(derivative_hessian(f, alpha))
        labels = tuple(f.vars[k] for k in combo)
        certs.append((labels, inr))
        if inr.pos > 1:
            return LorentzVerdict(
                value="no", witness=("hessian", labels, inr),
                detail="Hessian with more than one positive eigenvalue",
                certificates=certs,
            )
    return LorentzVerdict(value="yes", certificates=certs)


# ---------------------------------------------------------------------------
# polarization
# ---------------------------------------------------------------------------


def polarization_vars(f: HomPoly) -> list[tuple]:
    kappas = [max((exps[i] for exps in f.coeffs), default=0) for i in range(len(f.vars))]
    out = []
    for i, v in enumerate(f.vars):
        out.extend((v, j) for j in range(kappas[i] + 1))
    return out


def polarize(f: HomPoly) -> HomPoly:
    """Substitute each variable by a sum of fresh copies, one block per
    variable with (degree in that variable) + 1 members; the result is
    multiaffine on each block and strongly hereditary."""
    pvars = tuple(polarization_vars(f))
    forms = {}
    for v in f.vars:
        forms[v] = {pv: ONE for pv in pvars if pv[0] == v}
    return f.substitute(pvars, forms)


def polarized_hereditary_verdict(f: HomPoly) -> "HLVerdict":
    """Hereditary-Lorentzian verdict of the polarization, decided once per
    count vector, without forming the polarized polynomial.

    A set S of copies is a face of the polarized complex exactly when its
    count vector beta (beta_v copies of v) is dominated, beta <= alpha for
    a support exponent alpha of f.  The polarization is invariant under
    permuting the copies inside each block, so every face condition depends
    on beta alone, and is decided at the representative face of the first
    beta_v copies of each block.  Its link holds the copies (v, j), j >=
    beta_v, of each block v with beta + e_v dominated; two of them are
    adjacent when beta + e_v + e_w is dominated (beta + 2e_v for two copies
    of v).  The skeleton is H-connected when the link of every beta with
    |beta| <= d - 3 is connected, and the codimension-2 Hessian at |beta| =
    d - 2 is the block expansion of the Hessian of the beta-th derivative of
    f over the link.

    The all-ones point lies in the cone, so a nonzero f never gets
    "vacuous" here.  At a face S with count vector beta, the projection
    moves the value of each copy in S onto a copy of its block outside S;
    one exists, since beta_v <= kappa_v and the block has kappa_v + 1
    copies.  So the projected point is >= 1 at every copy outside S, hence
    positive on the link.  At |beta| = d - 1 the base form is the sum over
    v of the (beta + e_v)-th derivative of f times the link copies of v.
    Every term is >= 0, as f is nonnegative, and one is > 0: beta lies
    below a support exponent alpha of degree |beta| + 1, so alpha = beta +
    e_v for some v, and the alpha-th derivative is alpha! c_alpha > 0.
    """
    from .hereditary import HLVerdict

    _require_nonneg(f)
    d = f.degree
    if f.is_zero():
        return HLVerdict(value="vacuous", note="zero polynomial")
    if d == 0:
        return HLVerdict(value="yes", note="constant convention")
    ones = {pv: ONE for pv in polarization_vars(f)}
    if d == 1:
        return HLVerdict(value="yes", cone_witness=ones, note="degree 1, nonzero nonneg")
    dominated = {beta for alpha in f.coeffs for beta in iproduct(*[range(a + 1) for a in alpha])}
    copies = [[pv for pv in ones if pv[0] == v] for v in f.vars]

    def up(beta: tuple, i: int) -> tuple:
        return beta[:i] + (beta[i] + 1,) + beta[i + 1:]

    certs = []
    for beta in sorted(dominated, key=lambda beta: (sum(beta), beta)):
        if sum(beta) > d - 2:
            break
        S = frozenset(pv for block, b in zip(copies, beta) for pv in block[:b])
        link = [(i, pv) for i, b in enumerate(beta) if up(beta, i) in dominated for pv in copies[i][b:]]
        if sum(beta) < d - 2:  # (C): H-connectedness of the skeleton
            adj = {pv: [w for k, w in link if w != pv and up(up(beta, i), k) in dominated] for i, pv in link}
            if not connected(list(adj), adj):
                return HLVerdict(value="no", h_connected=False, c_witness=S,
                                 note="polarized skeleton is not H-connected")
            continue
        # (Q): the codimension-2 Hessian, a block expansion of a Hessian of f
        Hq = derivative_hessian(f, beta)
        rows = [[Hq.rows[i][k] for k, _ in link] for i, _ in link]
        inr = inertia(SymMatrix.from_scaled([pv for _, pv in link], rows, Hq.den))
        certs.append((S, inr))
        if inr.pos > 1:
            return HLVerdict(value="no", h_connected=True, q_certificates=certs, q_witness=S,
                             note="polarized codimension-2 Hessian fails")
    return HLVerdict(value="yes", h_connected=True, q_certificates=certs, cone_witness=ones)


# ---------------------------------------------------------------------------
# K-Lorentzian via extreme-ray generators
# ---------------------------------------------------------------------------


class _DerivativeCache:
    """Mixed directional derivatives along generator multisets, memoized."""

    def __init__(self, f: HomPoly, gens: Sequence[tuple]):
        self.f = f
        self.gens = [direction_coords(g, f.vars) for g in gens]
        self.cache: dict[tuple, HomPoly] = {(): f}

    def poly(self, multiset: tuple) -> HomPoly:
        """multiset: sorted tuple of generator indices."""
        if multiset in self.cache:
            return self.cache[multiset]
        prev = self.poly(multiset[:-1])
        out = prev.dir_derivative(self.gens[multiset[-1]])
        self.cache[multiset] = out
        return out


def is_k_lorentzian(f: HomPoly, cone: ConeByGenerators) -> LorentzVerdict:
    """The finitely-generated-cone test: nonnegative top derivatives along
    generators, M-convex derived supports for all 2d-fold generator
    multisets, and the Hessian condition for all (d-2)-fold multisets.

    Generators stand in for unit extreme-ray vectors: all three conditions
    are invariant under positive rescaling of each generator, so no
    normalization is performed.

    Conditions (i) and (ii) read the signs of the integer coefficients of
    the pull-back g(y) = f(sum_j y_j g_j): the derivative of f along a
    generator multiset T is beta! c_beta(g), where beta counts each
    generator's multiplicity in T.  Condition (iii) takes its Hessians in
    f's own coordinates.

    **Condition (ii) once per generator set.**  The derived support of a
    2d-fold multiset T is the set of compositions alpha of d into T's 2d
    slots with c_beta(g) > 0, where beta sums the slots of each generator.
    With S = set(T) it is the split of J_S = {beta in supp+(g) : supp beta
    in S} over T's slots: the alpha whose slot sums pi(alpha) lie in J_S.
    A split X of a set J of nonnegative points with one coordinate sum is
    M-convex exactly when J is.

    - If X is, take a, b in J and i with a_i > b_i, and lift them to alpha
      and beta with each coordinate on its first slot.  The exchange in X
      at the first slot k of i gives a slot l with beta_l > alpha_l, so l
      is the first slot of some j with b_j > a_j, and
      a - e_i + e_j = pi(alpha - e_k + e_l) lies in J.
    - If J is, take alpha, beta in X and a slot k of i with
      alpha_k > beta_k, and put a = pi(alpha), b = pi(beta).  If
      a_i > b_i, the exchange in J gives j with b_j > a_j and a - e_i + e_j
      in J; some slot l of j has beta_l > alpha_l, and alpha - e_k + e_l
      lies in X.  Otherwise a_i <= b_i, so another slot l of i has
      beta_l > alpha_l, and alpha - e_k + e_l sums to a, so lies in X.

    So each T, in the order of the slot-by-slot scan, is decided by J_S
    written in S's coordinates, and each distinct point set is tested
    once.  Only the first failing T's derived support is built, for the
    witness ``is_m_convex`` finds in it.
    """
    d = f.degree
    if d == 0:
        return LorentzVerdict(value="yes" if f.constant_term() >= 0 else "no", detail="degree 0 convention")
    if d == 1:
        nonneg = all(f.evaluate(direction_coords(g, f.vars)) >= 0 for g in cone.generators)
        return LorentzVerdict(value="yes" if nonneg else "no", detail="degree 1: sign on generators")
    gens = list(cone.generators)
    m = len(gens)
    cache = _DerivativeCache(f, gens)
    g = f.substitute_linear(list(zip(*cache.gens)), range(m))
    coeff, (W, table) = g.coeffs, g.key_table()  # a multiset T is read at the key sum of W[j], j in T

    # (i) nonnegative d-fold derivatives; the multisets are walked for the
    # first witness only when some coefficient is negative
    if min(coeff.values(), default=0) < 0:
        for T in combinations_with_replacement(range(m), d):
            if table.get(sum(W[j] for j in T), 0) < 0:
                beta = [T.count(j) for j in range(m)]
                return LorentzVerdict(value="no", witness=("derivative", T, g.derivative_value(beta)),
                                      detail="negative mixed derivative along generators")

    # (iii) Hessians for (d-2)-fold multisets (cheap; checked before (ii))
    certs = []
    for T in combinations_with_replacement(range(m), d - 2):
        q = cache.poly(T)
        inr = inertia(hessian(q))
        certs.append((T, inr))
        if inr.pos > 1:
            return LorentzVerdict(value="no", witness=("hessian", T, inr),
                                  detail="Hessian with more than one positive eigenvalue",
                                  certificates=certs)

    # (ii) M-convex derived supports over 2d-fold multisets, by J_S (see
    # the docstring): the verdict by generator set, and by point set
    positive = [(beta, sum(1 << j for j, b in enumerate(beta) if b)) for beta, c in coeff.items() if c > 0]
    by_set: dict[tuple, bool] = {}
    verdicts: dict[tuple, bool] = {}
    for T in combinations_with_replacement(range(m), 2 * d):
        S = tuple(dict.fromkeys(T))
        ok = by_set.get(S)
        if ok is None:
            outside = ~sum(1 << j for j in S)
            key = (len(S), frozenset(tuple(beta[j] for j in S) for beta, supp in positive if not supp & outside))
            ok = verdicts.get(key)
            if ok is None:
                ok = verdicts[key] = is_m_convex(_unchecked_mset(*key))[0]
            by_set[S] = ok
        if not ok:
            slot, pts = [W[j] for j in T], set()  # alpha read at the key of its slot sums
            for combo in combinations_with_replacement(range(2 * d), d):
                if table.get(sum(slot[s] for s in combo), 0) > 0:
                    alpha = [0] * (2 * d)
                    for s in combo:
                        alpha[s] += 1
                    pts.add(tuple(alpha))
            ok, wit = is_m_convex(_unchecked_mset(2 * d, frozenset(pts)))
            assert not ok, "a split of a set that is not M-convex is not M-convex"
            return LorentzVerdict(value="no", witness=("support", T, wit),
                                  detail="derived support is not M-convex",
                                  certificates=certs)
    return LorentzVerdict(value="yes", certificates=certs)


def definitional_check(f: HomPoly, samples: Sequence[Sequence]) -> LorentzVerdict:
    """Necessary-condition scan over caller-supplied interior direction
    tuples: positivity of the full mixed derivative, the Lorentz signature
    of the induced bilinear form, and the two-slot inequality it implies.

    A refuter for non-polyhedral cones: returns "no" with a witness or
    "consistent", never "yes".
    """
    d = f.degree
    for tup in samples:
        dirs = [direction_coords(v, f.vars) for v in tup]
        if len(dirs) != d:
            raise ValueError(f"need {d} directions per sample, got {len(dirs)}")
        g = f
        for v in dirs[2:]:
            g = g.dir_derivative(v)
        H = hessian(g)
        full = H.apply(dirs[0], dirs[1])
        if not full > 0:
            return LorentzVerdict(value="no", witness=("positivity", tup, full),
                                  detail="nonpositive mixed derivative at sampled directions")
        inr = inertia(H)
        if inr.pos != 1:
            return LorentzVerdict(value="no", witness=("signature", tup, inr),
                                  detail="sampled bilinear form lacks the Lorentz signature")
        lhs = H.apply(dirs[0], dirs[1]) ** 2
        rhs = H.apply(dirs[0], dirs[0]) * H.apply(dirs[1], dirs[1])
        if lhs < rhs:
            return LorentzVerdict(value="no", witness=("two-slot", tup, lhs, rhs),
                                  detail="two-slot inequality violated")
    return LorentzVerdict(value="consistent", detail=f"{len(samples)} sampled tuples, no violation")


def log_concave_seq(f: HomPoly, u, v) -> tuple[list, bool]:
    """The sequence a_k of k-fold u, (d-k)-fold v derivatives, with the exact
    verdict of a_k^2 >= a_(k-1) a_(k+1) throughout.  The pull-back
    g(s, t) = f(s u + t v) has the same derivatives in s and t, so a_k is
    the derivative of g at the exponent (k, d - k)."""
    d = f.degree
    g = f.substitute_linear(list(zip(direction_coords(u, f.vars), direction_coords(v, f.vars))), (0, 1))
    seq = [g.derivative_value((k, d - k)) for k in range(d + 1)]
    ok = all(seq[k] ** 2 >= seq[k - 1] * seq[k + 1] for k in range(1, d))
    return seq, ok
