"""Hereditary polynomials: face restrictions, recursive cones, and the
two-condition certification of the hereditary-Lorentzian property.

A homogeneous f determines a face complex (supports of monomials generate
it) and a lineality space.  f is hereditary when the lineality space
projects onto every coordinate subspace indexed by a non-maximal face; this
allows exact "pinning" projections pi_S under which the face restrictions

    f^S = (d/dt)^S f  restricted to t_i = 0 on S

live on the link vertex set V_S.  Every pin is one elimination step on a
canonical lineality basis (:meth:`LinSubspace.pin`): the first integer row
nonzero at i is the pinning row, which divided by its entry c there is the
pin, and the other rows cleared at i span the lineality that vanishes at
i.  One face walk (:class:`FaceWalk`) applies it along a canonical descent
that reaches each face of size < d once, on integers: a projected point is
an integer vector over one positive denominator, and the pinning row
projects it with no rational formed.  Membership in the recursively
defined open cone K_f projects the point along the descent, and the
projected point must be strictly positive modulo the lineality at the
face: the one orthant test of :mod:`lorentzlab.cones`, ``orthant_shift``
(an exact LP, skipped when the point is already positive).  The same walk
with no polynomial decides the ample cone of a fan and supplies the pins
and the balancing spaces of the reconstruction from facet weights
(:func:`from_weights`), which fills each coefficient c_alpha of the
polynomial from one linear relation, the translation invariance along the
pinned lineality read at t^(alpha - e_i), and multiplies or substitutes no
polynomial.  When the
point is unknown, the walk's projections compose into one homogeneous
matrix A instead (:func:`cone_system`), and ``cones.strict_feasible`` asks
the same orthant test of its column space.

**The pinned part of the lineality.**  *Lemma:* if m lies in the
lineality of g = f^(S-i) and m_i = 0, then m restricted to V_S lies in
the lineality of f^S.  *Proof.*  Partial derivatives commute, so
D_m (d/dt_i) g = (d/dt_i) D_m g = 0.  As m_i = 0, D_m does not
differentiate in t_i and commutes with setting t_i = 0.  f^S involves only
the variables V_S, on which D_m reads m|V_S alone; so D_(m|V_S) f^S = 0.
The pin at i returns exactly these m|V_S, so the walk hands them to
``HomPoly.lineality_space`` as its known part, which eliminates only the
columns off their pivots (the lemma of :mod:`lorentzlab.polycore`).  Where
f^S is linear (|S| = d - 1), the face test reads f^S itself and no
lineality is formed.  In the same way :func:`from_weights` hands the given
lineality to the reconstructed polynomial's.

The main decision procedure checks, per the characterization of hereditary
Lorentzian polynomials, that the skeleton of the face complex is
H-connected and that each codimension-2 face restriction has a Hessian with
at most one positive eigenvalue, after certifying K_f is nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import factorial, prod
from operator import mul
from typing import Iterable, Mapping

from . import cones, linalg
from .inertia import derivative_hessian, inertia as matrix_inertia
from .polycore import HomPoly, LinSubspace, direction_coords
from .rat import Q, ZERO, ONE, Rational
from .simplicial import SimComplex, face_key, face_str, label_key, label_str


class NotHereditaryError(ValueError):
    def __init__(self, face, message=None):
        self.face = frozenset(face)
        super().__init__(message or f"lineality space does not project onto face {face_str(face)}")


class BalancingError(ValueError):
    def __init__(self, face, message=None):
        self.face = frozenset(face)
        super().__init__(message or f"weights violate balancing at facet {face_str(face)}")


def face_complex(f: HomPoly) -> SimComplex:
    """Delta_f: the complex generated by the monomial supports of f."""
    supports = f.support_sets()
    return SimComplex(f.vars, supports) if supports else SimComplex.void(f.vars)


def _minimal_failing_face(lin: LinSubspace, T: frozenset) -> frozenset:
    for k in range(1, len(T) + 1):
        for sub in combinations(sorted(T, key=label_key), k):
            if not lin.projects_onto(sub):
                return frozenset(sub)
    return T


def require_hereditary(delta: SimComplex, lin: LinSubspace) -> bool:
    """Check that lin projects onto every non-maximal face of delta, and
    return whether it projects onto every facet as well (the strong flag).

    Projection onto a face implies projection onto its subsets, so the
    facets of delta are checked first: when lin projects onto all of them,
    delta is hereditary and strong.  Only when some facet fails are the
    facets of the skeleton checked.  Raises NotHereditaryError naming a
    minimal failing face.
    """
    if all(not F or lin.projects_onto(F) for F in delta.facets):
        return True
    for T in sorted(delta.skeleton().facets, key=face_key):
        if T and not lin.projects_onto(T):
            raise NotHereditaryError(_minimal_failing_face(lin, T))
    return False


@dataclass(frozen=True, eq=False)
class HereditaryPoly:
    """A hereditary polynomial with its face complex and exact lineality space."""

    f: HomPoly
    delta: SimComplex
    lin: LinSubspace
    strong: bool

    def __eq__(self, other):
        return (isinstance(other, HereditaryPoly) and self.f == other.f
                and self.strong == other.strong)

    def __hash__(self):
        return hash(self.f)

    @property
    def degree(self) -> int:
        return self.f.degree

    @property
    def vars(self) -> tuple:
        return self.f.vars


def check_hereditary(f: HomPoly, known: LinSubspace | None = None) -> HereditaryPoly:
    """Compute (Delta_f, L_f), verify heredity face by face, set the strong flag.

    ``known`` is a part of L_f over f.vars already held, which
    :meth:`HomPoly.lineality_space` checks and extends.  The strong flag
    needs projection onto the facets of Delta_f as well.  Raises
    NotHereditaryError naming a minimal failing face.
    """
    delta = face_complex(f)
    lin = f.lineality_space(known)
    strong = require_hereditary(delta, lin)
    return HereditaryPoly(f=f, delta=delta, lin=lin, strong=strong)


# ---------------------------------------------------------------------------
# projections and face restrictions
# ---------------------------------------------------------------------------


def restrict_poly(h: HereditaryPoly, S: Iterable) -> HomPoly:
    """f^S as a raw polynomial over the link vertex set V_S."""
    S = frozenset(S)
    g = h.f
    for i in sorted(S, key=label_key):
        g = g.partial(i)
    g = g.set_vars_zero(S)
    return g.restrict_vars(h.delta.link_vertices(S))


def is_positive(h: HereditaryPoly) -> bool:
    """All facet values (d/dt)^F f are positive; vacuously true for zero f."""
    return all(h.f.squarefree_coeff(F) > 0 for F in h.delta.facets)


# ---------------------------------------------------------------------------
# the recursive cone K_f: one face walk
# ---------------------------------------------------------------------------


@dataclass
class _Face:
    poly: HomPoly | None   # f^S over V_S; None when there is no polynomial
    lin: LinSubspace | None  # lineality at S, over V_S; None where f^S is linear
    V_S: tuple
    vertex: object = None  # the descent vertex i; the parent face is S - {i}
    row: tuple = ()        # the parent's pinning row at i, over its V_S, signed so that c > 0
    c: int = 1             # row's entry at i: the pin is row / c
    at: tuple = ()         # the positions of V_S in the parent's V_S
    at_i: int = 0          # the position of i there

    @cached_property
    def form(self) -> list | None:
        """The integer coefficients of f^S over V_S (over ``poly.den`` > 0)
        where f^S is a linear form that must be positive, that is with a
        polynomial at |S| = d - 1; else None."""
        if self.poly is None or self.poly.degree != 1:
            return None
        form = [0] * len(self.V_S)
        for exps, a in self.poly.coeffs.items():
            form[exps.index(1)] = a
        return form


class FaceWalk:
    """The faces of size < d of a complex, each reached once by the canonical
    descent that adds the vertex ``max(S, key=label_key)`` to ``S`` minus it.

    Descending by i is one :meth:`LinSubspace.pin` of the parent's
    lineality: it gives the integer row whose entry c at i is nonzero, so
    that l = row / c has l_i = 1 and projects a point x to x - x_i l on the
    link vertices V_S, and the parent's lineality vanishing at i, restricted
    to V_S.  Without a polynomial (the ample cone, the reconstruction from
    weights) that is the lineality at S.  With one, the face carries f^S
    (derivative at i, restricted) and the lineality of f^S, built from that
    pinned part (module notes), except where f^S is linear: there the face
    test reads f^S itself and no lineality is formed.  Another descent
    order moves the projected point by a lineality element vanishing on S,
    which no face test can see, so one order suffices.  The root vertices
    are the ambient coordinates of the lineality.  Faces are built on first
    use and kept.

    The walk is on integers from the input point to the verdict.  A point
    is an integer vector y over one denominator den > 0; the child of y / den
    is (c y - y_i row) / (den c) on V_S, with row and c negated when c < 0,
    so every projected point is again integers over a positive denominator.
    The face tests see only signs: all of y positive, the sign of f^S's
    integer coefficients against y where f^S is linear, and otherwise the
    orthant test ``cones.orthant_shift`` on (y, den), whose decision does
    not change when y and den are multiplied by one positive number.
    """

    def __init__(self, delta: SimComplex, lin: LinSubspace, poly: HomPoly | None = None):
        self.delta = delta
        self.d = poly.degree if poly is not None else delta.dim + 1
        self._faces = {frozenset(): _Face(poly, lin, lin.ambient)}

    @cached_property
    def order(self) -> list:
        """The faces of size < d, parents before children."""
        return sorted(self.delta.faces(max_size=self.d - 1), key=lambda S: (len(S), face_key(S)))

    def face(self, S: frozenset) -> _Face:
        fd = self._faces.get(S)
        if fd is None:
            i = max(S, key=label_key)
            parent = self.face(S - {i})
            V_S = self.delta.link_vertices(S)
            row, c, lin = parent.lin.pin(i, V_S)
            if row is None:
                raise NotHereditaryError(S, f"cannot pin {label_key(i)} in the lineality space at {face_str(S - {i})}")
            if c < 0:
                row, c = tuple(-a for a in row), -c
            poly = None
            if parent.poly is not None:
                poly = parent.poly.partial(i).set_vars_zero([i]).restrict_vars(V_S)
                lin = poly.lineality_space(lin) if poly.degree > 1 else None
            pidx = {v: k for k, v in enumerate(parent.V_S)}
            fd = self._faces[S] = _Face(poly, lin, V_S, i, row, c, tuple(pidx[j] for j in V_S), pidx[i])
        return fd

    def points(self, y: list, den: int):
        """(S, y_S, den_S) for each face S of size < d, parents first: the
        point y / den over the root vertices, y on ints and den > 0,
        projected to V_S is y_S / den_S, again on ints with den_S > 0."""
        points = {}
        for S in self.order:
            if S:
                fd = self.face(S)
                py, pden = points[S - {fd.vertex}]
                yi, c, row = py[fd.at_i], fd.c, fd.row
                y, den = [c * py[p] - yi * row[p] for p in fd.at], pden * c
            points[S] = y, den
            yield S, y, den

    def member(self, x: tuple) -> bool:
        """Whether x (over the root vertices) lies in the cone: at each face
        the projected point is positive modulo the lineality there, or f^S
        is positive at it where f^S is linear.  Stops at the first failing
        face."""
        (y,), den = linalg.integer_scaled([x])
        for S, y, den in self.points(y, den):
            fd = self.face(S)
            if fd.form is not None:
                ok = sum(map(mul, fd.form, y)) > 0
            else:
                ok = all(yj > 0 for yj in y) or cones.orthant_shift(y, den, fd.lin.rows) is not None
            if not ok:
                return False
        return True


def _walk(h: HereditaryPoly) -> FaceWalk:
    got = getattr(h, "_cone_walk", None)
    if got is None:
        got = FaceWalk(h.delta, h.lin, h.f)
        object.__setattr__(h, "_cone_walk", got)
    return got


def cone_system(h: HereditaryPoly) -> list[list]:
    """Compile membership in K_f into one homogeneous matrix A: v lies in
    K_f exactly when Az > 0 in every row for some z = (v, a).

    The first columns hold the point v, in the order of h.vars; then, per
    face S of size < d-1, the coefficients a of a lineality correction
    making the projected point strictly positive on V_S, one per integer
    row of the lineality at S.  Faces of size exactly d-1 contribute the
    linear base conditions f^S(mu_S v) > 0, where mu_S composes the walk's
    projections from the root to S.
    """
    if h.degree < 1:
        raise ValueError("cone is defined for degree >= 1")
    walk = _walk(h)
    n = len(h.vars)
    rows: list[tuple[list, dict]] = []  # (the point part, {aux column: entry})
    naux = 0
    # mu_S by columns: the walk's projections of the unit vectors
    units = [[int(r == c) for r in range(n)] for c in range(n)]
    for faces in zip(*(walk.points(e, 1) for e in units)):
        fd = walk.face(faces[0][0])
        if fd.form is not None:
            rows.append(([Rational(sum(map(mul, fd.form, y)), fd.poly.den * den) for _, y, den in faces], {}))
        else:
            B = fd.lin.rows
            for r in range(len(fd.V_S)):
                rows.append(([Rational(y[r], den) for _, y, den in faces], {naux + k: b[r] for k, b in enumerate(B)}))
            naux += len(B)
    return [point + [aux.get(k, 0) for k in range(naux)] for point, aux in rows]


def cone_member(h: HereditaryPoly, v) -> bool:
    """Exact decision of v in K_f, by the face walk on the known point."""
    if h.degree < 1:
        return not h.f.is_zero() and h.f.constant_term() >= 0
    return _walk(h).member(direction_coords(v, h.vars))


def cone_nonempty(h: HereditaryPoly) -> dict | None:
    """A point of K_f (as a {variable: value} map), or None if empty.

    The all-ones vector is tried first through the membership test, whose
    orthant tests decouple face by face; the coupled search
    (:func:`cones.strict_feasible` on :func:`cone_system`) runs only when
    it misses, and the point it finds is checked by the membership test
    again, every time.
    """
    if h.degree < 1:
        return {}
    ones = (ONE,) * len(h.vars)
    if cone_member(h, ones):
        return dict(zip(h.vars, ones))
    z = cones.strict_feasible(cone_system(h))
    if z is None:
        return None
    v = z[: len(h.vars)]
    if not cone_member(h, v):  # never skipped
        raise AssertionError("the cone search produced a point outside the cone")
    return dict(zip(h.vars, v))


# ---------------------------------------------------------------------------
# the hereditary-Lorentzian decision
# ---------------------------------------------------------------------------


@dataclass
class HLVerdict:
    value: str                       # "yes" | "no" | "vacuous"
    cone_witness: dict | None = None
    h_connected: bool | None = None
    c_witness: frozenset | None = None
    q_certificates: list = field(default_factory=list)  # (face, Inertia) pairs
    q_witness: frozenset | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.value == "yes"

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "h_connected": self.h_connected,
            "c_witness": sorted(map(label_str, self.c_witness)) if self.c_witness is not None else None,
            "q_certificates": [
                {"face": sorted(map(label_str, S)), "inertia": list(i)} for S, i in self.q_certificates
            ],
            "q_witness": sorted(map(label_str, self.q_witness)) if self.q_witness is not None else None,
            "note": self.note,
        }


def is_hereditary_lorentzian(h: HereditaryPoly) -> HLVerdict:
    """Certify or refute the hereditary-Lorentzian property.

    Degree 0: nonnegative constants qualify.  Degree 1: equivalent to the
    cone being nonempty.  Degree >= 2 with empty cone: reported as the
    distinct verdict "vacuous" (every defining quantifier ranges over the
    empty set).  Otherwise: the skeleton of the face complex must be
    H-connected and every codimension-2 face restriction must have a
    Hessian with at most one positive eigenvalue; certificates carry the
    exact inertia of each checked face.
    """
    d = h.degree
    if d == 0:
        val = h.f.constant_term()
        return HLVerdict(value="yes" if val >= 0 else "no", note="constant convention")
    if h.f.is_zero():
        return HLVerdict(value="vacuous", note="zero polynomial: empty cone")
    if d == 1:
        w = cone_nonempty(h)
        if w is None:
            return HLVerdict(value="vacuous", note="empty cone at degree 1")
        return HLVerdict(value="yes", cone_witness=w)
    witness = cone_nonempty(h)
    if witness is None:
        return HLVerdict(value="vacuous", note="empty cone")
    if is_positive(h):
        # positive polynomials admit the sharper connectivity condition on
        # the full face complex (equivalent for them, and it produces
        # connectivity witnesses already in degree 2)
        ok_c, c_wit = h.delta.is_H_connected()
        where = "face complex"
    else:
        ok_c, c_wit = h.delta.skeleton().is_H_connected()
        where = "skeleton"
    if not ok_c:
        return HLVerdict(
            value="no", cone_witness=witness, h_connected=False, c_witness=c_wit,
            note=f"{where} is not H-connected",
        )
    # the Hessian of f^S is the Hessian of (d/dt)^S f on the link vertices
    certs = []
    q_wit = None
    for S in sorted(h.delta.faces_of_size(d - 2), key=face_key):
        indicator = [1 if v in S else 0 for v in h.vars]
        inr = matrix_inertia(derivative_hessian(h.f, indicator, over=h.delta.link_vertices(S)))
        certs.append((S, inr))
        if inr.pos > 1 and q_wit is None:
            q_wit = S
    if q_wit is not None:
        return HLVerdict(
            value="no", cone_witness=witness, h_connected=True,
            q_certificates=certs, q_witness=q_wit,
            note="codimension-2 Hessian with more than one positive eigenvalue",
        )
    return HLVerdict(value="yes", cone_witness=witness, h_connected=True, q_certificates=certs)


# ---------------------------------------------------------------------------
# reconstruction from facet weights
# ---------------------------------------------------------------------------


def check_balancing(walk: FaceWalk, w: Mapping[frozenset, object]):
    """The facet-weight compatibility condition for reconstruction.

    For each facet F of the skeleton, the linear form sum_i w(F+{i}) t_i
    over the link vertices of F must vanish on the lineality at F, read off
    the face walk with no polynomial (the lineality vectors that are zero
    on F).  Raises BalancingError naming the first failing facet.
    """
    for F in sorted(walk.delta.faces_of_size(walk.d - 1), key=face_key):
        fd = walk.face(F)
        weights = [Q(w.get(F | {i}, 0)) for i in fd.V_S]
        for b in fd.lin.rows:
            if sum(c * x for c, x in zip(weights, b)) != 0:
                raise BalancingError(F)


def from_weights(delta: SimComplex, lin: LinSubspace, w: Mapping[frozenset, object]) -> HereditaryPoly:
    """The unique hereditary polynomial with prescribed facet derivatives.

    Requires (skeleton(delta), lin) hereditary and the balancing condition;
    fills the coefficients from the facet weights by one linear relation
    each and returns the polynomial wrapped with its exact lineality space.
    That space contains lin, so the strong flag is set whenever (delta, lin)
    itself is hereditary.

    **The relation.**  Write f = sum_alpha c_alpha t^alpha / alpha! over the
    alpha of degree d supported on faces of delta, so that c_alpha is the
    mixed derivative (d/dt)^alpha f and, on a facet F, c_F = w(F).  Let
    alpha have support S with |S| < d; then alpha_i >= 2 for some i.  Let l
    be the lineality at S - {i} pinned at i (a face of the walk with no
    polynomial): the restriction to the link vertices of S - {i} of some m
    in lin with m = 0 on S - {i} and m_i = 1; heredity at the non-maximal
    face S gives it.  Then

        c_alpha = - sum_{j in link(S)} l_j c_{alpha - e_i + e_j}.

    *Proof.*  f is invariant under translation along m, so D_m f =
    sum_j m_j (d/dt_j) f = 0, and its coefficient of t^beta / beta! at
    beta = alpha - e_i is sum_j m_j c_{beta + e_j} = 0.  The terms with j in
    S - {i} vanish with m_j; j = i gives c_alpha; and for j outside S the
    support S + {j} of beta + e_j must be a face of delta, or c is 0 there:
    so j runs over link(S), where m agrees with l.  Each step grows the
    support by one, so the recursion ends at facets, where it reads w.
    Every coefficient is thus fixed by the weights: the reconstruction is
    unique, and no choice of i changes it.  The relation takes the first
    such i in the vertex order, and each coefficient is filled once.  It
    reads l as the pinning row over its entry c at i
    (:meth:`LinSubspace.pinning_row`), so c_alpha is
    -(sum_j row_j c_{alpha - e_i + e_j}) / c.
    Heredity, balancing, the facet values, the lineality and the face
    complex are all checked; no polynomial is substituted or multiplied.
    The lineality is built with lin as its known part, which checks
    exactly that lin lies in it and eliminates only the rest.
    """
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
    require_hereditary(delta, lin)
    walk = FaceWalk(delta, lin)
    check_balancing(walk, w)

    vars = delta.link_vertices(())
    pos = {v: k for k, v in enumerate(vars)}
    # a monomial is the sorted tuple of its variables' positions, repeated
    # by exponent; a face is the frozenset of its positions
    c = {tuple(sorted(pos[v] for v in F)): x for F, x in w.items()}
    links: dict[frozenset, set] = {}  # each face of size < d: its link vertices
    for F in c:
        for k in range(d):
            for T in combinations(F, k):
                links.setdefault(frozenset(T), set()).update(p for p in F if p not in T)

    def coeff(alpha: tuple):
        got = c.get(alpha)
        if got is None:
            k = next(k for k in range(1, d) if alpha[k] == alpha[k - 1])
            i, rest = alpha[k], alpha[:k] + alpha[k + 1:]
            T = frozenset(vars[p] for p in alpha if p != i)
            fd = walk.face(T)
            row, ci = fd.lin.pinning_row(vars[i])
            if row is None:
                raise NotHereditaryError(T | {vars[i]})
            at = dict(zip(fd.V_S, row))
            got = c[alpha] = -sum((at[vars[j]] * coeff(tuple(sorted(rest + (j,))))
                                   for j in links[frozenset(alpha)] if at[vars[j]]), ZERO) / ci
        return got

    faces = sorted({tuple(sorted(T)) for T in links if T}.union(c))
    table = {}
    for S in faces:
        for extra in combinations_with_replacement(S, d - len(S)):
            alpha = tuple(sorted(S + extra))
            exps = [0] * len(vars)
            for p in alpha:
                exps[p] += 1
            table[tuple(exps)] = coeff(alpha) / prod(map(factorial, exps))
    f = HomPoly.from_dense(vars, d, table)
    if lin.ambient != f.vars:
        amb_idx = {v: k for k, v in enumerate(lin.ambient)}
        lin = LinSubspace(f.vars, [[b[amb_idx[v]] for v in f.vars] for b in lin.rows])
    try:
        h = check_hereditary(f, lin)
    except AssertionError:
        raise AssertionError("reconstructed polynomial lost a lineality vector") from None
    for F in delta.facets:
        if f.squarefree_coeff(F) != w[F]:
            raise AssertionError(f"reconstruction failed facet check at {face_str(F)}")
    if h.delta != SimComplex(f.vars, delta.facets):
        raise AssertionError("reconstructed polynomial has the wrong face complex")
    return h


def _extend_vars(f: HomPoly, vars: tuple) -> HomPoly:
    idx = {v: k for k, v in enumerate(vars)}
    pos = [idx[v] for v in f.vars]
    terms = {tuple(sorted((pos[i], e) for i, e in enumerate(exps) if e)): Rational(c, f.den)
             for exps, c in f.coeffs.items()}
    return HomPoly(vars, f.degree, terms)
