"""Simple polytopes from facet data: exact vertex enumeration, volumes,
volume polynomials, mixed volumes and the Alexandrov-Fenchel check.

A polytope arrives as rational (not necessarily unit) outward normals plus
support numbers.  Boundedness depends on the normals alone, so it is
decided once per normal set, by one orthant test, and remembered with the
translations.  Vertices come from every d-subset of facet equations, on
integers: [normals | t] is scaled to integers once, by one common
denominator (a positive scaling keeps every facet, vertex and incidence),
and one fraction-free elimination of each [A | t] gives the rank of A and
the vertex together, as y / prev with y and prev ints.  The slacks
sign(prev) (t_i prev - N_i y) are ints too, so the feasibility and
incidence tests form no rational; only a feasible vertex becomes one.
Simplicity means every vertex activates exactly d facets, and the
facet-incidence sets generate the incidence complex.

The volume polynomial is the hereditary polynomial of the incidence
complex with the translations as lineality: at a vertex F the polytope is
locally the simplicial cone cut out by the normals of F, so the d-fold
mixed derivative of the volume in the support numbers of F is
1 / |det(normals of F)|.  One call to ``hereditary.from_weights`` rebuilds
the polynomial from these weights and checks heredity, balancing, the facet
values and the lineality; an independent triangulation volume pins the
normalization on every fixture.  Mixed volumes are polarizations of the
volume polynomial: at most 2^d - 1 evaluations, no derivatives, all on
integers (the coefficients times their common denominator C, the support
vectors times theirs, D), and one rational at the end, the sum over
C * D^d.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial, prod
from typing import Mapping, Sequence

from . import hereditary as hered
from . import linalg
from .cones import in_orthant_plus_subspace
from .polycore import LinSubspace
from .rat import Q, ZERO, ONE, Rational, rat_str, read_rat
from .simplicial import SimComplex, label_key


class PolytopeError(ValueError):
    pass


@dataclass(frozen=True)
class SimplePolytope:
    dim: int
    labels: tuple            # facet labels, one per normal
    normals: tuple           # rational outward normals (rows)
    t: tuple                 # support numbers
    vertices: tuple          # rational vertex coordinates
    active: tuple            # per-vertex frozenset of facet labels
    delta: SimComplex        # facet-incidence complex
    lin: LinSubspace         # translations, read through the normals

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "normals": [[rat_str(x) for x in r] for r in self.normals],
            "t": [rat_str(x) for x in self.t],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SimplePolytope":
        normals = [tuple(read_rat(x) for x in r) for r in data["normals"]]
        t = [read_rat(x) for x in data["t"]]
        return build(normals, t)


def build(normals: Sequence[Sequence], t: Sequence, labels: Sequence | None = None) -> SimplePolytope:
    """Vertex enumeration over all d-subsets of facet equations.

    Raises PolytopeError when the data is unbounded, non-simple, or leaves
    a facet empty.
    """
    normals = tuple(tuple(Q(x) for x in r) for r in normals)
    t = tuple(Q(x) for x in t)
    if not normals:
        raise PolytopeError("no facets")
    d = len(normals[0])
    n = len(normals)
    if labels is None:
        labels = tuple(range(1, n + 1))
    labels = tuple(labels)
    if len(t) != n or len(labels) != n or any(len(r) != d for r in normals):
        raise PolytopeError("inconsistent facet data")
    lin = _require_bounded(labels, normals)
    # one positive scaling of [normals | t] to integers keeps every facet,
    # vertex and incidence, so the loop below runs on ints alone
    rows, _ = linalg.integer_scaled([r + (ti,) for r, ti in zip(normals, t)])
    verts: dict[tuple, frozenset] = {}
    full_rank = list(range(d))
    for combo in combinations(range(n), d):
        # one elimination of [A | t] gives the rank of A and prev * vertex
        M, pivots, prev, _ = linalg.eliminate([rows[i] for i in combo])
        if pivots != full_rank:
            continue
        y = [row[d] for row in M]
        # x = y / prev, so the slack t_i - N_i x, times |prev|, is an int
        # (zip stops at the d entries of y, before t_i = r[d])
        sgn = 1 if prev > 0 else -1
        slack = [sgn * (r[d] * prev - sum(a * b for a, b in zip(r, y))) for r in rows]
        if min(slack) < 0:
            continue
        x = tuple(Rational(a, prev) for a in y)
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
    delta = SimComplex(labels, set(verts.values()))
    order = sorted(verts, key=label_key)
    return SimplePolytope(
        dim=d, labels=labels, normals=normals, t=t,
        vertices=tuple(order), active=tuple(verts[v] for v in order),
        delta=delta, lin=lin,
    )


_BOUNDED: dict[tuple, LinSubspace] = {}


def _require_bounded(labels: tuple, normals: tuple) -> LinSubspace:
    """The translations read through the normals, lin (the column space of
    the normal matrix N), after raising PolytopeError unless the normals
    positively span the space.  By Stiemke's lemma they do exactly when N
    has rank d and N^T y = 0 for some y > 0, that is, when lin.dim = d and
    lin^perp holds a strictly positive vector: one orthant test.  The answer
    depends on the normals alone, so each bounded set's lin is remembered;
    an unbounded set is tested, and raises, on every call."""
    lin = _BOUNDED.get((labels, normals))
    if lin is None:
        d = len(normals[0])
        lin = LinSubspace(labels, [tuple(r[k] for r in normals) for k in range(d)])
        if lin.dim != d or in_orthant_plus_subspace([0] * len(labels), lin.perp()) is None:
            raise PolytopeError("unbounded: the normals do not positively span the space")
        _BOUNDED[labels, normals] = lin
    return lin


def in_deformation_cone(P: SimplePolytope, t: Sequence) -> bool:
    """Whether the support vector cuts a simple polytope with the same
    incidence complex (the chamber of P)."""
    try:
        Q2 = build(P.normals, t, P.labels)
    except PolytopeError:
        return False
    return Q2.delta == P.delta


def volume(P: SimplePolytope):
    """Exact Euclidean volume by a pulling triangulation of the face lattice."""
    vert_at = dict(zip(P.active, P.vertices))
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
        M = [linalg.vec_sub(p, simplex[0]) for p in simplex[1:]]
        total += abs(linalg.det(M))
    return total / factorial(P.dim)


def volume_polynomial(P: SimplePolytope) -> hered.HereditaryPoly:
    """The unique polynomial giving the volume on the deformation cone:
    the hereditary polynomial whose mixed derivative at each vertex F is
    1 / |det(normals of F)|.  Cached per normal set and face complex."""
    key = (P.normals, P.delta.facets)
    got = _VOLPOLY_CACHE.get(key)
    if got is None:
        normal = dict(zip(P.labels, P.normals))
        w = {F: ONE / abs(linalg.det([normal[lab] for lab in F])) for F in P.active}
        got = _VOLPOLY_CACHE[key] = hered.from_weights(P.delta, P.lin, w)
    return got


_VOLPOLY_CACHE: dict[tuple, hered.HereditaryPoly] = {}


def _shared_volume_polynomial(bodies: Sequence[SimplePolytope]) -> tuple[list, list, int]:
    """The volume polynomial of d bodies in dimension d with one normal set,
    on integers: (its terms times C, the support vectors times D, C * D^d),
    with C the common denominator of its coefficients and D that of all the
    bodies' support numbers.  The polynomial is homogeneous of degree d, so
    its value at a scaled point is C * D^d times its value at the point."""
    P = bodies[0]
    if len(bodies) != P.dim:
        raise PolytopeError(f"need exactly {P.dim} bodies in dimension {P.dim}")
    for Q2 in bodies[1:]:
        if Q2.normals != P.normals or Q2.labels != P.labels:
            raise PolytopeError("bodies do not share the facet normal data")
    f = volume_polynomial(P).f
    ts, D = linalg.integer_scaled([K.t for K in bodies])
    return list(f.coeffs.items()), ts, f.den * D ** P.dim


def _int_value(terms: list, x: tuple) -> int:
    """The value at an integer point of a polynomial given by integer terms
    (exps, c), exps its dense exponent tuple."""
    return sum(c * prod(map(pow, x, exps)) for exps, c in terms)


def _polarize(terms: list, ts: Sequence, values: dict) -> int:
    """D_{t_1} ... D_{t_d} f for f homogeneous of degree d, on integers:
    the sum over nonempty S of [d] of (-1)^(d-|S|) f(sum_{k in S} t_k).
    ``values`` maps each point already evaluated to f there, so a subset
    sum that repeats is evaluated once."""
    d = len(ts)
    total = 0
    for k in range(1, d + 1):
        sign = 1 if (d - k) % 2 == 0 else -1
        for S in combinations(ts, k):
            x = tuple(sum(col) for col in zip(*S))
            if x not in values:
                values[x] = _int_value(terms, x)
            total += sign * values[x]
    return total


def mixed_volume(polys: Sequence[SimplePolytope]):
    """Fully polarized mixed volume D_{t_1} ... D_{t_d} pol of the volume
    polynomial (the diagonal gives d! times the volume), by polarization:
    at most 2^d - 1 evaluations, no derivatives, one rational at the end."""
    terms, ts, scale = _shared_volume_polynomial(polys)
    return Rational(_polarize(terms, ts, {}), scale)


def af_check(bodies: Sequence[SimplePolytope]) -> bool:
    """V(K1, K2, rest)^2 >= V(K1, K1, rest) V(K2, K2, rest), exactly.  The
    three polarizations share one positive scale, so they are compared as
    the integers they are before dividing by it."""
    d = bodies[0].dim if bodies else 0
    if d < 2 or len(bodies) != d:
        raise PolytopeError(f"the Alexandrov-Fenchel check needs d >= 2 bodies in dimension d, "
                            f"got {len(bodies)} in dimension {d}")
    terms, (t1, t2, *rest), _ = _shared_volume_polynomial(bodies)
    values: dict = {}
    lhs = _polarize(terms, [t1, t2] + rest, values)
    a = _polarize(terms, [t1, t1] + rest, values)
    b = _polarize(terms, [t2, t2] + rest, values)
    return lhs ** 2 >= a * b
