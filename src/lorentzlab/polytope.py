"""Simple polytopes from facet data: exact vertex enumeration, volumes,
volume polynomials, mixed volumes and the Alexandrov-Fenchel check.

A polytope arrives as rational (not necessarily unit) outward normals N
plus support numbers t.  The bodies of one deformation cone share their
normals, so what depends on the normals alone is done once per normal set
and remembered (``_require_bounded``): boundedness, by one orthant test,
the translations, and a vertex chart for every d-subset S of the normals.
The normals are scaled to integers once, N' = c N, and one fraction-free
elimination of [N'_S | I] gives the rank of N'_S and, when that is d,
prev = +-det(N'_S) and the integer chart A_S = prev N'_S^-1; singular
subsets are dropped there, once.

A body is then one integer mat-vec per chart.  With t' = D t its support
numbers scaled to integers and u = A_S t'_S, the vertex of S, the solution
of N_S x = t_S, is x = c u / (D prev), since N'_S x = c t_S = (c / D) t'_S.
Its slacks are ints up to a positive factor: N_i x = N'_i u / (D prev), so

    sign(prev) (prev t'_i - N'_i u) = |prev| D (t_i - N_i x),

which has the sign of the slack t_i - N_i x and vanishes exactly on the
facets through x (on S itself, since N'_S u = prev t'_S).  The feasibility
and incidence tests thus form no rational; only a feasible vertex becomes
one.  Simplicity means every vertex activates exactly d facets, and the
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
        """The body of ``{"dim": d, "normals": [...], "t": [...]}``; ``dim``
        must be an int (not a bool) equal to the length of every normal."""
        normals = [tuple(read_rat(x) for x in r) for r in data["normals"]]
        t = [read_rat(x) for x in data["t"]]
        if type(dim := data["dim"]) is not int:
            raise ValueError(f"dim {dim!r} must be an integer")
        for r in normals:
            if len(r) != dim:
                raise ValueError(f"dim {dim} does not match a normal of length {len(r)}")
        return build(normals, t)


def build(normals: Sequence[Sequence], t: Sequence, labels: Sequence | None = None) -> SimplePolytope:
    """Vertex enumeration over the charts of the normal set, one per
    invertible d-subset of facet normals.

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
    lin, rows, c, charts = _require_bounded(labels, normals)
    (tt,), D = linalg.integer_scaled([t])
    # a vertex on exactly d facets is found by one chart only, so the list
    # holds no vertex twice; one on more facets raises when first found
    verts: list[tuple[tuple, frozenset]] = []
    for S, prev, A in charts:
        u = [sum(a * tt[i] for a, i in zip(arow, S)) for arow in A]
        sgn = 1 if prev > 0 else -1
        slack = [sgn * (prev * ti - sum(a * b for a, b in zip(r, u))) for r, ti in zip(rows, tt)]
        if min(slack) < 0:
            continue
        x = tuple(Rational(c * a, D * prev) for a in u)
        act = frozenset(labels[i] for i, s in enumerate(slack) if not s)
        if len(act) != d:
            raise PolytopeError(f"vertex ({', '.join(map(rat_str, x))}) lies on {len(act)} facets; "
                                "polytope is not simple")
        verts.append((x, act))
    if not verts:
        raise PolytopeError("no vertices; the data does not bound a polytope")
    covered = set().union(*(act for _, act in verts))
    missing = [lab for lab in labels if lab not in covered]
    if missing:
        raise PolytopeError(f"facet(s) {missing} are empty (redundant constraints)")
    delta = SimComplex(labels, {act for _, act in verts})
    verts.sort(key=lambda va: label_key(va[0]))
    return SimplePolytope(
        dim=d, labels=labels, normals=normals, t=t,
        vertices=tuple(x for x, _ in verts), active=tuple(act for _, act in verts),
        delta=delta, lin=lin,
    )


_BOUNDED: dict[tuple, tuple] = {}


def _require_bounded(labels: tuple, normals: tuple) -> tuple[LinSubspace, list, int, list]:
    """The normal set's entry (lin, N', c, charts), after raising
    PolytopeError unless the normals positively span the space.

    lin holds the translations read through the normals (the column space
    of the normal matrix N).  By Stiemke's lemma the normals positively
    span the space exactly when N has rank d and N^T y = 0 for some y > 0,
    that is, when lin.dim = d and lin^perp holds a strictly positive
    vector: one orthant test.  N' = c N is N scaled to integers, and
    charts holds (S, prev, A_S) for every d-subset S of rows, in index
    order, whose N'_S is invertible, with prev = +-det(N'_S) and A_S =
    prev N'_S^-1, both from one elimination of [N'_S | I].  All of it
    depends on the normals alone, so each bounded set's entry is
    remembered, keyed on integers; an unbounded set is tested, and raises,
    on every call."""
    rows, c = linalg.integer_scaled(normals)
    key = (labels, tuple(map(tuple, rows)), c)
    got = _BOUNDED.get(key)
    if got is None:
        d = len(normals[0])
        lin = LinSubspace(labels, [tuple(r[k] for r in normals) for k in range(d)])
        if lin.dim != d or in_orthant_plus_subspace([0] * len(labels), lin.perp()) is None:
            raise PolytopeError("unbounded: the normals do not positively span the space")
        eye = [[int(j == k) for j in range(d)] for k in range(d)]
        full_rank = list(range(d))
        charts = []
        for S in combinations(range(len(rows)), d):
            # [N'_S | I] ends at [prev I | A_S] when N'_S is invertible
            M, pivots, prev, _ = linalg.eliminate([rows[i] + e for i, e in zip(S, eye)])
            if pivots == full_rank:
                charts.append((S, prev, [row[d:] for row in M]))
        got = _BOUNDED[key] = (lin, rows, c, charts)
    return got


def volume(P: SimplePolytope):
    """Exact Euclidean volume by a pulling triangulation of the face lattice."""
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
