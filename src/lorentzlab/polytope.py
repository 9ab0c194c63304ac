"""Simple polytopes from facet data: exact vertex enumeration, volumes,
volume polynomials, mixed volumes and the Alexandrov-Fenchel check.

A polytope arrives as rational (not necessarily unit) outward normals N
plus support numbers t.  A JSON body is read straight to integer pairs
(p, q) by ``rat.read_ratio``; ``build`` reads its rationals to the same
pairs, and both go through one integer core, ``_build``.  The bodies of one
deformation cone share their normals, so what depends on the normals alone
is done once per normal set and remembered (``_require_bounded``), keyed on
the integers N' = c N, the normals scaled by their least common
denominator c: boundedness, by one orthant test, the translations, the
rational normals (one tuple, shared by every body of the set, so that
bodies compare and key their normal set without comparing a rational), and
a vertex chart for every d-subset S of the normals.  One fraction-free
elimination of [N'_S | I] gives the rank of N'_S and, when that is d,
prev = +-det(N'_S) and the integer chart A_S = prev N'_S^-1; singular
subsets are dropped there, once.  Each chart also keeps the rows
W_S = sign(prev) N'_i A_S of the normals i outside S.

With t' = D t the body's support numbers scaled to integers and
u = A_S t'_S, the vertex of S, the solution of N_S x = t_S, is
x = c u / (D prev), since N'_S x = c t_S = (c / D) t'_S.  Its slacks are
ints up to a positive factor: N_i x = N'_i u / (D prev), so

    sign(prev) (prev t'_i - N'_i u) = |prev| t'_i - W_S,i t'_S = |prev| D (t_i - N_i x),

which has the sign of the slack t_i - N_i x and vanishes exactly on the
facets through x.  On S it is 0 by construction (N'_S u = prev t'_S), so a
body computes it only on the n - d rows outside S, one integer dot product
each, and u only for a feasible chart; the active set is S plus the zero
slacks.  A feasible vertex is kept as it comes off its chart, the integers
c u over q = D prev, with its active set, so the feasibility and incidence
tests and the vertex itself form no rational; a vertex on more than d
facets becomes one only in the error that names it.  Simplicity means
every vertex activates exactly d facets, and the facet-incidence sets
generate the incidence complex.  A body keeps its support numbers as the
(p, q) pairs it read; its rational ``t``, and its ``vertices`` sorted by
``label_key`` with their ``active`` sets, are formed only when first read,
and no command reads them.

The volume polynomial is the hereditary polynomial of the incidence
complex with the translations as lineality: at a vertex F the polytope is
locally the simplicial cone cut out by the normals of F, so the d-fold
mixed derivative of the volume in the support numbers of F is
1 / |det(normals of F)|.  One call to ``hereditary.from_weights`` rebuilds
the polynomial from these weights, each coefficient from one linear
relation of the translations, and checks heredity, balancing, the facet
values and the lineality; the tests pin its normalization on every
fixture against an independent triangulation volume
(``fraction_triangulation_volume`` in ``tests/oracles.py``).  On the closed
chamber of a simple body, volume is this one polynomial in the support
numbers (McMullen, *The polytope algebra*, 1989; Schneider, *Convex
Bodies*, ch. 5), and every command reads it: the volume is its value at
the body's own support numbers, and a mixed volume is a polarization, at
most 2^d - 1 evaluations and no derivatives.  Both are read on integers
(the coefficients times their common denominator C, the support vectors
times theirs, D), with one rational at the end, the value over C * D^d.
A simple body lies in the closed chamber of another on its normal set
exactly when the two have one facet-incidence complex, so bodies whose
complexes differ are refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import prod
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from . import hereditary as hered
from . import linalg
from .cones import orthant_shift
from .polycore import LinSubspace
from .rat import ONE, Rational, rat_str, ratio, read_list, read_lists, read_ratio
from .simplicial import SimComplex, label_key


class PolytopeError(ValueError):
    pass


@dataclass(frozen=True)
class SimplePolytope:
    dim: int
    labels: tuple            # facet labels, one per normal
    normals: tuple           # rational outward normals (rows)
    t: tuple                 # support numbers
    vertices: tuple          # rational vertex coordinates, in label_key order
    active: tuple            # per-vertex frozenset of facet labels
    delta: SimComplex        # facet-incidence complex
    lin: LinSubspace         # translations, read through the normals
    # what the library reads, on integers: the key (labels, N' rows, c) of
    # the normal set in ``_BOUNDED``, the support numbers as (p, q) pairs,
    # and each vertex as (u, q, its active set), x = u / q, in chart order
    _set: tuple = field(default=None, init=False, repr=False, compare=False)
    _t: tuple = field(default=None, init=False, repr=False, compare=False)
    _found: list = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # a body made by hand (``_build`` makes its bodies without __init__)
        # gets its integer forms from its rationals
        rows, c = linalg.integer_scaled(self.normals)
        V, den = linalg.integer_scaled(self.vertices)
        object.__setattr__(self, "_set", (self.labels, tuple(map(tuple, rows)), c))
        object.__setattr__(self, "_t", tuple(map(ratio, self.t)))
        object.__setattr__(self, "_found", [(tuple(v), den, act) for v, act in zip(V, self.active)])

    def __getattr__(self, name: str):
        """``t``, ``vertices`` and ``active`` of a body that ``_build`` made,
        formed when first read and kept: the support numbers from their
        (p, q) pairs, and the vertices, each with its active set, by
        ``_sorted_vertices``."""
        if self._found is None or name not in ("t", "vertices", "active"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if name == "t":
            object.__setattr__(self, "t", tuple(Rational(p, q) for p, q in self._t))
        else:
            vertices, active = _sorted_vertices(self._found)
            object.__setattr__(self, "vertices", vertices)
            object.__setattr__(self, "active", active)
        return vars(self)[name]

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SimplePolytope":
        """The body of ``{"dim": d, "normals": [...], "t": [...]}``; ``dim``
        must be an int (not a bool) equal to the length of every normal,
        and ``normals``, each normal and ``t`` must be lists.  Every number
        is read straight to (p, q) by ``rat.read_ratio``."""
        normals = [tuple(map(read_ratio, r)) for r in read_lists(data["normals"], "normals")]
        t = [read_ratio(x) for x in read_list(data["t"], "t")]
        if type(dim := data["dim"]) is not int:
            raise ValueError(f"dim {dim!r} must be an integer")
        for r in normals:
            if len(r) != dim:
                raise ValueError(f"dim {dim} does not match a normal of length {len(r)}")
        return _build(normals, t)


def build(normals: Sequence[Sequence], t: Sequence, labels: Sequence | None = None) -> SimplePolytope:
    """Vertex enumeration over the charts of the normal set, one per
    invertible d-subset of facet normals.

    Raises PolytopeError when the data is unbounded, non-simple, or leaves
    a facet empty.
    """
    normals = [tuple(map(ratio, r)) for r in normals]
    return _build(normals, [ratio(x) for x in t], labels)


def _build(normals: list, t: list, labels: Sequence | None = None) -> SimplePolytope:
    """``build`` on normals and support numbers given as (p, q) pairs."""
    if not normals:
        raise PolytopeError("no facets")
    d = len(normals[0])
    n = len(normals)
    if labels is None:
        labels = tuple(range(1, n + 1))
    labels = tuple(labels)
    if len(t) != n or len(labels) != n or any(len(r) != d for r in normals):
        raise PolytopeError("inconsistent facet data")
    entry = _require_bounded(labels, *linalg.ratios_scaled(normals))
    _, _, c = entry.key
    (tt,), D = linalg.ratios_scaled([t])
    # a vertex on exactly d facets is found by one chart only, so the list
    # holds no vertex twice; one on more facets raises when first found
    verts: list[tuple[tuple, int, frozenset]] = []
    for S, prev, A, W, face in entry.charts:
        tS = [tt[i] for i in S]
        scale = abs(prev)
        slack = [scale * tt[i] - sum(map(mul, w, tS)) for i, w in W]
        if min(slack) < 0:
            continue
        u = tuple(c * sum(map(mul, a, tS)) for a in A)
        act = face.union(labels[i] for (i, _), s in zip(W, slack) if not s) if 0 in slack else face
        if len(act) != d:
            x = ", ".join(rat_str(Rational(a, D * prev)) for a in u)
            raise PolytopeError(f"vertex ({x}) lies on {len(act)} facets; polytope is not simple")
        verts.append((u, D * prev, act))
    if not verts:
        raise PolytopeError("no vertices; the data does not bound a polytope")
    covered = set().union(*(act for _, _, act in verts))
    missing = [lab for lab in labels if lab not in covered]
    if missing:
        raise PolytopeError(f"facet(s) {missing} are empty (redundant constraints)")
    delta = SimComplex(labels, {act for _, _, act in verts})
    P = object.__new__(SimplePolytope)
    vars(P).update(dim=d, labels=labels, normals=entry.normals, delta=delta, lin=entry.lin,
                   _set=entry.key, _t=tuple(t), _found=verts)
    return P


def _sorted_vertices(found: list) -> tuple[tuple, tuple]:
    """The vertices x = u / q of ``found``, (u, q, active set) each, as
    rational tuples sorted by ``label_key``, and their active sets in the
    same order."""
    pairs = sorted(((tuple(Rational(a, q) for a in u), act) for u, q, act in found),
                   key=lambda xa: label_key(xa[0]))
    return tuple(x for x, _ in pairs), tuple(act for _, act in pairs)


class _NormalSet(NamedTuple):
    key: tuple        # (labels, N' rows as tuples, c)
    lin: LinSubspace  # translations, read through the normals
    normals: tuple    # the rational normals N = N' / c, shared by every body
    charts: list      # (S, prev, A_S, W_S, labels of S) per invertible N'_S
    volpolys: dict    # face complex (facets) -> its volume polynomial


_BOUNDED: dict[tuple, _NormalSet] = {}


def _require_bounded(labels: tuple, rows: list, c: int) -> _NormalSet:
    """The entry of the normal set N = N' / c, N' = ``rows`` the normals
    scaled to integers by their least common denominator c, after raising
    PolytopeError unless the normals positively span the space.

    lin holds the translations read through the normals (the column space
    of N, which is that of N').  By Stiemke's lemma the normals positively
    span the space exactly when N has rank d and N^T y = 0 for some y > 0,
    that is, when lin.dim = d and lin^perp holds a strictly positive
    vector: one orthant test.  The charts hold, for every d-subset S of
    rows, in index order, whose N'_S is invertible: prev = +-det(N'_S) and
    A_S = prev N'_S^-1, both from one elimination of [N'_S | I]; the rows
    W_S of (i, sign(prev) N'_i A_S) for each i outside S, which give the
    body's slacks off S (see the module docstring); and the labels of S.
    All of it depends on the normals alone, so each bounded set's entry is
    remembered, keyed on integers, with its rational normals, made once,
    and the volume polynomial of each face complex, made on first request
    (:func:`volume_polynomial`); an unbounded set is tested, and raises, on
    every call."""
    key = (labels, tuple(map(tuple, rows)), c)
    got = _BOUNDED.get(key)
    if got is None:
        n, d = len(rows), len(rows[0])
        lin = LinSubspace(labels, [tuple(r[k] for r in rows) for k in range(d)])
        if lin.dim != d or orthant_shift([0] * n, 1, lin.perp().rows) is None:
            raise PolytopeError("unbounded: the normals do not positively span the space")
        eye = [[int(j == k) for j in range(d)] for k in range(d)]
        full_rank = list(range(d))
        charts = []
        for S in combinations(range(n), d):
            # [N'_S | I] ends at [prev I | A_S] when N'_S is invertible
            M, pivots, prev, _ = linalg.eliminate([list(rows[i]) + e for i, e in zip(S, eye)])
            if pivots == full_rank:
                A = [row[d:] for row in M]
                sgn = 1 if prev > 0 else -1
                W = [(i, [sgn * sum(map(mul, rows[i], col)) for col in zip(*A)])
                     for i in range(n) if i not in S]
                charts.append((S, prev, A, W, frozenset(labels[i] for i in S)))
        normals = tuple(tuple(Rational(a, c) for a in r) for r in rows)
        got = _BOUNDED[key] = _NormalSet(key, lin, normals, charts, {})
    return got


def volume(P: SimplePolytope):
    """Exact Euclidean volume: the volume polynomial at P's own support
    numbers, on integers, over C * D^d (``_shared_volume_polynomial``)."""
    terms, (t,), scale = _shared_volume_polynomial([P])
    return Rational(_int_value(terms, t), scale)


def volume_polynomial(P: SimplePolytope) -> hered.HereditaryPoly:
    """The unique polynomial giving the volume on the deformation cone:
    the hereditary polynomial whose mixed derivative at each vertex F is
    1 / |det(normals of F)|.  Cached per face complex in the normal set's
    entry (``_require_bounded``)."""
    cache = _require_bounded(*P._set).volpolys
    got = cache.get(P.delta.facets)
    if got is None:
        normal = dict(zip(P.labels, P.normals))
        w = {F: ONE / abs(linalg.det([normal[lab] for lab in F])) for _, _, F in P._found}
        got = cache[P.delta.facets] = hered.from_weights(P.delta, P.lin, w)
    return got


def _shared_volume_polynomial(bodies: Sequence[SimplePolytope]) -> tuple[list, list, int]:
    """The volume polynomial of bodies on one normal set and one face
    complex, on integers: (its terms times C, the support vectors times D,
    C * D^d), with C the common denominator of its coefficients and D that
    of all the bodies' support numbers.  The polynomial is homogeneous of
    degree d, so its value at a scaled point is C * D^d times its value at
    the point.  It gives volumes on body 0's closed chamber, where a simple
    body lies exactly when it has body 0's complex; others raise."""
    P = bodies[0]
    for K in bodies[1:]:
        if K._set != P._set:
            raise PolytopeError("bodies do not share the facet normal data")
        if K.delta.facets != P.delta.facets:
            raise PolytopeError("bodies do not share the facet-incidence complex: "
                                "their support numbers lie in different chambers")
    f = volume_polynomial(P).f
    ts, D = linalg.ratios_scaled([K._t for K in bodies])
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
    if not polys:
        raise PolytopeError("the mixed volume needs d bodies in dimension d, got none")
    d = polys[0].dim
    if len(polys) != d:
        raise PolytopeError(f"need exactly {d} bodies in dimension {d}")
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
