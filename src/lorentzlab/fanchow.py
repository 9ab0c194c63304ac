"""Simplicial fans, degree functionals on their Chow data, ample cones,
stellar subdivision of fans, and the support-invariance checks.

A fan is a ray matrix plus a simplicial complex of cones (rays of every
cone linearly independent).  The degree functionals of grade k are carried
by polynomials of degree k supported on the cone complex whose lineality
space contains the row space of the ray matrix; reconstruction from facet
weights, the ample cone and the Lorentzian certification delegate to
:mod:`lorentzlab.hereditary`, and the fan axioms and the overlap of two
cones ask the orthant test ``cones.orthant_shift`` at the point 0.

Relative cone volumes are irrational in general, so the canonical-bijection
comparison uses squared Gram determinants plus explicit sign tracking,
which stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import hereditary as hered
from . import linalg
from . import subdivision as subdiv
from .cones import orthant_shift, solve_in_span
from .polycore import LinSubspace, direction_coords
from .rat import Q, ZERO, rat_str, read_list, read_lists, read_rat, sign
from .simplicial import SimComplex, face_key, face_str, fresh_vertex, label_key, label_str


@dataclass(frozen=True)
class Fan:
    dim: int
    ray_labels: tuple
    rays: tuple          # rational vectors aligned with ray_labels
    cones: SimComplex    # complex on ray_labels; facets = maximal cones

    def __post_init__(self):
        rays = tuple(tuple(Q(x) for x in r) for r in self.rays)
        object.__setattr__(self, "rays", rays)
        if len(rays) != len(self.ray_labels):
            raise ValueError("one ray vector per label required")
        for r in rays:
            if len(r) != self.dim:
                raise ValueError("ray has wrong ambient dimension")
            if all(x == 0 for x in r):
                raise ValueError("zero ray vector")
        if set(self.cones.vertices) != set(self.ray_labels):
            raise ValueError("cone complex vertices must match ray labels")
        idx = self._index()
        # the rays on integers once; scaling a row changes no rank
        scaled, _ = linalg.integer_scaled(rays)
        for F in self.cones.facets:
            sub = [scaled[idx[v]] for v in F]
            if len(linalg.eliminate(sub)[1]) != len(sub):
                raise ValueError(f"rays of cone {face_str(F)} are linearly dependent")

    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self.ray_labels)}

    def ray(self, label) -> tuple:
        idx = self._index()
        if label not in idx:
            raise ValueError(f"no ray labelled {label!r}")
        return self.rays[idx[label]]

    def lineality(self) -> LinSubspace:
        """L(fan): functionals evaluated on the rays, i.e. the row space of
        the coordinate-by-ray matrix."""
        rows = [tuple(r[k] for r in self.rays) for k in range(self.dim)]
        return LinSubspace(self.ray_labels, rows)

    def gram_det_sq(self, F: Iterable):
        """Squared relative volume of a cone's ray parallelotope."""
        idx = self._index()
        R = [self.rays[idx[v]] for v in F]
        return linalg.det(linalg.mat_mul(R, linalg.transpose(R)))

    def verify_fan_axioms(self) -> None:
        """Pairwise cone intersections are common faces, by the separation
        lemma (Cox, Little and Schenck, *Toric Varieties*, Lemma 1.2.13):
        simplicial cones A and B meet in their common face on A & B exactly
        when some m vanishes on the rays of A & B, is positive on those of
        A - B and negative on those of B - A.  With m ranging over
        span(A & B)^perp, that is the orthant test at 0 on the values
        (m.a for a in A - B, -m.b for b in B - A).

        Optional (quadratic in the number of maximal cones); raises on the
        first violating pair, pairs and rays in label order.
        """
        idx = self._index()

        def rays(S: Iterable, s: int) -> list:
            return [tuple(s * x for x in self.rays[idx[v]]) for v in sorted(S, key=label_key)]

        facets = sorted(self.cones.facets, key=face_key)
        for A, B in combinations(facets, 2):
            outside = rays(A - B, 1) + rays(B - A, -1)
            normals = LinSubspace(range(self.dim), rays(A & B, 1)).perp().rows
            values = LinSubspace(range(len(outside)), [[linalg.dot(m, r) for r in outside] for m in normals])
            if orthant_shift([0] * len(outside), 1, values.rows) is None:
                raise ValueError(f"cones {face_str(A)} and {face_str(B)} do not meet in a common face")

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "rays": [[rat_str(x) for x in r] for r in self.rays],
            "labels": [label_str(v) for v in self.ray_labels],
            "cones": sorted(sorted(map(label_str, f)) for f in self.cones.facets),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Fan":
        rays = [tuple(read_rat(x) for x in r) for r in read_lists(data["rays"], "rays")]
        labels = tuple(read_list(data["labels"], "labels") if "labels" in data else range(len(rays)))
        cones = []
        for c in read_lists(data["cones"], "cones"):
            # a cone of integers lists ray indices, anything else ray labels
            if all(isinstance(i, int) for i in c):
                if not all(type(i) is int and 0 <= i < len(labels) for i in c):
                    raise ValueError(f"cone {c} needs ray indices in 0..{len(labels) - 1}")
                c = [labels[i] for i in c]
            cones.append(c)
        if type(dim := data["dim"]) is not int:
            raise ValueError(f"dim {dim!r} must be an integer")
        return build_fan(dim, labels, rays, cones)


def build_fan(dim: int, labels: Sequence, rays: Sequence, cones: Sequence[Iterable]) -> Fan:
    return Fan(dim=dim, ray_labels=tuple(labels), rays=tuple(map(tuple, rays)),
               cones=SimComplex(tuple(labels), cones))


@dataclass(frozen=True)
class DegreeFunctional:
    """A functional carried by its polynomial representative, whose degree
    is the functional's grade."""

    fan: Fan
    h: hered.HereditaryPoly

    def __post_init__(self):
        for S in self.h.delta.facets:
            if S and not self.fan.cones.has_face(S):
                raise ValueError(f"polynomial support {face_str(S)} is not a cone")
        lin = self.fan.lineality()
        idx = {v: i for i, v in enumerate(lin.ambient)}
        for b in lin.rows:
            vec = [b[idx[v]] for v in self.h.vars]
            if not self.h.lin.contains(vec):
                raise ValueError("polynomial is not invariant under the fan's lineality space")

    def weight(self, F: Iterable):
        """The value on the cone monomial: the mixed derivative at the facet,
        read as the coefficient of the squarefree monomial on F."""
        return self.h.f.squarefree_coeff(F)

def functional_from_weights(fan: Fan, w: Mapping) -> DegreeFunctional:
    """The unique top-grade functional with prescribed facet values; raises
    BalancingError when the weights are not balanced."""
    weights = {frozenset(F): Q(c) for F, c in w.items()}
    h = hered.from_weights(fan.cones, fan.lineality(), weights)
    return DegreeFunctional(fan=fan, h=h)


def check_fan_lorentzian(alpha: DegreeFunctional) -> hered.HLVerdict:
    return hered.is_hereditary_lorentzian(alpha.h)


# ---------------------------------------------------------------------------
# ample cone
# ---------------------------------------------------------------------------


def ample_cone_member(fan: Fan, v) -> bool:
    """Membership in the cone of strictly convex support elements.

    The recursive-cone face walk of :mod:`lorentzlab.hereditary` with no
    polynomial, driven by (cone complex, ray lineality) alone: at every face
    of size < d the projected point must be shiftable into the open orthant
    by a lineality vector vanishing on the face.
    """
    if fan.cones.is_void():
        raise ValueError("fan has no cones")
    lin = fan.lineality()
    hered.require_hereditary(fan.cones, lin)
    walk = hered.FaceWalk(fan.cones, lin)
    return walk.member(direction_coords(v, fan.ray_labels))


# ---------------------------------------------------------------------------
# stellar subdivision of fans
# ---------------------------------------------------------------------------


def locate_relative_interior(fan: Fan, rho: Sequence) -> tuple[frozenset, tuple]:
    """The unique cone with rho in its relative interior, with the positive
    combination coefficients (aligned with the sorted face labels)."""
    rho = tuple(Q(x) for x in rho)
    if len(rho) != fan.dim:
        raise ValueError(f"the ray has length {len(rho)}, but the fan has dimension {fan.dim}")
    for S in sorted(fan.cones.faces(), key=lambda f: (len(f), face_key(f))):
        if not S:
            continue
        labels = sorted(S, key=label_key)
        try:
            return frozenset(S), solve_in_span(rho, [fan.ray(v) for v in labels])
        except ValueError:
            continue
    raise ValueError("ray is not in the relative interior of any cone")


def fan_subdivide(fan: Fan, rho: Sequence, new_label=None):
    """Stellar subdivision at an interior ray; returns the new fan and the
    functional transport map (the polynomial-side subdivision operator)."""
    S, c = locate_relative_interior(fan, rho)
    labels_sorted = tuple(sorted(S, key=label_key))
    if new_label is None:
        new_label = fresh_vertex(fan.ray_labels, prefix="r")
    new_cones = fan.cones.stellar_subdivide(S, new_vertex=new_label)
    new_fan = Fan(
        dim=fan.dim,
        ray_labels=fan.ray_labels + (new_label,),
        rays=fan.rays + (tuple(Q(x) for x in rho),),
        cones=new_cones,
    )

    def transport(alpha: DegreeFunctional) -> DegreeFunctional:
        g = subdiv.subdivide(alpha.h.f, labels_sorted, c, vertex=new_label)
        return DegreeFunctional(fan=new_fan, h=hered.check_hereditary(g))

    return new_fan, transport


def fan_weld(fan: Fan, apex, S: Iterable):
    """Inverse stellar subdivision: remove the apex ray, restoring the face S.

    The combination coefficients are recovered from the ray geometry and
    must be strictly positive.
    """
    S = frozenset(S)
    labels_sorted = tuple(sorted(S, key=label_key))
    rho, face_rays = fan.ray(apex), [fan.ray(v) for v in labels_sorted]
    try:
        c = solve_in_span(rho, face_rays)
    except ValueError:
        raise ValueError("apex ray is not a positive combination of the face rays") from None
    new_cones = fan.cones.weld(apex, S)
    keep = [i for i, v in enumerate(fan.ray_labels) if v != apex]
    new_fan = Fan(
        dim=fan.dim,
        ray_labels=tuple(fan.ray_labels[i] for i in keep),
        rays=tuple(fan.rays[i] for i in keep),
        cones=new_cones,
    )

    def transport(alpha: DegreeFunctional) -> DegreeFunctional:
        g = subdiv.weld(alpha.h.f, labels_sorted, c, apex)
        return DegreeFunctional(fan=new_fan, h=hered.check_hereditary(g))

    return new_fan, transport


class FanStep(NamedTuple):
    """One step of a fan chain: subdivide at ``ray``, or at the positive
    combination ``c`` of the rays of ``face`` when ``ray`` is None, naming
    the new ray ``vertex`` (fresh when None); or weld the ray ``vertex``
    back onto ``face``."""

    kind: str                 # "subdivide" | "weld"
    ray: tuple | None = None
    face: tuple = ()
    c: tuple = ()
    vertex: object = None


def read_step(data: Mapping) -> FanStep:
    """The one reader of fan chain steps from their JSON form: a subdivide
    step gives "ray", or "face" and "c"; a weld step gives "vertex" and
    "face"; either may name its "vertex".  A face that lists a label twice
    is an error naming it, as in ``subdivision``."""
    kind = data["kind"]
    if kind == "weld":
        step = FanStep(kind, face=subdiv.distinct_face(read_list(data["face"], "face")),
                       vertex=data["vertex"])
    elif kind != "subdivide":
        raise ValueError(f"bad step kind {kind!r}")
    elif data.get("ray") is not None:
        step = FanStep(kind, ray=tuple(read_rat(x) for x in read_list(data["ray"], "ray")),
                       vertex=data.get("vertex"))
    else:
        step = FanStep(kind, face=subdiv.distinct_face(read_list(data["face"], "face")),
                       c=tuple(read_rat(x) for x in read_list(data["c"], "c")), vertex=data.get("vertex"))
        if len(step.face) != len(step.c):
            raise ValueError("face and coefficient lists differ in length")
    hash((step.face, step.vertex))  # labels must be hashable
    return step


def transport_chain(fan: Fan, alpha: DegreeFunctional, steps: Sequence[FanStep]):
    """Apply subdivide/weld steps to a fan and its functional in lockstep
    (steps in JSON form are read by :func:`read_step`).  A subdivide step
    given by face and c needs c positive, as in ``subdivision``, and a cone
    of the current fan as its face: the combination c of its rays then lies
    in the relative interior of that cone, which is the cone subdivided."""
    for step in steps:
        if step.kind == "weld":
            fan, transport = fan_weld(fan, step.vertex, step.face)
        else:
            rho = step.ray
            if rho is None:
                if any(x <= 0 for x in step.c):
                    raise ValueError("subdivision coefficients must be positive")
                if not fan.cones.has_face(step.face):
                    raise ValueError(f"subdivision face {face_str(step.face)} is not a cone of the fan")
                rho = tuple(sum((ci * xi for ci, xi in zip(step.c, comp)), ZERO)
                            for comp in zip(*[fan.ray(v) for v in step.face]))
            fan, transport = fan_subdivide(fan, rho, new_label=step.vertex)
        alpha = transport(alpha)
    return fan, alpha


# ---------------------------------------------------------------------------
# support invariance
# ---------------------------------------------------------------------------


def _chart(fan: Fan, F: frozenset) -> tuple[list, list, list]:
    """(rays, normals, ray sum) of a full-dimensional cone F, on integers.

    Each ray is scaled to integers by its own positive denominator, which
    leaves the cone as it is.  The normals are the rows u_i of the right
    half of eliminate([R^T | I]), with R the ray matrix, times the sign of
    prev: u_i . r_j = |prev| when i = j and 0 otherwise, so x lies in the
    interior of F exactly when every u_i . x > 0."""
    idx, d = fan._index(), fan.dim
    rays = [linalg.integer_scaled([fan.rays[idx[v]]])[0][0] for v in sorted(F, key=label_key)]
    M, _, prev, _ = linalg.eliminate([[r[k] for r in rays] + [int(j == k) for j in range(d)] for k in range(d)])
    sgn = 1 if prev > 0 else -1
    normals = [[sgn * a for a in row[d:]] for row in M]
    return rays, normals, [sum(col) for col in zip(*rays)]


def _dot(u: Sequence[int], x: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, x))


def _charts_overlap(chart_a: tuple, chart_b: tuple) -> bool | None:
    """Whether two full-dimensional simplicial cones have a common interior
    point, decided by their normals where that suffices, else None.

    A normal u of one cone with u . b <= 0 on every ray b of the other
    separates their interiors; every normal of one cone positive at the
    ray sum of the other puts an interior point of the other inside it."""
    (rays_a, normals_a, sum_a), (rays_b, normals_b, sum_b) = chart_a, chart_b
    if (any(all(_dot(u, b) <= 0 for b in rays_b) for u in normals_a)
            or any(all(_dot(u, a) <= 0 for a in rays_a) for u in normals_b)):
        return False
    if all(_dot(u, sum_b) > 0 for u in normals_a) or all(_dot(u, sum_a) > 0 for u in normals_b):
        return True
    return None


def _interiors_meet(fan1: Fan, A: frozenset, fan2: Fan, B: frozenset) -> bool:
    """Whether cone A of fan1 and cone B of fan2 share a point with every
    ray coefficient positive: a positive vector in ker [R_A | -R_B], the
    orthant test at 0 on that kernel.  Rays go in label order, so the LP
    does not follow the hash seed."""
    idx1, idx2 = fan1._index(), fan2._index()
    cols = ([fan1.rays[idx1[v]] for v in sorted(A, key=label_key)]
            + [tuple(-x for x in fan2.rays[idx2[v]]) for v in sorted(B, key=label_key)])
    kernel = LinSubspace(range(len(cols)), linalg.transpose(cols)).perp()
    return orthant_shift([0] * len(cols), 1, kernel.rows) is not None


def overlapping_facet_pairs(fan1: Fan, fan2: Fan) -> list[tuple[frozenset, frozenset]]:
    """Maximal cone pairs whose relative interiors meet.

    A pair of full-dimensional cones in one ambient space is decided by
    their facet normals first (:func:`_charts_overlap`: a separating
    normal, or an interior point of one cone inside the other); every
    other pair, and a full-dimensional pair that neither test decides,
    takes the orthant test of :func:`_interiors_meet`."""
    def charts(fan: Fan, facets: list) -> dict:
        if fan1.dim != fan2.dim:
            return {}
        return {F: _chart(fan, F) for F in facets if len(F) == fan.dim}

    facets1 = sorted(fan1.cones.facets, key=face_key)
    facets2 = sorted(fan2.cones.facets, key=face_key)
    charts1, charts2 = charts(fan1, facets1), charts(fan2, facets2)
    out = []
    for A in facets1:
        for B in facets2:
            meet = None
            if A in charts1 and B in charts2:
                meet = _charts_overlap(charts1[A], charts2[B])
            if meet is None:
                meet = _interiors_meet(fan1, A, fan2, B)
            if meet:
                out.append((A, B))
    return out


def canonical_bijection_check(
    fan1: Fan, alpha1: DegreeFunctional, fan2: Fan, alpha2: DegreeFunctional,
) -> bool:
    """Volume-weighted facet values agree on overlapping maximal cones.

    Compares squared Gram determinants times squared weights, with explicit
    sign agreement; exact despite the irrational relative volumes.
    """
    if fan1.dim != fan2.dim:
        raise ValueError("fans live in different ambient dimensions")
    pairs = overlapping_facet_pairs(fan1, fan2)
    if not pairs:
        raise ValueError("no overlapping maximal cone pairs")
    for A, B in pairs:
        w1, w2 = alpha1.weight(A), alpha2.weight(B)
        if sign(w1) != sign(w2):
            return False
        if fan1.gram_det_sq(A) * w1 ** 2 != fan2.gram_det_sq(B) * w2 ** 2:
            return False
    return True
