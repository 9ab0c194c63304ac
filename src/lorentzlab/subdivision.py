"""Stellar subdivision and weld operators on polynomials, and chain transport.

Welding substitutes the apex variable by the positive combination
sum_i c_i t_i and forgets it; subdividing is its inverse on the space of
polynomials supported on the subdivided complex.  The subdivision operator
is the finite sum

    f  -  (-1)^s  sum_{n=s..d}  z^n/n! * h_{n-s}(dbar) dbar^S f

where s = |S|, z = t_new - sum_i c_i t_i, dbar_i = (d/dt_i)/c_i, and h_k is
the complete homogeneous symmetric polynomial in the dbar_i for i in S.
Terms beyond n = d vanish (the derivative order exceeds the degree), so no
infinite series machinery is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial
from typing import Iterable, Mapping, Sequence

from .hereditary import HereditaryPoly, _extend_vars, check_hereditary, face_complex
from .polycore import HomPoly
from .rat import Q, ONE, read_list, read_rat
from .simplicial import face_str, fresh_vertex


@dataclass(frozen=True)
class SubdivStep:
    """One chain step: subdivide or weld at a face with positive coefficients."""

    kind: str                 # "subdivide" | "weld"
    face: tuple               # ordered face labels
    c: tuple                  # positive rationals aligned with face
    vertex: object = None     # apex label; auto-generated for subdivide if None

    def __post_init__(self):
        if self.kind not in ("subdivide", "weld"):
            raise ValueError(f"bad step kind {self.kind!r}")
        object.__setattr__(self, "face", tuple(self.face))
        object.__setattr__(self, "c", tuple(Q(x) for x in self.c))
        if len(self.face) != len(self.c):
            raise ValueError("face and coefficient lists differ in length")
        if any(x <= 0 for x in self.c):
            raise ValueError("subdivision coefficients must be positive")
        hash((self.face, self.vertex))  # labels must be hashable

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SubdivStep":
        return cls(
            kind=data["kind"],
            face=tuple(read_list(data["face"], "face")),
            c=tuple(read_rat(x) for x in read_list(data["c"], "c")),
            vertex=data.get("vertex"),
        )


def distinct_face(S: Sequence) -> tuple:
    """The face S as a tuple; a label listed twice is an error naming it."""
    S = tuple(S)
    for k, v in enumerate(S):
        if v in S[:k]:
            raise ValueError(f"face {list(S)} repeats the label {v!r}")
    return S


def weld(g: HomPoly, S: Sequence, c: Sequence, vertex) -> HomPoly:
    """Substitute t_vertex = sum_i c_i t_i and drop the apex variable."""
    if vertex not in g.vars:
        raise ValueError(f"variable {vertex!r} is absent")
    S = distinct_face(S)
    if not set(S) <= set(g.vars) - {vertex}:
        raise ValueError(f"weld face {list(S)} must be variables other than the apex {vertex!r}")
    c = [Q(x) for x in c]
    new_vars = tuple(v for v in g.vars if v != vertex)
    forms = {v: {v: ONE} for v in new_vars}
    forms[vertex] = {i: ci for i, ci in zip(S, c)}
    return g.substitute(new_vars, forms)


def subdivide(f: HomPoly, S: Sequence, c: Sequence, vertex=None) -> HomPoly:
    """The stellar subdivision operator; inverse of weld on its image.

    S must be a face of the polynomial's support complex; the result lives
    on the original variables plus the (fresh) apex variable.
    """
    S = distinct_face(S)
    c = [Q(x) for x in c]
    if len(S) != len(c) or any(x <= 0 for x in c):
        raise ValueError("need one positive coefficient per face vertex")
    if not face_complex(f).has_face(S):
        raise ValueError(f"{face_str(S)} is not a face of the support complex")
    if vertex is None:
        vertex = fresh_vertex(f.vars)
    if vertex in f.vars:
        raise ValueError(f"apex label {vertex!r} already in use")
    ext_vars = f.vars + (vertex,)
    fx = _extend_vars(f, ext_vars)
    s, d = len(S), f.degree
    z = HomPoly(ext_vars, 1, {((len(ext_vars) - 1, 1),): ONE})
    for i, ci in zip(S, c):
        z = z - HomPoly.variable(ext_vars, i).scale(ci)
    cmap = dict(zip(S, c))
    dbarS = f
    denom = ONE
    for i in S:
        dbarS = dbarS.partial(i)
        denom *= cmap[i]
    dbarS = dbarS.scale(ONE / denom)
    out = fx
    sgn = -Q((-1) ** s)
    zpow = z.pow(s)
    for n in range(s, d + 1):
        hpart = HomPoly.zero(f.vars, dbarS.degree - (n - s))
        for mu in combinations_with_replacement(S, n - s):
            g = dbarS
            scale = ONE
            for i in mu:
                g = g.partial(i)
                scale /= cmap[i]
            hpart = hpart + g.scale(scale)
        if not hpart.is_zero():
            out = out + (zpow * _extend_vars(hpart, ext_vars)).scale(sgn * Q(1, factorial(n)))
        zpow = zpow * z
    return out


@dataclass
class ChainResult:
    poly: HomPoly
    certificates: list  # per-step dicts with the strong-heredity verdicts
    hereditary: HereditaryPoly


def apply_chain(f: HomPoly, steps: Iterable[SubdivStep]) -> ChainResult:
    """Apply a subdivide/weld chain, checking strong heredity at every stage
    (steps in JSON form are read by :meth:`SubdivStep.from_json_dict`).

    Subdivide steps without an explicit apex get fresh labels w0, w1, ...;
    weld steps without one pop the most recently created apex.
    """
    current = f
    h = check_hereditary(current)
    if not h.strong:
        raise ValueError("chain input is not strongly hereditary")
    created: list = []
    certs = []
    for step in steps:
        if step.kind == "subdivide":
            vertex = fresh_vertex(current.vars) if step.vertex is None else step.vertex
            current = subdivide(current, step.face, step.c, vertex)
            created.append(vertex)
        else:
            vertex = step.vertex
            if vertex is None:
                if not created:
                    raise ValueError("weld step needs an explicit apex vertex")
                vertex = created.pop()
            current = weld(current, step.face, step.c, vertex)
        h = check_hereditary(current)
        if not h.strong:
            raise ValueError(f"intermediate after {step.kind} at {list(step.face)} is not strongly hereditary")
        certs.append({"kind": step.kind, "face": list(step.face), "vertex": vertex, "strong": True})
    return ChainResult(poly=current, certificates=certs, hereditary=h)
