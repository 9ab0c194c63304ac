"""Abstract simplicial complexes stored by their facets.

A face is any subset of a facet, so membership tests are subset checks and
links stay cheap at desk scale.  The complex {()} consisting of only
the empty face is distinct from the void complex with no faces at all (the
latter is the face complex of the zero polynomial).  Vertices not lying in
any facet are allowed: they index ambient coordinates (e.g. polynomial
variables that happen not to occur).  Every order and text of labels
shown comes from :func:`label_key`, :func:`label_str` and :func:`face_str`,
never the hash seed.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable, Mapping, Sequence

from .rat import read_list, read_lists

Label = Hashable


def label_key(v: Label) -> str:
    """The sort key of a label: its repr, but a set of labels (whose repr
    follows the hash seed) lists its members in ``label_key`` order."""
    if isinstance(v, frozenset):
        return "frozenset({%s})" % ", ".join(sorted(map(label_key, v))) if v else "frozenset()"
    return repr(v)


def face_key(S: Iterable[Label]) -> tuple:
    """The sort key of a face: its members' keys, sorted."""
    return tuple(sorted(map(label_key, S)))


def face_str(S: Iterable[Label]) -> str:
    """The text of a face in messages: a set literal (``{2}``, ``set()``)
    that lists its members' ``label_key`` in order."""
    keys = face_key(S)
    return "{%s}" % ", ".join(keys) if keys else "set()"


def label_str(v: Label) -> str:
    """The text of a label in reports: ``str``, or ``label_key`` of a set."""
    return label_key(v) if isinstance(v, frozenset) else str(v)


def connected(vertices: Iterable[Label], adjacency: Mapping[Label, Iterable[Label]]) -> bool:
    """Whether the graph on the given vertices is connected, by one search
    from the first; a graph with at most one vertex is."""
    vertices = list(vertices)
    if not vertices:
        return True
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


class SimComplex:
    __slots__ = ("vertices", "facets")

    def __init__(self, vertices: Sequence[Label], facets: Iterable[Iterable[Label]]):
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertices")
        fs = {frozenset(f) for f in facets}
        vset = set(vs)
        for f in fs:
            if not f <= vset:
                raise ValueError(f"facet {face_str(f)} uses unknown vertices")
        # antichain reduction: drop any facet contained in another.  Distinct
        # sets of one size already form an antichain; otherwise, largest
        # first, a set is kept unless a kept one contains it
        if len({len(f) for f in fs}) > 1:
            kept: list[frozenset] = []
            for f in sorted(fs, key=len, reverse=True):
                if not any(f < g for g in kept):
                    kept.append(f)
            fs = kept
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "facets", frozenset(fs))

    def __setattr__(self, *a):
        raise AttributeError("SimComplex is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return SimComplex, (self.vertices, self.facets)

    @classmethod
    def empty_face_only(cls, vertices: Sequence[Label] = ()) -> "SimComplex":
        return cls(vertices, [frozenset()])

    @classmethod
    def void(cls, vertices: Sequence[Label] = ()) -> "SimComplex":
        return cls(vertices, [])

    # -- basic structure -----------------------------------------------------

    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int | None:
        """Dimension (facet size - 1); None for the void complex."""
        if self.is_void():
            return None
        return max(len(f) for f in self.facets) - 1

    def has_face(self, S: Iterable[Label]) -> bool:
        S = frozenset(S)
        return any(S <= f for f in self.facets)

    def faces(self, max_size: int | None = None) -> set[frozenset]:
        out: set[frozenset] = set()
        for f in self.facets:
            top = len(f) if max_size is None else min(max_size, len(f))
            for k in range(top + 1):
                out.update(map(frozenset, combinations(f, k)))
        return out

    def faces_of_size(self, k: int) -> set[frozenset]:
        """The faces of k vertices; there are none when k < 0."""
        out: set[frozenset] = set()
        if k < 0:
            return out
        for f in self.facets:
            if len(f) >= k:
                out.update(map(frozenset, combinations(f, k)))
        return out

    def is_pure(self, d: int) -> bool:
        """Pure with all facets of cardinality d (dimension d-1)."""
        return bool(self.facets) and all(len(f) == d for f in self.facets)

    def used_vertices(self) -> frozenset:
        out = frozenset()
        for f in self.facets:
            out |= f
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SimComplex)
            and set(self.vertices) == set(other.vertices)
            and self.facets == other.facets
        )

    def __hash__(self):
        return hash((frozenset(self.vertices), self.facets))

    def __repr__(self):
        fs = [tuple(sorted(f, key=label_key)) for f in sorted(self.facets, key=face_key)]
        return f"SimComplex(vertices={list(self.vertices)!r}, facets={fs!r})"

    # -- operations -----------------------------------------------------------

    def link(self, S: Iterable[Label]) -> "SimComplex":
        S = frozenset(S)
        if not self.has_face(S):
            raise ValueError(f"{face_str(S)} is not a face")
        facets = [f - S for f in self.facets if S <= f]
        verts = set()
        for f in facets:
            verts |= f
        return SimComplex(sorted(verts, key=label_key), facets)

    def link_vertices(self, S: Iterable[Label]) -> tuple:
        """V_S: the j with S + {j} still a face, in ambient vertex order."""
        S = frozenset(S)
        out = set()
        for f in self.facets:
            if S <= f:
                out |= f - S
        return tuple(v for v in self.vertices if v in out)

    def skeleton(self) -> "SimComplex":
        """Remove all facets (the maximal faces)."""
        cand: set[frozenset] = set()
        for f in self.facets:
            if len(f) == 0:
                continue
            for v in f:
                cand.add(f - {v})
        return SimComplex(self.vertices, cand)

    def stellar_subdivide(self, S: Iterable[Label], new_vertex: Label | None = None) -> "SimComplex":
        """Subdivide at the face S: drop faces containing S, cone the rest.

        The new faces are R + {new} for every R with S not a subset of R and
        R + S a face.  The new vertex label is generated fresh unless given.
        """
        S = frozenset(S)
        if not S or not self.has_face(S):
            raise ValueError(f"{face_str(S)} is not a nonempty face")
        if new_vertex is None:
            new_vertex = fresh_vertex(self.vertices)
        elif new_vertex in self.vertices:
            raise ValueError(f"new vertex {new_vertex!r} already present")
        facets: list[frozenset] = [f for f in self.facets if not S <= f]
        for f in self.facets:
            if S <= f:
                for i in S:
                    facets.append((f - {i}) | {new_vertex})
        return SimComplex(self.vertices + (new_vertex,), facets)

    def weld(self, apex: Label, S: Iterable[Label]) -> "SimComplex":
        """Inverse of stellar subdivision at S with the given apex vertex."""
        S = frozenset(S)
        faces = set()
        for f in self.facets:
            if apex in f:
                faces.add((f - {apex}) | S)
            else:
                faces.add(f)
        return SimComplex(tuple(v for v in self.vertices if v != apex), faces)

    # -- connectivity -----------------------------------------------------------

    def is_connected(self) -> bool:
        """Connectivity of the 1-skeleton; complexes of dimension <= 0 count as connected."""
        verts = self.used_vertices()
        adj: dict = {v: set() for v in verts}
        for f in self.facets:
            for a, b in combinations(f, 2):
                adj[a].add(b)
                adj[b].add(a)
        return connected(verts, adj)

    def is_H_connected(self) -> tuple[bool, frozenset | None]:
        """Links of all faces of size <= d-2 are connected (d = facet size).

        Zero-dimensional complexes are H-connected by convention.  Returns
        (verdict, witness face with disconnected link).
        """
        if self.is_void():
            return True, None
        d = len(next(iter(self.facets)))
        if not self.is_pure(d):
            raise ValueError("H-connectedness is defined for pure complexes")
        if d <= 1:
            return True, None
        for k in range(d - 1):
            for S in sorted(self.faces_of_size(k), key=face_key):
                if not self.link(S).is_connected():
                    return False, S
        return True, None

    # -- serialization ------------------------------------------------------------

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SimComplex":
        facets = map(frozenset, read_lists(data["facets"], "facets"))
        return cls(tuple(read_list(data["vertices"], "vertices")), facets)


def fresh_vertex(existing: Iterable[Label], prefix: str = "w") -> str:
    taken = set(existing)
    k = 0
    while f"{prefix}{k}" in taken:
        k += 1
    return f"{prefix}{k}"
