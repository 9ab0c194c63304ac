"""Matroids, lattices of flats, and the volume-polynomial pipeline.

Matroids arrive as explicit bases lists or as graph cycle matroids.  Bases
are kept as bitmasks over the ground set: the rank of S is the largest
popcount of S & B over the bases B.  A bases list given explicitly must
satisfy the basis-exchange axiom, checked on construction with one bitset
test per basis and element, the uniform and Fano constructors included.
A cycle matroid keeps its graph: its rank is its number of vertices less
its number of connected components, from one union-find pass, and its
bases are formed only when read.

The lattice of flats is generated one rank layer at a time, from the loops
up, so no closure is taken and every flat arrives with its rank and its
covers (see :func:`flats`).  For a graph, a flat is a partition of the
vertices into connected blocks and a cover merges two blocks that an edge
joins; for any other matroid, the covers of a flat F are read off the sets
B - F over the bases B meeting F in rank(F) elements, which its parent
layer hands down.  :class:`FlatLattice` has one constructor, which takes
those layers and covers: the sets of flats above and below each flat are
ORed along the covers, as integer bitsets, and the Moebius values are read
off them by popcounts.  The associated volume polynomial is the unique
facet-weight-1 reconstruction over the order complex with the modular
lineality space.
It is reached in two ways:

* materialized, through :func:`lorentzlab.hereditary.from_weights`
  (:func:`pol_matroid`: small lattices and cross-validation), and
* by a weights-backed engine (:class:`LatticeVolume`) that never
  materializes the polynomial.  It evaluates by a recursion over the
  intervals of the lattice, on Python integers: the value on an interval
  [lo, hi] is a sum, over the flats g strictly between, of the point
  normalized to the interval at g times the values on [lo, g] and
  [g, hi], and one division at the end restores the value.  Only intervals with a nonzero value are
  kept, and a sum runs only over the g where both factors are nonzero.
  The Lorentzian certification runs on the same intervals: a lemma
  shows the canonical cone witness positive at each interval's normalized
  point, so it is not tested; connectivity is decided on each interval's
  comparability graph, and each codimension-2 Hessian is that of one
  interval of rank 3.  No chain is enumerated, which keeps
  rank-8 uniform matroids tractable.  The expansion along the canonical
  direction pair (alpha, beta) needs no interval recursion: there the
  values on the intervals reaching the bottom and the top are monomials,
  two integer passes over the covers find them, and one sum over the
  proper flats gives the expansion.  It is computed once per engine and
  serves the characteristic polynomial, the Heron-Rota-Welsh check and
  both closed-form evaluations.

Flats are frozensets of ground elements at the interface; inside, a flat is
an index, a set of flats (a chain, a link, an interval) one int bitset, and
frozensets are decoded only where a report or verdict names flats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb, factorial, lcm
from operator import or_
from typing import Iterable, Mapping, Sequence

from . import hereditary as hered
from . import linalg
from .inertia import SymMatrix, inertia
from .polycore import Direction, HomPoly, LinSubspace
from .rat import Q, ZERO, ONE, read_list, read_lists
from .simplicial import SimComplex, connected, face_str, label_key


def _indices(mask: int) -> list:
    """The positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _face_order(elems: tuple):
    """The key on element masks over ``elems`` whose descending order is
    face-key order on the flats of one rank: the sum of 2^(n-1-p) over the
    members, p a member's place in ``label_key`` order (the order lemma of
    :class:`FlatLattice`), by one 16-entry table per four bits."""
    n = len(elems)
    weight = [0] * (n + -n % 4)
    for p, i in enumerate(sorted(range(n), key=lambda i: label_key(elems[i]))):
        weight[i] = 1 << (n - 1 - p)
    tables = []
    for j in range(0, len(weight), 4):
        t = [0] * 16
        for v in range(1, 16):
            low = v & -v
            t[v] = t[v ^ low] + weight[j + low.bit_length() - 1]
        tables.append(t)

    def key(mask: int) -> int:
        out = 0
        for t in tables:
            out += t[mask & 15]
            mask >>= 4
        return out

    return key


def _joins(edges: Sequence, idxs: Iterable[int]) -> int:
    """How many of the edges idxs, taken in order, join two components: the
    rank of that edge set in the cycle matroid, by one union-find pass."""
    parent = {u: u for e in edges for u in e}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = 0
    for i in idxs:
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            joined += 1
    return joined


@dataclass(frozen=True)
class Matroid:
    ground: tuple
    bases: tuple

    # (n_vertices, edges) of a cycle matroid, whose bases are formed only
    # when read (see from_graph); None for a matroid given by its bases
    _graph = None

    def __post_init__(self):
        self._index_ground()
        self._index_bases()
        self._check_exchange()

    def __getattr__(self, name):
        """A cycle matroid's ``bases`` and ``_basis_masks``, formed on first
        read."""
        if name not in ("bases", "_basis_masks") or self._graph is None:
            raise AttributeError(f"'Matroid' object has no attribute {name!r}")
        object.__setattr__(self, "bases", self._spanning_forests())
        self._index_bases()
        return getattr(self, name)

    def _index_ground(self):
        elems = tuple(dict.fromkeys(self.ground))
        object.__setattr__(self, "_elems", elems)
        object.__setattr__(self, "_bit", {e: 1 << i for i, e in enumerate(elems)})
        object.__setattr__(self, "_full", (1 << len(elems)) - 1)

    def _index_bases(self):
        """The bases in face-key order, and their masks.  Bases have one
        size, so no basis contains another, and the order lemma of
        :class:`FlatLattice` gives that order by the integer key
        :func:`_face_order` of their masks."""
        bs = {frozenset(b) for b in self.bases}
        if not bs:
            raise ValueError("a matroid needs at least one basis")
        if len({len(b) for b in bs}) != 1:
            raise ValueError("bases are not equicardinal")
        if any(not b <= self._bit.keys() for b in bs):
            raise ValueError("basis uses unknown elements")
        key = _face_order(self._elems)
        pairs = sorted(((self._mask(b), b) for b in bs), key=lambda mb: key(mb[0]), reverse=True)
        object.__setattr__(self, "bases", tuple(b for _, b in pairs))
        object.__setattr__(self, "_rank", len(pairs[0][1]))
        object.__setattr__(self, "_basis_masks", tuple(m for m, _ in pairs))

    def _check_exchange(self):
        """Basis exchange: for bases A != B and a in A - B, some b in B - A
        makes A - a + b a basis.  With holding[x] the bitset of the bases
        that contain x, the bases B that some exchange of a from A reaches
        are those holding a or some x with A - a + x a basis, and the rest
        fail: one bitset test per basis A and element a.  The failure named
        is the first in the order of the pairwise loop (A, then B, then a),
        ``exchange_message`` in ``tests/oracles.py``."""
        masks = self._basis_masks
        present = set(masks)
        holding = [0] * len(self._elems)
        for j, B in enumerate(masks):
            for x in _indices(B):
                holding[x] |= 1 << j
        everyone = (1 << len(masks)) - 1
        for A, bA in zip(masks, self.bases):
            outside = _indices(self._full & ~A)
            fails = {}
            for a in _indices(A):
                reach, rest = holding[a], A ^ (1 << a)
                for x in outside:
                    if rest | (1 << x) in present:
                        reach |= holding[x]
                if reach != everyone:
                    fails[a] = everyone & ~reach
            if fails:
                first = min(f & -f for f in fails.values())
                a = next(a for a, f in fails.items() if f & first)
                e = self._elems[a]
                bB = self.bases[first.bit_length() - 1]
                raise ValueError(
                    f"bases {sorted(bA, key=label_key)} and {sorted(bB, key=label_key)} violate basis "
                    f"exchange at {e!r}: the family is not a matroid")

    def _mask(self, S: Iterable) -> int:
        bit = self._bit
        return sum(bit[e] for e in set(S) if e in bit)

    def _elements(self, mask: int) -> frozenset:
        return frozenset(e for i, e in enumerate(self._elems) if mask >> i & 1)

    @property
    def rank_total(self) -> int:
        return self._rank

    @classmethod
    def uniform(cls, r: int, n: int) -> "Matroid":
        if not 0 <= r <= n:
            raise ValueError(f"the uniform matroid U({r},{n}) needs 0 <= r <= n")
        ground = tuple(range(1, n + 1))
        return cls(ground, tuple(map(frozenset, combinations(ground, r))))

    @classmethod
    def from_graph(cls, n_vertices: int, edges: Sequence[Sequence]) -> "Matroid":
        """Cycle matroid: ground set = edge indices, bases = maximal forests.

        The rank is the number of vertices less the number of connected
        components, from one union-find pass over all edges; isolated
        vertices change neither.  The graph is kept, and :func:`flats` reads
        the lattice off it; the bases are formed only when read
        (:meth:`_spanning_forests`).
        """
        if type(n_vertices) is not int or n_vertices < 0:
            raise ValueError(f"graph vertices must be a non-negative integer, got {n_vertices!r}")
        for i, e in enumerate(edges):
            if len(e) != 2 or not all(type(u) is int and 0 <= u < n_vertices for u in e):
                raise ValueError(f"edge {i} = {list(e)} needs two vertices in 0..{n_vertices - 1}")
        edges = tuple(map(tuple, edges))
        M = object.__new__(cls)
        object.__setattr__(M, "ground", tuple(range(len(edges))))
        object.__setattr__(M, "_graph", (n_vertices, edges))
        object.__setattr__(M, "_rank", _joins(edges, range(len(edges))))
        M._index_ground()
        return M

    def _spanning_forests(self) -> tuple:
        """The bases of a cycle matroid: the edge subsets of the rank's size
        that form a forest, each tested by a union-find pass."""
        edges, r = self._graph[1], self._rank
        return tuple(frozenset(c) for c in combinations(range(len(edges)), r) if _joins(edges, c) == r)

    @classmethod
    def fano(cls) -> "Matroid":
        lines = [{1, 2, 3}, {1, 4, 5}, {1, 6, 7}, {2, 4, 6}, {2, 5, 7}, {3, 4, 7}, {3, 5, 6}]
        ground = tuple(range(1, 8))
        return cls(ground, tuple(frozenset(b) for b in combinations(ground, 3) if set(b) not in lines))

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Matroid":
        if not isinstance(data, Mapping):
            raise ValueError("a matroid is a JSON object with 'ground' and 'bases', or 'graph'")
        if "graph" in data:
            g = data["graph"]
            if not isinstance(g, Mapping):
                raise ValueError(f"graph must be a JSON object with 'vertices' and 'edges', got {g!r}")
            return cls.from_graph(g["vertices"], read_lists(g["edges"], "edges"))
        bases = tuple(map(frozenset, read_lists(data["bases"], "bases")))
        return cls(tuple(read_list(data["ground"], "ground")), bases)


class FlatLattice:
    """A lattice of flats with ranks, covers and Moebius values.

    Built, with no check, from the flats ``layers[k]`` of rank k, element
    masks over ``elems`` (the bottom alone in the first layer, the top
    alone in the last), and ``covers``, which maps a flat's mask to the
    masks of the flats covering it, as :func:`flats` finds and certifies
    them.  The flats are indexed by rank and then by face key, and a flat's
    index is its place there; ``masks[i]`` is its element mask,
    ``ranks[i]`` its rank, ``layers[k]`` the bitset of the indices of rank
    k, ``above[i]`` and ``below[i]`` the index lists of the flats covering
    it and covered by it, ``covers_up[i]`` the bitset of its covers, and
    ``up[i]``/``down[i]`` the bitsets of the flats strictly above/below it,
    ORed along the covers, from which Moebius values are read.

    ``flats`` (the frozensets, by index), ``proper`` (all but the bottom
    and the top), ``bottom`` and ``top`` are decoded from the masks on
    first read, for output; the characteristic polynomial and the
    Heron-Rota-Welsh check read none of them.

    **The order lemma.**  The flats of one rank are pairwise incomparable,
    so no flat's sorted key is a prefix of another's, and F comes before G
    in face-key order exactly when the element of F ^ G least in
    ``label_key`` order lies in F.  ``elems`` need not be in that order (a
    matroid keeps its ground set's input order, and '10' < '2'), so each
    element is weighted 2^(n-1-p), p its place in ``label_key`` order: F
    comes first exactly when its weight sum is the larger, an integer read
    off four mask bits at a time by lookup tables (:func:`_face_order`).
    """

    def __init__(self, elems: tuple, layers: Sequence[Iterable[int]], covers: Mapping[int, Iterable[int]]):
        self.elems = elems
        key = _face_order(elems)
        order, self.ranks, self.layers = [], [], []
        for k, layer in enumerate(layers):
            self.layers.append(((1 << len(layer)) - 1) << len(order))
            order += sorted(layer, key=key, reverse=True)
            self.ranks += [k] * len(layer)
        # an empty layer above the top
        self.layers.append(0)
        self.masks = tuple(order)
        pos = {m: i for i, m in enumerate(order)}
        self.above = above = [[pos[G] for G in covers.get(m, ())] for m in order]
        # every cover is one rank up, so it has a higher index: up ORs the
        # covers' up-sets from the top down, down pushes each flat's
        # down-set to its covers from the bottom up, and below lists them
        n = len(order)
        self.covers_up, up, down, self.below = [0] * n, [0] * n, [0] * n, [[] for _ in range(n)]
        for i in range(n - 1, -1, -1):
            c = u = 0
            for j in above[i]:
                c |= 1 << j
                u |= up[j]
            self.covers_up[i], up[i] = c, u | c
        for i, js in enumerate(above):
            below = down[i] | 1 << i
            for j in js:
                down[j] |= below
                self.below[j].append(i)
        self.up, self.down = up, down
        self._mobius: dict[int, list] = {}

    def __getattr__(self, name):
        """``flats``, ``proper``, ``bottom`` and ``top``, decoded on first
        read."""
        if name not in ("flats", "proper", "bottom", "top"):
            raise AttributeError(f"'FlatLattice' object has no attribute {name!r}")
        elems = self.elems
        self.flats = tuple(frozenset(elems[i] for i in _indices(m)) for m in self.masks)
        self.bottom, self.top = self.flats[0], self.flats[-1]
        self.proper = self.flats[1:-1]
        return getattr(self, name)

    @property
    def rank_total(self) -> int:
        return self.ranks[-1]

    def mobius_row(self, i: int) -> list:
        """mu(flats[i], flats[j]) for every index j, by the lower-interval
        recursion: the flats above flat i in index order, each the negated
        sum of the row over the flats of [i, c) below it; 0 off [i, top].

        The sum is read by value: ``filled[v]`` is the bitset of the flats
        of [i, c) already given the value v, so mu(i, c) = -sum over v of
        v * |down[c] & filled[v]|, and no down-set is decoded.  A geometric
        lattice has few distinct values (17 on M(K8))."""
        row = self._mobius.get(i)
        if row is None:
            row = self._mobius[i] = [0] * len(self.masks)
            row[i] = 1
            filled = {1: 1 << i}
            for c in _indices(self.up[i]):
                below = self.down[c]
                v = row[c] = -sum(v * (below & m).bit_count() for v, m in filled.items())
                filled[v] = filled.get(v, 0) | 1 << c
        return row


def flats(M: Matroid) -> FlatLattice:
    """All closed sets, generated one rank layer at a time from the loops
    up, each flat with its covers: for a cycle matroid, over the connected
    partitions of its graph; for any other, off the bases of each flat's
    contraction.  The covers are the lattice's cover relation, and
    :class:`FlatLattice` takes them as they are found.

    **Graphs: the bond lattice.**  Let V be the vertices that some edge
    touches (the others change no rank), and for a partition P of V let
    E(P) be the edges with both ends in one block.  Over the partitions
    whose blocks each induce a connected subgraph, P -> E(P) is a bijection
    onto the flats, rank(E(P)) = |V| - |P|, and the flats covering E(P) are
    the E(P') where P' merges two blocks that some edge joins (Rota, *On
    the foundations of combinatorial theory I*, 1964).  *Proof.*  rank(S)
    is |V| less the number of components of (V, S), as one union-find pass
    counts.  For a connected P the components of (V, E(P)) are its blocks,
    so rank(E(P)) = |V| - |P|, and an edge outside E(P) joins two blocks
    and raises the rank: E(P) is closed.  A flat F with components P has
    F <= E(P), and each edge of E(P) joins two vertices that F already
    connects, so it leaves the rank as it is and lies in F: F = E(P).
    Distinct connected partitions have distinct components, so the map is
    one to one.  E(P) <= E(Q) exactly when P refines Q, and one rank up
    means one block fewer, so a cover of E(P) merges two blocks A and B
    into a connected block: some edge joins them.  Conversely each such
    merge is connected, one rank up, and E(P') = E(P) + the A-B edges.

    **The graph scan.**  Each flat F of the layer carries its blocks, each
    known by the mask of the edges incident to it; the loops (every
    partition's E holds them) carry the single vertices.  An edge e outside
    F joins the two blocks A and B whose masks hold it, and the cover
    through e is G = F | (inc(A) & inc(B)), since inc(A) & inc(B) is the set
    of A-B edges for disjoint blocks.  ``rest &= ~G`` takes every A-B edge
    off the list, so each pair of blocks is visited once, and a cover first
    found above F gets the blocks of F with A and B merged.  Parallel edges
    join the same pair and fall into the same flats.

    **Other matroids: the bases scan.**  Let F be a flat of rank k.  Two
    elements e, f outside F lie in different covers of F exactly when some
    basis B with |B & F| = k contains both.  *Proof.*  They lie in one
    cover, cl(F + e), exactly when rank(F + e + f) = k + 1.  If such a B
    contains both, (B & F) + e + f is independent of size k + 2, so they do
    not.  If rank(F + e + f) = k + 2, take a basis I of F: I + e + f is
    independent (a basis of F + e + f extending I has k + 2 elements), and
    a basis B of M extending it has |B & F| <= rank(F) = k, so B & F = I
    and B contains both.

    So with sep(e) the union of B - F over the bases B with |B & F| = k
    that contain e, the cover of F through e is cl(F + e) = E - (sep(e) -
    e); every e outside F lies in some such B (extend a basis of F + e).

    Each flat F of the layer carries outs(F), the set of the B - F with
    |B & F| = rank(F) (the bases of the contraction M/F); the loops carry
    all bases.  The cover through e is read off the members of outs(F)
    that hold e, and a cover G first found above F gets outs(G) = {o - G :
    o in outs(F), o meets G}.  *Proof.*  If o = B - F meets G, then
    |B & G| = k + 1 and o - G = B - G.  Conversely, for a basis B with
    |B & G| = k + 1, take a basis J of F and f in G - F with J + f a basis
    of G: B' = (B - G) + J + f has r elements and spans what B spans (J + f
    and B & G both span G), so it is a basis, B' & F = J, and o = B' - F
    meets G at f with o - G = B - G.

    **Both scans: the certificate.**  Every flat of rank k + 1 covers one
    of rank k, so the next layer is the union of the covers of this one;
    the scan of F yields each cover once, as the covers partition E - F.

    *Lemma.*  If layer 0 is {cl(empty)}, each member of layer k is closed
    of rank k, and for each member F and each e outside F some member found
    above F contains F + e, then layer k is the set of flats of rank k and
    the members found above F are its covers: the layers are the lattice of
    flats, graded and closed under intersection.  *Proof*, by induction on
    k.  The member G found above F through e is closed of rank k + 1 and
    contains cl(F + e), of the same rank, so G = cl(F + e), a cover of F;
    each cover H of F is cl(F + e) for e in H - F, so it is found, and each
    flat of rank k + 1 covers one of rank k, a member by induction.

    Layer 0, the covering and the rank hold by construction: the scan
    starts at the loops; each e outside F is in the cover formed when e is
    lowest on the list or in an earlier one; a graph's blocks are connected
    by F's edges, one fewer per layer, and any other matroid's cover through
    e is cl(F + e) once F is closed (the bases-scan proof).  Closedness is
    certified on each member, the top included, by one mask operation per
    flat or per cover: for a graph, no edge outside F has both ends in one
    block, so each raises the rank; for any other matroid, the members of
    outs(F), the bases of M/F, cover E - F, so none is a loop of M/F.  A
    member that fails is a ValueError naming it.
    """
    full, graphic = M._full, M._graph is not None
    if graphic:
        # each flat of the layer with its blocks, by incident-edge masks;
        # the loops with the single vertices
        inc: dict[int, int] = {}
        loops = 0
        for i, (u, v) in enumerate(M._graph[1]):
            inc[u] = inc.get(u, 0) | 1 << i
            inc[v] = inc.get(v, 0) | 1 << i
            loops |= (u == v) << i
        layer = {loops: tuple(inc.values())}
    else:
        # each flat of the layer with the bases of its contraction, B - F;
        # the loops are the elements of no basis
        layer = {full & ~reduce(or_, M._basis_masks): set(M._basis_masks)}
    layers, covers = [], {}
    while layer:
        layers.append(tuple(layer))
        found: dict = {}
        for F, carried in layer.items():
            rest = full & ~F
            if not graphic and reduce(or_, carried, F) != full:
                raise ValueError(f"the flat scan found {face_str(M._elements(F))}, which is not closed: "
                                 "an element outside it lies in no basis of its contraction")
            covers[F] = above = []
            while rest:
                e = rest & -rest
                if graphic:
                    # the cover through e merges the two blocks it joins
                    ends = [b for b in carried if b & e]
                    if len(ends) != 2:
                        raise ValueError(f"the flat scan found {face_str(M._elements(F))}, which is not closed: "
                                         f"edge {e.bit_length() - 1} has both ends in one of its blocks")
                    A, B = ends
                    G = F | (A & B)
                    if G not in found:
                        found[G] = (*(b for b in carried if not b & e), A | B)
                else:
                    # all but the other elements of the members of outs(F)
                    # that hold e
                    G = full & ~(reduce(or_, filter(e.__and__, carried)) & ~e)
                    if G not in found:
                        found[G] = {out & ~G for out in carried if out & G}
                rest &= ~G
                above.append(G)
        layer = found
    return FlatLattice(M._elems, layers, covers)


def order_complex(L: FlatLattice) -> SimComplex:
    """Chains of proper flats; facets are the maximal chains."""
    proper = L.proper
    if not proper:
        return SimComplex.empty_face_only(())
    facets = []
    top = len(L.flats) - 1

    def ascend(i, chain):
        if i == top:
            facets.append(frozenset(L.flats[j] for j in _indices(chain)))
            return
        for j in L.above[i]:
            ascend(j, chain if j == top else chain | 1 << j)

    ascend(0, 0)
    return SimComplex(proper, facets)


def modular_space(L: FlatLattice) -> LinSubspace:
    """Vectors (sum of c over F - bottom) with the c summing to zero."""
    proper = L.proper
    elems = tuple(sorted(L.top - L.bottom, key=label_key))
    rows = []
    for i in range(len(elems) - 1):
        c = {elems[i]: ONE, elems[-1]: -ONE}
        rows.append(tuple(sum((c.get(e, ZERO) for e in F - L.bottom), ZERO) for F in proper))
    return LinSubspace(proper, rows)


def submodular_witness(L: FlatLattice) -> Direction:
    """The all-positive strictly submodular point used as a cone witness,
    |F - bottom| |top - F| on each proper flat F, by popcounts."""
    low, high = L.masks[0].bit_count(), L.masks[-1].bit_count()
    return Direction(L.proper, tuple(Q((m.bit_count() - low) * (high - m.bit_count())) for m in L.masks[1:-1]))


def pol_matroid(L: FlatLattice) -> hered.HereditaryPoly:
    """The explicit volume polynomial (facet weights all one).

    Materializes the full polynomial; fine through rank ~5.  Rank-1
    lattices give the constant 1.
    """
    if L.rank_total < 1:
        raise ValueError("need rank >= 1")
    if L.rank_total == 1:
        return hered.check_hereditary(HomPoly.constant((), 1))
    delta = order_complex(L)
    return hered.from_weights(delta, modular_space(L), {F: ONE for F in delta.facets})


# ---------------------------------------------------------------------------
# the weights-backed engine
# ---------------------------------------------------------------------------


class LatticeVolume:
    """Evaluation and certification engine for the volume polynomial of a
    lattice of flats, working directly from the lattice.

    General evaluation is the interval recursion of :meth:`eval_bivariate`,
    keyed by pairs of flat indices lo < hi; the flats between them are
    ``up[lo] & down[hi]``.  Its values are bivariate: every probe point is
    s * va + t * vb for two rational vectors, and all arithmetic happens on
    homogeneous coefficient lists in (s, t).  The commands need only the
    expansion along the canonical pair, which :meth:`expansion` reads off
    two scalar passes over the covers, by a lemma on that recursion; the
    recursion itself serves the tests and the benchmark's tracer.

    The certification (:meth:`hl_check`) runs on the same intervals: its
    cone witness holds on every interval [lo, hi] by a lemma, its other two
    conditions are decided once per interval, and a face it names is the
    interval's representative chain.  A chain of
    proper flats is an int, the bitset of its flats' indices in
    ``L.flats``; :meth:`chains` lists them all, for tests and tracing.
    """

    def __init__(self, L: FlatLattice):
        self.L = L
        self.d = L.rank_total - 1
        self.top = len(L.masks) - 1
        self.proper_mask = L.down[self.top] & ~1
        self._comparable = [u | w for u, w in zip(L.up, L.down)]
        self.lcm_n = lcm(*range(1, (L.masks[-1] & ~L.masks[0]).bit_count() + 1))
        self._chains: list[int] | None = None
        self._expansion: list | None = None

    def chains(self) -> list[int]:
        """Every chain, the empty one first, by depth-first search over the
        flats between the chain's top flat and the top, in index order."""
        if self._chains is None:
            out = [0]
            nexts = [tuple(_indices(u & self.proper_mask)) for u in self.L.up]

            def extend(chain, low):
                for g in nexts[low]:
                    child = chain | 1 << g
                    out.append(child)
                    extend(child, g)

            extend(0, 0)
            self._chains = out
        return self._chains

    def flats_of(self, chain: int) -> tuple:
        """The flats of a chain (or any index bitset), by rank."""
        return tuple(self.L.flats[i] for i in _indices(chain))

    # -- evaluation by intervals ----------------------------------------------

    def eval_bivariate(self, va: Mapping, vb: Mapping) -> list:
        """Coefficients [c_0, ..., c_d] of pol(s va + t vb) with c_j the
        coefficient of s^(d-j) t^j, by a recursion over the intervals of
        the lattice; no chain is enumerated.

        **Recursion.**  Write x = s va + t vb, with x = 0 at the bottom and
        the top.  For flats lo < hi let k = rank(hi) - rank(lo) - 1, n_I =
        |hi - lo|, and normalize x on the open interval (lo, hi) to

            y(g) = x(g) - x(lo) + (x(lo) - x(hi)) * |g - lo| / n_I.

        Then W(lo, hi) = 1 when k = 0 and otherwise

            W(lo, hi) = (1/k) * sum over g in (lo, hi) of y(g) W(lo, g) W(g, hi),

        and pol(x) = W(bottom, top), where y = x.

        **Proof.**  Let P(lo, hi) be the volume polynomial of the interval
        [lo, hi]: the facet-weight-1 reconstruction over the order complex of
        (lo, hi), whose lineality is the sum-zero layer shifts of hi - lo
        (g -> sum of c_e over g - lo, with the c_e summing to 0).  The claim
        is W(lo, hi) = P(lo, hi)(y), by induction on k; at (bottom, top)
        y = x, which gives pol(x).  For k >= 1, Euler's identity gives
        P(y) = (1/k) * sum_g y(g) * dP/dx_g (y), and dP/dx_g at y is the
        restriction to the face {g}, the reconstruction over its link,
        evaluated at the pinned projection y - y(g) p_g (the step of the
        chain recursion, as in ``fraction_eval_bivariate`` in the tests).
        The pinned vector p_g is the sum-zero layer shift equal to 1 at g:
        |h - lo| / |g - lo| on (lo, g) and 1 - |h - g| / |hi - g| on (g, hi).
        *The link.*  The link of g in the order complex of (lo, hi) is the
        join of the order complexes of (lo, g) and (g, hi), and the
        restriction's lineality is the direct sum of the two intervals'
        sum-zero layer shifts.  The product P(lo, g) * P(g, hi) is supported
        on faces of the join, has weight 1 * 1 on each of its facets and is
        invariant under that direct sum, so by the uniqueness of the
        reconstruction behind :func:`lorentzlab.hereditary.from_weights` it
        is the restriction.  *The point.*  On (lo, g), subtracting y(g) p_g
        from y leaves x(h) - x(lo) - (x(g) - x(lo)) |h - lo| / |g - lo|,
        the normalized point of [lo, g]; on (g, hi) it leaves
        x(h) - x(g) + (x(g) - x(hi)) |h - g| / |hi - g|, that of [g, hi].
        So renormalizing y on a sub-interval gives the sub-interval's own
        y, the restriction's value is P(lo, g)(y) * P(g, hi)(y) on those
        points, which is W(lo, g) * W(g, hi) by induction, and the sum is
        the recursion.

        **Integers.**  x is scaled by S0 * E, with S0 the lcm of the
        denominators of va and vb and E = lcm(1..n); Y(g) = S0 E y(g) is an
        integer pair because n_I divides E.  The scaled
        V(lo, hi) = k! (S0 E)^k W(lo, hi) satisfies

            V(lo, hi) = sum_g C(k-1, rank(g) - rank(lo) - 1) Y(g) V(lo, g) V(g, hi),

        with V bivariate (k + 1 coefficients; Y(g) is an (s, t) pair) and
        the product a convolution; one division by d! (S0 E)^d at the end
        gives the value.

        **Nonzero intervals only.**  A term of the sum is zero unless both
        V(lo, g) and V(g, hi) are nonzero, so only nonzero values are kept,
        and the sum for [lo, hi] runs over the g where both are, skipping a
        g with Y(g) = (0, 0) as well; that is exact at any point.  For each
        hi in index order, the lo visited are the lower covers of hi (V = 1)
        and, as each V(g, hi) is found nonzero, every lo with V(lo, g)
        nonzero, highest index first: a lo never visited has no g with both
        factors nonzero, so V(lo, hi) = 0, and when lo is visited every
        V(g, hi) with lo < g is already known.  At the canonical pair x is
        affine in |F| on the proper flats, so y vanishes on every interval
        whose two ends are proper, and the values kept are the covers and
        the intervals reaching the bottom or the top.
        """
        d = self.d
        if d < 0:
            raise ValueError("rank must be at least 1")
        if d == 0:
            return [ONE]
        L, E = self.L, self.lcm_n
        (xs, xt), s0 = self._scaled(va, vb)
        size = [m.bit_count() for m in L.masks]
        rank, down, layers = L.ranks, L.down, L.layers
        # memo[hi][lo] = V(lo, hi), kept when nonzero; nonzero_up[lo] and
        # nonzero_down[hi] are the bitsets of the other ends of those pairs
        memo: list[dict] = [{} for _ in L.masks]
        nonzero_up = [0] * len(L.masks)
        nonzero_down = [0] * len(L.masks)
        for hi in range(1, len(L.masks)):
            row = memo[hi]
            found = 0
            todo = down[hi] & layers[rank[hi] - 1]
            while todo:
                lo = todo.bit_length() - 1
                todo ^= 1 << lo
                k = rank[hi] - rank[lo] - 1
                if k == 0:
                    acc = [1]
                else:
                    r_lo, n_lo = rank[lo] + 1, size[lo]
                    step = E // (size[hi] - n_lo)
                    ls, lt = xs[lo], xt[lo]
                    ds, dt = (ls - xs[hi]) * step, (lt - xt[hi]) * step
                    binom = [comb(k - 1, j) for j in range(k)]
                    acc = [0] * (k + 1)
                    for g in _indices(nonzero_up[lo] & found):
                        # Y(g) = S0 E y(g), its s and t parts
                        n = size[g] - n_lo
                        ys = E * (xs[g] - ls) + ds * n
                        yt = E * (xt[g] - lt) + dt * n
                        if not ys and not yt:
                            continue
                        c = binom[rank[g] - r_lo]
                        left, right = memo[g][lo], row[g]
                        for i, a in enumerate(left):
                            a *= c
                            for j, b in enumerate(right):
                                p = a * b
                                acc[i + j] += ys * p
                                acc[i + j + 1] += yt * p
                    if not any(acc):
                        continue
                row[lo] = acc
                found |= 1 << lo
                nonzero_up[lo] |= 1 << hi
                todo |= nonzero_down[lo]
            nonzero_down[hi] = found
        scale = factorial(d) * (s0 * E) ** d
        return [Q(c, scale) for c in memo[-1].get(0, [0] * (d + 1))]

    def expansion(self) -> list:
        """pol(s alpha + t beta) along the canonical pair, computed once, as
        the coefficients [c_0, ..., c_d] of :meth:`eval_bivariate`, by two
        integer passes over the covers of the lattice.

        ``expansion()[0]`` is pol(alpha) and ``expansion()[-1]`` is pol(beta).

        **Lemma.**  Write n(F) = |F - bottom|, N = n(top) and E = lcm(1..N).
        pol is homogeneous of degree d, so take the integer point x(F) =
        s n(F) + t (N - n(F)) on the proper flats (N alpha and N beta), 0 at
        the bottom and the top, and divide by N^d at the end.  In the
        scaled recursion V of :meth:`eval_bivariate` (S0 = 1):

        * *Two proper ends.*  x is affine in n on the proper flats, so y
          vanishes on every interval whose two ends are proper, and
          V(lo, hi) = 0 there unless hi covers lo, when V(lo, hi) = 1.
        * *[bottom, hi], hi proper.*  y(g) = x(g) - x(hi) n(g) / n(hi), so
          Y(g) = E N (n(hi) - n(g)) / n(hi) * t, pure t.  Only the g that
          hi covers leave V(g, hi) nonzero, each with binomial C(k-1, k-1)
          = 1, so V(bottom, hi) = a(hi) t^(rank hi - 1) with a(atom) = 1 and

              a(hi) = (E N / n(hi)) * sum over g covered by hi of (n(hi) - n(g)) a(g).

        * *[lo, top], lo proper.*  y(g) = (x(g) - x(lo)) + x(lo) (n(g) -
          n(lo)) / (N - n(lo)), so Y(g) = E N (n(g) - n(lo)) / (N - n(lo))
          * s, pure s.  Only the covers g of lo leave V(lo, g) nonzero, each
          with binomial C(k-1, 0) = 1, so V(lo, top) = b(lo) s^(d - rank lo)
          with b(coatom) = 1 and

              b(lo) = (E N / (N - n(lo))) * sum over covers g of lo of (n(g) - n(lo)) b(g).

          This is the recursion for a on the dual order, with N - n for n.
        * *[bottom, top].*  Y(g) = E x(g), and the term of a proper g of
          rank rho is C(d-1, rho-1) E (s n(g) + t (N - n(g))) a(g)
          t^(rho-1) b(g) s^(d-rho): with w = C(d-1, rho-1) a(g) b(g) E,
          w n(g) goes to c_(rho-1) and w (N - n(g)) to c_rho.  The value is
          c / (d! E^d N^d).

        Every division is exact, since n(hi) and N - n(lo) divide E, and
        each pair of proper flats g < h with h covering g is visited once
        per pass.  No Moebius value is read, so ``char_poly``'s comparison
        of the two routes stays a comparison.
        """
        if self._expansion is None:
            d = self.d
            if d < 0:
                raise ValueError("rank must be at least 1")
            if d == 0:
                self._expansion = [ONE]
                return self._expansion
            L, E, top = self.L, self.lcm_n, self.top
            low = L.masks[0].bit_count()
            n = [m.bit_count() - low for m in L.masks]
            N = n[-1]
            # a on the flats by rank from the atoms up, b from the coatoms
            # down; the bottom and the top keep 0 and every other term is
            # positive, so a flat with no proper cover on its side gets 1
            a, b = [0] * len(n), [0] * len(n)
            for val, m, covers, order in ((a, n, L.below, range(1, top)),
                                          (b, [N - k for k in n], L.above, range(top - 1, 0, -1))):
                for f in order:
                    acc = 0
                    for g in covers[f]:
                        acc += (m[f] - m[g]) * val[g]
                    val[f] = E * N // m[f] * acc if acc else 1
            c = [0] * (d + 1)
            for g in range(1, top):
                rho = L.ranks[g]
                w = comb(d - 1, rho - 1) * a[g] * b[g] * E
                c[rho - 1] += w * n[g]
                c[rho] += w * (N - n[g])
            scale = factorial(d) * (E * N) ** d
            self._expansion = [Q(x, scale) for x in c]
        return self._expansion

    # -- Lorentzian certification by intervals --------------------------------

    def _intervals(self):
        """(lo, hi, k, flats strictly between) for every pair of flats
        lo < hi with k = rank(hi) - rank(lo) >= 2, by hi and then lo in
        index order."""
        L = self.L
        rank = L.ranks
        for hi, below in enumerate(L.down):
            for lo in _indices(below):
                k = rank[hi] - rank[lo]
                if k >= 2:
                    yield lo, hi, k, L.up[lo] & L.down[hi]

    def _face(self, lo: int, hi: int) -> frozenset:
        """The representative face of the interval [lo, hi]: the chain of
        proper flats through lo and hi whose other gaps are covers, taking
        the lowest-index cover at each step.  Its link is (lo, hi)."""
        covers_up, down = self.L.covers_up, self.L.down
        chain = 1 << lo | 1 << hi
        for c, end in ((0, lo), (hi, self.top)):
            while c != end:
                nxt = covers_up[c] & (down[end] | 1 << end)
                c = (nxt & -nxt).bit_length() - 1
                chain |= 1 << c
        return frozenset(self.flats_of(chain & self.proper_mask))

    def _scaled(self, *vs: Mapping) -> tuple[list, int]:
        """(S0 * v for each v, S0): each point at every flat index, 0 at the
        bottom and the top, as integers, with S0 the lcm of their
        denominators (``linalg.integer_scaled``)."""
        return linalg.integer_scaled([[0, *(v.get(F, 0) for F in self.L.proper), 0] for v in vs])

    def _pin(self, below: int, g: int, above: int) -> tuple:
        """The pinned vector at flat g between the flats ``below`` and
        ``above`` (1 at g, 0 at both, constant per element on each layer),
        scaled by E = lcm(1..n).

        Returns (m_lo, c_lo, m_hi, c_hi): the layer masks g - below and
        above - g and the integers E/|g - below| and E/|above - g|.  The
        scaled value at a flat h is c_lo*|h & m_lo| - c_hi*|h & m_hi|.
        """
        E, masks = self.lcm_n, self.L.masks
        m_lo = masks[g] & ~masks[below]
        m_hi = masks[above] & ~masks[g]
        return m_lo, E // m_lo.bit_count(), m_hi, E // m_hi.bit_count()

    def quadratic_hessian(self, lo: int, hi: int) -> SymMatrix:
        """Hessian of the codimension-2 face restriction at a face whose one
        gap with flats in it is [lo, hi] (rank(hi) - rank(lo) = 3), assembled
        directly over its link, the open interval (lo, hi).

        Off-diagonal (G, H) entries are 1 exactly when G and H are
        comparable (the face extends by both); the diagonal (G, G) carries
        minus the sum, over the flats of the interval comparable to G, of
        the vector pinned at G between lo and hi.  Equal to the Hessian of
        the restriction built from the top layers (``quadratic_oracle`` in
        ``tests/oracles.py``, compared in ``tests/test_matroid.py``) at a
        fraction of the cost.  The rows are built on integers, E = lcm(1..n)
        times the Hessian, as the pinned vectors are (see :meth:`_pin`).
        """
        link = self.L.up[lo] & self.L.down[hi]
        pos = {g: k for k, g in enumerate(_indices(link))}
        rows = [[0] * len(pos) for _ in pos]
        masks, E = self.L.masks, self.lcm_n
        for g, row in zip(pos, rows):
            m_lo, c_lo, m_hi, c_hi = self._pin(lo, g, hi)
            total = 0
            for h in _indices(link & self._comparable[g]):
                total += c_lo * (masks[h] & m_lo).bit_count() - c_hi * (masks[h] & m_hi).bit_count()
                row[pos[h]] = E
            row[pos[g]] = -total
        return SymMatrix.from_scaled(self.flats_of(link), rows, E)

    def hl_check(self) -> hered.HLVerdict:
        """The hereditary-Lorentzian certification without the explicit
        polynomial, deciding each condition once per interval [lo, hi] of
        the lattice, k = rank(hi) - rank(lo); no chain is enumerated.

        * **Cone witness.**  The canonical strictly submodular point is in
          the cone by the lemma below, with nothing tested: on every
          interval with k >= 2 its normalized point Y is positive on (lo,
          hi).  The note counts those intervals.
        * **H-connectivity.**  Every interval with k >= 3 has a connected
          comparability graph on (lo, hi).
        * **Hessians.**  Every interval with k = 3 has
          :meth:`quadratic_hessian` with at most one positive eigenvalue;
          its certificate names the representative face (:meth:`_face`).

        **Lemma: the canonical witness is positive on every interval.**  At
        the flats g strictly between lo and hi, E = lcm(1..n) times the point
        x normalized to the interval, the Y of :meth:`eval_bivariate`, is
        Y(g) = E (x(g) - x(lo)) + (x(lo) - x(hi)) (E / |hi - lo|) |g - lo|,
        with x = 0 at the bottom and the top.  The witness is x(F) =
        phi(a(F)) with a(F) = |F - bottom| and phi(a) = a (N - a), N = |top
        - bottom|; phi vanishes at the bottom and the top.  For flats lo < g
        < hi, bottom <= lo gives |g - lo| = a(g) - a(lo) and |hi - lo| =
        a(hi) - a(lo), so Y(g) is E times phi at a(g) minus the chord of phi
        through a(lo) and a(hi).  phi is quadratic with leading coefficient
        -1, so that difference is (a(g) - a(lo)) (a(hi) - a(g)), and Y(g) =
        E |g - lo| |hi - g| > 0, the inclusions lo < g < hi being strict.
        A positive Y passes each gap's sum-zero shift test with the zero
        shift, and the modular space sits inside the lineality space of
        every restriction, so the point is a genuine member of the cone
        (``interval_normalized`` in ``tests/oracles.py`` computes Y, and the
        tests check the identity).

        **Proof that this is the face-by-face certification** (the chain
        route, ``chain_hl_check`` in ``tests/oracles.py``).  A face is
        a chain c of proper flats; its gaps are the intervals between
        consecutive flats of bottom, c, top, with gap ranks k_i summing to
        d + 1, and its link is the join of the gaps' open intervals.  The
        restriction at c is the product of the gaps' interval polynomials,
        each at its own normalized point, and its lineality holds the direct
        sum of the gaps' sum-zero layer shifts (the proof of
        :meth:`eval_bivariate`, one gap at a time).  The point projected
        down c is, on each gap, a positive multiple of that interval's Y:
        projecting at one flat g leaves on [lo, g] and [g, hi] their own
        normalized points (the renormalization step of that proof).  Every
        interval with k >= 2 is the gap of the chain through lo and hi whose
        other gaps are covers, of length d + 1 - k.
        *Cone.*  Face by face, the witness is tested at each chain of
        length < d - 1 on each gap by the shift test, which a positive scale
        leaves alone, and at each chain of length d - 1, whose one non-cover
        gap has k = 2, by the point summing positive over the link.  A
        positive Y on every interval passes both, and the canonical witness
        has one (the lemma), so both routes pass it.
        *Connectivity.*  A link with two occupied gaps is connected, every
        cross-gap pair being comparable; a chain of length j <= d - 2 with
        one occupied gap has k = d + 1 - j >= 3 there, and its link is (lo,
        hi).
        *Hessians.*  A chain of length d - 2 has sum(k_i - 1) = 2: either
        one gap with k = 3, whose Hessian is :meth:`quadratic_hessian` of
        that interval, or two gaps with k = 2.  Then each open interval is
        an antichain of atoms, the restriction is the product of the two
        sums of their variables, and the Hessian is [[0, J], [J^T, 0]] with
        J all ones: eigenvalues +-sqrt(|A||B|) and n - 2 zeros, inertia
        (1, 1, n - 2), so that matrix is never formed.
        """
        if self.d < 0:
            raise ValueError("need rank >= 1")
        if self.d == 0:
            return hered.HLVerdict(value="yes", note="constant volume polynomial")
        v = submodular_witness(self.L)
        vmap = dict(zip(v.vars, v.coords))
        intervals = list(self._intervals())
        wide = [(lo, hi, k, mids) for lo, hi, k, mids in intervals if k >= 3]
        for lo, hi, _, mids in wide:
            verts = tuple(_indices(mids))
            if not connected(verts, {g: tuple(_indices(self._comparable[g] & mids)) for g in verts}):
                return hered.HLVerdict(value="no", h_connected=False, c_witness=self._face(lo, hi),
                                       cone_witness=vmap)
        certs = [(self._face(lo, hi), inertia(self.quadratic_hessian(lo, hi)))
                 for lo, hi, k, _ in wide if k == 3]
        q_wit = next((S for S, inr in certs if inr.pos > 1), None)
        if q_wit is not None:
            return hered.HLVerdict(value="no", h_connected=True, q_certificates=certs,
                                   q_witness=q_wit, cone_witness=vmap,
                                   note="codimension-2 Hessian fails")
        return hered.HLVerdict(
            value="yes", h_connected=True, q_certificates=certs, cone_witness=vmap,
            note=f"cone witness certified on {len(intervals)} intervals",
        )


# ---------------------------------------------------------------------------
# characteristic polynomial, two routes
# ---------------------------------------------------------------------------


@dataclass
class CharReport:
    chi: list                 # coefficients, index = power of t
    reduced: list             # reduced characteristic polynomial coefficients
    reduced_from_volume: list # via the derivative route on the volume polynomial
    agree: bool
    expansion: list           # bivariate volume expansion along (alpha, beta)


def volume_engine(L: FlatLattice) -> LatticeVolume:
    eng = getattr(L, "_volume_engine", None)
    if eng is None:
        eng = LatticeVolume(L)
        L._volume_engine = eng
    return eng


def char_poly(L: FlatLattice) -> CharReport:
    """Moebius-sum route and mixed-derivative route, compared exactly.

    The Moebius route is the defining sum over flats; the volume route
    reads the reduced coefficients off the bivariate expansion of the
    volume polynomial along the canonical direction pair.  Also
    cross-checks the one-element deletion formula for every element, once
    per atom: parallel elements share one (:func:`_missing_counts`).
    """
    r = L.rank_total
    if r < 1:
        raise ValueError("need rank >= 1")
    # the Moebius values are integers, so the sums stay Python ints
    mu, ranks = L.mobius_row(0), L.ranks
    chi = [0] * (r + 1)
    for k, m in zip(ranks, mu):
        chi[r - k] += m
    red_mob = _divide_by_t_minus_1(chi)
    d = r - 1
    coeffs = volume_engine(L).expansion()
    # coefficient of s^(d-j) t^j equals C(d,j) a_{d-j} / d! with
    # a_m the m-fold alpha, (d-m)-fold beta derivative
    reduced = [ZERO] * (d + 1)
    for j in range(d + 1):
        m = d - j
        a_m = coeffs[j] * Q(factorial(d), comb(d, m))
        reduced[m] = a_m if (d - m) % 2 == 0 else -a_m
    agree = reduced == red_mob
    for counts in _missing_counts(L, L.layers[1]):
        via_del = [0] * (d + 1)
        for (k, m), n in counts.items():
            via_del[r - k - 1] += m * n
        agree = agree and via_del == red_mob
    return CharReport(chi=chi, reduced=red_mob, reduced_from_volume=reduced, agree=agree,
                      expansion=coeffs)


def _missing_counts(L: FlatLattice, atoms: int) -> list:
    """For each atom a of the index bitset ``atoms``, in index order, the
    count of each pair (rank(F), mu(bottom, F)) over the flats F other
    than the top that miss the elements of a.

    A flat that holds one element of a holds its closure, a, so those
    flats are the indices ~(up[a] | 1 << a), the top being a or above it;
    they are counted by popcounts against the bitset of each (rank,
    value) pair, as :meth:`FlatLattice.mobius_row` sums by value."""
    classes: dict[tuple, int] = {}
    for j, km in enumerate(zip(L.ranks, L.mobius_row(0))):
        classes[km] = classes.get(km, 0) | 1 << j
    out = []
    for a in _indices(atoms):
        miss = ~(L.up[a] | 1 << a)
        out.append({km: n for km, held in classes.items() if (n := (held & miss).bit_count())})
    return out


def _divide_by_t_minus_1(coeffs: list) -> list:
    """Exact division by (t - 1); remainder must vanish."""
    out = [0] * (len(coeffs) - 1)
    carry = 0
    for k in range(len(coeffs) - 1, 0, -1):
        out[k - 1] = coeffs[k] + carry
        carry = out[k - 1]
    if coeffs[0] + carry != 0:
        raise ValueError("polynomial is not divisible by t - 1")
    return out


@dataclass
class HRWReport:
    reduced_abs: list
    log_concave: bool
    mixed_identity: bool
    char: CharReport          # the characteristic polynomial report it rests on


def hrw_check(L: FlatLattice) -> HRWReport:
    """Log-concavity of the reduced characteristic coefficients, plus the
    exact bivariate expansion identity against the Moebius data."""
    rep = char_poly(L)
    if not rep.agree:
        raise AssertionError("characteristic polynomial routes disagree")
    seq = [abs(c) for c in rep.reduced]
    ok = all(seq[k] ** 2 >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1))
    d = L.rank_total - 1
    lhs = [c * factorial(d) for c in rep.expansion]
    rhs = [0] * (d + 1)
    # the flats missing the least element of top - bottom in label_key
    # order: by the order lemma of FlatLattice it lies in the first atom
    (counts,) = _missing_counts(L, 1 << 1)
    for (rho, m), n in counts.items():
        rhs[rho] += comb(d, rho) * abs(m) * n
    # rhs[j]: coefficient of t^rho s^(d-rho) matches lhs index j = rho
    mixed = lhs == rhs
    return HRWReport(reduced_abs=seq, log_concave=ok, mixed_identity=mixed, char=rep)


def eval_alpha(L: FlatLattice):
    """Volume-polynomial value at the rank-density point."""
    return volume_engine(L).expansion()[0]


def eval_beta(L: FlatLattice):
    """Volume-polynomial value at the corank-density point."""
    return volume_engine(L).expansion()[-1]


def bergman_fan(L: FlatLattice):
    """Rays are flat indicator vectors in the quotient by the all-ones line
    (last ground element's coordinate dropped); cones follow the chains."""
    from .fanchow import Fan

    if L.rank_total < 1:
        raise ValueError(f"the Bergman fan needs rank >= 1, got rank {L.rank_total}")
    elems = sorted(L.top - L.bottom, key=label_key)
    drop = elems[-1]
    coords = elems[:-1]
    rays = {}
    for F in L.proper:
        shift = ONE if drop in F else ZERO
        rays[F] = tuple((ONE if e in F else ZERO) - shift for e in coords)
    delta = order_complex(L)
    return Fan(dim=len(coords), ray_labels=tuple(L.proper),
               rays=tuple(rays[F] for F in L.proper), cones=delta)
