"""Matroids, lattices of flats, and the volume-polynomial pipeline.

Matroids arrive as explicit bases lists or as graph cycle matroids.  Bases
are kept as bitmasks over the ground set: the rank of S is the largest
popcount of S & B over the bases B.  A bases list given explicitly must
satisfy the basis-exchange axiom, checked on construction with one bitset
test per basis and element; the uniform, Fano and graphic constructors are
matroids by construction and skip that check.  A graph's rank is its
number of vertices less its number of connected components, from one
union-find pass.

The lattice of flats is generated one rank layer at a time, from the loops
up: the covers of a flat F are read off the sets B - F over the bases B
meeting F in rank(F) elements, which its parent layer hands down (see
:func:`flats`), so no closure is taken and every flat arrives with its
rank.  It is materialized
with covers and Moebius values, all read off integer bitsets of the flats
above and below each flat, and the associated volume polynomial is the
unique facet-weight-1 reconstruction over the order complex with the
modular lineality space.

Two construction routes coexist:

* the generic explicit one through :func:`lorentzlab.hereditary.from_weights`
  (used for small lattices and for all cross-validation), and
* a weights-backed engine (:class:`LatticeVolume`) that never materializes
  the polynomial.  It evaluates by a recursion over the intervals of the
  lattice, on Python integers: the value on an interval [lo, hi] is a sum,
  over the flats g strictly between, of the point normalized to the
  interval at g times the values on [lo, g] and [g, hi], and one division
  at the end restores the value.  Only intervals with a nonzero value are
  kept, and a sum runs only over the g where both factors are nonzero.
  The Lorentzian certification runs on the same intervals: the cone
  witness is tested at each interval's normalized point, connectivity on
  each interval's comparability graph, and each codimension-2 Hessian is
  that of one interval of rank 3.  No chain is enumerated, which keeps
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
from .inertia import SymMatrix, inertia
from .polycore import Direction, HomPoly, LinSubspace
from .rat import Q, ZERO, ONE
from .simplicial import SimComplex, connected, face_key, face_str, label_key


def _bits(mask: int) -> list:
    """The single-bit masks of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _indices(mask: int) -> list:
    """The positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _containment(masks: Sequence[int], width: int) -> tuple[list, list]:
    """Strict containment among distinct masks, as bitsets over positions:
    up[i] holds the j with masks[i] < masks[j], down[i] those below, each
    from one AND or OR per element of the positions holding it."""
    holders = [0] * width
    for i, m in enumerate(masks):
        for e in _indices(m):
            holders[e] |= 1 << i
    everyone, full = (1 << len(masks)) - 1, (1 << width) - 1
    up, down = [], []
    for i, m in enumerate(masks):
        above, outside = everyone, 0
        for e in _indices(m):
            above &= holders[e]
        for e in _indices(full & ~m):
            outside |= holders[e]
        other = everyone & ~(1 << i)
        up.append(above & other)
        down.append(~outside & other)
    return up, down


@dataclass(frozen=True)
class Matroid:
    ground: tuple
    bases: tuple

    def __post_init__(self):
        self._index_bases()
        self._check_exchange()

    @classmethod
    def _by_construction(cls, ground: tuple, bases) -> "Matroid":
        """A matroid whose bases satisfy exchange by construction (uniform,
        Fano, graphic): built without the exchange check."""
        M = object.__new__(cls)
        object.__setattr__(M, "ground", ground)
        object.__setattr__(M, "bases", tuple(bases))
        M._index_bases()
        return M

    def _index_bases(self):
        bs = tuple(sorted({frozenset(b) for b in self.bases}, key=face_key))
        if not bs:
            raise ValueError("a matroid needs at least one basis")
        sizes = {len(b) for b in bs}
        if len(sizes) != 1:
            raise ValueError("bases are not equicardinal")
        elems = tuple(dict.fromkeys(self.ground))
        bit = {e: 1 << i for i, e in enumerate(elems)}
        for b in bs:
            if not b <= bit.keys():
                raise ValueError("basis uses unknown elements")
        object.__setattr__(self, "bases", bs)
        object.__setattr__(self, "_elems", elems)
        object.__setattr__(self, "_bit", bit)
        object.__setattr__(self, "_full", (1 << len(elems)) - 1)
        object.__setattr__(self, "_basis_masks", tuple(self._mask(b) for b in bs))

    def _check_exchange(self):
        """Basis exchange: for bases A != B and a in A - B, some b in B - A
        makes A - a + b a basis.  With holding[x] the bitset of the bases
        that contain x, the bases B that some exchange of a from A reaches
        are those holding a or some x with A - a + x a basis, and the rest
        fail: one bitset test per basis A and element a.  The failure named
        is the first in the order of the pairwise loop (A, then B, then a),
        ``exchange_oracle`` in ``tests/oracles.py``."""
        masks = self._basis_masks
        present = set(masks)
        holding: dict[int, int] = {}
        for j, B in enumerate(masks):
            for x in _bits(B):
                holding[x] = holding.get(x, 0) | 1 << j
        everyone = (1 << len(masks)) - 1
        for A, bA in zip(masks, self.bases):
            outside = _bits(self._full & ~A)
            fails = {}
            for a in _bits(A):
                reach = holding[a]
                for x in outside:
                    if (A ^ a) | x in present:
                        reach |= holding[x]
                if reach != everyone:
                    fails[a] = everyone & ~reach
            if fails:
                first = min(f & -f for f in fails.values())
                a = next(a for a, f in fails.items() if f & first)
                (e,) = self._elements(a)
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
        return len(self.bases[0])

    def rank(self, S: Iterable) -> int:
        s = self._mask(S)
        return max((s & b).bit_count() for b in self._basis_masks)

    @classmethod
    def uniform(cls, r: int, n: int) -> "Matroid":
        ground = tuple(range(1, n + 1))
        bases = [frozenset(b) for b in combinations(ground, r)] or [frozenset()]
        return cls._by_construction(ground, bases)

    @classmethod
    def from_graph(cls, n_vertices: int, edges: Sequence[Sequence]) -> "Matroid":
        """Cycle matroid: ground set = edge indices, bases = maximal forests.

        The rank is the number of vertices less the number of connected
        components, from one union-find pass over all edges; the bases are
        the edge subsets of that size that form a forest.  Isolated vertices
        change neither, so union-find runs over the edges' endpoints only.
        """
        if type(n_vertices) is not int or n_vertices < 0:
            raise ValueError(f"graph vertices must be a non-negative integer, got {n_vertices!r}")
        m = len(edges)
        for i, e in enumerate(edges):
            if len(e) != 2 or not all(type(u) is int and 0 <= u < n_vertices for u in e):
                raise ValueError(f"edge {i} = {list(e)} needs two vertices in 0..{n_vertices - 1}")
        singletons = {u: u for e in edges for u in e}

        def joins(idxs) -> int:
            """How many of the edges, taken in order, join two components."""
            parent = singletons.copy()

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

        rank = joins(range(m))
        bases = [frozenset(c) for c in combinations(range(m), rank) if joins(c) == rank]
        return cls._by_construction(tuple(range(m)), bases)

    @classmethod
    def fano(cls) -> "Matroid":
        lines = [{1, 2, 3}, {1, 4, 5}, {1, 6, 7}, {2, 4, 6}, {2, 5, 7}, {3, 4, 7}, {3, 5, 6}]
        ground = tuple(range(1, 8))
        bases = [frozenset(b) for b in combinations(ground, 3) if set(b) not in lines]
        return cls._by_construction(ground, bases)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Matroid":
        if not isinstance(data, Mapping):
            raise ValueError("a matroid is a JSON object with 'ground' and 'bases', or 'graph'")
        if "graph" in data:
            g = data["graph"]
            return cls.from_graph(g["vertices"], [tuple(e) for e in g["edges"]])
        return cls(tuple(data["ground"]), tuple(frozenset(b) for b in data["bases"]))


class FlatLattice:
    """A lattice of flats with ranks, covers and Moebius values.

    ``flats`` lists the flats by rank (bottom first, top last) and a flat's
    index is its place there; ``ranks[i]`` is its rank, ``masks[i]`` its
    element mask over ``elems``, and ``up[i]``/``down[i]`` the bitsets of
    the flats strictly above/below it, from which covers and Moebius values
    are read.  Validates exhaustively: containment covers raise the rank by
    one, flats are closed under pairwise intersection, and for each flat the
    cover differences partition the complement.

    Given a family of sets, the ranks are the lengths of the longest chains
    from the bottom; :func:`flats` hands over the ranks it generated the
    flats by (:meth:`_ranked`).
    """

    def __init__(self, ground: tuple, flats: Iterable[frozenset]):
        flats = {frozenset(F) for F in flats}
        elems = tuple(sorted(set().union(*flats), key=label_key))
        bit = {e: 1 << i for i, e in enumerate(elems)}
        mask = {F: sum(bit[e] for e in F) for F in flats}
        # ranks by longest chain from the bottom: a flat has rank > k exactly
        # when some flat of rank >= k lies strictly below it
        pool = tuple(mask.values())
        _, below = _containment(pool, len(elems))
        ranked: dict[int, int] = {}
        level, k = (1 << len(pool)) - 1, 0
        while level:
            for i in _indices(level):
                ranked[pool[i]] = k
            level = sum(1 << i for i in _indices(level) if below[i] & level)
            k += 1
        self._build(ground, elems, ranked, mask[min(flats, key=len)], mask[max(flats, key=len)])

    @classmethod
    def _ranked(cls, ground: tuple, elems: tuple, layers: Sequence[Iterable[int]]) -> "FlatLattice":
        """The lattice of the flats ``layers[k]`` of rank k, element masks
        over ``elems``: the bottom alone in the first layer, the top alone
        in the last."""
        L = object.__new__(cls)
        (bottom,), (top,) = layers[0], layers[-1]
        L._build(ground, elems, {m: k for k, layer in enumerate(layers) for m in layer}, bottom, top)
        return L

    def _build(self, ground: tuple, elems: tuple, ranked: Mapping[int, int], bottom: int, top: int):
        """Order the masks by rank and then by face key, decode them once,
        take containment once, and check the axioms."""
        self.ground = tuple(ground)
        self.elems = elems
        keys = [label_key(e) for e in elems]
        decoded = {}
        for m in ranked:
            idx = _indices(m)
            decoded[m] = (ranked[m], tuple(sorted(keys[i] for i in idx)), frozenset(elems[i] for i in idx))
        order = sorted(ranked, key=lambda m: decoded[m][:2])
        self.masks = tuple(order)
        self.ranks = [ranked[m] for m in order]
        self.flats = tuple(decoded[m][2] for m in order)
        self.rank = dict(zip(self.flats, self.ranks))
        self.bottom, self.top = decoded[bottom][2], decoded[top][2]
        self.proper = self.flats[1:-1]
        self.index = {F: i for i, F in enumerate(self.flats)}
        self.up, self.down = _containment(self.masks, len(elems))
        # layers[k]: the flats of rank k; covers_up[i]: the flats above flat
        # i with one more rank
        self.layers = [0] * (max(self.ranks) + 2)
        for i, k in enumerate(self.ranks):
            self.layers[k] |= 1 << i
        self.covers_up = [u & self.layers[k + 1] for u, k in zip(self.up, self.ranks)]
        self._check_axioms()
        self._mobius: dict[int, list] = {}

    def _check_axioms(self):
        flats, masks, up = self.flats, self.masks, self.up
        covers = [_indices(c) for c in self.covers_up]
        for u, c, cs in zip(up, self.covers_up, covers):
            # the containment covers of a flat are the minimal flats above
            # it: every other flat above it lies above one of them
            above = 0
            for j in cs:
                above |= up[j]
            if u & ~c & ~above:
                raise ValueError("lattice is not graded by containment covers")
        present = set(masks)
        for i, m in enumerate(masks):
            if not present.issuperset(map(m.__and__, masks[i + 1:])):
                # the first failing pair in flats order has i < j
                j = next(j for j in range(i + 1, len(masks)) if m & masks[j] not in present)
                raise ValueError(f"intersection {face_str(flats[i] & flats[j])} is not a flat")
        top = masks[self.index[self.top]]
        for i, (m, cs) in enumerate(zip(masks, covers)):
            # cover differences never overlap: two overlapping covers would
            # meet in a flat strictly between F and one of them, which the
            # rank and intersection checks above already rule out
            seen = 0
            for j in cs:
                seen |= masks[j]
            if seen & ~m != top & ~m:
                raise ValueError(f"cover differences above {face_str(flats[i])} do not partition the complement")

    @property
    def rank_total(self) -> int:
        return self.rank[self.top]

    def mobius_row(self, i: int) -> list:
        """mu(flats[i], flats[j]) for every index j, by the lower-interval
        recursion: the flats above flat i in index order, each the negated
        sum of the row over the flats of [i, c) below it; 0 off [i, top]."""
        row = self._mobius.get(i)
        if row is None:
            row = self._mobius[i] = [0] * len(self.flats)
            row[i] = 1
            closed = self.up[i] | 1 << i
            for c in _indices(self.up[i]):
                row[c] = -sum(map(row.__getitem__, _indices(self.down[c] & closed)))
        return row


def flats(M: Matroid) -> FlatLattice:
    """All closed sets, generated one rank layer at a time from the loops
    up, the covers of each flat read off the bases of its contraction.

    **Lemma.**  Let F be a flat of rank k.  Two elements e, f outside F lie
    in different covers of F exactly when some basis B with |B & F| = k
    contains both.  *Proof.*  They lie in one cover, cl(F + e), exactly when
    rank(F + e + f) = k + 1.  If such a B contains both, (B & F) + e + f is
    independent of size k + 2, so they do not.  If rank(F + e + f) = k + 2,
    take a basis I of F: I + e + f is independent (a basis of F + e + f
    extending I has k + 2 elements), and a basis B of M extending it has
    |B & F| <= rank(F) = k, so B & F = I and B contains both.

    So with sep(e) the union of B - F over the bases B with |B & F| = k
    that contain e, the cover of F through e is cl(F + e) = E - (sep(e) -
    e); every e outside F lies in some such B (extend a basis of F + e).

    **The scan.**  Each flat F of the layer carries outs(F), the set of the
    B - F with |B & F| = rank(F) (the bases of the contraction M/F); the
    loops carry all bases.  The cover through e is read off the members of
    outs(F) that hold e, and a cover G first found above F gets
    outs(G) = {o - G : o in outs(F), o meets G}.  *Proof.*  If o = B - F meets G, then |B & G| = k + 1 and
    o - G = B - G.  Conversely, for a basis B with |B & G| = k + 1, take a
    basis J of F and f in G - F with J + f a basis of G: B' = (B - G) + J
    + f has r elements and spans what B spans (J + f and B & G both span
    G), so it is a basis, B' & F = J, and o = B' - F meets G at f with
    o - G = B - G.  Every flat of rank k + 1 covers some flat of rank k, so
    the next layer is the union of the covers of this one, and every flat
    is found, with its rank.
    """
    full = M._full
    # each flat of the layer with the bases of its contraction, B - F; the
    # loops are the elements of no basis
    layer = {full & ~reduce(or_, M._basis_masks): set(M._basis_masks)}
    layers = [tuple(layer)]
    for _ in range(M.rank_total):
        found: dict[int, set] = {}
        for F, outs in layer.items():
            rest = full & ~F
            while rest:
                # the cover through e: all but the other elements of the
                # members of outs(F) that hold e
                e = rest & -rest
                G = full & ~(reduce(or_, filter(e.__and__, outs)) & ~e)
                rest &= ~G
                if G not in found:
                    found[G] = {out & ~G for out in outs if out & G}
        layer = found
        layers.append(tuple(layer))
    return FlatLattice._ranked(M.ground, M._elems, layers)


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
        for j in _indices(L.covers_up[i]):
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
    """The all-positive strictly submodular point used as a cone witness."""
    proper = L.proper
    return Direction(proper, tuple(Q(len(F - L.bottom) * len(L.top - F)) for F in proper))


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

    The certification (:meth:`hl_check`) runs on the same intervals: each
    of its three conditions is decided once per interval [lo, hi], and a
    face it names is the interval's representative chain.  A chain of
    proper flats is an int, the bitset of its flats' indices in
    ``L.flats``; :meth:`chains` lists them all, for tests and tracing.
    """

    def __init__(self, L: FlatLattice):
        self.L = L
        self.d = L.rank_total - 1
        self.top = len(L.flats) - 1
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
        xa = [ZERO] + [Q(va.get(F, 0)) for F in L.proper] + [ZERO]
        xb = [ZERO] + [Q(vb.get(F, 0)) for F in L.proper] + [ZERO]
        s0 = lcm(*(x.denominator for x in xa + xb))
        # S0 x, with x = 0 at the bottom and the top
        xs = [x.numerator * (s0 // x.denominator) for x in xa]
        xt = [x.numerator * (s0 // x.denominator) for x in xb]
        size = [m.bit_count() for m in L.masks]
        rank, down, layers = L.ranks, L.down, L.layers
        # memo[hi][lo] = V(lo, hi), kept when nonzero; nonzero_up[lo] and
        # nonzero_down[hi] are the bitsets of the other ends of those pairs
        memo: list[dict] = [{} for _ in L.flats]
        nonzero_up = [0] * len(L.flats)
        nonzero_down = [0] * len(L.flats)
        for hi in range(1, len(L.flats)):
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
            L, E, top, proper = self.L, self.lcm_n, self.top, self.proper_mask
            low = L.masks[0].bit_count()
            n = [m.bit_count() - low for m in L.masks]
            N = n[-1]
            below = [w & L.layers[k - 1] & proper for w, k in zip(L.down, L.ranks)]
            above = [c & proper for c in L.covers_up]
            # a on the flats by rank from the atoms up, b from the coatoms
            # down; a flat with no proper cover on the pass's side gets 1
            a, b = [0] * len(n), [0] * len(n)
            for val, m, covers, order in ((a, n, below, range(1, top)),
                                          (b, [N - k for k in n], above, range(top - 1, 0, -1))):
                for f in order:
                    acc = 0
                    for g in _indices(covers[f]):
                        acc += (m[f] - m[g]) * val[g]
                    val[f] = E * N // m[f] * acc if covers[f] else 1
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

    def _scaled(self, v: Mapping) -> list:
        """S0 * v at every flat index, 0 at the bottom and the top, with S0
        the lcm of v's denominators."""
        xs = [ZERO] + [Q(v.get(F, 0)) for F in self.L.proper] + [ZERO]
        s0 = lcm(*(x.denominator for x in xs))
        return [x.numerator * (s0 // x.denominator) for x in xs]

    def _normalized(self, x: list, lo: int, hi: int) -> dict:
        """Y(g) = E * (x(g) - x(lo)) + (x(lo) - x(hi)) * (E / |hi - lo|) * |g - lo|
        at the flats g strictly between lo and hi: E = lcm(1..n) times the
        point normalized to the interval, the Y of :meth:`eval_bivariate`."""
        E, masks = self.lcm_n, self.L.masks
        n_lo = masks[lo].bit_count()
        step = (x[lo] - x[hi]) * (E // (masks[hi].bit_count() - n_lo))
        return {g: E * (x[g] - x[lo]) + step * (masks[g].bit_count() - n_lo)
                for g in _indices(self.L.up[lo] & self.L.down[hi])}

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

        * **Cone witness.**  On every interval with k >= 2, the normalized
          point Y of the canonical strictly submodular point is positive
          on (lo, hi) (:meth:`_cone_witness_intervals`, which proves that
          it always is).
        * **H-connectivity.**  Every interval with k >= 3 has a connected
          comparability graph on (lo, hi).
        * **Hessians.**  Every interval with k = 3 has
          :meth:`quadratic_hessian` with at most one positive eigenvalue;
          its certificate names the representative face (:meth:`_face`).

        When the witness fails on an interval, the verdict is the exact one
        of ``is_hereditary_lorentzian`` on the explicit polynomial, never
        "vacuous" on the witness's word.

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
        has one (:meth:`_cone_witness_intervals`), so both routes pass it.
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
        if self.d == 0:
            return hered.HLVerdict(value="yes", note="constant volume polynomial")
        v = submodular_witness(self.L)
        vmap = dict(zip(v.vars, v.coords))
        cone_ok, checked = self._cone_witness_intervals(vmap)
        if not cone_ok:
            # a failed witness does not prove the cone empty: decide exactly
            return hered.is_hereditary_lorentzian(pol_matroid(self.L))
        wide = [(lo, hi, k, mids) for lo, hi, k, mids in self._intervals() if k >= 3]
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
            note=f"cone witness certified on {checked} intervals",
        )

    def _cone_witness_intervals(self, vmap: dict) -> tuple[bool, int]:
        """Per-interval feasibility of the witness: on every interval with
        k >= 2, the normalized point Y must be positive on (lo, hi).
        Returns whether every interval passes, and how many passed.

        Success certifies genuine cone membership (the modular space sits
        inside the lineality space of every restriction, so every condition
        checked is a strengthening; a positive Y passes each gap's sum-zero
        shift test with the zero shift).  A point that fails sends
        :meth:`hl_check` to the exact route.

        **The canonical witness passes on every interval**, so no shift is
        ever needed for it.  It is x(F) = phi(a(F)) with a(F) = |F - bottom|
        and phi(a) = a (N - a), N = |top - bottom|; phi vanishes at the
        bottom and the top, where :meth:`_scaled` puts 0.  For flats lo < g
        < hi, bottom <= lo gives |g - lo| = a(g) - a(lo) and |hi - lo| =
        a(hi) - a(lo), so Y(g) is S0 E times phi at a(g) minus the chord of
        phi through a(lo) and a(hi).  phi is quadratic with leading
        coefficient -1, so that difference is (a(g) - a(lo)) (a(hi) - a(g)),
        and Y(g) = S0 E |g - lo| |hi - g| > 0, the inclusions lo < g < hi
        being strict.
        """
        x = self._scaled(vmap)
        checked = 0
        for lo, hi, _, _ in self._intervals():
            if not all(c > 0 for c in self._normalized(x, lo, hi).values()):
                return False, checked
            checked += 1
        return True, checked


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
    cross-checks the one-element deletion formula for every element.
    """
    r = L.rank_total
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
    for i in sorted(L.top - L.bottom, key=label_key):
        via_del = [0] * (d + 1)
        for k, m in _flats_missing(L, i):
            via_del[r - k - 1] += m
        agree = agree and via_del == red_mob
    return CharReport(chi=chi, reduced=red_mob, reduced_from_volume=reduced, agree=agree,
                      expansion=coeffs)


def _flats_missing(L: FlatLattice, e) -> list:
    """(rank(F), mu(bottom, F)) for the flats F other than the top that
    miss the element e, in index order."""
    bit = 1 << L.elems.index(e)
    return [(k, m) for k, m, mask in zip(L.ranks[:-1], L.mobius_row(0), L.masks) if not mask & bit]


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
    for rho, m in _flats_missing(L, min(L.top - L.bottom, key=label_key)):
        rhs[rho] += comb(d, rho) * abs(m)
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
