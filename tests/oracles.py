"""Test oracles for the matroid engine.

* :func:`fraction_eval_bivariate` is the chain recursion of
  ``LatticeVolume.eval_bivariate`` written on exact ``Fraction``-style
  rationals, with no scaling: every pinned vector is evaluated by the
  engine's ``_ell`` and every value is divided by its degree on the spot.
  The library computes the same recursion on scaled integers.
* :func:`oracle_flats` and :func:`oracle_is_basis_family` share no code
  with ``src/``: flats by closing every subset of the ground set with a
  max-intersection rank, and basis exchange checked literally on sets.
"""

from itertools import combinations

from lorentzlab.rat import Q, ONE, ZERO


def fraction_eval_bivariate(engine, va, vb) -> list:
    """Coefficients [c_0, ..., c_d] of pol(s va + t vb), c_j the coefficient
    of s^(d-j) t^j, by the rational chain recursion."""
    d = engine.d
    if d < 0:
        raise ValueError("rank must be at least 1")
    if d == 0:
        return [ONE]
    L = engine.L
    chains = engine.chains()
    # point vectors per chain, from the canonical parent (drop last flat)
    pts = {(): {F: (Q(va.get(F, 0)), Q(vb.get(F, 0))) for F in engine.proper}}
    for chain in chains:
        if not chain or len(chain) >= d:
            continue
        parent = chain[:-1]
        G = chain[-1]
        px = pts[parent]
        verts = engine.link_vertices(chain)
        ell = engine._ell(parent, G, verts)
        xg = px[G]
        pts[chain] = {H: (px[H][0] - xg[0] * ell[H], px[H][1] - xg[1] * ell[H]) for H in verts}
    # values bottom-up by chain length
    memo = {}
    for chain in sorted(chains, key=len, reverse=True):
        k = d - len(chain)
        if k == 0:
            memo[chain] = [ONE]  # facet weight 1
            continue
        acc = [ZERO] * (k + 1)
        x = pts[chain]
        for G in engine.link_vertices(chain):
            child = memo[tuple(sorted(chain + (G,), key=lambda F: L.rank[F]))]
            a, b = x[G]
            for j, cv in enumerate(child):
                acc[j] += a * cv
                acc[j + 1] += b * cv
        memo[chain] = [c / k for c in acc]
    return memo[()]


def oracle_flats(ground, bases) -> set:
    """Every closed set, by closing every subset of the ground set."""
    bases = [frozenset(b) for b in bases]

    def rank(S):
        return max(len(S & b) for b in bases)

    def closure(S):
        r = rank(S)
        return frozenset(e for e in ground if rank(S | {e}) == r)

    return {closure(frozenset(S)) for k in range(len(ground) + 1) for S in combinations(ground, k)}


def oracle_is_basis_family(bases) -> bool:
    """Basis exchange on sets: for A, B and a in A - B, some b in B - A
    makes (A - a) + b a member."""
    family = {frozenset(b) for b in bases}
    return all(
        any((A - {a}) | {b} in family for b in B - A)
        for A in family for B in family for a in A - B
    )
