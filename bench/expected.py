"""Expected values the benchmark checks reports against.

Everything here is computed from closed forms and theorems with plain
integers and ``fractions.Fraction``; nothing imports ``lorentzlab``, so the
checks stay independent of the code they check.  Coefficient lists are in
ascending powers of t, as the CLI reports them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, prod

FANO_LINES = ({1, 2, 3}, {1, 4, 5}, {1, 6, 7}, {2, 4, 6}, {2, 5, 7}, {3, 4, 7}, {3, 5, 6})
# (t - 1)(t^2 - 6t + 8): the reduced polynomial of the Fano plane is [8, -6, 1]
FANO_CHI = [-8, 14, -7, 1]

NORMALS = {
    "square": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "pentagon": [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)],
    "cube": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)],
    "prism": [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)],
}


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def uniform_chi(r: int, n: int) -> list:
    """chi of U(r, n) = sum_{k<r} (-1)^k C(n, k) (t^(r-k) - 1)."""
    chi = [0] * (r + 1)
    for k in range(r):
        s = (-1) ** k * comb(n, k)
        chi[r - k] += s
        chi[0] -= s
    return chi


def complete_graph_chi(n: int) -> list:
    """chi of M(K_n) = (t - 1)(t - 2)...(t - n + 1)."""
    chi = [1]
    for k in range(1, n):
        chi = _poly_mul(chi, [-k, 1])
    return chi


def graph_chi(n_vertices: int, edges: list) -> list:
    """chi of a cycle matroid: the chromatic polynomial by Whitney's subset
    expansion, sum over edge sets S of (-1)^|S| t^c(S), divided by t^c(G)."""

    def components(subset) -> int:
        parent = list(range(n_vertices))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        count = n_vertices
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                count -= 1
        return count

    chromatic = [0] * (n_vertices + 1)
    for k in range(len(edges) + 1):
        for subset in combinations(edges, k):
            chromatic[components(subset)] += (-1) ** k
    c = components(edges)
    if any(chromatic[:c]):
        raise ValueError("chromatic polynomial not divisible by t^c")
    return chromatic[c:]


def reduced(chi: list) -> list:
    """Exact division of chi by (t - 1)."""
    out = [0] * (len(chi) - 1)
    carry = 0
    for k in range(len(chi) - 1, 0, -1):
        out[k - 1] = chi[k] + carry
        carry = out[k - 1]
    if chi[0] + carry != 0:
        raise ValueError("chi(1) != 0")
    return out


# ---------------------------------------------------------------------------
# polytopes: closed forms on the chamber of each normal set
# ---------------------------------------------------------------------------


def _linear_parts(kind: str, t: list) -> list:
    """Linear functions of the support numbers that the volume factors
    through on the chamber."""
    t = [Fraction(x) for x in t]
    if kind == "square":          # widths in x and y; no corner cut
        return [t[0] + t[2], t[1] + t[3], Fraction(0)]
    if kind == "pentagon":        # box widths and the size of the cut corner
        return [t[0] + t[3], t[2] + t[4], t[0] + t[2] - t[1]]
    if kind == "cube":            # widths in x, y and z
        return [t[0] + t[3], t[1] + t[4], t[2] + t[5]]
    if kind == "prism":           # leg of the right triangle, height
        return [t[0] + t[1] + t[2], t[3] + t[4]]
    raise ValueError(kind)


def volume(kind: str, t: list) -> Fraction:
    """Box: the product of the widths.  Pentagon: box minus the cut corner
    s^2/2.  Prism: right triangle with legs a, height h, so a^2 h / 2."""
    p = _linear_parts(kind, t)
    if kind in ("square", "pentagon"):
        return p[0] * p[1] - p[2] ** 2 / 2
    if kind == "cube":
        return p[0] * p[1] * p[2]
    return p[0] ** 2 * p[1] / 2


def mixed_volume(kind: str, ts: list) -> Fraction:
    """d! V(K_1, ..., K_d), the full polarization of the volume above; the
    diagonal gives d! times the volume."""
    ps = [_linear_parts(kind, t) for t in ts]
    if kind in ("square", "pentagon"):
        (a1, b1, s1), (a2, b2, s2) = ps
        return a1 * b2 + a2 * b1 - s1 * s2
    if kind == "cube":            # permanent of the width matrix
        return sum(prod(ps[i][sigma[i]] for i in range(3)) for sigma in permutations(range(3)))
    (a1, h1), (a2, h2), (a3, h3) = ps
    return a1 * a2 * h3 + a1 * a3 * h2 + a2 * a3 * h1


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------


def product_of_linear_forms(forms: list) -> dict:
    """Dense terms of the product of linear forms with nonnegative
    coefficients (Lorentzian, by Braenden-Huh)."""
    terms = {(0,) * len(forms[0]): 1}
    for coeffs in forms:
        nxt: dict = {}
        for exps, c in terms.items():
            for i, a in enumerate(coeffs):
                if a:
                    e = list(exps)
                    e[i] += 1
                    e = tuple(e)
                    nxt[e] = nxt.get(e, 0) + c * a
        terms = nxt
    return terms


def sparse_form(rng, n: int, d: int) -> dict:
    """A random form with 3 to 8 terms and positive integer coefficients."""
    terms = {}
    for _ in range(rng.randint(3, 8)):
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = rng.randint(1, 5)
    return terms
