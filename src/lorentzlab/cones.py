"""Exact strict positivity modulo a subspace, and polyhedral cone utilities.

Every cone question of the library is one test: :func:`orthant_shift`
takes a point as integers over one positive denominator and a subspace L
by its integer rows, and finds an integer combination s of the rows and
q > 0 with q y + s strictly positive, or proves there is none.  The face
walk of :mod:`lorentzlab.hereditary` asks it at every face, on projected
points that are already integer vectors, so no rational is formed.  The
boundedness of a polytope (Stiemke's lemma), the fan axioms (the
separation lemma), the overlap of two cones and the coupled cone search
(:func:`strict_feasible`, Az > 0 as a positive vector of the column space
of A) all ask it at the point 0, with a subspace of their own.

The test is one LP, run by an exact simplex with Bland's rule
(guaranteed termination, no numerical tolerance anywhere).  It runs on an
integer-preserving tableau (Edmonds 1967): it takes integer data, its
rows are Python ints over one common denominator D, the last pivot, and
every pivot divides exactly by the D before it.  Ratios are compared by
cross-multiplying, so the pivots and the solution are those of the
rational tableau, and the solution is returned as integers over D: no
rational is formed from the input to the witness.  A pivot with p = D,
the common case on these sparse 0/1 systems, rewrites only the columns
where the pivot row is nonzero.  Strict positivity is
decided by maximizing a slack eps under a cap.  The slack is shifted by
mu >= 0 so that every right-hand side is nonnegative: the simplex starts
at the slack basis, with no phase 1, and strict positivity holds iff the
optimum exceeds mu.  Every witness is re-verified on the integers before
it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Sequence

from . import linalg
from .polycore import LinSubspace
from .rat import Q, Rational, read_lists, read_rat


# ---------------------------------------------------------------------------
# exact simplex
# ---------------------------------------------------------------------------


def _pivot(T: list, basis: list, D: int, r: int, col: int) -> int:
    """One integer-preserving pivot on T[r][col]; returns the new D.

    The tableau is T / D, its last row the objective.  The pivot row y
    keeps its integers, negated if need be so that the pivot p = y[col],
    the next D, is positive.  Every other row a, with f = a[col], becomes
    (p*a - f*y) / D, an exact division.  When p = D that is a - f*y/D: a
    row with f = 0 stays as it is, and a row with f != 0 changes only in
    the columns where y is nonzero, so only those are rewritten.  Both
    ways give the same integers, hence the same tableau, pivots and
    results."""
    prow = T[r]
    p = prow[col]
    if p < 0:
        p = -p
        T[r] = prow = [-y for y in prow]
    if p == D:
        support = [(j, y) for j, y in enumerate(prow) if y]
        for i, row in enumerate(T):
            f = row[col]
            if f and i != r:
                for j, y in support:
                    row[j] -= f * y // D
    else:
        for i, row in enumerate(T):
            if i != r:
                f = row[col]
                T[i] = [(p * a - f * y) // D for a, y in zip(row, prow)]
    basis[r] = col
    return p


def lp_max(c: Sequence[int], A: Sequence[Sequence[int]], b: Sequence[int]):
    """Maximize c.x subject to Ax <= b, x >= 0, exactly, on integers c, A
    and b >= 0.

    Returns ("optimal", x, D), x the integer basic solution over the last
    pivot D > 0 (the optimal point is x / D and the optimum c.x / D), or
    ("unbounded", None, None).  As b >= 0, x = 0 is a vertex: Bland's rule
    starts at the slack basis, and some b_i < 0 raises ValueError before
    any pivot.
    """
    if any(bi < 0 for bi in b):
        raise ValueError("lp_max needs b >= 0")
    m, n = len(A), len(c)
    # columns: x, the slacks, then b; the objective row is c itself, as
    # every basic variable is a slack
    zeros = [0] * m
    T = [[*row, *zeros[:i], 1, *zeros[i + 1:], bi] for i, (row, bi) in enumerate(zip(A, b))]
    T.append([*c, *zeros, 0])
    basis = list(range(n, n + m))
    D = 1
    while True:
        obj = T[m]
        col = next((j for j in range(n + m) if obj[j] > 0 and j not in basis), None)
        if col is None:
            break
        r = None
        for i in range(m):
            a = T[i][col]
            if a > 0:
                # b_i / a against b_r / T[r][col], cross-multiplied
                diff = None if r is None else T[i][-1] * T[r][col] - T[r][-1] * a
                if diff is None or diff < 0 or (diff == 0 and basis[i] < basis[r]):
                    r = i
        if r is None:
            return "unbounded", None, None
        D = _pivot(T, basis, D, r, col)
    x = [0] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i][-1]
    return "optimal", tuple(x), D


# ---------------------------------------------------------------------------
# cone utilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeByGenerators:
    """An open convex cone described by generators of its closure's rays."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(tuple(Q(x) for x in g) for g in self.generators)
        if not gens:
            raise ValueError("cone needs at least one generator")
        if any(all(x == 0 for x in g) for g in gens):
            raise ValueError("zero vector cannot generate a ray")
        object.__setattr__(self, "generators", gens)

    @property
    def dim_ambient(self) -> int:
        return len(self.generators[0])

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ConeByGenerators":
        return cls(tuple(tuple(read_rat(x) for x in g) for g in read_lists(data["generators"], "generators")))


def orthant_shift(y: Sequence[int], den: int, B: Sequence[Sequence[int]]) -> tuple | None:
    """For the point y / den (y on ints, den > 0) and the integer rows B
    of L: (s, q) with s an integer combination of B, q > 0 and
    q * y + s > 0 everywhere, so that l = s / (q * den) is in L with
    y / den + l strictly positive; or None.  Multiplying y and den by one
    positive number changes no decision, so y need not be in lowest terms.

    It is one LP on integers: with B_i the rows, maximize eps <= den
    subject to y + sum_i a_i B_i >= eps on every coordinate that some B_i
    touches (each a_i free, split as p_i - m_i); a coordinate that no row
    touches needs y_j > 0 by itself.  The witness is re-checked on the
    integers, q * y + sum_i a_i B_i > 0 everywhere, before it is returned.

    The LP runs only when some touched y_j <= 0, so mu = -min of y over
    the touched coordinates is >= 0, and it runs in e = eps + mu >= 0: each
    touched row is -sum_i a_i B_ij + e <= y_j + mu and the cap is
    e <= den + mu, so every right-hand side is >= 0 and the simplex starts
    at the slack basis, a = 0 and eps = min y.  The bound e >= 0 only cuts
    off points with eps < -mu, and none of them has eps > 0: y is strictly
    positive modulo L exactly when the optimum e* exceeds mu, the decision
    of the unshifted LP, and the witness passes the same re-check.

    The simplex returns its solution as integers x over D > 0, so the
    test is x_e > mu * D, and a_i = (x_p_i - x_m_i) / D.  With
    g = gcd(D, x_p_1 - x_m_1, ...) the shift takes the integers
    (x_p_i - x_m_i) / g and q = D / g, the least common denominator of
    the a_i: no rational is formed.
    """
    touched = [any(b[j] for b in B) for j in range(len(y))]
    if any(yj <= 0 for yj, t in zip(y, touched) if not t):
        return None
    if all(yj > 0 for yj in y):
        return [0] * len(y), 1
    # some touched coordinate needs the LP
    n = 2 * len(B) + 1  # p_i, m_i per row of L, e last
    A = [[x for b in B for x in (-b[j], b[j])] + [1] for j, t in enumerate(touched) if t]
    rhs = [yj for yj, t in zip(y, touched) if t]
    mu = -min(rhs)
    A.append([0] * (n - 1) + [1])
    _, x, D = lp_max([0] * (n - 1) + [1], A, [yj + mu for yj in rhs] + [den + mu])
    if x[-1] <= mu * D:
        return None
    diffs = [x[2 * i] - x[2 * i + 1] for i in range(len(B))]
    g = gcd(D, *diffs)
    q = D // g
    a = [d // g for d in diffs]
    shift = [sum(ai * b[j] for ai, b in zip(a, B)) for j in range(len(y))]
    if not all(q * yj + s > 0 for yj, s in zip(y, shift)):  # never skipped
        raise AssertionError("simplex produced an invalid witness")
    return shift, q


def strict_feasible(A: Sequence[Sequence]) -> tuple | None:
    """An exact z with Az > 0 in every row, or None.

    Az ranges over the column space C of A, so this is the orthant test at
    the point 0: a shift s / q of C that is positive everywhere is an
    element l of C, and z is the basic solution of Az = l.
    """
    m = len(A)
    got = orthant_shift([0] * m, 1, LinSubspace(range(m), linalg.transpose(A)).rows)
    if got is None:
        return None
    shift, q = got
    return linalg.solve(A, [Rational(s, q) for s in shift])


def solve_in_span(target, rays: Sequence[Sequence]) -> tuple:
    """Unique coefficients c > 0 with target = sum c_i rays_i.

    Rays must be linearly independent; the combination, if it exists, is
    unique, so strict positivity is a property of the target.  Raises
    ValueError naming the reason when there is no such combination.
    """
    cols = [tuple(Q(x) for x in r) for r in rays]
    if linalg.rank(cols) != len(cols):
        raise ValueError("rays are linearly dependent")
    A = linalg.transpose(cols)
    tgt = tuple(Q(x) for x in target)
    c = linalg.solve(A, tgt)
    if c is None or linalg.mat_vec(A, c) != tgt:
        raise ValueError("target is not in the span of the rays")
    bad = next((i for i, x in enumerate(c) if x <= 0), None)
    if bad is not None:
        raise ValueError(f"coefficient {bad} is {c[bad]}, not positive")
    return c
