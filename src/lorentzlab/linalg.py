"""Exact linear algebra over the rationals.

Vectors are sequences of rationals, matrices are lists of row vectors.
Everything here is exact.  One elimination loop, ``eliminate``, serves
rref, rank, solve, nullspace and det: the matrix is scaled to integers by
its least common denominator (Python ints pass through as they are), and
fraction-free Gauss-Jordan (Bareiss)
steps replace each row by (p*a - f*b) // prev, where p is the new pivot and
prev the one before it; every division is exact.  The pivot is the first
nonzero entry of its column, as in textbook elimination.  Each pivot row
ends as prev times its reduced row, so rref forms its rationals once at the
end, rank counts pivots and forms none, ``kernel`` reads an integer
kernel basis off the same rows, and a square matrix of full rank ends at
prev * I, which makes the determinant sign * prev / den^n.  Callers that
already hold integers (the vertex charts of a polytope's normal set, one
elimination of [N_S | I] per d-subset S of its integer normals; the integer
rows of ``LinSubspace``) call ``eliminate`` and ``kernel`` directly.  Sizes are desk scale (tens of rows), so no
attention is paid to asymptotics beyond avoiding obvious blowups.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .rat import Q, ZERO, Rational

Vec = tuple
Mat = list  # list of row tuples


def dot(u: Sequence, v: Sequence):
    s = ZERO
    for a, b in zip(u, v, strict=True):
        s += a * b
    return s


def mat_vec(A: Sequence[Sequence], v: Sequence) -> Vec:
    return tuple(dot(row, v) for row in A)


def transpose(A: Sequence[Sequence]) -> Mat:
    return [tuple(col) for col in zip(*A)] if A else []


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> Mat:
    Bt = transpose(B)
    return [tuple(dot(row, col) for col in Bt) for row in A]


def integer_scaled(A: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(den * A, den) with den the least common denominator of A's entries:
    a matrix of Python ints (never a backend integer type).  A Python int
    is taken as it is; every other entry goes through ``Q``, so a float is
    a TypeError."""
    return ratios_scaled([[(x, 1) if type(x) is int else Q(x).as_integer_ratio() for x in row] for row in A])


def ratios_scaled(R: Sequence[Sequence[tuple[int, int]]]) -> tuple[list[list[int]], int]:
    """``integer_scaled`` of the matrix whose entries are given as (p, q)
    pairs, q > 0."""
    den = lcm(*{q for row in R for _, q in row})
    return [[int(p * (den // q)) for p, q in row] for row in R], den


def eliminate(M: list) -> tuple[list, list[int], int, int]:
    """Fraction-free Gauss-Jordan on a matrix of ints, in place (rows are
    replaced, never mutated); returns (M, pivots, prev, sign).  Every pivot
    row of M ends as prev times its reduced row and every other row as
    zero, so a square M of full rank ends at prev * I with
    prev = sign * det(M), sign that of the row swaps."""
    m, n = len(M), len(M[0]) if M else 0
    pivots: list[int] = []
    prev = sign = 1
    for c in range(n):
        r = len(pivots)
        for p in range(r, m):
            if M[p][c]:
                break
        else:
            continue
        if p != r:
            M[r], M[p] = M[p], M[r]
            sign = -sign
        prow = M[r]
        d = prow[c]
        for i, row in enumerate(M):
            f = row[c]
            if i != r and (f or d != prev):
                M[i] = [(d * a - f * b) // prev for a, b in zip(row, prow)]
        prev = d
        pivots.append(c)
        if r + 1 == m:
            break
    return M, pivots, prev, sign


def kernel(M: list, pivots: list[int], prev: int, n: int) -> list[list[int]]:
    """Integer basis of the kernel of an eliminated M (``eliminate``'s
    output, n columns): for each free column f, prev at f and -M[r][f] at
    the r-th pivot, which is prev times the basic solution with 1 at f."""
    out = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = prev
        for r, c in enumerate(pivots):
            v[c] = -M[r][f]
        out.append(v)
    return out


def _gauss_jordan(A: Sequence[Sequence]) -> tuple[list[list[int]], list[int], int, int, int]:
    """``eliminate`` on den * A; returns (M, pivots, prev, sign, den)."""
    M, den = integer_scaled(A)
    return (*eliminate(M), den)


def rref(A: Sequence[Sequence]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    M, pivots, prev, _, _ = _gauss_jordan(A)
    R = [tuple(Rational(a, prev) if a else ZERO for a in row) for row in M]
    return R, pivots


def rank(A: Sequence[Sequence]) -> int:
    return len(_gauss_jordan(A)[1])


def solve(A: Sequence[Sequence], b: Sequence) -> Vec | None:
    """One exact solution of Ax = b, or None if inconsistent.

    Free variables are set to zero, so the result is the basic solution of
    the reduced system; for fixed row order the output is deterministic.
    """
    if not A:
        return ()
    n = len(A[0])
    aug = [tuple(row) + (bv,) for row, bv in zip(A, b, strict=True)]
    R, pivots = rref(aug)
    if n in pivots:
        return None
    x = [ZERO] * n
    for i, c in enumerate(pivots):
        x[c] = R[i][n]
    return tuple(x)


def nullspace(A: Sequence[Sequence], n: int | None = None) -> list[Vec]:
    """Basis of {x : Ax = 0}; n gives the column count when A is empty."""
    if not A:
        assert n is not None, "need column count for empty matrix"
    else:
        n = len(A[0])
    M, pivots, prev, _, _ = _gauss_jordan(A)
    return [tuple(Rational(a, prev) if a else ZERO for a in v) for v in kernel(M, pivots, prev, n)]


def det(A: Sequence[Sequence]):
    """Exact determinant: sign * prev / den^n from the elimination, which
    ends at prev * I exactly when A has full rank."""
    n = len(A)
    assert all(len(row) == n for row in A), "determinant needs a square matrix"
    _, pivots, prev, sign, den = _gauss_jordan(A)
    return Rational(sign * prev, den**n) if len(pivots) == n else ZERO
