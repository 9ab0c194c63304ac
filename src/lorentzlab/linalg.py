"""Exact linear algebra over the rationals.

Vectors are sequences of rationals, matrices are lists of row vectors.
Everything here is exact: Gaussian elimination with full pivoting on
rationals for rref/solve/nullspace, and fraction-free Bareiss elimination
for determinants.  Sizes are desk scale (tens of rows), so no attention is
paid to asymptotics beyond avoiding obvious blowups.
"""

from __future__ import annotations

from typing import Sequence

from .rat import Q, ZERO, ONE

Vec = tuple
Mat = list  # list of row tuples


def unit(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_sub(u: Sequence, v: Sequence) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


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


def rref(A: Sequence[Sequence]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    R = [list(map(Q, row)) for row in A]
    if not R:
        return [], []
    m, n = len(R), len(R[0])
    pivots: list[int] = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if R[i][c] != 0), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        inv = ONE / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(m):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [tuple(row) for row in R], pivots


def rank(A: Sequence[Sequence]) -> int:
    return len(rref(A)[1])


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
        return [unit(n, i) for i in range(n)]
    n = len(A[0])
    R, pivots = rref(A)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for i, c in enumerate(pivots):
            v[c] = -R[i][f]
        basis.append(tuple(v))
    return basis


def row_space_basis(A: Sequence[Sequence]) -> list[Vec]:
    """Independent spanning subset shape: the nonzero rows of rref(A)."""
    R, pivots = rref(A)
    return [R[i] for i in range(len(pivots))]


def det(A: Sequence[Sequence]):
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(A)
    if n == 0:
        return ONE
    M = [list(map(Q, row)) for row in A]
    assert all(len(row) == n for row in M), "determinant needs a square matrix"
    sign = ONE
    prev = ONE
    for k in range(n - 1):
        if M[k][k] == 0:
            p = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if p is None:
                return ZERO
            M[k], M[p] = M[p], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) / prev
            M[i][k] = ZERO
        prev = M[k][k]
    return sign * M[n - 1][n - 1]
