"""Exact inertia (eigenvalue sign counts) of rational symmetric matrices.

One symmetric fraction-free elimination on the integer-rescaled matrix
(positive scaling keeps eigenvalue signs).  Each step pivots on the first
nonzero diagonal entry d of the trailing block, moved to the front by a
symmetric permutation, and replaces the rest of the block by
(d*a_ij - a_ip*a_pj) // prev.  When the whole trailing diagonal is zero but
some a_ij is not, adding row and column j to row and column i first puts
2*a_ij on the diagonal.  Both moves are congruences and unimodular, so by
Sylvester's law of inertia the counts do not move, every entry stays a
minor, and every division is exact.  Each pivot is a leading principal
minor D_k of a congruent matrix and the LDL^t pivot is D_k / D_(k-1): a
step counts as positive exactly when d has the sign of prev.  The zero
block that remains is the kernel.
"""

from __future__ import annotations

from math import factorial, prod
from typing import NamedTuple, Sequence

from . import linalg
from .polycore import HomPoly, LinSubspace, direction_coords
from .rat import Q, ZERO


class Inertia(NamedTuple):
    pos: int
    neg: int
    zero: int


class SymMatrix:
    """Rational symmetric matrix indexed by a labeled variable set."""

    __slots__ = ("vars", "entries")

    def __init__(self, vars: Sequence, entries: Sequence[Sequence]):
        object.__setattr__(self, "vars", tuple(vars))
        rows = [tuple(Q(x) for x in row) for row in entries]
        n = len(self.vars)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix shape does not match variable set")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i},{j})")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("SymMatrix is immutable")

    @property
    def n(self) -> int:
        return len(self.vars)

    def __eq__(self, other):
        return (
            isinstance(other, SymMatrix)
            and self.vars == other.vars
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SymMatrix({self.n}x{self.n})"

    def apply(self, v, w):
        """The bilinear form value v^T M w."""
        cv = direction_coords(v, self.vars)
        cw = direction_coords(w, self.vars)
        return linalg.dot(cv, linalg.mat_vec(self.entries, cw))

    def kernel(self) -> LinSubspace:
        return LinSubspace(self.vars, linalg.nullspace(self.entries, self.n))


def hessian(q: HomPoly) -> SymMatrix:
    """Constant Hessian matrix of a quadratic."""
    if q.degree != 2:
        raise ValueError(f"hessian needs a quadratic, got degree {q.degree}")
    n = len(q.vars)
    rows = [[ZERO] * n for _ in range(n)]
    for key, c in q.terms.items():
        if len(key) == 1:
            i = key[0][0]
            rows[i][i] = 2 * c
        else:
            (i, _), (j, _) = key
            rows[i][j] = rows[j][i] = c
    return SymMatrix(q.vars, rows)


def derivative_hessian(f: HomPoly, alpha: Sequence[int], over: Sequence | None = None) -> SymMatrix:
    """Hessian of the (d-2)-fold derivative d^alpha f (alpha a dense
    exponent vector) on the variables ``over``, all of f's by default, read
    off f's coefficients: entry (i, j) is beta! c_beta, where
    beta = alpha + e_i + e_j.  No derivative of f is formed."""
    if len(alpha) != len(f.vars) or sum(alpha) != f.degree - 2:
        raise ValueError(f"derivative_hessian needs |alpha| = degree - 2 over {len(f.vars)} variables")
    labels = f.vars if over is None else tuple(over)
    pos = [f._index[v] for v in labels]
    coeff = f.dense_terms()
    beta = list(alpha)  # raised in place to alpha + e_i + e_j below
    alpha_fact = prod(map(factorial, beta))
    n = len(labels)
    rows = [[ZERO] * n for _ in range(n)]
    for a, i in enumerate(pos):
        beta[i] += 1
        for b in range(a, n):
            j = pos[b]
            beta[j] += 1
            c = coeff.get(tuple(beta))
            if c is not None:
                # beta! / alpha! = (alpha_i + 1)(alpha_j + 1), or
                # (alpha_i + 1)(alpha_i + 2) on the diagonal
                rise = beta[i] * beta[j] if i != j else (beta[i] - 1) * beta[i]
                rows[a][b] = rows[b][a] = alpha_fact * rise * c
            beta[j] -= 1
        beta[i] -= 1
    return SymMatrix(labels, rows)


def inertia(M: SymMatrix) -> Inertia:
    """Exact eigenvalue sign counts (positive, negative, zero), by one
    symmetric fraction-free elimination (see the module docstring)."""
    A, _ = linalg.integer_scaled(M.entries)
    pos = neg = 0
    prev = 1
    while A:
        k = len(A)
        p = next((i for i in range(k) if A[i][i]), None)
        if p is None:
            hit = next(((i, j) for i in range(k) for j in range(i + 1, k) if A[i][j]), None)
            if hit is None:
                break
            # the congruence adding row and column j to p: a_pp becomes 2 a_pj
            p, j = hit
            A[p] = [a + b for a, b in zip(A[p], A[j])]
            for row in A:
                row[p] += row[j]
        prow = A[p]
        d = prow[p]
        rest = [i for i in range(k) if i != p]
        A = [[(d * A[i][j] - A[i][p] * prow[j]) // prev for j in rest] for i in rest]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        prev = d
    return Inertia(pos=pos, neg=neg, zero=M.n - pos - neg)


def at_most_one_positive(M: SymMatrix) -> bool:
    return inertia(M).pos <= 1


def lorentz_signature(M: SymMatrix, expected_kernel: LinSubspace) -> bool:
    """Exactly one positive eigenvalue and kernel equal to the given subspace."""
    inr = inertia(M)
    if inr.pos != 1 or inr.zero != expected_kernel.dim:
        return False
    kern = M.kernel()
    return kern == LinSubspace(M.vars, expected_kernel.basis)


def af_inequality(P: SymMatrix, v, w) -> bool:
    """P(v,w)^2 >= P(v,v) P(w,w), compared exactly."""
    return P.apply(v, w) ** 2 >= P.apply(v, v) * P.apply(w, w)
