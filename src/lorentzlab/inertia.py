"""Exact inertia (eigenvalue sign counts) of rational symmetric matrices.

A ``SymMatrix`` keeps its integer rows: den times the matrix on Python
ints, den the least common denominator.  The Hessians are built there
with no rational formed: ``derivative_hessian`` and ``hessian`` from the
integer coefficient table ``HomPoly.coeffs``, the matroid
codimension-2 Hessians from integer pinned vectors.

``inertia`` is one symmetric fraction-free elimination of those rows
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

from itertools import chain
from math import factorial, gcd, prod
from typing import NamedTuple, Sequence

from . import linalg
from .polycore import HomPoly, direction_coords
from .rat import ZERO, Rational


class Inertia(NamedTuple):
    pos: int
    neg: int
    zero: int


class SymMatrix:
    """Rational symmetric matrix indexed by a labeled variable set.

    ``rows`` is den times the matrix on Python ints, with den > 0 the least
    common denominator of its entries, so (rows, den) is canonical, as the
    integer rows of ``LinSubspace`` are.  ``inertia`` eliminates ``rows``
    as they are; ``entries``, the exact rational rows as tuples, is formed
    on first use for the callers that read rationals.
    """

    __slots__ = ("vars", "rows", "den", "_entries")

    def __init__(self, vars: Sequence, entries: Sequence[Sequence]):
        rows, den = linalg.integer_scaled(entries)
        self._canonicalize(tuple(vars), rows, den)

    @classmethod
    def from_scaled(cls, vars: Sequence, rows: Sequence[Sequence[int]], den: int) -> "SymMatrix":
        """The matrix rows / den, for integer rows and an integer den > 0."""
        M = object.__new__(cls)
        M._canonicalize(tuple(vars), rows, den)
        return M

    def _canonicalize(self, vars: tuple, rows: Sequence[Sequence[int]], den: int) -> None:
        """Checks the shape and the symmetry, and divides rows and den by
        their gcd."""
        n = len(vars)
        rows = tuple(map(tuple, rows))
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix shape does not match variable set")
        if rows != tuple(zip(*rows)):
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j] != rows[j][i])
            raise ValueError(f"matrix is not symmetric at ({i},{j})")
        g = gcd(den, *chain.from_iterable(rows))
        if g != 1:
            rows = tuple(tuple(a // g for a in r) for r in rows)
            den //= g
        for name, value in zip(self.__slots__, (vars, rows, den, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("SymMatrix is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return SymMatrix.from_scaled, (self.vars, self.rows, self.den)

    @property
    def n(self) -> int:
        return len(self.vars)

    @property
    def entries(self) -> list[tuple]:
        if self._entries is None:
            den = self.den
            object.__setattr__(self, "_entries",
                               [tuple(Rational(a, den) if a else ZERO for a in r) for r in self.rows])
        return self._entries

    def __eq__(self, other):
        return (
            isinstance(other, SymMatrix)
            and self.vars == other.vars
            and self.den == other.den
            and self.rows == other.rows  # canonical, as the rational rows are
        )

    def __repr__(self):
        return f"SymMatrix({self.n}x{self.n})"

    def apply(self, v, w):
        """The bilinear form value v^T M w."""
        cv = direction_coords(v, self.vars)
        cw = direction_coords(w, self.vars)
        return linalg.dot(cv, linalg.mat_vec(self.entries, cw))


def hessian(q: HomPoly) -> SymMatrix:
    """Constant Hessian matrix of a quadratic: the Hessian of its 0-fold
    derivative."""
    if q.degree != 2:
        raise ValueError(f"hessian needs a quadratic, got degree {q.degree}")
    return derivative_hessian(q, [0] * len(q.vars))


def derivative_hessian(f: HomPoly, alpha: Sequence[int], over: Sequence | None = None) -> SymMatrix:
    """Hessian of the (d-2)-fold derivative d^alpha f (alpha a dense
    exponent vector) on the variables ``over``, all of f's by default, read
    off f's integer coefficient table (``HomPoly.coeffs``): entry (i, j)
    is beta! c_beta, where beta = alpha + e_i + e_j.  No derivative of f is
    formed and no rational either."""
    if len(alpha) != len(f.vars) or sum(alpha) != f.degree - 2:
        raise ValueError(f"derivative_hessian needs |alpha| = degree - 2 over {len(f.vars)} variables")
    labels = f.vars if over is None else tuple(over)
    pos = [f._index[v] for v in labels]
    coeff = f.coeffs
    beta = list(alpha)  # raised in place to alpha + e_i + e_j below
    alpha_fact = prod(map(factorial, beta))
    n = len(labels)
    rows = [[0] * n for _ in range(n)]
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
    return SymMatrix.from_scaled(labels, rows, f.den)


def inertia(M: SymMatrix) -> Inertia:
    """Exact eigenvalue sign counts (positive, negative, zero), by one
    symmetric fraction-free elimination (see the module docstring)."""
    A = M.rows
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
            A = [list(row) for row in A]
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
