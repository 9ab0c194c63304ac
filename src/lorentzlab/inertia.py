"""Exact inertia (eigenvalue sign counts) of rational symmetric matrices.

The characteristic polynomial is computed by the division-free Berkowitz
iteration, after clearing denominators (positive scaling preserves
eigenvalue signs, and integer arithmetic is much faster here).  Symmetric
matrices are real-rooted, so Descartes' rule of signs on the coefficient
sequence counts positive eigenvalues exactly; zero eigenvalues are the
multiplicity of the root 0, i.e. the trailing zero coefficients.
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


def char_poly_coeffs(M: SymMatrix) -> list[int]:
    """Coefficients [1, c1, ..., cn] of det(xI - M), by Berkowitz iteration.

    Computed on the integer-rescaled matrix (scaling by a positive constant
    does not move eigenvalue signs) -- callers only inspect signs.
    """
    A, _ = linalg.integer_scaled(M.entries)
    n = len(A)
    poly = [1]
    for k in range(n):
        # extend from the k x k leading block to (k+1) x (k+1)
        a = A[k][k]
        R = A[k][:k]
        items = [1, -a]
        w = [A[i][k] for i in range(k)]  # column C, then A C, A^2 C, ...
        for _ in range(k):
            items.append(-sum(r * x for r, x in zip(R, w)))
            w = [sum(A[i][j] * w[j] for j in range(k)) for i in range(k)]
        new = []
        for i in range(k + 2):
            s = 0
            for j in range(len(poly)):
                if 0 <= i - j < len(items):
                    s += items[i - j] * poly[j]
            new.append(s)
        poly = new
    return poly


def descartes_positive_roots(coeffs: Sequence) -> int:
    """Sign variations of the coefficient sequence; exact for real-rooted polys."""
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def inertia(M: SymMatrix) -> Inertia:
    """Exact eigenvalue sign counts (positive, negative, zero)."""
    coeffs = char_poly_coeffs(M)
    zero = 0
    while coeffs and coeffs[-1] == 0:
        zero += 1
        coeffs.pop()
    pos = descartes_positive_roots(coeffs)
    return Inertia(pos=pos, neg=M.n - pos - zero, zero=zero)


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
