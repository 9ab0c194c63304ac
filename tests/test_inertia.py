"""Inertia engine: exact sign counts, congruence invariance, and the
three-way equivalence between the Hessian signature and the two-slot
inequalities (constructive in both directions)."""

import numpy as np
import pytest

from lorentzlab import linalg
from lorentzlab.inertia import (
    Inertia,
    SymMatrix,
    af_inequality,
    at_most_one_positive,
    char_poly_coeffs,
    derivative_hessian,
    hessian,
    inertia,
    lorentz_signature,
)
from conftest import rand_q
from lorentzlab.polycore import HomPoly, LinSubspace, parse_poly
from lorentzlab.rat import Q


def test_hessian_examples():
    assert hessian(parse_poly("t1 t2")).entries == [(Q(0), Q(1)), (Q(1), Q(0))]
    assert hessian(parse_poly("t1^2 + t2^2")).entries == [(Q(2), Q(0)), (Q(0), Q(2))]
    allsq = parse_poly("t1^2 + t2^2 + t3^2 + 2*t1 t2 + 2*t1 t3 + 2*t2 t3")
    assert all(x == 2 for row in hessian(allsq).entries for x in row)


def test_inertia_examples():
    assert inertia(SymMatrix((1, 2), [[2, 0], [0, 2]])) == Inertia(2, 0, 0)
    assert inertia(SymMatrix((1, 2), [[0, 1], [1, 0]])) == Inertia(1, 1, 0)
    ones = SymMatrix((1, 2, 3), [[1, 1, 1]] * 3)
    assert inertia(ones) == Inertia(1, 0, 2)


def test_lorentz_signature_examples():
    ones = SymMatrix((1, 2, 3), [[1, 1, 1]] * 3)
    kern = LinSubspace((1, 2, 3), [(1, -1, 0), (0, 1, -1)])
    assert lorentz_signature(ones, kern)
    diag = SymMatrix((1, 2, 3), [[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    assert lorentz_signature(diag, LinSubspace((1, 2, 3), [(0, 0, 1)]))
    assert not lorentz_signature(SymMatrix((1, 2), [[2, 0], [0, 2]]), LinSubspace((1, 2), []))


def test_af_inequality_examples():
    P = SymMatrix((1, 2), [[0, 1], [1, 0]])
    assert af_inequality(P, (1, 0), (0, 1))
    I2 = SymMatrix((1, 2), [[1, 0], [0, 1]])
    assert not af_inequality(I2, (1, 0), (0, 1))
    ones = SymMatrix((1, 2), [[1, 1], [1, 1]])
    assert ones.apply((1, 2), (3, 1)) ** 2 == ones.apply((1, 2), (1, 2)) * ones.apply((3, 1), (3, 1))


def _random_sym(rng, n):
    rows = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Q(rng.randint(-6, 6), rng.randint(1, 3))
    return SymMatrix(tuple(range(n)), rows)


def test_cross_validate_with_numpy(rng):
    for _ in range(250):
        n = rng.randint(2, 8)
        M = _random_sym(rng, n)
        exact = inertia(M)
        vals = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in M.entries]))
        pos = int((vals > 1e-6).sum())
        neg = int((vals < -1e-6).sum())
        assert (pos, neg) == (exact.pos, exact.neg)


def test_sylvester_congruence_invariance(rng):
    for _ in range(40):
        n = rng.randint(2, 5)
        M = _random_sym(rng, n)
        while True:
            A = [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            if linalg.det(A) != 0:
                break
        At = linalg.transpose(A)
        conj = linalg.mat_mul(linalg.mat_mul(At, M.entries), A)
        assert inertia(SymMatrix(tuple(range(n)), conj)) == inertia(M)


def test_char_poly_against_sympy(rng):
    import sympy

    for _ in range(20):
        n = rng.randint(1, 5)
        M = _random_sym(rng, n)
        den = 1
        for row in M.entries:
            for x in row:
                den = sympy.ilcm(den, int(x.denominator))
        S = sympy.Matrix([[int(x.numerator) * (den // int(x.denominator)) for x in row] for row in M.entries])
        want = S.charpoly().all_coeffs()
        assert [int(c) for c in char_poly_coeffs(M)] == [int(c) for c in want]


def _congruence_diagonalize(M: SymMatrix):
    """Rational congruence diagonalization (with the 2x2 off-diagonal trick)."""
    n = M.n
    A = [list(row) for row in M.entries]
    T = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]

    def add_col_row(i, j, c):
        for k in range(n):
            A[k][j] += c * A[k][i]
        for k in range(n):
            A[j][k] += c * A[i][k]
        for k in range(n):
            T[k][j] += c * T[k][i]

    for p in range(n):
        if A[p][p] == 0:
            q = next((q for q in range(p + 1, n) if A[p][q] != 0), None)
            if q is None:
                continue
            add_col_row(q, p, Q(1))
        for q in range(p + 1, n):
            if A[p][q] != 0:
                add_col_row(p, q, -A[p][q] / A[p][p])
    return A, T


def test_af_h_equivalence_constructive(rng):
    """(H) implies the two-slot inequality on sampled cone points; failure of
    (H) yields an exact violating vector on the orthogonality hyperplane."""
    checked_pos = checked_neg = 0
    while checked_pos < 100 or checked_neg < 100:
        n = rng.randint(2, 5)
        M = _random_sym(rng, n)
        v0 = tuple(Q(rng.randint(1, 3)) for _ in range(n))
        if not M.apply(v0, v0) > 0:
            continue
        if inertia(M).pos == 1:
            checked_pos += 1
            for _ in range(20):
                w = tuple(v0[i] + Q(rng.randint(0, 4), rng.randint(1, 3)) * Q(rng.choice([1, 1, 1, -1])) / 8
                          for i in range(n))
                if M.apply(w, w) > 0 and all(x > 0 for x in w):
                    assert af_inequality(M, v0, w)
                x = tuple(Q(rng.randint(-4, 4)) for _ in range(n))
                assert M.apply(v0, x) ** 2 >= M.apply(v0, v0) * M.apply(x, x)
        else:
            checked_neg += 1
            # restrict to the hyperplane {x : M(v0, x) = 0} and find an exact
            # positive value there: a direct (AF2) violation
            row = [linalg.dot(M.entries[i], v0) for i in range(n)]
            basis = linalg.nullspace([row], n)
            sub = [[linalg.dot(b1, linalg.mat_vec(M.entries, b2)) for b2 in basis] for b1 in basis]
            subM = SymMatrix(tuple(range(len(basis))), sub)
            assert inertia(subM).pos >= 1
            D, T = _congruence_diagonalize(subM)
            k = next(k for k in range(len(basis)) if D[k][k] > 0)
            coeffs = [T[i][k] for i in range(len(basis))]
            x = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n)]
            assert M.apply(v0, x) == 0 and M.apply(x, x) > 0
            assert M.apply(v0, x) ** 2 < M.apply(v0, v0) * M.apply(x, x)


def test_at_most_one_positive():
    assert at_most_one_positive(SymMatrix((1,), [[Q(-3)]]))
    assert not at_most_one_positive(SymMatrix((1, 2), [[1, 0], [0, 1]]))


def test_derivative_hessian_matches_partial_chain(rng):
    # beta! c_beta against the Hessian of the partial chain d^alpha f, on all
    # variables and on a random sample of them in random order
    for _ in range(100):
        n, d = rng.randint(1, 4), rng.randint(2, 5)
        vars = tuple(f"t{i + 1}" for i in range(n))
        dense = {}
        for _ in range(rng.randint(1, 8)):
            exps = [0] * n
            for _ in range(d):
                exps[rng.randrange(n)] += 1
            dense[tuple(exps)] = rand_q(rng, -5, 5, 4)
        f = HomPoly.from_dense(vars, d, dense)
        alpha = [0] * n
        q = f
        for _ in range(d - 2):
            k = rng.randrange(n)
            alpha[k] += 1
            q = q.partial(vars[k])
        H = hessian(q)
        assert derivative_hessian(f, alpha) == H, (f, alpha)
        over = rng.sample(vars, rng.randint(1, n))
        pos = [vars.index(v) for v in over]
        sub = SymMatrix(over, [[H.entries[a][b] for b in pos] for a in pos])
        assert derivative_hessian(f, alpha, over=over) == sub, (f, alpha, over)
    with pytest.raises(ValueError):
        derivative_hessian(parse_poly("t1^2 t2"), [0, 0])
