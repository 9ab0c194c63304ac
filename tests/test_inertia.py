"""Inertia engine: exact sign counts against the Berkowitz-Descartes
oracle and by construction, congruence invariance, and the three-way
equivalence between the Hessian signature and the two-slot inequalities
(constructive in both directions)."""

import numpy as np
import pytest

from lorentzlab import linalg
from lorentzlab.inertia import Inertia, SymMatrix, derivative_hessian, hessian, inertia
from conftest import hereditary_fixture_pool, nonneg_cubics_and_quartics, rand_q
from lorentzlab import hereditary, lorentzian, matroid
from lorentzlab.cones import ConeByGenerators
from lorentzlab.polycore import HomPoly, LinSubspace, parse_poly
from lorentzlab.rat import Q, ZERO
from oracles import berkowitz_inertia, char_poly_coeffs, congruence_diagonalize, lorentz_signature, random_sym


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
    assert P.apply((1, 0), (0, 1)) ** 2 >= P.apply((1, 0), (1, 0)) * P.apply((0, 1), (0, 1))
    I2 = SymMatrix((1, 2), [[1, 0], [0, 1]])
    assert not I2.apply((1, 0), (0, 1)) ** 2 >= I2.apply((1, 0), (1, 0)) * I2.apply((0, 1), (0, 1))
    ones = SymMatrix((1, 2), [[1, 1], [1, 1]])
    assert ones.apply((1, 2), (3, 1)) ** 2 == ones.apply((1, 2), (1, 2)) * ones.apply((3, 1), (3, 1))


def test_cross_validate_with_numpy(rng):
    for _ in range(250):
        n = rng.randint(2, 8)
        M = random_sym(rng, n)
        exact = inertia(M)
        vals = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in M.entries]))
        pos = int((vals > 1e-6).sum())
        neg = int((vals < -1e-6).sum())
        assert (pos, neg) == (exact.pos, exact.neg)


def test_sylvester_congruence_invariance(rng):
    for _ in range(40):
        n = rng.randint(2, 5)
        M = random_sym(rng, n)
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
        M = random_sym(rng, n)
        den = 1
        for row in M.entries:
            for x in row:
                den = sympy.ilcm(den, int(x.denominator))
        S = sympy.Matrix([[int(x.numerator) * (den // int(x.denominator)) for x in row] for row in M.entries])
        want = S.charpoly().all_coeffs()
        assert [int(c) for c in char_poly_coeffs(M)] == [int(c) for c in want]


def _sym(rows) -> SymMatrix:
    return SymMatrix(tuple(range(len(rows))), rows)


def _zero_diagonal(rng, n) -> SymMatrix:
    """Sparse rational off-diagonal entries and a zero diagonal."""
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Q(rng.choice([0, 0, rng.randint(-5, 5)]), rng.randint(1, 4))
    return _sym(rows)


def _hyperbolic(rng, k, n) -> tuple[SymMatrix, int]:
    """[[0, X], [X^t, 0]] with X a k x (n - k) block of low rank, and that
    rank: its inertia is (rank X, rank X, n - 2 rank X), and unless X = 0
    the first pivot comes from the zero-diagonal step."""
    r = rng.randint(0, min(k, n - k))
    U = [[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(r)] for _ in range(k)]
    V = [[Q(rng.randint(-3, 3)) for _ in range(n - k)] for _ in range(r)]
    X = linalg.mat_mul(U, V) if r else [(ZERO,) * (n - k)] * k
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(k):
        for j in range(n - k):
            rows[i][k + j] = rows[k + j][i] = X[i][j]
    return _sym(rows), linalg.rank(X)


def _ldlt(rng, signs) -> SymMatrix:
    """L D L^t with L unit lower triangular (rational entries) and D the
    given signs times random rationals: inertia is the sign count of D."""
    n = len(signs)
    L = [[Q(1) if i == j else Q(rng.randint(-4, 4), rng.randint(1, 3)) if j < i else ZERO
          for j in range(n)] for i in range(n)]
    D = [s * Q(rng.randint(1, 5), rng.randint(1, 3)) for s in signs]
    LD = [[L[i][j] * D[j] for j in range(n)] for i in range(n)]
    return _sym(linalg.mat_mul(LD, linalg.transpose(L)))


def test_inertia_zero_diagonal_step(rng):
    assert inertia(_sym([[0, Q(-1, 3)], [Q(-1, 3), 0]])) == Inertia(1, 1, 0)
    assert inertia(_sym([[0, 0, 1], [0, 0, 0], [1, 0, 0]])) == Inertia(1, 1, 1)
    # a diagonal pivot first, then a trailing block whose diagonal is zero
    assert inertia(_sym([[1, 1, 1], [1, 1, 2], [1, 2, 1]])) == Inertia(2, 1, 0)
    assert inertia(_sym([[1, 1, 1, 1], [1, 1, 2, 1], [1, 2, 1, 1], [1, 1, 1, 1]])) == Inertia(2, 1, 1)
    for n in range(2, 9):
        for _ in range(25):
            M = _zero_diagonal(rng, n)
            assert inertia(M) == berkowitz_inertia(M), M.entries
    for n in range(2, 9):
        for _ in range(10):
            M, r = _hyperbolic(rng, rng.randint(1, n - 1), n)
            assert inertia(M) == Inertia(r, r, n - 2 * r) == berkowitz_inertia(M), M.entries


def test_inertia_sign_rule_by_construction(rng):
    # several negative pivots in a row, and rank deficiency behind them
    assert inertia(_sym([[-1, 0, 0, 0], [0, -2, 0, 0], [0, 0, -3, 0], [0, 0, 0, 4]])) == Inertia(1, 3, 0)
    assert inertia(_sym([[0, 0], [0, 0]])) == Inertia(0, 0, 2)
    assert inertia(_sym([])) == Inertia(0, 0, 0)
    for _ in range(300):
        signs = [rng.choice([1, -1, -1, 0]) for _ in range(rng.randint(1, 8))]
        M = _ldlt(rng, signs)
        want = Inertia(signs.count(1), signs.count(-1), signs.count(0))
        assert inertia(M) == want == berkowitz_inertia(M), (signs, M.entries)


def test_inertia_matches_berkowitz_on_seeded_matrices(rng):
    zero_diagonal = 0
    for k in range(1200):
        n = rng.randint(1, 10)
        if k % 4 == 0:
            M = _zero_diagonal(rng, n)
            zero_diagonal += any(x for row in M.entries for x in row)
        elif k % 4 == 1:
            M, _ = _hyperbolic(rng, rng.randint(0, n), n)
        else:
            M = random_sym(rng, n)
        assert inertia(M) == berkowitz_inertia(M), M.entries
    assert zero_diagonal >= 200


@pytest.fixture
def passed_to_inertia(monkeypatch):
    """Every matrix the certifying modules hand to ``inertia``, recorded as
    they call it (each module holds ``inertia`` under its own name)."""
    seen = []

    def record(M):
        seen.append(M)
        return inertia(M)

    for mod, name in ((lorentzian, "inertia"), (matroid, "inertia"), (hereditary, "matrix_inertia")):
        monkeypatch.setattr(mod, name, record)
    return seen


def test_inertia_matches_berkowitz_on_fixture_hessians(rng, catalog, passed_to_inertia):
    # the Hessian scan, the cone test and the polarized block matrices of
    # acceptance criterion 08, on its own polynomials
    for f in nonneg_cubics_and_quartics(rng):
        n = len(f.vars)
        lorentzian._h1_scan(f)
        lorentzian.is_k_lorentzian(f, ConeByGenerators(tuple(tuple(Q(int(j == i)) for j in range(n)) for i in range(n))))
        lorentzian.polarized_hereditary_verdict(f)
    # the codimension-2 derivative Hessians of the hereditary fixtures
    for h in hereditary_fixture_pool(rng):
        hereditary.is_hereditary_lorentzian(h)
    # LatticeVolume.quadratic_hessian on every rank-3 interval of every
    # catalog matroid (criterion 04), through hl_check
    for L in catalog.values():
        matroid.volume_engine(L).hl_check()
    distinct = {(M.vars, tuple(M.entries)): M for M in passed_to_inertia}
    assert len(distinct) >= 500
    for M in distinct.values():
        assert inertia(M) == berkowitz_inertia(M), M.entries


def test_af_h_equivalence_constructive(rng):
    """(H) implies the two-slot inequality on sampled cone points; failure of
    (H) yields an exact violating vector on the orthogonality hyperplane."""
    checked_pos = checked_neg = 0
    while checked_pos < 100 or checked_neg < 100:
        n = rng.randint(2, 5)
        M = random_sym(rng, n)
        v0 = tuple(Q(rng.randint(1, 3)) for _ in range(n))
        if not M.apply(v0, v0) > 0:
            continue
        if inertia(M).pos == 1:
            checked_pos += 1
            for _ in range(20):
                w = tuple(v0[i] + Q(rng.randint(0, 4), rng.randint(1, 3)) * Q(rng.choice([1, 1, 1, -1])) / 8
                          for i in range(n))
                if M.apply(w, w) > 0 and all(x > 0 for x in w):
                    assert M.apply(v0, w) ** 2 >= M.apply(v0, v0) * M.apply(w, w)
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
            D, T = congruence_diagonalize(subM)
            k = next(k for k in range(len(basis)) if D[k][k] > 0)
            coeffs = [T[i][k] for i in range(len(basis))]
            x = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n)]
            assert M.apply(v0, x) == 0 and M.apply(x, x) > 0
            assert M.apply(v0, x) ** 2 < M.apply(v0, v0) * M.apply(x, x)


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


def test_sym_matrix_rows_are_least_integer_multiple(rng):
    """rows = den * entries on Python ints, den the least common denominator
    of the entries; equality is exact, whatever scale the rows came in."""
    from math import lcm

    for k in range(200):
        M = random_sym(rng, rng.randint(0, 6))
        den = lcm(*(x.denominator for row in M.entries for x in row))
        assert M.den == den
        assert all(type(a) is int for row in M.rows for a in row)
        assert [[Q(a, den) for a in row] for row in M.rows] == [list(row) for row in M.entries]
        c = rng.randint(1, 5)
        assert SymMatrix.from_scaled(M.vars, [[c * a for a in row] for row in M.rows], c * den) == M
        assert SymMatrix(M.vars, M.entries) == M
        if any(M.rows) and k % 2:
            assert SymMatrix.from_scaled(M.vars, M.rows, 2 * den) != M
    zero = SymMatrix(("a", "b"), [[0, 0], [0, 0]])
    assert (zero.rows, zero.den) == (((0, 0), (0, 0)), 1)
    assert SymMatrix.from_scaled(("a", "b"), [[0, 0], [0, 0]], 7) == zero
    with pytest.raises(ValueError):
        SymMatrix.from_scaled(("a", "b"), [[0, 1], [2, 0]], 1)
    with pytest.raises(ValueError):
        SymMatrix(("a", "b"), [[1, 2, 3], [2, 1, 3]])
