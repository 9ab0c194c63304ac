"""Integer elimination against the rational oracles: rref and everything
built on it, and the Bareiss determinant, agree exactly with
``fraction_rref`` and ``fraction_det`` on seeded matrices of every shape,
and every number they return is of the backend's rational type."""

import pytest

from lorentzlab import linalg
from lorentzlab.polycore import LinSubspace
from lorentzlab.rat import Q, Rational, ZERO
from oracles import fraction_det, fraction_rref


def _seeded_matrix(rng, m, n):
    """Sparse entries with denominators up to 97 and either sign; some rows
    and columns are zero, and some rows repeat combinations of others."""
    A = [[Q(rng.choice([0, 0, rng.randint(-9, 9)]), rng.randint(1, 97)) for _ in range(n)] for _ in range(m)]
    if m and n and rng.random() < 0.3:
        A[rng.randrange(m)] = [ZERO] * n
    if m and n and rng.random() < 0.3:
        j = rng.randrange(n)
        for row in A:
            row[j] = ZERO
    if m >= 3 and rng.random() < 0.5:
        i, k = rng.sample(range(m), 2)
        s, t = Q(rng.randint(-3, 3), rng.randint(1, 5)), Q(rng.randint(-3, 3))
        A[rng.randrange(m)] = [s * a + t * b for a, b in zip(A[i], A[k])]
    return A


def _shapes(rng):
    yield from [(0, 0), (1, 1), (1, 1), (1, 4), (4, 1)]
    for _ in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        yield (m, n) if rng.random() < 0.8 else (rng.randint(1, 3), rng.randint(5, 9))


def _all_rational(values) -> bool:
    return all(type(x) is Rational for x in values)


def test_elimination_matches_fraction_oracle(rng):
    seen = {"deficient": 0, "negative pivot": 0, "inconsistent": 0, "consistent": 0, "tall": 0, "wide": 0, "square": 0}
    for m, n in _shapes(rng):
        A = _seeded_matrix(rng, m, n)
        want, pivots = fraction_rref(A)
        R, got_pivots = linalg.rref(A)
        assert (R, got_pivots) == (want, pivots), A
        assert all(_all_rational(row) for row in R)
        if not A:
            continue
        seen["deficient"] += len(pivots) < min(m, n)
        # the first pivot is the first nonzero entry of the first nonzero column
        seen["negative pivot"] += bool(pivots) and next(row[pivots[0]] for row in A if row[pivots[0]]) < 0
        seen["tall" if m > n else "wide" if m < n else "square"] += 1
        assert linalg.rank(A) == len(pivots)
        # the canonical basis of the row space: the nonzero rows of the rref
        L = LinSubspace(range(n), A)
        assert L.basis == tuple(want[: len(pivots)]) and all(_all_rational(row) for row in L.basis)

        kernel = []
        for f in (c for c in range(n) if c not in pivots):
            v = [ZERO] * n
            v[f] = Q(1)
            for i, c in enumerate(pivots):
                v[c] = -want[i][f]
            kernel.append(tuple(v))
        assert linalg.nullspace(A) == kernel
        assert all(_all_rational(v) and linalg.mat_vec(A, v) == (ZERO,) * m for v in linalg.nullspace(A))

        b = [Q(rng.randint(-5, 5), rng.randint(1, 97)) for _ in range(m)]
        aug, aug_pivots = fraction_rref([list(row) + [bv] for row, bv in zip(A, b)])
        x = linalg.solve(A, b)
        if n in aug_pivots:
            seen["inconsistent"] += 1
            assert x is None
        else:
            seen["consistent"] += 1
            basic = [ZERO] * n
            for i, c in enumerate(aug_pivots):
                basic[c] = aug[i][n]
            assert x == tuple(basic) and _all_rational(x)
            assert linalg.mat_vec(A, x) == tuple(b)

        if m == n:
            d = linalg.det(A)
            assert d == fraction_det(A) and type(d) is Rational
            assert (d != 0) == (len(pivots) == n)
    assert min(seen.values()) >= 20, seen


def test_det_edge_cases():
    assert linalg.det([]) == 1 and type(linalg.det([])) is Rational
    cases = (
        [[Q(-3, 7)]], [[0, 1], [1, 0]], [[0, 0], [0, 5]], [[Q(1, 2), Q(1, 3)], [Q(1, 4), Q(1, 6)]],
        # row-permuted diagonal matrices: a 3-cycle (two swaps) and a transposition
        [[0, 0, 2], [3, 0, 0], [0, 5, 0]], [[0, 2, 0], [3, 0, 0], [0, 0, Q(1, 5)]],
        # singular, with and without a zero column
        [[0, 0], [0, 0]], [[1, 2], [2, 4]], [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
        [[1, 2, 3], [4, 5, 6], [5, 7, 9]], [[0, 0, 1], [0, 0, 2], [1, 1, 0]],
    )
    for A in cases:
        d = linalg.det(A)
        assert d == fraction_det(A) and type(d) is Rational
    assert [linalg.det(A) for A in cases[4:6]] == [30, Q(-6, 5)]
    assert not any(linalg.det(A) for A in cases[6:])


def test_rank_of_empty_and_zero_matrices():
    assert linalg.rank([]) == 0 == len(fraction_rref([])[1])
    for m, n in ((1, 1), (1, 4), (3, 1), (3, 3), (2, 5)):
        Z = [[ZERO] * n for _ in range(m)]
        assert linalg.rank(Z) == 0 == len(fraction_rref(Z)[1])
        assert linalg.rref(Z) == fraction_rref(Z)


def test_eliminate_leaves_prev_times_reduced_rows(rng):
    """On integer matrices every pivot row of ``eliminate`` is prev times
    the row of ``fraction_rref``, every other row is zero, and prev is
    sign * det on square matrices of full rank."""
    negative = 0
    for m, n in _shapes(rng):
        M = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(m)]
        R, want_pivots = fraction_rref(M)
        E, pivots, prev, sign = linalg.eliminate([list(row) for row in M])
        assert pivots == want_pivots
        assert all(type(a) is int for row in E for a in row)
        for i, row in enumerate(E):
            assert list(row) == ([prev * x for x in R[i]] if i < len(pivots) else [0] * n)
        if m == n and len(pivots) == n:
            assert sign * prev == fraction_det(M)
        negative += prev < 0
    assert negative


def test_integer_scaled_takes_ints_as_they_are_and_rejects_floats(rng):
    for m, n in _shapes(rng):
        A = _seeded_matrix(rng, m, n)
        mixed = [[int(a) if a.denominator == 1 and rng.random() < 0.5 else a for a in row] for row in A]
        M, den = linalg.integer_scaled(mixed)
        assert all(type(a) is int for row in M for a in row) and type(den) is int
        assert [[Q(a, den) for a in row] for row in M] == A
    assert linalg.integer_scaled([[2, -3], [0, 5]]) == ([[2, -3], [0, 5]], 1)
    for bad in ([[1, 0.5]], [[0.0]], [[Q(1, 2), 2.0]]):
        with pytest.raises(TypeError):
            linalg.integer_scaled(bad)


def test_kernel_is_prev_times_the_rational_kernel(rng):
    """``kernel`` on ``eliminate``'s output spans the nullspace, each vector
    prev times the basic one; ``nullspace`` forms its rationals from it."""
    for m, n in _shapes(rng):
        M = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(m)]
        E, pivots, prev, _ = linalg.eliminate([list(row) for row in M])
        K = linalg.kernel(E, pivots, prev, n)
        assert [[Q(a, prev) for a in v] for v in K] == [list(v) for v in linalg.nullspace(M, n)]
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for v in K for row in M)
        assert len(K) == n - len(pivots)
