"""The one strict-positivity test: its witnesses re-verify, its verdicts
agree with Fourier-Motzkin elimination on small seeded cases, the simplex
under it matches the dense oracle, and the cone utilities match their
stated examples."""

import pytest

from lorentzlab import cones, linalg
from lorentzlab.cones import (
    ConeByGenerators,
    lp_max,
    orthant_shift,
    solve_in_span,
    strict_feasible,
)
from lorentzlab.polycore import LinSubspace
from lorentzlab.rat import Q, Rational
from oracles import dense_lp_max, fourier_motzkin_feasible, homogeneous_system, orthant_system


def _positive_rows(A, z) -> bool:
    return all(linalg.dot(row, z) > 0 for row in A)


def test_strict_feasible_examples():
    # x > 0 and t - x > 0: a point with 0 < x < t
    z = strict_feasible([[1, 0], [-1, 1]])
    assert z is not None and 0 < z[0] < z[1]
    assert strict_feasible([[1], [-1]]) is None
    A = [[1, 1], [1, -1], [-1, 0]]  # x + y > 0, x - y > 0, -x > 0
    assert strict_feasible(A) is None
    A = [[1, 1, 0], [1, -1, 0], [-1, 0, 1]]
    z = strict_feasible(A)
    assert z is not None and _positive_rows(A, z)
    assert strict_feasible([[0, 0], [1, 0]]) is None  # a zero row is never positive


def _seeded_orthant(rng, k):
    """A point y over 1-5 coordinates (0 on every third draw) and a
    subspace L spanned by 0-3 seeded integer rows."""
    n = rng.randint(1, 5)
    ambient = tuple(f"x{i}" for i in range(n))
    y = [Q(0)] * n if k % 3 == 0 else [Q(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
    L = LinSubspace(ambient, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 3))])
    return y, L


def _seeded_matrix(rng):
    """A homogeneous A with 1-6 rows and 1-4 columns."""
    m, n = rng.randint(1, 6), rng.randint(1, 4)
    return [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]


def _orthant(y, L) -> bool:
    """Whether ``orthant_shift`` finds a shift at y, scaled to integers z
    over its least common denominator den; every shift (s, q) it returns
    must have s in L, q > 0 and q z + s > 0."""
    (z,), den = linalg.integer_scaled([y])
    got = orthant_shift(z, den, L.rows)
    if got is not None:
        s, q = got
        assert q > 0 and L.contains(s) and all(q * a + b > 0 for a, b in zip(z, s)), (y, L.rows)
    return got is not None


def test_witness_always_reverifies(rng):
    """Every shift the orthant test returns re-verifies (``_orthant``),
    every z of ``strict_feasible`` has Az > 0, and both verdicts agree with
    Fourier-Motzkin elimination."""
    found = 0
    for k in range(200):
        y, L = _seeded_orthant(rng, k)
        got = _orthant(y, L)
        assert got == fourier_motzkin_feasible(orthant_system(y, L)), (y, L.rows)
        A = _seeded_matrix(rng)
        z = strict_feasible(A)
        if z is not None:
            assert len(z) == len(A[0]) and _positive_rows(A, z), A
        assert (z is not None) == fourier_motzkin_feasible(homogeneous_system(A)), A
        found += got + (z is not None)
    assert 40 < found < 360


def test_agreement_with_fourier_motzkin(rng):
    verdicts = set()
    for k in range(300):
        y, L = _seeded_orthant(rng, k)
        got = _orthant(y, L)
        assert got == fourier_motzkin_feasible(orthant_system(y, L)), (y, L.rows)
        A = _seeded_matrix(rng)
        got2 = strict_feasible(A) is not None
        assert got2 == fourier_motzkin_feasible(homogeneous_system(A)), A
        verdicts |= {(k % 3 == 0, got), got2}
    assert verdicts == {(True, True), (True, False), (False, True), (False, False), True, False}


def test_lp_statuses(lp_pivots):
    assert lp_max([1], [[1]], [5])[0] == "optimal"
    assert lp_max([1], [[-1]], [0])[0] == "unbounded"
    status, x, val = lp_max([2, 3], [[1, 1], [1, 0]], [4, 2])
    assert status == "optimal" and val == 12  # optimum at (0, 4)
    lp_pivots.clear()
    with pytest.raises(ValueError, match="b >= 0"):
        lp_max([1, 1], [[1, 0], [0, 1]], [2, Q(-1, 3)])
    assert lp_pivots == []  # raised before the first pivot


@pytest.fixture
def lp_pivots(monkeypatch):
    """The (row, column) of every pivot ``lp_max`` makes, in order; clear
    the list between calls."""
    seen = []
    inner = cones._pivot

    def spy(T, basis, D, r, col):
        seen.append((r, col))
        return inner(T, basis, D, r, col)

    monkeypatch.setattr(cones, "_pivot", spy)
    return seen


def _same_run_as_dense_oracle(c, A, b, lp_pivots) -> tuple:
    """lp_max's (status, x, value), after checking that it and its pivot
    sequence equal the dense oracle's, and that every number it returns is
    of the backend's rational type."""
    lp_pivots.clear()
    oracle_pivots = []
    got = lp_max(c, A, b)
    assert got == dense_lp_max(c, A, b, oracle_pivots), (c, A, b)
    assert lp_pivots == oracle_pivots, (c, A, b)
    if got[0] == "optimal":
        assert all(type(v) is Rational for v in got[1] + (got[2],))
    return got


def _seeded_lp(rng, kind):
    """A small LP (c, A, b) with b >= 0. "degenerate" repeats scaled rows
    and zero right-hand sides, so ratio tests tie; "mixed" draws
    denominators up to 97."""
    m, n = rng.randint(1, 6), rng.randint(1, 5)
    den = (lambda: rng.randint(1, 97)) if kind == "mixed" else (lambda: 1)
    A = [[Q(rng.choice([0, 0, rng.randint(-3, 3)]), den()) for _ in range(n)] for _ in range(m)]
    b = [Q(rng.randint(0, 4), den()) for _ in range(m)]
    if kind == "degenerate":
        for _ in range(rng.randint(1, 3)):
            i, k = rng.randrange(m), Q(rng.randint(1, 3))
            A.append([k * x for x in A[i]])
            b.append(k * b[i])
        for i in rng.sample(range(len(b)), rng.randint(1, len(b))):
            b[i] = Q(0)
    c = [Q(rng.randint(-2, 3), den()) for _ in range(n)]
    return c, A, b


def test_lp_max_matches_dense_oracle(rng, lp_pivots):
    """The integer tableau makes the rational tableau's pivots: status, x,
    value and the pivot sequence agree with the dense oracle on seeded LPs
    of both statuses."""
    statuses = {}
    for k in range(480):
        c, A, b = _seeded_lp(rng, ("nonneg", "degenerate", "mixed")[k % 3])
        got = _same_run_as_dense_oracle(c, A, b, lp_pivots)
        statuses[got[0]] = statuses.get(got[0], 0) + 1
    assert set(statuses) == {"optimal", "unbounded"}
    assert min(statuses.values()) >= 10


def test_lp_max_pivots_on_ties_and_edge_cases(lp_pivots):
    """Hand-made LPs: a ratio tie that Bland's rule breaks by the smaller
    basic index, at rationals the cross-multiplied comparison must get
    right; mixed denominators; an unbounded LP."""
    third, half = Q(1, 3), Q(1, 2)
    cases = [
        (([1], [[2], [third]], [0, 0]), ("optimal", (Q(0),), Q(0)), [(0, 0)]),
        (([1, 1], [[half, 1], [third, Q(2, 3)], [1, 0]], [Q(3, 2), 1, 1]), None, None),
        (([1], [[1], [-1]], [0, 0]), ("optimal", (Q(0),), Q(0)), [(0, 0)]),
        (([half, third], [[half, Q(1, 7)], [Q(2, 3), Q(5, 11)]], [Q(3, 5), Q(1, 97)]), None, None),
        (([1, 0], [[-1, 1]], [1]), ("unbounded", None, None), None),
    ]
    for (c, A, b), want, want_pivots in cases:
        got = _same_run_as_dense_oracle(c, A, b, lp_pivots)
        if want is not None:
            assert got == want, (c, A, b)
        if want_pivots is not None:
            assert lp_pivots == want_pivots, (c, A, b)


def _captured_lps(monkeypatch, run):
    """Every (c, A, b) that the orthant test hands to the simplex while
    ``run`` runs."""
    seen = []
    inner = cones.lp_max
    monkeypatch.setattr(cones, "lp_max", lambda c, A, b: seen.append((c, A, b)) or inner(c, A, b))
    run()
    monkeypatch.setattr(cones, "lp_max", inner)
    return seen


def test_lp_max_matches_dense_oracle_on_compiled_systems(rng, monkeypatch, lp_pivots):
    """The LPs the orthant test builds from this file's fixtures and from
    the hereditary fixtures of tests/test_hereditary.py, pivot sequences
    included."""
    from conftest import hereditary_fixture_pool
    from lorentzlab.hereditary import cone_member, cone_nonempty, is_hereditary_lorentzian
    from test_hereditary import edge_square, triple_product

    def cone_fixtures():
        test_strict_feasible_examples()
        test_witness_always_reverifies(rng)
        test_orthant_shift_examples()

    def hereditary_fixtures():
        pool = hereditary_fixture_pool(rng) + [edge_square(), triple_product()]
        for h in pool:
            is_hereditary_lorentzian(h)
            cone_nonempty(h)
            for _ in range(3):
                cone_member(h, [Q(rng.randint(-2, 4)) for _ in h.vars])

    for run in (cone_fixtures, hereditary_fixtures):
        systems = _captured_lps(monkeypatch, run)
        assert len(systems) >= 20
        for c, A, b in systems:
            _same_run_as_dense_oracle(c, A, b, lp_pivots)


def test_orthant_shift_examples():
    assert _orthant((-1, -1), LinSubspace(("a", "b"), [(1, 1)]))
    assert not _orthant((-1, 1), LinSubspace(("a", "b"), []))
    assert _orthant((0, 0, -3), LinSubspace(("a", "b", "c"), [(1, 1, 1)]))
    # the shifted optimum lands exactly on mu = 1: y + a(1, -1) > 0 needs
    # a > 1 and a < 1
    assert not _orthant((-1, 1), LinSubspace(("a", "b"), [(1, -1)]))
    # no row touches b, so y_b = 0 decides before any LP
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "lp_max", lambda *a: pytest.fail("lp_max was called"))
        assert not _orthant((-1, 0), LinSubspace(("a", "b"), [(1, 0)]))
    L4 = LinSubspace(("a", "b", "c"), [(1, 1, 0)])
    assert _orthant((-2, 0, 1), L4)
    # over the denominator 2: (-1, 0, 1/2) is (-2, 0, 1) / 2
    assert _orthant((Q(-1), 0, Q(1, 2)), L4)


def test_solve_in_span_examples():
    assert solve_in_span((1, 1), [(1, 0), (0, 1)]) == (Q(1), Q(1))
    with pytest.raises(ValueError, match="not positive"):
        solve_in_span((2, 0), [(1, 0), (0, 1)])
    with pytest.raises(ValueError, match="not positive"):
        solve_in_span((1, 2, 3), [(1, 0, 0), (1, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError, match="not in the span"):
        solve_in_span((0, 0, 1), [(1, 0, 0), (0, 1, 0)])


def test_cone_by_generators_validation():
    with pytest.raises(ValueError):
        ConeByGenerators(())
    with pytest.raises(ValueError):
        ConeByGenerators(((0, 0),))
    c = ConeByGenerators(((1, 0), (1, 1)))
    assert c.dim_ambient == 2
    assert ConeByGenerators.from_json_dict({"generators": [["1", "0"], [1, "1"]]}) == c
