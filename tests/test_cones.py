"""Exact feasibility engine: witnesses re-verify, infeasibility agrees with
Fourier-Motzkin elimination on small systems, and the cone utilities match
their stated examples."""

import pytest

from lorentzlab import cones
from lorentzlab.cones import (
    EQ,
    GE,
    GT,
    ConeByGenerators,
    StrictSystem,
    in_orthant_plus_subspace,
    lp_max,
    solve_in_span,
    strict_feasible,
)
from lorentzlab.polycore import LinSubspace
from lorentzlab.rat import Q, Rational
from oracles import dense_lp_max, fourier_motzkin_feasible


def test_strict_feasible_examples():
    s = StrictSystem(vars=("x",))
    s.add({"x": 1}, GT)
    s.add({"x": -1}, GT, 1)
    w = strict_feasible(s)
    assert w is not None and 0 < w["x"] < 1

    s2 = StrictSystem(vars=("x",))
    s2.add({"x": 1}, GT)
    s2.add({"x": -1}, GT)
    assert strict_feasible(s2) is None

    s3 = StrictSystem(vars=("x", "y"))
    s3.add({"x": 1, "y": 1}, GT)
    s3.add({"x": 1, "y": -1}, GT)
    s3.add({"x": -1}, GE, 1)
    w3 = strict_feasible(s3)
    assert w3 is not None and s3.verify(w3)


def test_witness_always_reverifies(rng):
    for _ in range(200):
        nv = rng.randint(1, 4)
        vars = tuple(f"x{i}" for i in range(nv))
        s = StrictSystem(vars=vars)
        for _ in range(rng.randint(1, 6)):
            coeffs = {v: Q(rng.randint(-3, 3)) for v in vars}
            s.add(coeffs, rng.choice([GT, GE, EQ]), Q(rng.randint(-2, 2)))
        w = strict_feasible(s)
        if w is not None:
            assert s.verify(w)


def test_agreement_with_fourier_motzkin(rng):
    for _ in range(300):
        nv = rng.randint(1, 4)
        vars = tuple(f"x{i}" for i in range(nv))
        s = StrictSystem(vars=vars)
        for _ in range(rng.randint(1, 6)):
            coeffs = {v: Q(rng.randint(-3, 3)) for v in vars}
            s.add(coeffs, rng.choice([GT, GE, EQ]), Q(rng.randint(-2, 2)))
        assert (strict_feasible(s) is not None) == fourier_motzkin_feasible(s)


def test_lp_statuses():
    assert lp_max([1], [[1]], [5])[0] == "optimal"
    assert lp_max([1], [[1]], [-1])[0] == "infeasible"
    assert lp_max([1], [[-1]], [0])[0] == "unbounded"
    status, x, val = lp_max([2, 3], [[1, 1], [1, 0]], [4, 2])
    assert status == "optimal" and val == 12  # optimum at (0, 4)


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
    """A small LP (c, A, b). "degenerate" repeats scaled rows and zero
    right-hand sides, so ratio tests tie; "mixed" draws denominators up to
    97 and negative right-hand sides."""
    m, n = rng.randint(1, 6), rng.randint(1, 5)
    den = (lambda: rng.randint(1, 97)) if kind == "mixed" else (lambda: 1)
    A = [[Q(rng.choice([0, 0, rng.randint(-3, 3)]), den()) for _ in range(n)] for _ in range(m)]
    b = [Q(rng.randint(-3 if kind in ("signed", "mixed") else 0, 4), den()) for _ in range(m)]
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
    of every status, phase 1 included."""
    statuses, phase1 = {}, 0
    for k in range(480):
        c, A, b = _seeded_lp(rng, ("signed", "nonneg", "degenerate", "mixed")[k % 4])
        got = _same_run_as_dense_oracle(c, A, b, lp_pivots)
        statuses[got[0]] = statuses.get(got[0], 0) + 1
        phase1 += any(x < 0 for x in b)
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}
    assert min(statuses.values()) >= 10 and phase1 >= 100


def test_lp_max_pivots_on_ties_and_edge_cases(lp_pivots):
    """Hand-made LPs: a ratio tie that Bland's rule breaks by the smaller
    basic index, at rationals the cross-multiplied comparison must get
    right; two phase 1 runs that end with the artificial variable basic at
    zero, so that it is pivoted out; mixed denominators; an unbounded and
    an infeasible LP."""
    third, half = Q(1, 3), Q(1, 2)
    cases = [
        (([1], [[2], [third]], [0, 0]), ("optimal", (Q(0),), Q(0)), [(0, 0)]),
        (([1, 1], [[half, 1], [third, Q(2, 3)], [1, 0]], [Q(3, 2), 1, 1]), None, None),
        (([1], [[1], [-1]], [0, 0]), ("optimal", (Q(0),), Q(0)), [(0, 0)]),
        (([1], [[-1], [1]], [-2, 2]), ("optimal", (Q(2),), Q(2)), None),
        (([half, third], [[half, Q(1, 7)], [Q(2, 3), Q(5, 11)]], [Q(3, 5), Q(1, 97)]), None, None),
        (([1, 0], [[-1, 1]], [1]), ("unbounded", None, None), None),
        (([1], [[1], [-1]], [1, -2]), ("infeasible", None, None), None),
        (([1], [[-1], [0]], [-2, 0]), ("unbounded", None, None), None),
    ]
    for (c, A, b), want, want_pivots in cases:
        got = _same_run_as_dense_oracle(c, A, b, lp_pivots)
        if want is not None:
            assert got == want, (c, A, b)
        if want_pivots is not None:
            assert lp_pivots == want_pivots, (c, A, b)


def _captured_lps(monkeypatch, run):
    """Every (c, A, b) that ``strict_feasible`` hands to the simplex while
    ``run`` runs."""
    seen = []
    inner = cones.lp_max
    monkeypatch.setattr(cones, "lp_max", lambda c, A, b: seen.append((c, A, b)) or inner(c, A, b))
    run()
    monkeypatch.setattr(cones, "lp_max", inner)
    return seen


def test_lp_max_matches_dense_oracle_on_compiled_systems(rng, monkeypatch, lp_pivots):
    """The systems ``strict_feasible`` compiles from this file's fixtures
    and from the hereditary fixtures of tests/test_hereditary.py, pivot
    sequences included."""
    from conftest import hereditary_fixture_pool
    from lorentzlab.hereditary import cone_member, cone_nonempty, is_hereditary_lorentzian
    from test_hereditary import edge_square, triple_product

    def cone_fixtures():
        test_strict_feasible_examples()
        test_witness_always_reverifies(rng)
        test_in_orthant_plus_subspace_examples()

    def hereditary_fixtures():
        pool = hereditary_fixture_pool(rng) + [edge_square(), triple_product()]
        for h in pool:
            is_hereditary_lorentzian(h)
            cone_nonempty(h)
            cone_member(h, [Q(rng.randint(-2, 4)) for _ in h.vars])

    for run in (cone_fixtures, hereditary_fixtures):
        systems = _captured_lps(monkeypatch, run)
        assert len(systems) >= 20
        for c, A, b in systems:
            _same_run_as_dense_oracle(c, A, b, lp_pivots)


def test_in_orthant_plus_subspace_examples():
    L = LinSubspace(("a", "b"), [(1, 1)])
    ell = in_orthant_plus_subspace((-1, -1), L)
    assert ell is not None and all(v + e > 0 for v, e in zip((-1, -1), ell))
    assert in_orthant_plus_subspace((-1, 1), LinSubspace(("a", "b"), [])) is None
    L3 = LinSubspace(("a", "b", "c"), [(1, 1, 1)])
    ell3 = in_orthant_plus_subspace((0, 0, -3), L3)
    assert ell3 is not None and all(v + e > 0 for v, e in zip((0, 0, -3), ell3))


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
    assert ConeByGenerators.from_json_dict(c.to_json_dict()) == c
