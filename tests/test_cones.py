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
from lorentzlab.rat import Q
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


def _seeded_lp(rng, kind):
    """A small LP (c, A, b). "degenerate" repeats scaled rows and zero
    right-hand sides, so ratio tests tie."""
    m, n = rng.randint(1, 6), rng.randint(1, 5)
    A = [[Q(rng.choice([0, 0, rng.randint(-3, 3)])) for _ in range(n)] for _ in range(m)]
    b = [Q(rng.randint(-3 if kind == "signed" else 0, 4)) for _ in range(m)]
    if kind == "degenerate":
        for _ in range(rng.randint(1, 3)):
            i, k = rng.randrange(m), Q(rng.randint(1, 3))
            A.append([k * x for x in A[i]])
            b.append(k * b[i])
        for i in rng.sample(range(len(b)), rng.randint(1, len(b))):
            b[i] = Q(0)
    c = [Q(rng.randint(-2, 3)) for _ in range(n)]
    return c, A, b


def test_lp_max_matches_dense_oracle(rng):
    """Sparse pivots change no arithmetic: status, x and value agree with
    the dense tableau on seeded LPs of every status."""
    statuses = {}
    for k in range(360):
        c, A, b = _seeded_lp(rng, ("signed", "nonneg", "degenerate")[k % 3])
        got = lp_max(c, A, b)
        assert got == dense_lp_max(c, A, b), (c, A, b)
        statuses[got[0]] = statuses.get(got[0], 0) + 1
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}
    assert min(statuses.values()) >= 10


def _captured_lps(monkeypatch, run):
    """Every (c, A, b) that ``strict_feasible`` hands to the simplex while
    ``run`` runs."""
    seen = []
    inner = cones.lp_max
    monkeypatch.setattr(cones, "lp_max", lambda c, A, b: seen.append((c, A, b)) or inner(c, A, b))
    run()
    monkeypatch.setattr(cones, "lp_max", inner)
    return seen


def test_lp_max_matches_dense_oracle_on_compiled_systems(rng, monkeypatch):
    """The systems ``strict_feasible`` compiles from this file's fixtures
    and from the hereditary fixtures of tests/test_hereditary.py."""
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
            assert lp_max(c, A, b) == dense_lp_max(c, A, b)


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
