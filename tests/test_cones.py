"""Exact feasibility engine: witnesses re-verify, infeasibility agrees with
Fourier-Motzkin elimination on small systems, and the cone utilities match
their stated examples."""

import pytest

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
from oracles import fourier_motzkin_feasible


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
