"""Polynomial core: arithmetic, derivatives, substitutions, lineality.

Derived expected values are cross-checked against sympy, which plays the
independent symbolic-differentiation oracle.
"""

import random
from itertools import combinations

import sympy

from lorentzlab.polycore import Direction, HomPoly, LinSubspace, parse_poly
from lorentzlab.rat import Q
from oracles import (
    FracPoly,
    euler_defect,
    fraction_projects_onto,
    nullspace_vanishing_restrict,
    partials_lineality_space,
    rename_vars,
    solve_member_with_values,
    subspace_sum,
)


def to_sympy(f: HomPoly):
    syms = {v: sympy.Symbol(f"x{i}") for i, v in enumerate(f.vars)}
    expr = 0
    for key, c in f.terms.items():
        term = sympy.Rational(int(c.numerator), int(c.denominator))
        for i, e in key:
            term *= syms[f.vars[i]] ** e
        expr += term
    return expr, syms


def test_dir_derivative_examples():
    f = parse_poly("t1 t2")
    assert f.dir_derivative((1, 0)) == parse_poly("t2", vars=("t1", "t2"))
    g = parse_poly("t1^2 + t2^2")
    assert g.dir_derivative((1, 1)) == parse_poly("2*t1 + 2*t2")
    h = parse_poly("t1^2 t2")
    assert h.dir_derivative((2, 3)) == parse_poly("3*t1^2 + 4*t1 t2")


def test_dir_derivative_against_sympy(rng):
    for _ in range(25):
        f = _random_poly(rng, n=3, d=3)
        v = [Q(rng.randint(-3, 3)) for _ in range(3)]
        expr, syms = to_sympy(f)
        want = sum(int(c.numerator) * sympy.diff(expr, syms[lab]) / int(c.denominator)
                   for lab, c in zip(f.vars, v))
        got, _ = to_sympy(f.dir_derivative(v))
        assert sympy.expand(want - got) == 0


def test_mixed_partial_examples():
    assert parse_poly("t1 t2 t3").mixed_partial({"t1", "t2"}) == parse_poly("t3", vars=("t1", "t2", "t3"))
    assert parse_poly("t1^2 t2").mixed_partial((2, 0)) == parse_poly("2*t2", vars=("t1", "t2"))
    cube = parse_poly("t1^3 + 3*t1^2 t2 + 3*t1 t2^2 + t2^3")  # (t1+t2)^3
    assert cube.mixed_partial((1, 1)) == parse_poly("6*t1 + 6*t2")


def test_mixed_partial_reads_sets_as_labels():
    # integer labels as many as the variables: a set is never an exponent vector
    for vars in ((0, 1), (1, 2)):
        f = HomPoly(vars, 2, {((0, 1), (1, 1)): 1})  # the product of the two variables
        assert f.mixed_partial(frozenset(vars)) == HomPoly.constant(vars, 1)
        assert f.mixed_partial(set(vars)) == HomPoly.constant(vars, 1)
        assert f.squarefree_coeff(frozenset(vars)) == 1


def test_derivative_value_matches_mixed_partial(rng):
    # beta! c_beta against the constant term of the partial chain, for every
    # beta of total degree d - 1, d and d + 1 (the value is 0 off degree d)
    from itertools import combinations_with_replacement

    for _ in range(30):
        n, d = rng.randint(1, 3), rng.randint(1, 4)
        f = _random_poly(rng, n, d)
        for total in (d - 1, d, d + 1):
            for combo in combinations_with_replacement(range(n), total):
                beta = tuple(combo.count(i) for i in range(n))
                want = f.mixed_partial(beta).terms.get((), Q(0))
                assert f.derivative_value(beta) == want, (f, beta)


def test_schwarz_symmetry(rng):
    for _ in range(20):
        f = _random_poly(rng, n=3, d=4)
        a, b = {"t0": 1, "t1": 1}, {"t1": 1, "t2": 2}
        assert f.mixed_partial(a).mixed_partial(b) == f.mixed_partial(b).mixed_partial(a)


def test_substitute_linear_examples():
    f = parse_poly("t1 t2")
    assert f.substitute_linear([[1, 0], [0, 1]], ("t1", "t2")) == f
    s = f.substitute_linear([[1], [1]], ("s",))
    assert s == parse_poly("s^2")
    g = parse_poly("t1^2 - t2^2").substitute_linear([[1, 1], [1, -1]], ("s1", "s2"))
    assert g == parse_poly("4*s1 s2")


def test_substitution_composes(rng):
    for _ in range(10):
        f = _random_poly(rng, n=2, d=3)
        A = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        B = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        lhs = f.substitute_linear(A, ("u", "v")).substitute_linear(B, ("p", "q"))
        AB = [[sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        assert lhs == f.substitute_linear(AB, ("p", "q"))


def test_chain_rule_probe(rng):
    # derivatives of f(Ax) agree with pushed-forward directional derivatives
    f = _random_poly(rng, n=3, d=3)
    A = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)]
    g = f.substitute_linear(A, ("u", "v"))
    for _ in range(10):
        vs = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)]
        lhs = g
        for v in vs:
            lhs = lhs.dir_derivative(v)
        rhs = f
        for v in vs:
            Av = [sum(A[i][j] * v[j] for j in range(2)) for i in range(3)]
            rhs = rhs.dir_derivative(Av)
        assert lhs.terms.get((), Q(0)) == rhs.terms.get((), Q(0))


def test_support():
    assert parse_poly("t1 t2 + t2 t3").support() == {(1, 1, 0), (0, 1, 1)}
    assert HomPoly.zero(("a", "b"), 3).support() == set()
    assert parse_poly("t1^2 + 2*t1 t2 + t2^2").support() == {(2, 0), (1, 1), (0, 2)}


def test_lineality_space_examples():
    f = parse_poly("t1^2 - 2*t1 t2 + t2^2")  # (t1-t2)^2
    L = f.lineality_space()
    assert L.dim == 1 and L.contains((1, 1))
    assert parse_poly("t1 t2").lineality_space().dim == 0
    g = parse_poly("t1^3 + 3*t1^2 t2 - 3*t1^2 t3 + 3*t1 t2^2 - 6*t1 t2 t3 "
                   "+ 3*t1 t3^2 + t2^3 - 3*t2^2 t3 + 3*t2 t3^2 - t3^3")  # (t1+t2-t3)^3
    Lg = g.lineality_space()
    assert Lg.dim == 2
    assert Lg.contains((1, -1, 0)) and Lg.contains((1, 0, 1))


def test_lineality_shift_invariance(rng):
    f = parse_poly("t1^2 + 2*t1 t2 + t2^2")
    L = f.lineality_space()
    for _ in range(20):
        x = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)]
        for b in L.basis:
            shifted = [xi + bi for xi, bi in zip(x, b)]
            assert f.evaluate(shifted) == f.evaluate(x)


def test_euler_identity(rng):
    for _ in range(20):
        f = _random_poly(rng, n=3, d=rng.randint(1, 4))
        assert euler_defect(f).is_zero()


def test_zero_polynomial_degree_tag():
    z = HomPoly.zero(("a", "b"), 5)
    assert z.degree == 5 and z.is_zero()
    assert z.partial("a").degree == 4
    assert parse_poly("a b", vars=("a", "b")).dir_derivative((0, 0)).is_zero()


def test_text_and_json_round_trip(rng):
    for _ in range(15):
        f = _random_poly(rng, n=3, d=3)
        assert parse_poly(f.to_text(), vars=sorted(f.vars)) == _sorted_vars(f)
        assert HomPoly.from_json_dict(f.to_json_dict()) == _str_vars(f)


def test_parse_rejects_inhomogeneous():
    import pytest

    with pytest.raises(ValueError):
        parse_poly("t1^2 + t2")


def test_direction_and_subspace_basics():
    d = Direction(("a", "b"), (1, Q(1, 2)))
    assert d["b"] == Q(1, 2)
    L = LinSubspace(("a", "b", "c"), [(1, 1, 0), (0, 1, 1)])
    assert L.dim == 2
    assert L.projects_onto(("a", "b"))
    assert L.projects_onto(("c",)) and not L.projects_onto(("a", "b", "c"))
    LS = nullspace_vanishing_restrict(L, ("a",), ("b", "c"))
    assert LS.dim == 1 and LS.contains((1, 1))
    m = solve_member_with_values(L, {"a": Q(2)})
    assert m is not None and m[0] == 2 and L.contains(m)


def random_subspace(rng, ambient, dim) -> LinSubspace:
    """Sparse rational rows added one at a time until the dimension is reached."""
    L = LinSubspace(ambient, [])
    while L.dim < dim:
        row = [Q(rng.randint(-3, 3), rng.randint(1, 7)) if rng.random() < 0.5 else Q(0) for _ in ambient]
        L = subspace_sum(L, LinSubspace(ambient, [row]))
    return L


def rows_scale_basis(L: LinSubspace) -> bool:
    """The integer rows are s times the rref basis, for the least s > 0:
    every row has s at its pivot, every other row 0 there, the pivots
    ascend and the entries have no common factor."""
    from math import gcd

    if not L.rows:
        return L.basis == ()
    pivots = [next(j for j, a in enumerate(r) if a) for r in L.rows]
    s = L.rows[0][pivots[0]]
    rref = all(r[p] == (s if k == q else 0) for q, p in enumerate(pivots) for k, r in enumerate(L.rows))
    return (s > 0 and rref and pivots == sorted(set(pivots))
            and all(type(a) is int for r in L.rows for a in r) and gcd(*(a for r in L.rows for a in r)) == 1
            and L.rows == tuple(tuple(s * x for x in b) for b in L.basis))


def test_pin_matches_solve_and_nullspace(rng):
    # one elimination step on the canonical basis gives the basic solution
    # of l_v = 1 and the canonical basis of the elements vanishing at v
    checked = nones = 0
    for n in range(1, 8):
        ambient = tuple("abcdefg"[:n])
        for dim in range(n + 1):
            for _ in range(4):
                L = random_subspace(rng, ambient, dim)
                assert rows_scale_basis(L)
                for v in ambient:
                    keep = rng.sample(ambient, rng.randint(0, n))
                    row, c, LS = L.pin(v, keep)
                    pin = None if row is None else tuple(Q(x, c) for x in row)
                    assert pin == solve_member_with_values(L, {v: Q(1)})
                    assert (row is None) == (c == 0)
                    assert (pin is None) == all(b[ambient.index(v)] == 0 for b in L.basis)
                    want = nullspace_vanishing_restrict(L, (v,), keep)
                    assert LS.ambient == tuple(keep) and LS.basis == want.basis
                    assert rows_scale_basis(LS)
                    checked += 1
                    nones += pin is None
    assert checked > 600 and 0 < nones < checked


def test_projects_onto_matches_fraction_rank(rng):
    # the integer elimination against the rank of the rational basis, on
    # every coordinate subset
    seen = {True: 0, False: 0}
    for n in range(1, 6):
        ambient = tuple("abcde"[:n])
        for dim in range(n + 1):
            for _ in range(3):
                L = random_subspace(rng, ambient, dim)
                for k in range(n + 1):
                    for sub in combinations(ambient, k):
                        got = L.projects_onto(sub)
                        assert got == fraction_projects_onto(L, sub), (L.basis, sub)
                        seen[got] += 1
    assert min(seen.values()) > 100


def _random_poly(rng, n, d, terms=4):
    vars = tuple(f"t{i}" for i in range(n))
    dense = {}
    for _ in range(terms):
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        dense[tuple(exps)] = Q(rng.randint(-5, 5))
    return HomPoly.from_dense(vars, d, dense)


def _sorted_vars(f: HomPoly) -> HomPoly:
    order = tuple(sorted(f.vars))
    idx = {v: i for i, v in enumerate(order)}
    return HomPoly(order, f.degree,
                   {tuple(sorted((idx[f.vars[i]], e) for i, e in k)): c for k, c in f.terms.items()})


def _str_vars(f: HomPoly) -> HomPoly:
    return rename_vars(f, {v: str(v) for v in f.vars})


def _rat_under_both_backends(monkeypatch):
    """rat.py is loaded twice: once with gmpy2 unavailable, once with a stub
    whose mpq, like gmpy2's, would convert a float exactly."""
    import importlib.util
    import sys
    import types
    from fractions import Fraction

    import lorentzlab.rat

    stub = types.ModuleType("gmpy2")
    stub.mpq = Fraction
    for gmpy2, backend in ((None, "fractions"), (stub, "gmpy2")):
        monkeypatch.setitem(sys.modules, "gmpy2", gmpy2)
        spec = importlib.util.spec_from_file_location("rat_backend_under_test", lorentzlab.rat.__file__)
        rat = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(rat)
        assert rat.RAT_BACKEND == backend
        yield rat


def test_q_rejects_floats_under_both_backends(monkeypatch):
    from fractions import Fraction

    import pytest

    with pytest.raises(TypeError):
        Q(0.1)
    with pytest.raises(TypeError):
        Q(1, 2.0)
    for rat in _rat_under_both_backends(monkeypatch):
        for args in ((0.1,), (1.5,), (1, 2.0), (1.0, 2)):
            with pytest.raises(TypeError):
                rat.Q(*args)
        assert rat.Q(1, 10) == rat.Q("1/10") == Fraction(1, 10)


def test_q_zero_denominator_is_a_value_error_under_both_backends(monkeypatch):
    import pytest

    for rat in _rat_under_both_backends(monkeypatch):
        for args, needle in ((("1/0",), "in '1/0'"), ((1, 0), "in 1/0"), ((" -3/0 ",), "-3/0")):
            with pytest.raises(ValueError, match="zero denominator") as info:
                rat.Q(*args)
            assert needle in str(info.value)


def test_q_returns_a_backend_rational_as_it_is(monkeypatch):
    from fractions import Fraction

    for rat in _rat_under_both_backends(monkeypatch):
        x = rat.Q(3, 7)
        assert type(x) is rat.Rational and rat.Q(x) is x
        assert rat.Q(x, 2) == Fraction(3, 14) and rat.Q(6, 14) == x
        for y in (rat.Q(5), rat.Q("5"), rat.Q(Fraction(5))):
            assert type(y) is rat.Rational and y == 5


def test_hom_poly_keeps_distinct_coefficients_and_sums_repeated_keys():
    c, d = Q(2, 3), Q(-5, 7)
    f = HomPoly(("a", "b"), 2, {((0, 1), (1, 1)): c, ((0, 2),): d})
    assert (f.coeffs, f.den) == ({(1, 1): 14, (2, 0): -15}, 21)
    assert f.terms == {((0, 1), (1, 1)): c, ((0, 2),): d}
    # keys that sort to the same key add up; a sum of zero is dropped
    g = HomPoly(("a", "b"), 2, {((0, 1), (1, 1)): c, ((1, 1), (0, 1)): Q(1, 3), ((0, 2),): d})
    assert g.terms[((0, 1), (1, 1))] == 1
    h = HomPoly(("a", "b"), 2, {((0, 1), (1, 1)): c, ((1, 1), (0, 1)): -c, ((0, 2),): d})
    assert h.terms == {((0, 2),): d}


# -- results of the library's own arithmetic --------------------------------


def _assert_canonical(p: HomPoly):
    """p is what the validating constructor makes of its own terms: the
    same polynomial in the same term order, no zero and no foreign type."""
    from lorentzlab.rat import Rational

    again = HomPoly(p.vars, p.degree, p.terms)
    assert p == again and list(p.terms) == list(again.terms)
    assert all(c != 0 and type(c) is Rational for c in p.terms.values()), p.terms
    assert p._index == {v: i for i, v in enumerate(p.vars)}


def _random_point(rng, n):
    return [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]


def test_arithmetic_results_match_the_validating_constructor(rng):
    checked = zeros = 0
    for _ in range(100):
        n, d = rng.randint(1, 4), rng.randint(0, 4)
        f = _random_poly(rng, n, d, terms=rng.randint(0, 6))
        g = _random_poly(rng, n, d, terms=rng.randint(0, 6))
        h = _random_poly(rng, n, rng.randint(0, 2), terms=rng.randint(0, 4))
        x = _random_point(rng, n)
        c = Q(rng.randint(-3, 3), rng.randint(1, 3))
        S = set(rng.sample(f.vars, rng.randint(0, n)))
        keep = [v for v in f.vars if v not in S]
        rng.shuffle(keep)
        m = rng.randint(1, 3)
        new_vars = tuple(f"s{j}" for j in range(m))
        forms = {v: {w: Q(rng.randint(-2, 2)) for w in new_vars} for v in f.vars if rng.random() < 0.8}
        y = _random_point(rng, m)
        fx = f.evaluate(x)
        results = [
            (f + g, fx + g.evaluate(x)),
            (f - g, fx - g.evaluate(x)),
            (f * h, fx * h.evaluate(x)),
            (f.pow(2), fx ** 2),
            (f.scale(c), c * fx),
            (f.scale(0), 0),
            (f + f.scale(-1), 0),
            (f - f, 0),
        ]
        for p, value in results:
            assert p.evaluate(x) == value
        for v in f.vars:
            results.append((f.partial(v), None))
        zeroed = f.set_vars_zero(S)
        assert zeroed.evaluate(x) == f.evaluate([0 if v in S else xi for v, xi in zip(f.vars, x)])
        restricted = zeroed.restrict_vars(keep)
        at = dict(zip(f.vars, x))
        assert restricted.evaluate([at[v] for v in keep]) == zeroed.evaluate(x)
        sub = f.substitute(new_vars, forms)
        image = [sum((a * yj for a, yj in zip(forms[v].values(), y)), Q(0)) if v in forms else Q(0) for v in f.vars]
        assert sub.evaluate(y) == f.evaluate(image)
        results += [(zeroed, None), (restricted, None), (sub, None)]
        for p, _ in results:
            _assert_canonical(p)
            checked += 1
            zeros += p.is_zero()
    assert checked > 1200 and zeros > 300


def test_substitute_cancellations():
    # f vanishes on t0 = t1: every term cancels, and a partly cancelling
    # sum keeps the order the constructor gives its terms
    f = parse_poly("t0^2 t2 - t1^2 t2 + t0 t2^2 - t1 t2^2")
    zero = f.substitute(("s",), {"t0": {"s": 1}, "t1": {"s": 1}, "t2": {"s": 3}})
    assert zero.is_zero() and zero.degree == 3 and zero.vars == ("s",)
    _assert_canonical(zero)
    g = parse_poly("t0 t2 - t1 t2 + t2^2 + t0 t1")
    part = g.substitute(("r", "s"), {"t0": {"s": 1, "r": 1}, "t1": {"r": 1, "s": 1}, "t2": {"r": 2}})
    assert part == parse_poly("4*r^2 + r^2 + 2*r s + s^2", vars=("r", "s"))
    _assert_canonical(part)
    assert parse_poly("t0 - t1").substitute(("u", "v"), {"t0": {"u": 1, "v": 0}, "t1": {"u": 1}}).is_zero()


def test_lineality_from_coefficients_matches_partials(rng):
    # seeded polynomials, with lineality made on purpose by a pull-back
    # along a map of low rank
    for _ in range(60):
        n, d = rng.randint(1, 5), rng.randint(0, 4)
        f = _random_poly(rng, n, d, terms=rng.randint(0, 6))
        m = rng.randint(1, n + 1)
        A = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
        g = f.substitute_linear(A, tuple(f"s{j}" for j in range(m)))
        for p in (f, g):
            assert p.lineality_space() == partials_lineality_space(p)


def test_lineality_from_coefficients_on_acceptance_fixtures(rng):
    # every hereditary and polytope fixture of the acceptance suite, at
    # every face of its complex
    from conftest import hereditary_fixture_pool
    from test_acceptance import POLYTOPE_FIXTURES

    from lorentzlab.hereditary import restrict_poly
    from lorentzlab.polytope import build, volume_polynomial

    pool = hereditary_fixture_pool(rng) + [volume_polynomial(build(normals, t))
                                           for _, normals, t in POLYTOPE_FIXTURES]
    faces = 0
    for h in pool:
        for S in h.delta.faces(max_size=h.degree - 1):
            p = restrict_poly(h, S)
            assert p.lineality_space() == partials_lineality_space(p)
            faces += 1
    assert faces > 100


def test_malformed_terms_and_duplicate_labels_raise():
    import pytest

    for terms in ({((0, 1),): 1},                 # wrong degree
                  {((0, 1), (2, 1)): 1},          # position out of range
                  {((0, 2), (1, 0)): 1},          # zero exponent
                  {((0, 3), (1, -1)): 1}):        # negative exponent
        with pytest.raises(ValueError):
            HomPoly(("a", "b"), 2, terms)
    with pytest.raises(ValueError, match="duplicate"):
        HomPoly(("a", "a"), 1, {((0, 1),): 1})
    f = parse_poly("a b + b c")
    with pytest.raises(ValueError, match="duplicate"):
        f.set_vars_zero(["a"]).restrict_vars(("b", "c", "b"))
    with pytest.raises(ValueError, match="dropped"):
        f.restrict_vars(("a", "b"))
    with pytest.raises(ValueError, match="duplicate"):
        f.substitute(("u", "v", "u"), {"a": {"u": 1}, "b": {"v": 1}})
    with pytest.raises(ValueError, match="duplicate"):
        f.substitute_linear([[1, 0], [0, 1], [1, 1]], ("u", "u"))


# -- the integer table against a plain dict of Fractions ----------------------


def _mixed_poly(rng, vars, d, terms=4) -> tuple[HomPoly, FracPoly]:
    """A seeded polynomial with mixed denominators, built both ways from
    the same coefficients."""
    from fractions import Fraction

    dense = {}
    for _ in range(terms):
        exps = [0] * len(vars)
        for _ in range(d):
            exps[rng.randrange(len(vars))] += 1
        dense[tuple(exps)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))
    return HomPoly.from_dense(vars, d, dense), FracPoly(vars, d, dense)


def test_integer_table_matches_fraction_reference(rng):
    from fractions import Fraction

    mixed = 0
    for _ in range(60):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        vars = tuple(f"t{i}" for i in range(n))
        (p, P), (q, Qr) = _mixed_poly(rng, vars, d), _mixed_poly(rng, vars, d)
        s, S = _mixed_poly(rng, vars, rng.randint(0, 2))
        assert P.same(p) and Qr.same(q) and S.same(s)
        assert (P + Qr).same(p + q) and (P - Qr).same(p - q)
        assert (P * S).same(p * s) and P.pow(2).same(p.pow(2)) and P.pow(0).same(p.pow(0))
        assert p + q - q == p and hash(p + q - q) == hash(p)
        assert all(P.partial(v).same(p.partial(v)) for v in vars)
        point = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in vars]
        assert p.evaluate(point) == P.evaluate(point)
        assert p.evaluate(dict(zip(vars, point))) == P.evaluate(point)
        new = ("u", "w")
        forms = {v: {w: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for w in new if rng.random() < 0.7}
                 for v in vars if rng.random() < 0.9}
        assert P.substitute(new, forms).same(p.substitute(new, forms))
        keep = vars[1:]
        cut = p.set_vars_zero(vars[:1])
        assert FracPoly.of(cut).restrict_vars(keep).same(cut.restrict_vars(keep))
        assert P.lineality_space() == p.lineality_space()
        assert P.to_text() == p.to_text() and P.to_json_dict() == p.to_json_dict()
        # cancellation to the zero polynomial keeps the degree tag
        z = p - p
        assert z.is_zero() and z.degree == d and (z.coeffs, z.den) == ({}, 1)
        assert (P - P).same(z) and z == HomPoly.zero(vars, d) and z.to_text() == "0"
        mixed += p.den > 1 and len({c.denominator for c in P.terms.values()}) > 1
    assert mixed > 20


def test_lowest_terms_make_equal_polynomials_hash_equal():
    half = parse_poly("1/2*a b")
    for same in (
        HomPoly(("a", "b"), 2, {((0, 1), (1, 1)): "2/4"}),
        HomPoly.from_dense(("a", "b"), 2, {(1, 1): Q(2, 4)}),
        parse_poly("2*a b").scale(Q(1, 4)),
        parse_poly("3/4*a b") - parse_poly("1/4*a b"),
        parse_poly("a b").scale(Q(1, 6)) * HomPoly.constant(("a", "b"), 3),
    ):
        assert same == half and hash(same) == hash(half)
        assert (same.coeffs, same.den) == ({(1, 1): 1}, 2)
