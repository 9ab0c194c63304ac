import os
import random
import subprocess
import sys

import pytest

from lorentzlab.rat import Q


def pytest_report_header(config):
    """Every timing needs the rational backend, the Python version and the
    CPU count beside it; the suite's wall time is one."""
    import platform

    from lorentzlab.rat import RAT_BACKEND

    return f"lorentzlab: rat_backend={RAT_BACKEND}, python={platform.python_version()}, cpu_count={os.cpu_count()}"


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: full acceptance-criteria checks")


def in_fresh_process(script: str, stdin: str = "", **env) -> str:
    """The stdout of ``script`` run by a new interpreter that finds the
    package under ``src``, with the extra environment ``env`` (for example
    a ``PYTHONHASHSEED``)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], input=stdin, capture_output=True, text=True,
                          env=env, check=True, timeout=600).stdout


@pytest.fixture
def rng():
    """Seeded RNG; LORENTZLAB_SEED overrides the default."""
    return random.Random(int(os.environ.get("LORENTZLAB_SEED", "20240809")))


def rand_q(rng, lo=-4, hi=4, den=3):
    return Q(rng.randint(lo, hi), rng.randint(1, den))


def rand_nonneg_poly(rng, n, d, terms=None):
    """Random sparse homogeneous polynomial with nonnegative coefficients."""
    from lorentzlab.polycore import HomPoly

    vars = tuple(f"t{i + 1}" for i in range(n))
    dense = {}
    for _ in range(terms if terms is not None else rng.randint(2, 6)):
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        dense[tuple(exps)] = Q(rng.randint(1, 5), rng.randint(1, 2))
    return HomPoly.from_dense(vars, d, dense)


def rand_product_of_linears(rng, n, d):
    """A product of positive linear forms: always Lorentzian."""
    from lorentzlab.polycore import HomPoly

    vars = tuple(f"t{i + 1}" for i in range(n))
    out = HomPoly.constant(vars, 1)
    for _ in range(d):
        coeffs = {((i, 1),): Q(rng.randint(0, 3)) for i in range(n)}
        coeffs[((rng.randrange(n), 1),)] = Q(rng.randint(1, 3))
        out = out * HomPoly(vars, 1, coeffs)
    return out


def nonneg_cubics_and_quartics(rng):
    """The nonzero polynomials among 200 seeded draws: every fourth a
    product of linear forms, the rest sparse nonnegative cubics and
    quartics, in 2 to 4 variables (2 to 3 in degree 4)."""
    for k in range(200):
        if k % 4 == 0:
            d = 4 if k % 16 == 0 else 3
            n = rng.randint(2, 3 if d == 4 else 4)
            f = rand_product_of_linears(rng, n, d)
        else:
            d = rng.choice([3, 3, 4])
            n = rng.randint(2, 3 if d == 4 else 4)
            f = rand_nonneg_poly(rng, n, d)
        if not f.is_zero():
            yield f


def hereditary_fixture_pool(rng):
    """Strongly hereditary positive fixtures for subdivision round trips."""
    from lorentzlab.hereditary import check_hereditary
    from lorentzlab.lorentzian import polarize
    from lorentzlab.matroid import Matroid, flats, pol_matroid
    from lorentzlab.polycore import parse_poly
    from lorentzlab.polytope import build, volume_polynomial
    from oracles import product

    pool = [
        pol_matroid(flats(Matroid.uniform(2, 3))),
        pol_matroid(flats(Matroid.uniform(3, 4))),
        pol_matroid(flats(Matroid.uniform(3, 5))),
        check_hereditary(polarize(parse_poly("t1 t2 + t1 t3 + t2 t3"))),
        check_hereditary(polarize(parse_poly("t1^2 + 3*t1 t2 + t2^2"))),
        volume_polynomial(build([(1, 0), (0, 1), (-1, 0), (0, -1)], [1, 1, 1, 1])),
        volume_polynomial(build([(-1, 0), (0, -1), (1, 1)], [0, 0, 1])),
        product(
            check_hereditary(parse_poly("u1 + 2*u2")),
            check_hereditary(polarize(parse_poly("t1 t2"))),
        ),
    ]
    return pool


@pytest.fixture(scope="session")
def catalog():
    """All uniform matroids with at most 7 elements, plus K4 and Fano."""
    from lorentzlab.matroid import Matroid, flats

    out = {}
    for n in range(1, 8):
        for r in range(1, n + 1):
            out[f"U({r},{n})"] = flats(Matroid.uniform(r, n))
    out["K4"] = flats(Matroid.from_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    out["Fano"] = flats(Matroid.fano())
    return out
