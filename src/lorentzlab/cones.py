"""Exact strict linear feasibility and polyhedral cone utilities.

The workhorse is a two-phase exact simplex with Bland's rule (guaranteed
termination, no numerical tolerance anywhere).  A pivot updates only the
nonzero columns of the pivot row, in every row and in the objective: the
compiled systems are mostly zeros, and x - f*0 = x, so the pivots and the
solution are those of the dense tableau.  Strict systems are decided
by maximizing a slack eps bounded by 1: the system is strictly feasible iff
the optimum is positive.  Every witness is re-verified against every
constraint before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

from . import linalg
from .polycore import Direction, direction_coords
from .rat import Q, ZERO, ONE

Label = Hashable

GT, GE, EQ = ">", ">=", "="


@dataclass(frozen=True)
class Constraint:
    """coeffs . x + const REL 0 with REL in {">", ">=", "="}."""

    coeffs: tuple  # tuple of (label, rational) pairs, zero coefficients dropped
    const: object
    rel: str

    @classmethod
    def make(cls, coeffs: Mapping[Label, object], const, rel: str) -> "Constraint":
        if rel not in (GT, GE, EQ):
            raise ValueError(f"bad relation {rel!r}")
        items = tuple((v, Q(c)) for v, c in coeffs.items() if Q(c) != 0)
        return cls(items, Q(const), rel)

    def value_at(self, point: Mapping[Label, object]):
        s = self.const
        for v, c in self.coeffs:
            s += c * Q(point.get(v, 0))
        return s

    def satisfied_by(self, point: Mapping[Label, object]) -> bool:
        val = self.value_at(point)
        return val > 0 if self.rel == GT else val >= 0 if self.rel == GE else val == 0


@dataclass
class StrictSystem:
    """A conjunction of strict/weak/equality linear constraints.

    ``vars`` are the primary unknowns; ``aux`` are existential helper
    variables (e.g. subspace coefficients).  Both are solved for; the split
    only affects how witnesses are reported.
    """

    vars: tuple = ()
    aux: tuple = ()
    constraints: list[Constraint] = field(default_factory=list)

    def add(self, coeffs: Mapping[Label, object], rel: str, const=0):
        self.constraints.append(Constraint.make(coeffs, const, rel))

    def all_vars(self) -> tuple:
        return tuple(self.vars) + tuple(self.aux)

    def verify(self, point: Mapping[Label, object]) -> bool:
        return all(c.satisfied_by(point) for c in self.constraints)


# ---------------------------------------------------------------------------
# exact simplex
# ---------------------------------------------------------------------------


def lp_max(c: Sequence, A: Sequence[Sequence], b: Sequence):
    """Maximize c.x subject to Ax <= b, x >= 0, exactly.

    Returns (status, x, value) with status in {"optimal", "unbounded",
    "infeasible"}; x is None unless optimal.  Bland's rule throughout.
    """
    m, n = len(A), len(c)
    c = [Q(x) for x in c]
    b = [Q(x) for x in b]
    rows = [[Q(x) for x in row] + [ONE if i == j else ZERO for j in range(m)] for i, row in enumerate(A)]
    basis = list(range(n, n + m))

    def pivot(r: int, col: int, obj: list):
        # only the nonzero columns of the pivot row change anything: x - f*0 = x
        prow = rows[r]
        inv = ONE / prow[col]
        nz = [j for j, y in enumerate(prow) if y != 0]
        for j in nz:
            prow[j] *= inv
        b[r] *= inv
        for i in range(m):
            row = rows[i]
            f = row[col]
            if i != r and f != 0:
                for j in nz:
                    row[j] -= f * prow[j]
                b[i] -= f * b[r]
        f = obj[col]
        if f != 0:
            for j in nz:
                obj[j] -= f * prow[j]
        basis[r] = col

    def run(obj: list) -> bool:
        """Bland simplex on the current dictionary; False means unbounded."""
        while True:
            col = next((j for j in range(len(obj)) if obj[j] > 0 and j not in basis), None)
            if col is None:
                return True
            best, r = None, None
            for i in range(m):
                if rows[i][col] > 0:
                    ratio = b[i] / rows[i][col]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[r]):
                        best, r = ratio, i
            if r is None:
                return False
            pivot(r, col, obj)

    ncols = n + m
    if any(x < 0 for x in b):
        # phase 1: artificial x0 enters every row with coefficient -1; max -x0
        for i in range(m):
            rows[i].append(-ONE)
        x0 = ncols
        ncols += 1
        obj = [ZERO] * x0 + [-ONE]
        r = min(range(m), key=lambda i: (b[i], basis[i]))
        pivot(r, x0, obj)
        run(obj)
        if any(basis[i] == x0 and b[i] != 0 for i in range(m)):
            return "infeasible", None, None
        if x0 in basis:
            r = basis.index(x0)  # x0 basic at value 0: pivot it out if possible
            col = next((j for j in range(x0) if rows[r][j] != 0 and j not in basis), None)
            if col is not None:
                pivot(r, col, obj)
        # erase the artificial column so it can never re-enter; if x0 is
        # still basic its row is now identically zero and stays inert
        for row in rows:
            row[x0] = ZERO

    # phase 2 objective expressed over nonbasic variables
    obj = list(c) + [ZERO] * (ncols - n)
    for i, bi in enumerate(basis):
        f = obj[bi]
        if f != 0:
            obj = [x - f * y for x, y in zip(obj, rows[i])]
    if not run(obj):
        return "unbounded", None, None
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = b[i]
    value = linalg.dot(c, x)
    return "optimal", tuple(x), value


# ---------------------------------------------------------------------------
# strict feasibility
# ---------------------------------------------------------------------------


def _components(sys: StrictSystem) -> list[tuple[list[Label], list[Constraint]]]:
    """Split into connected components of the variable/constraint graph."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for k, con in enumerate(sys.constraints):
        anchor = ("c", k)
        for v, _ in con.coeffs:
            union(anchor, ("v", v))
    groups: dict = {}
    for k, con in enumerate(sys.constraints):
        groups.setdefault(find(("c", k)), ([], []))[1].append(con)
    for v in sys.all_vars():
        key = ("v", v)
        if key in parent:
            root = find(key)
            if root in groups:
                groups[root][0].append(v)
    return list(groups.values())


def strict_feasible(sys: StrictSystem) -> dict | None:
    """Exact witness of the strict system, or None if infeasible.

    Each strict constraint lam.x + c > 0 becomes lam.x + c >= eps; eps is
    maximized subject to eps <= 1 (capping keeps homogeneous systems
    bounded without affecting the feasible/infeasible verdict).  Independent
    variable blocks are solved separately, which keeps compiled per-face
    cone systems with a known base point cheap.
    """
    witness: dict = {v: ZERO for v in sys.all_vars()}
    for labels, cons in _components(sys):
        part = _strict_feasible_block(labels, cons)
        if part is None:
            return None
        witness.update(part)
    if not sys.verify(witness):  # exact re-verification, never skipped
        raise AssertionError("simplex produced an invalid witness")
    return witness


def _strict_feasible_block(labels: list[Label], cons: list[Constraint]) -> dict | None:
    pos = {v: i for i, v in enumerate(labels)}
    n = 2 * len(labels) + 1  # x = p - m split, plus eps last
    eps = n - 1
    A, b = [], []

    def dense(con: Constraint, with_eps: bool):
        row = [ZERO] * n
        for v, c in con.coeffs:
            row[2 * pos[v]] = c
            row[2 * pos[v] + 1] = -c
        if with_eps:
            row[eps] = -ONE
        return row

    for con in cons:
        if con.rel == EQ:
            row = dense(con, False)
            A.append([-x for x in row])
            b.append(con.const)
            A.append(row)
            b.append(-con.const)
        else:
            A.append([-x for x in dense(con, con.rel == GT)])
            b.append(con.const)
    cap = [ZERO] * n
    cap[eps] = ONE
    A.append(cap)
    b.append(ONE)
    obj = [ZERO] * n
    obj[eps] = ONE
    status, x, value = lp_max(obj, A, b)
    if status != "optimal" or value <= 0:
        return None
    return {v: x[2 * i] - x[2 * i + 1] for v, i in pos.items()}


# ---------------------------------------------------------------------------
# cone utilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeByGenerators:
    """An open convex cone described by generators of its closure's rays."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(tuple(Q(x) for x in g) for g in self.generators)
        if not gens:
            raise ValueError("cone needs at least one generator")
        if any(all(x == 0 for x in g) for g in gens):
            raise ValueError("zero vector cannot generate a ray")
        object.__setattr__(self, "generators", gens)

    @property
    def dim_ambient(self) -> int:
        return len(self.generators[0])

    def to_json_dict(self) -> dict:
        from .rat import rat_str

        return {"generators": [[rat_str(x) for x in g] for g in self.generators]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ConeByGenerators":
        return cls(tuple(tuple(Q(str(x)) for x in g) for g in data["generators"]))


def in_orthant_plus_subspace(v, L) -> tuple | None:
    """An exact l in L with v + l strictly positive, or None.

    v is a Direction/sequence over L.ambient; the returned l is a coordinate
    tuple over the same ambient set.
    """
    coords = direction_coords(v, L.ambient)
    sys = StrictSystem(vars=(), aux=tuple(("a", i) for i in range(L.dim)))
    for j, lab in enumerate(L.ambient):
        row = {("a", i): L.basis[i][j] for i in range(L.dim)}
        sys.add(row, GT, coords[j])
    w = strict_feasible(sys)
    if w is None:
        return None
    ell = [ZERO] * len(L.ambient)
    for i in range(L.dim):
        a = w[("a", i)]
        for j, x in enumerate(L.basis[i]):
            ell[j] += a * x
    return tuple(ell)


def solve_in_span(target, rays: Sequence[Sequence]) -> tuple:
    """Unique coefficients c > 0 with target = sum c_i rays_i.

    Rays must be linearly independent; the combination, if it exists, is
    unique, so strict positivity is a property of the target.  Raises
    ValueError naming the reason when there is no such combination.
    """
    cols = [tuple(Q(x) for x in r) for r in rays]
    if linalg.rank(cols) != len(cols):
        raise ValueError("rays are linearly dependent")
    A = linalg.transpose(cols)
    tgt = tuple(Q(x) for x in target)
    c = linalg.solve(A, tgt)
    if c is None or linalg.mat_vec(A, c) != tgt:
        raise ValueError("target is not in the span of the rays")
    bad = next((i for i, x in enumerate(c) if x <= 0), None)
    if bad is not None:
        raise ValueError(f"coefficient {bad} is {c[bad]}, not positive")
    return c
