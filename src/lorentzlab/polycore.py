"""Sparse homogeneous polynomials with exact rational coefficients.

A ``HomPoly`` is a map from sparse exponent multi-indices to nonzero
rationals, over an ordered tuple of variable labels.  Labels are arbitrary
hashable values (ints, strings, frozensets of matroid flats, fan ray names);
the construction order of ``vars`` is the canonical order used everywhere.

Exponent keys are tuples of (variable position, exponent) pairs sorted by
position, all exponents >= 1.  Invariants: distinct labels, keys in range of
total degree ``degree``, coefficients nonzero rationals of the backend type.
The zero polynomial is an empty term map with an explicit degree tag, so
derivative chains and face restrictions keep a well-defined grade.

The public constructor checks and coerces any input.  ``+``, ``-``, ``*``,
``pow``, ``scale``, ``partial``, ``set_vars_zero``, ``restrict_vars`` and
``substitute`` build their results through ``HomPoly._trusted``, which
checks nothing: they form sorted keys themselves, drop cancelled terms and
keep the term order the constructor would give (``restrict_vars`` and
``substitute`` still reject duplicate labels).  No other module may call it.

Two coefficient tables are built on first use and kept: ``dense_terms``,
the rationals by dense exponent tuple, and ``int_terms``, den times them on
Python ints.  The Hessians of :mod:`lorentzlab.inertia` are read off the
integer table, and ``substitute`` expands on integers too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial, gcd, lcm, prod
from operator import add
from typing import Callable, Iterable, Mapping, Sequence

from . import linalg
from .rat import Q, ZERO, ONE, Rational, rat_str, read_rat
from .simplicial import Label, label_str

Key = tuple  # sorted tuple of (position, exponent) pairs


def _key_degree(key: Key) -> int:
    return sum(e for _, e in key)


def _key_mul(a: Key, b: Key) -> Key:
    d = dict(a)
    for i, e in b:
        d[i] = d.get(i, 0) + e
    return tuple(sorted(d.items()))


def _key_lower(key: Key, j: int) -> Key:
    """The key with its j-th exponent lowered by one (dropped at zero)."""
    i, e = key[j]
    return key[:j] + key[j + 1:] if e == 1 else key[:j] + ((i, e - 1),) + key[j + 1:]


def _nonzero(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c}


def _int_mul(a: dict, b: dict) -> dict:
    """The product of two polynomials held as {dense exponent tuple: int},
    with cancelled terms dropped, in the term order of ``HomPoly.__mul__``."""
    out: dict[tuple, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = tuple(map(add, ea, eb))
            out[k] = out.get(k, 0) + ca * cb
    return _nonzero(out)


class HomPoly:
    """Homogeneous polynomial over an ordered, labeled variable set."""

    __slots__ = ("vars", "degree", "terms", "_index", "_dense", "_ints")

    def __init__(self, vars: Sequence[Label], degree: int, terms: Mapping[Key, object]):
        vs = tuple(vars)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable labels")
        clean: dict[Key, object] = {}
        for key, c in terms.items():
            c = Q(c)
            if c == 0:
                continue
            key = tuple(sorted(key))
            if _key_degree(key) != degree:
                raise ValueError(f"term {key} has degree {_key_degree(key)}, expected {degree}")
            if any(e < 1 for _, e in key) or any(not 0 <= i < len(vs) for i, _ in key):
                raise ValueError(f"malformed exponent key {key}")
            prev = clean.get(key)
            clean[key] = c if prev is None else prev + c
        self._fill(vs, degree, _nonzero(clean), {v: i for i, v in enumerate(vs)})

    def _fill(self, vars: tuple, degree: int, terms: dict, index: dict):
        for name, value in zip(HomPoly.__slots__, (vars, degree, terms, index, None, None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, vars: tuple, degree: int, terms: dict, index: dict | None = None) -> "HomPoly":
        """A polynomial on terms that meet every invariant, unchecked; ``index``
        maps ``vars`` to positions, shared with an operand on the same vars."""
        p = object.__new__(cls)
        p._fill(vars, degree, terms, {v: i for i, v in enumerate(vars)} if index is None else index)
        return p

    def __setattr__(self, *a):  # immutable after construction
        raise AttributeError("HomPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[Label], degree: int = 0) -> "HomPoly":
        return cls(vars, degree, {})

    @classmethod
    def constant(cls, vars: Sequence[Label], value) -> "HomPoly":
        return cls(vars, 0, {(): Q(value)})

    @classmethod
    def variable(cls, vars: Sequence[Label], v: Label) -> "HomPoly":
        vs = tuple(vars)
        return cls(vs, 1, {((vs.index(v), 1),): ONE})

    @classmethod
    def from_dense(cls, vars: Sequence[Label], degree: int, dense: Mapping[tuple, object]) -> "HomPoly":
        """Build from dense exponent tuples aligned with ``vars``."""
        terms = {}
        for exps, c in dense.items():
            key = tuple((i, e) for i, e in enumerate(exps) if e)
            c = Q(c)
            prev = terms.get(key)
            terms[key] = c if prev is None else prev + c
        return cls(vars, degree, terms)

    # -- basics --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def squarefree_coeff(self, labels: Iterable[Label]):
        """The coefficient of the squarefree monomial on ``labels``.  It is
        the mixed partial (d/dt)^labels of the polynomial when there are
        ``degree`` labels, and 0 otherwise."""
        return self.terms.get(tuple(sorted((self._index[v], 1) for v in set(labels))), ZERO)

    def coeff(self, exps: Sequence[int]):
        key = tuple((i, e) for i, e in enumerate(exps) if e)
        return self.terms.get(key, ZERO)

    def dense_terms(self) -> dict[tuple, object]:
        """The coefficients by dense exponent tuple.  Built on first use and
        kept, since the polynomial is immutable; callers must not modify it."""
        if self._dense is None:
            n = len(self.vars)
            out = {}
            for key, c in self.terms.items():
                exps = [0] * n
                for i, e in key:
                    exps[i] = e
                out[tuple(exps)] = c
            object.__setattr__(self, "_dense", out)
        return self._dense

    def int_terms(self) -> tuple[dict[tuple, int], int]:
        """(N, den): den * the coefficients by dense exponent tuple, on Python
        ints, with den > 0 the least common denominator of the coefficients
        (one lcm per polynomial).  Built on first use and kept, as
        ``dense_terms`` is; callers must not modify it."""
        if self._ints is None:
            dense = self.dense_terms()
            den = lcm(*(int(c.denominator) for c in dense.values()))
            out = {exps: int(c.numerator) * (den // int(c.denominator)) for exps, c in dense.items()}
            object.__setattr__(self, "_ints", (out, den))
        return self._ints

    def derivative_value(self, beta: Sequence[int]):
        """The mixed partial (d/dt)^beta for a dense exponent vector beta:
        beta! c_beta when |beta| = degree, and 0 otherwise."""
        c = self.dense_terms().get(tuple(beta))
        return ZERO if c is None else prod(map(factorial, beta)) * c

    def support(self) -> set[tuple]:
        """Multi-indices with nonzero coefficient, as dense tuples."""
        return set(self.dense_terms())

    def support_sets(self) -> set[frozenset]:
        """Variable-label support of each monomial (squarefree shadow)."""
        return {frozenset(self.vars[i] for i, _ in key) for key in self.terms}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomPoly)
            and self.vars == other.vars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, self.degree, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"HomPoly({self.to_text()!r})"

    # -- ring operations ----------------------------------------------------

    def _require_same_space(self, other: "HomPoly"):
        if self.vars != other.vars:
            raise ValueError("polynomials live on different variable sets")

    def __add__(self, other: "HomPoly") -> "HomPoly":
        self._require_same_space(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add polynomials of different degrees")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            prev = terms.get(k)
            terms[k] = c if prev is None else prev + c
        return HomPoly._trusted(self.vars, self.degree, _nonzero(terms), self._index)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "HomPoly":
        c = Q(c)
        terms = {k: c * v for k, v in self.terms.items()} if c else {}
        return HomPoly._trusted(self.vars, self.degree, terms, self._index)

    def __mul__(self, other: "HomPoly") -> "HomPoly":
        self._require_same_space(other)
        deg = self.degree + other.degree
        terms: dict[Key, object] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = _key_mul(ka, kb)
                prev = terms.get(k)
                terms[k] = ca * cb if prev is None else prev + ca * cb
        return HomPoly._trusted(self.vars, deg, _nonzero(terms), self._index)

    def pow(self, n: int) -> "HomPoly":
        out = HomPoly._trusted(self.vars, 0, {(): ONE}, self._index)
        for _ in range(n):
            out = out * self
        return out

    # -- evaluation and derivatives ------------------------------------------

    def _coerce_point(self, point) -> tuple:
        if isinstance(point, Mapping):
            return tuple(Q(point[v]) for v in self.vars)
        pt = tuple(Q(x) for x in point)
        if len(pt) != len(self.vars):
            raise ValueError("point has wrong dimension")
        return pt

    def evaluate(self, point):
        """Exact value at a rational point (mapping by label, or aligned sequence)."""
        pt = self._coerce_point(point)
        total = ZERO
        for key, c in self.terms.items():
            v = c
            for i, e in key:
                v *= pt[i] ** e
            total += v
        return total

    def partial(self, v: Label) -> "HomPoly":
        """Single partial derivative with respect to the variable labeled v."""
        i = self._index[v]
        terms: dict[Key, object] = {}
        for key, c in self.terms.items():  # distinct keys stay distinct
            for j, (p, e) in enumerate(key):
                if p == i:
                    terms[_key_lower(key, j)] = c * e
                    break
        return HomPoly._trusted(self.vars, self.degree - 1 if self.degree > 0 else 0, terms, self._index)

    def dir_derivative(self, v) -> "HomPoly":
        """Directional derivative: sum over i of v_i * (d/dt_i)."""
        coords = direction_coords(v, self.vars)
        out = HomPoly.zero(self.vars, max(self.degree - 1, 0))
        for lab, c in zip(self.vars, coords):
            if c != 0:
                out = out + self.partial(lab).scale(c)
        return out

    def mixed_partial(self, alpha) -> "HomPoly":
        """Apply the mixed partial for a multi-index: a mapping from labels to
        exponents, a dense exponent sequence, or labels (a set always is)."""
        out = self
        for lab, e in _coerce_multi(alpha, self.vars):
            for _ in range(e):
                out = out.partial(lab)
        return out

    def set_vars_zero(self, S: Iterable[Label]) -> "HomPoly":
        idx = {self._index[v] for v in S}
        terms = {k: c for k, c in self.terms.items() if not any(i in idx for i, _ in k)}
        return HomPoly._trusted(self.vars, self.degree, terms, self._index)

    # -- substitution ---------------------------------------------------------

    def substitute(self, new_vars: Sequence[Label], forms: Mapping[Label, Mapping[Label, object]]) -> "HomPoly":
        """Substitute a linear form (over new_vars) for each old variable.

        Missing old variables map to zero.  Exact, and expanded on Python
        ints: the form of old variable i is scaled by s_i, the lcm of its
        denominators, and f's term at exponent e by L / prod_i s_i^e_i, with
        L the lcm of those products over the terms, so each coefficient of
        the result is one rational, an integer sum divided by den * L (den
        as in ``int_terms``).  The result is homogeneous of the same degree.
        """
        new_vars = tuple(new_vars)
        nidx = {v: i for i, v in enumerate(new_vars)}
        if len(nidx) != len(new_vars):
            raise ValueError("duplicate variable labels")
        m = len(new_vars)
        scales, images = [], []
        for v in self.vars:
            form = [(nidx[w], Q(c)) for w, c in forms.get(v, {}).items()]
            s = lcm(*(int(c.denominator) for _, c in form))
            image = {}
            for j, c in form:
                if c:
                    exps = [0] * m
                    exps[j] = 1
                    image[tuple(exps)] = int(c.numerator) * (s // int(c.denominator))
            scales.append(s)
            images.append(image)
        coeff, den = self.int_terms()
        weight = {exps: prod(s**e for s, e in zip(scales, exps)) for exps in coeff}
        L = lcm(*weight.values())
        acc: dict[tuple, int] = {}
        pow_cache: dict[tuple[int, int], dict] = {}
        for exps, c in coeff.items():
            term = {(0,) * m: c * (L // weight[exps])}
            for i, e in enumerate(exps):
                if e:
                    p = pow_cache.get((i, e))
                    if p is None:
                        p = {(0,) * m: 1}
                        for _ in range(e):
                            p = _int_mul(p, images[i])
                        pow_cache[(i, e)] = p
                    term = _int_mul(term, p)
            for k, v in term.items():
                acc[k] = acc.get(k, 0) + v
        D = den * L
        terms = {tuple((j, x) for j, x in enumerate(k) if x): Rational(v, D) for k, v in acc.items() if v}
        return HomPoly._trusted(new_vars, self.degree, terms, nidx)

    def substitute_linear(self, A: Sequence[Sequence], new_vars: Sequence[Label]) -> "HomPoly":
        """g(x) = f(Ax) where A has one row per f-variable, one column per new variable."""
        if len(A) != len(self.vars):
            raise ValueError("substitution matrix has wrong number of rows")
        new_vars = tuple(new_vars)
        forms = {}
        for v, row in zip(self.vars, A):
            if len(row) != len(new_vars):
                raise ValueError("substitution matrix has wrong number of columns")
            forms[v] = {w: c for w, c in zip(new_vars, row)}
        return self.substitute(new_vars, forms)

    def restrict_vars(self, keep: Sequence[Label]) -> "HomPoly":
        """Project onto a variable subset; terms touching dropped variables must vanish."""
        keep = tuple(keep)
        pos = {self._index[v]: j for j, v in enumerate(keep)}
        if len(pos) != len(keep):
            raise ValueError("duplicate variable labels")
        terms = {}
        for key, c in self.terms.items():
            if any(i not in pos for i, _ in key):
                raise ValueError("polynomial involves a dropped variable")
            terms[tuple(sorted((pos[i], e) for i, e in key))] = c
        return HomPoly._trusted(keep, self.degree, terms)

    # -- structure ------------------------------------------------------------

    def lineality_space(self) -> "LinSubspace":
        """All v with D_v f identically zero, by exact linear solve.  The
        coefficient of t^beta in D_v f is sum_i (beta_i + 1) c_{beta+e_i} v_i,
        so the row of beta is read off the coefficients of f, and the
        kernel off one integer elimination of those rows."""
        n = len(self.vars)
        rows: dict[Key, list] = {}
        for key, c in self.terms.items():
            for j, (i, e) in enumerate(key):
                rows.setdefault(_key_lower(key, j), [0] * n)[i] = e * c
        M, _ = linalg.integer_scaled(list(rows.values()))
        M, pivots, prev, _ = linalg.eliminate(M)
        return LinSubspace._span(self.vars, linalg.kernel(M, pivots, prev, n))

    # -- text and JSON forms ----------------------------------------------------

    def to_text(self, label_str: Callable[[Label], str] = label_str) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for key in sorted(self.terms):
            c = self.terms[key]
            mono = " ".join(
                label_str(self.vars[i]) + (f"^{e}" if e > 1 else "") for i, e in key
            )
            body = f"{rat_str(abs(c))}*{mono}" if mono else rat_str(abs(c))
            parts.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def to_json_dict(self) -> dict:
        return {
            "vars": [label_str(v) for v in self.vars],
            "degree": self.degree,
            "terms": [
                {"exps": list(exps), "coeff": rat_str(c)}
                for exps, c in sorted(self.dense_terms().items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "HomPoly":
        vars = tuple(data["vars"])
        dense = {tuple(t["exps"]): read_rat(t["coeff"]) for t in data["terms"]}
        degree = data.get("degree")
        if degree is None:
            if not dense:
                raise ValueError("zero polynomial needs an explicit degree")
            degree = sum(next(iter(dense)))
        return cls.from_dense(vars, degree, dense)

_TERM_RE = re.compile(r"[+-]|[A-Za-z_][A-Za-z0-9_]*(?:\^\d+)?|\d+(?:/\d+)?|\*")


def parse_poly(text: str, vars: Sequence[Label] | None = None) -> HomPoly:
    """Parse the text grammar: rational coefficient, '*', space-separated powers.

    Example: ``"1*t1^2 t2 - 1/2*t2^3"``.  The coefficient and '*' may be
    omitted.  Variables default to the sorted names appearing in the text.
    """
    tokens = _TERM_RE.findall(text)
    if "".join(tokens).replace(" ", "") != text.replace(" ", ""):
        raise ValueError(f"cannot tokenize polynomial text: {text!r}")
    monomials: list[tuple[object, dict[str, int]]] = []
    sign, coeff, powers = 1, None, {}

    def flush():
        nonlocal sign, coeff, powers
        if coeff is None and not powers:
            return
        c = Q(sign) * (Q(1) if coeff is None else coeff)
        monomials.append((c, powers))
        sign, coeff, powers = 1, None, {}

    for tok in tokens:
        if tok in "+-":
            flush()
            sign = 1 if tok == "+" else -1
        elif tok == "*":
            continue
        elif tok[0].isdigit():
            coeff = Q(tok) if coeff is None else coeff * Q(tok)
        else:
            name, _, exp = tok.partition("^")
            powers = dict(powers)
            powers[name] = powers.get(name, 0) + (int(exp) if exp else 1)
    flush()
    if vars is None:
        vars = tuple(sorted({v for _, p in monomials for v in p}))
    vars = tuple(vars)
    if not monomials:
        return HomPoly.zero(vars, 0)
    degrees = {sum(p.values()) for _, p in monomials}
    if len(degrees) != 1:
        raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degrees)}")
    idx = {v: i for i, v in enumerate(vars)}
    terms: dict[Key, object] = {}
    for c, p in monomials:
        key = tuple(sorted((idx[v], e) for v, e in p.items()))
        prev = terms.get(key)
        terms[key] = c if prev is None else prev + c
    return HomPoly(vars, degrees.pop(), terms)


def _coerce_multi(alpha, vars: Sequence[Label]) -> list[tuple[Label, int]]:
    if isinstance(alpha, Mapping):
        return [(v, int(e)) for v, e in alpha.items()]
    if isinstance(alpha, (set, frozenset)):  # labels, never an exponent vector
        return [(v, 1) for v in alpha]
    alpha = list(alpha)
    if alpha and all(isinstance(e, int) for e in alpha) and len(alpha) == len(vars):
        return [(v, e) for v, e in zip(vars, alpha) if e]
    # otherwise: an iterable of labels, interpreted as a 0/1 indicator
    return [(v, 1) for v in alpha]


@dataclass(frozen=True)
class Direction:
    """A rational vector indexed by an ordered variable set."""

    vars: tuple
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "coords", tuple(Q(c) for c in self.coords))
        if len(self.vars) != len(self.coords):
            raise ValueError("direction has wrong dimension")

    def __getitem__(self, label):
        return self.coords[self.vars.index(label)]


def direction_coords(v, vars: Sequence[Label]) -> tuple:
    """Coerce a Direction, mapping, or aligned sequence to coordinates over vars."""
    vars = tuple(vars)
    if isinstance(v, Direction):
        if v.vars != vars:
            raise ValueError("direction indexed by a different variable set")
        return v.coords
    if isinstance(v, Mapping):
        return tuple(Q(v.get(lab, 0)) for lab in vars)
    coords = tuple(Q(x) for x in v)
    if len(coords) != len(vars):
        raise ValueError("direction has wrong dimension")
    return coords


class LinSubspace:
    """A rational subspace of R^V, stored by its canonical (rref) basis.

    ``rows`` is the same basis on Python ints: s times the rref rows, with
    s > 0 the least scale that makes them integers, so the rows are
    canonical too and s is the entry at every pivot.  Every construction
    is one ``linalg.eliminate`` on integer rows; pins, projections and the
    orthant LP of :mod:`lorentzlab.cones` work on ``rows``, and ``basis``
    forms the rationals once, for the callers that read them.
    """

    __slots__ = ("ambient", "rows", "basis")

    def __init__(self, ambient: Sequence[Label], basis: Iterable[Sequence]):
        ambient = tuple(ambient)
        M, _ = linalg.integer_scaled(basis)
        if any(len(r) != len(ambient) for r in M):
            raise ValueError("basis vector has wrong dimension")
        self._canonicalize(ambient, M)

    @classmethod
    def _span(cls, ambient: tuple, M: list) -> "LinSubspace":
        """The span of integer rows M over ambient, with no validation."""
        L = object.__new__(cls)
        L._canonicalize(ambient, M)
        return L

    def _canonicalize(self, ambient: tuple, M: list) -> None:
        M, pivots, prev, _ = linalg.eliminate(M)
        # the pivot rows are prev times the rref rows; dividing them by the
        # gcd of their entries, signed like prev, leaves the least scale s
        g = gcd(*(a for r in M[: len(pivots)] for a in r)) or 1
        g = -g if prev < 0 else g
        rows = tuple(tuple(a // g for a in r) for r in M[: len(pivots)])
        s = prev // g
        basis = tuple(tuple(Rational(a, s) if a else ZERO for a in r) for r in rows)
        for name, value in zip(self.__slots__, (ambient, rows, basis)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("LinSubspace is immutable")

    @classmethod
    def full(cls, ambient: Sequence[Label]) -> "LinSubspace":
        ambient = tuple(ambient)
        n = len(ambient)
        return cls._span(ambient, [[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        (z,), _ = linalg.integer_scaled([direction_coords(v, self.ambient)])
        return len(linalg.eliminate(list(self.rows) + [z])[1]) == self.dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinSubspace)
            and self.ambient == other.ambient
            and self.rows == other.rows  # canonical, as the rref basis is
        )

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"LinSubspace(dim={self.dim} in R^{len(self.ambient)})"

    def add(self, other: "LinSubspace") -> "LinSubspace":
        if self.ambient != other.ambient:
            raise ValueError("subspaces of different ambient spaces")
        return LinSubspace._span(self.ambient, list(self.rows) + list(other.rows))

    def perp(self) -> "LinSubspace":
        """The orthogonal complement {x : b . x = 0 for every b in L}.  The
        canonical rows are s times the rref rows with s at every pivot, so
        ``linalg.kernel`` reads an integer kernel basis off them as they
        are."""
        pivots = [next(j for j, a in enumerate(b) if a) for b in self.rows]
        s = self.rows[0][pivots[0]] if self.rows else 1
        return LinSubspace._span(self.ambient, linalg.kernel(list(self.rows), pivots, s, len(self.ambient)))

    def _positions(self, coords: Sequence[Label]) -> list[int]:
        idx = {v: i for i, v in enumerate(self.ambient)}
        return [idx[c] for c in coords]

    def projects_onto(self, coords: Sequence[Label]) -> bool:
        """Whether the projection onto ``coords`` is all of R^coords."""
        pos = self._positions(coords)
        if len(pos) > self.dim:
            return False
        return len(linalg.eliminate([[b[p] for p in pos] for b in self.rows])[1]) == len(pos)

    def pin(self, v: Label, keep: Sequence[Label]) -> tuple[tuple | None, "LinSubspace"]:
        """One elimination step at ``v``: (l, { m|keep : m in L, m_v = 0 }).

        l is the first basis row with a nonzero entry c at v, divided by c
        (None when every element vanishes at v); each other integer row b
        becomes c*b - b_v*(that row), which clears its v-entry, so these
        rows span the elements vanishing at v.  On the canonical basis l is
        the basic solution of m_v = 1, so repeated calls agree exactly.
        """
        p = self.ambient.index(v)
        pos = self._positions(keep)
        k = next((r for r, b in enumerate(self.rows) if b[p]), None)
        l = None
        if k is not None:
            top = self.rows[k]
            c = top[p]
            l = tuple(Rational(x, c) if x else ZERO for x in top)
        rows = [[c * b[q] - b[p] * top[q] for q in pos] if b[p] else [b[q] for q in pos]
                for r, b in enumerate(self.rows) if r != k]
        return l, LinSubspace._span(tuple(keep), rows)
