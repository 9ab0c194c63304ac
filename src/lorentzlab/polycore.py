"""Sparse homogeneous polynomials with exact rational coefficients.

A ``HomPoly`` lives over an ordered tuple of variable labels: arbitrary
hashable values (ints, strings, frozensets of matroid flats, fan ray
names), whose construction order is the canonical order used everywhere.

It stores one table: ``coeffs`` maps dense exponent tuples, aligned with
``vars`` and summing to ``degree``, to nonzero Python ints, and the
polynomial is coeffs / den with den > 0 in lowest terms (gcd(den, every
coefficient) = 1), so den is the least common denominator and ``==`` and
``hash`` are canonical.  The zero polynomial is an empty table over 1 with
an explicit degree tag, so derivative chains and face restrictions keep a
well-defined grade.

The public constructor takes sparse keys, sorted tuples of (variable
position, exponent) pairs, and checks and coerces any input; ``from_dense``,
``from_json_dict`` and ``parse_poly`` fill the table in one pass.  ``+``,
``-``, ``*``, ``pow``, ``scale``, ``partial``, ``set_vars_zero``,
``restrict_vars`` and ``substitute`` run on the table and build their
results through ``HomPoly._trusted``, which checks nothing but lowest
terms: they drop cancelled terms and keep the term order the constructor
would give.  No other module may call it.  Rationals are formed only where
a caller reads one: ``terms``, ``coeff``, ``evaluate`` and the text and
JSON forms.

**Kronecker keys** (von zur Gathen and Gerhard, *Modern Computer Algebra*,
ch. 8).  An exponent vector e gets one integer k(e) = sum e_i B^i (weights
``kron_weights``).  *Lemma:* while every digit stays in [0, B), k is
injective (k(e) is the base-B numeral of e) and k(e +- e_i) = k(e) +- B^i,
k(e + e') = k(e) + k(e'), with no carry.  Exponents of degree at most d
have digits in [0, d]: B = d + 1 serves a table of degree d (``key_table``).

**Subspaces from the part already known.**  A ``LinSubspace`` keeps s
times its rref rows (s > 0 least) and their pivots P; a canonical row is
s at its own pivot and 0 at the other pivots.  Two lemmas let a caller
eliminate only what it does not already hold.

*Lineality from a known part* (``HomPoly.lineality_space(known)``).  Let
K lie in ker M, with canonical pivots P, and let C be the other columns.
Then ker M = K + {w : w_P = 0, M_C w_C = 0}, a direct sum.  *Proof.*  For
v in ker M, k = sum_r v_(P_r) row_r / s lies in K and agrees with v on P,
so w = v - k lies in ker M and vanishes on P: M_C w_C = 0.  An element of
K that vanishes on P is 0, so the sum is direct.  Only the columns C of M
are eliminated; when their kernel is 0 the answer is K, and K = 0 is the
elimination of all of M.

*Projection by blocks* (``LinSubspace.projects_onto``).  For a coordinate
set F, rank R[:, F] = |F & P| + rank Y, where Y is the rows whose pivot
is not in F, restricted to F - P.  *Proof.*  The column of R at a pivot p
in F is s times the unit vector of p's row; subtracting multiples of it
clears that row in every other column of R[:, F], which changes no rank
and leaves the |F & P| unit columns beside Y.  So only Y is eliminated,
and only when F - P is not empty.

*Pins that stay canonical* (``LinSubspace.pin``).  When the pinned column
is a pivot, or every row is 0 there, the other rows are 0 at it and are
kept as they are.  If ``keep`` is in ambient order and holds every other
pivot, those rows restricted to ``keep`` are still s times rref rows, and
dividing by the gcd of their entries restores the least scale: they are
canonical with no elimination.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from math import factorial, gcd, lcm, prod
from operator import add, mul
from typing import Callable, Collection, Iterable, Mapping, Sequence

from . import linalg
from .rat import Q, ZERO, Rational, rat_str, ratio, read_list, read_ratio
from .simplicial import Label, label_str

Key = tuple  # sorted tuple of (position, exponent) pairs


def _sparse(exps: tuple) -> Key:
    return tuple((i, e) for i, e in enumerate(exps) if e)


def _dense(key: Key, n: int, degree: int) -> tuple:
    """The dense exponent tuple of a sparse key, checked against n
    variables and the degree."""
    key = tuple(sorted(key))
    if (total := sum(e for _, e in key)) != degree:
        raise ValueError(f"term {key} has degree {total}, expected {degree}")
    if any(e < 1 for _, e in key) or any(not 0 <= i < n for i, _ in key):
        raise ValueError(f"malformed exponent key {key}")
    exps = [0] * n
    for i, e in key:
        exps[i] += e
    return tuple(exps)


def _lower(exps: tuple, i: int) -> tuple:
    """The exponents with the i-th lowered by one."""
    return exps[:i] + (exps[i] - 1,) + exps[i + 1:]


def _nonzero(coeffs: dict) -> dict:
    return {k: c for k, c in coeffs.items() if c}


def kron_weights(n: int, base: int) -> list[int]:
    """The Kronecker weights [B^0, ..., B^(n-1)] of base B."""
    return [base**i for i in range(n)]


def _kron_mul(a: dict, b: dict) -> dict:
    """a * b on key-indexed tables, in the term order of ``__mul__`` (a's zeros dropped)."""
    out: dict[int, int] = {}
    for ka, ca in a.items():
        if ca:
            for kb, cb in b.items():
                k = ka + kb
                out[k] = out.get(k, 0) + ca * cb
    return out


class HomPoly:
    """Homogeneous polynomial over an ordered, labeled variable set."""

    __slots__ = ("vars", "degree", "coeffs", "den", "_index", "_keys")

    def __init__(self, vars: Sequence[Label], degree: int, terms: Mapping[Key, object]):
        self._build(vars, degree, ((key, *ratio(c)) for key, c in terms.items()),
                    lambda key, n: _dense(key, n, degree))

    def _build(self, vars: Sequence[Label], degree: int, items: Iterable[tuple], dense: Callable | None):
        """Fill from (exponents, p, q) triples, the coefficient p / q with
        q > 0: a zero one is skipped, ``dense(exps, n)`` checks the others'
        exponents and makes them dense (None: they are), and repeated
        exponents are summed in the order of their first occurrence."""
        vs = tuple(vars)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable labels")
        n = len(vs)
        pairs = [(exps if dense is None else dense(exps, n), a, d) for exps, a, d in items if a]
        den = lcm(*(d for _, _, d in pairs))
        coeffs: dict[tuple, int] = {}
        for exps, a, d in pairs:
            coeffs[exps] = coeffs.get(exps, 0) + a * (den // d)
        self._fill(vs, degree, _nonzero(coeffs), den, {v: i for i, v in enumerate(vs)})

    def _fill(self, vars: tuple, degree: int, coeffs: dict, den: int, index: dict):
        if den > 1:  # to lowest terms
            g = gcd(den, *coeffs.values())
            if g > 1:
                coeffs, den = {k: c // g for k, c in coeffs.items()}, den // g
        for name, value in zip(HomPoly.__slots__, (vars, degree, coeffs, den, index)):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, vars: tuple, degree: int, coeffs: dict, den: int = 1,
                 index: dict | None = None) -> "HomPoly":
        """The polynomial coeffs / den on a table that meets every invariant
        but lowest terms, unchecked; ``index`` maps ``vars`` to positions,
        shared with an operand on the same vars."""
        p = object.__new__(cls)
        p._fill(vars, degree, coeffs, den, {v: i for i, v in enumerate(vars)} if index is None else index)
        return p

    def __setattr__(self, *a):  # immutable after construction
        raise AttributeError("HomPoly is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return HomPoly._trusted, (self.vars, self.degree, self.coeffs, self.den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[Label], degree: int = 0) -> "HomPoly":
        return cls(vars, degree, {})

    @classmethod
    def constant(cls, vars: Sequence[Label], value) -> "HomPoly":
        return cls(vars, 0, {(): value})

    @classmethod
    def variable(cls, vars: Sequence[Label], v: Label) -> "HomPoly":
        vs = tuple(vars)
        return cls(vs, 1, {((vs.index(v), 1),): 1})

    @classmethod
    def from_dense(cls, vars: Sequence[Label], degree: int, dense: Mapping[tuple, object]) -> "HomPoly":
        """Build from dense exponent tuples aligned with ``vars``; a tuple of
        another length or sum is read, and checked, as the constructor reads
        its sparse key.  The exponents and the degree must be ints (a bool
        or a float is not)."""
        return cls._from_ratios(vars, degree, dense, ((exps, *ratio(c)) for exps, c in dense.items()))

    @classmethod
    def _from_ratios(cls, vars: Sequence[Label], degree: int, dense: Collection[tuple],
                     items: Iterable[tuple]) -> "HomPoly":
        """``from_dense`` on (exps, p, q) triples, ``dense`` their exponent
        tuples, checked all at once unless one is not dense as it is."""
        vars = tuple(vars)
        if not set(map(type, chain.from_iterable(dense))) <= {int}:
            exps = next(exps for exps in dense if any(type(e) is not int for e in exps))
            raise ValueError(f"exps {list(exps)} must be integers")
        if type(degree) is not int:
            raise ValueError(f"degree {degree!r} must be an integer")
        dense_as_is = (set(map(len, dense)) <= {len(vars)} and set(map(sum, dense)) <= {degree}
                       and min(chain.from_iterable(dense), default=0) >= 0)
        p = object.__new__(cls)
        p._build(vars, degree, items, None if dense_as_is else lambda exps, n: _dense(_sparse(exps), n, degree))
        return p

    # -- basics --------------------------------------------------------------

    @property
    def terms(self) -> dict[Key, object]:
        """The rational coefficients by sparse key, formed on each read."""
        return {_sparse(exps): Rational(c, self.den) for exps, c in self.coeffs.items()}

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exps: Sequence[int]):
        c = self.coeffs.get(tuple(exps))
        return ZERO if c is None else Rational(c, self.den)

    def constant_term(self):
        """The coefficient of the empty monomial: the value of a degree-0
        polynomial, 0 at any other degree."""
        return self.coeff((0,) * len(self.vars))

    def squarefree_coeff(self, labels: Iterable[Label]):
        """The coefficient of the squarefree monomial on ``labels``.  It is
        the mixed partial (d/dt)^labels of the polynomial when there are
        ``degree`` labels, and 0 otherwise."""
        exps = [0] * len(self.vars)
        for v in labels:
            exps[self._index[v]] = 1
        return self.coeff(exps)

    def derivative_value(self, beta: Sequence[int]):
        """The mixed partial (d/dt)^beta for a dense exponent vector beta:
        beta! c_beta when |beta| = degree, and 0 otherwise."""
        c = self.coeffs.get(tuple(beta))
        return ZERO if c is None else Rational(prod(map(factorial, beta)) * c, self.den)

    def key_table(self) -> tuple[list, dict]:
        """(W, the table keyed by k(exps) = sum exps_i W_i), W the Kronecker
        weights of base degree + 1; formed on the first call and kept."""
        try:
            return self._keys
        except AttributeError:
            W = kron_weights(len(self.vars), self.degree + 1)
            object.__setattr__(self, "_keys", (W, {sum(map(mul, e, W)): c for e, c in self.coeffs.items()}))
            return self._keys

    def support(self) -> set[tuple]:
        """Multi-indices with nonzero coefficient, as dense tuples."""
        return set(self.coeffs)

    def support_sets(self) -> set[frozenset]:
        """Variable-label support of each monomial (squarefree shadow)."""
        return {frozenset(v for v, e in zip(self.vars, exps) if e) for exps in self.coeffs}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomPoly)
            and self.vars == other.vars
            and self.degree == other.degree
            and self.den == other.den
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.vars, self.degree, self.den, frozenset(self.coeffs.items())))

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
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        coeffs = {k: c * a for k, c in self.coeffs.items()}
        for k, c in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + c * b
        return HomPoly._trusted(self.vars, self.degree, _nonzero(coeffs), den, self._index)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "HomPoly":
        a, d = ratio(c)
        coeffs = {k: a * v for k, v in self.coeffs.items()} if a else {}
        return HomPoly._trusted(self.vars, self.degree, coeffs, self.den * d, self._index)

    def __mul__(self, other: "HomPoly") -> "HomPoly":
        self._require_same_space(other)
        out: dict[tuple, int] = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                k = tuple(map(add, ea, eb))
                out[k] = out.get(k, 0) + ca * cb
        return HomPoly._trusted(self.vars, self.degree + other.degree, _nonzero(out),
                                self.den * other.den, self._index)

    def pow(self, n: int) -> "HomPoly":
        out = HomPoly._trusted(self.vars, 0, {(0,) * len(self.vars): 1}, 1, self._index)
        for _ in range(n):
            out = out * self
        return out

    # -- evaluation and derivatives ------------------------------------------

    def evaluate(self, point):
        """Exact value at a rational point (mapping by label, or aligned
        sequence).  With x = B * point on integers, f(point) is the integer
        sum of c * x^exps over den * B^degree, since f is homogeneous."""
        if isinstance(point, Mapping):
            point = [point[v] for v in self.vars]
        elif len(point := list(point)) != len(self.vars):
            raise ValueError("point has wrong dimension")
        (x,), B = linalg.integer_scaled([point])
        total = sum(c * prod(map(pow, x, exps)) for exps, c in self.coeffs.items())
        return Rational(total, self.den * B**self.degree)

    def partial(self, v: Label) -> "HomPoly":
        """Single partial derivative with respect to the variable labeled v."""
        i = self._index[v]
        coeffs = {_lower(exps, i): c * exps[i] for exps, c in self.coeffs.items() if exps[i]}
        return HomPoly._trusted(self.vars, max(self.degree - 1, 0), coeffs, self.den, self._index)

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
        idx = [self._index[v] for v in S]
        coeffs = {k: c for k, c in self.coeffs.items() if not any(k[i] for i in idx)}
        return HomPoly._trusted(self.vars, self.degree, coeffs, self.den, self._index)

    # -- substitution ---------------------------------------------------------

    def substitute(self, new_vars: Sequence[Label], forms: Mapping[Label, Mapping[Label, object]]) -> "HomPoly":
        """Substitute a linear form (over new_vars) for each old variable.

        Missing old variables map to zero.  Exact, and expanded on Python
        ints: the form of old variable i is scaled by s_i, the lcm of its
        denominators, and f's term at exponent e by L / prod_i s_i^e_i, with
        L the lcm of those products over the terms, so the result is one
        integer table over den * L.  It is homogeneous of the same degree.
        The products run on int dicts keyed by Kronecker keys of base
        degree + 1, in the order of polynomial products, whose term order
        the result keeps.
        """
        new_vars = tuple(new_vars)
        nidx = {v: i for i, v in enumerate(new_vars)}
        if len(nidx) != len(new_vars):
            raise ValueError("duplicate variable labels")
        B = self.degree + 1
        W = kron_weights(len(new_vars), B)
        scales, images = [], []
        for v in self.vars:
            form = [(nidx[w], *ratio(c)) for w, c in forms.get(v, {}).items()]
            s = lcm(*(d for _, _, d in form))
            scales.append(s)
            images.append({W[j]: a * (s // d) for j, a, d in form if a})
        weight = {exps: prod(s**e for s, e in zip(scales, exps)) for exps in self.coeffs}
        L = lcm(*weight.values())
        acc: dict[int, int] = {}
        powers = [[{0: 1}] for _ in images]  # powers[i][e]: the e-th power of form i
        for exps, c in self.coeffs.items():
            term = {0: c * (L // weight[exps])}
            for i, e in enumerate(exps):
                while len(powers[i]) <= e:
                    powers[i].append(_kron_mul(powers[i][-1], images[i]))
                if e:
                    term = _kron_mul(term, powers[i][e])
            for k, x in term.items():
                if x:
                    acc[k] = acc.get(k, 0) + x
        coeffs = {tuple(k // w % B for w in W): x for k, x in acc.items() if x}
        return HomPoly._trusted(new_vars, self.degree, coeffs, self.den * L, nidx)

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
        pos = [self._index[v] for v in keep]
        if len(set(pos)) != len(keep):
            raise ValueError("duplicate variable labels")
        dropped = set(range(len(self.vars))).difference(pos)
        coeffs = {}
        for exps, c in self.coeffs.items():
            if any(exps[i] for i in dropped):
                raise ValueError("polynomial involves a dropped variable")
            coeffs[tuple(exps[i] for i in pos)] = c
        return HomPoly._trusted(keep, self.degree, coeffs, self.den)

    # -- structure ------------------------------------------------------------

    def lineality_space(self, known: "LinSubspace | None" = None) -> "LinSubspace":
        """All v with D_v f identically zero, by exact linear solve.  The
        coefficient of t^beta in D_v f is sum_i (beta_i + 1) c_{beta+e_i} v_i,
        so the row of beta is read off the integer coefficients of f: the
        lineality is ker M for the matrix M of those rows.

        ``known`` is a subspace K of ker M over ``vars`` that the caller
        already holds (K = 0 when None).  By the lemma of the module notes
        only the columns off K's pivots are eliminated, and the kernel
        found there, lifted by zeros on the pivots, is spanned with K.  K
        in ker M is checked exactly first, M k = 0 for each integer row k
        of K; a failure raises AssertionError.
        """
        n = len(self.vars)
        rows: dict[tuple, list] = {}
        for exps, c in self.coeffs.items():
            for i, e in enumerate(exps):
                if e:
                    rows.setdefault(_lower(exps, i), [0] * n)[i] = e * c
        if known is None:
            known = LinSubspace._canonical(self.vars, (), ())
        elif known.ambient != self.vars:
            raise ValueError("known subspace lies over other variables")
        if any(sum(map(mul, r, k)) for k in known.rows for r in rows.values()):
            raise AssertionError("known subspace is not in the lineality space")
        C = [j for j in range(n) if j not in known.pivots]
        M = list(rows.values())
        if known.rows:  # M_C, less the rows that vanish there
            M = [b for b in ([r[j] for j in C] for r in M) if any(b)]
        M, pivots, prev, _ = linalg.eliminate(M)
        rest = []
        for w in linalg.kernel(M, pivots, prev, len(C)):
            v = [0] * n
            for j, a in zip(C, w):
                v[j] = a
            rest.append(v)
        return LinSubspace._span(self.vars, [*known.rows, *rest]) if rest else known

    # -- text and JSON forms ----------------------------------------------------

    def to_text(self, label_str: Callable[[Label], str] = label_str) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for key, c in sorted((_sparse(exps), c) for exps, c in self.coeffs.items()):
            c = Rational(c, self.den)
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
                {"exps": list(exps), "coeff": rat_str(Rational(c, self.den))}
                for exps, c in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "HomPoly":
        """The polynomial of a JSON object: each coefficient read straight to
        (p, q) by ``rat.read_ratio`` (a term listed twice keeps the last),
        the table filled from those pairs as ``from_dense`` fills it."""
        vars = tuple(read_list(data["vars"], "vars"))
        dense = {tuple(read_list(t["exps"], "exps")): read_ratio(t["coeff"])
                 for t in read_list(data["terms"], "terms")}
        degree = data.get("degree")
        if degree is None:
            if not dense:
                raise ValueError("zero polynomial needs an explicit degree")
            degree = sum(next(iter(dense)))
        return cls._from_ratios(vars, degree, dense, ((exps, p, q) for exps, (p, q) in dense.items()))

_TERM_RE = re.compile(r"[+-]|[A-Za-z_][A-Za-z0-9_]*(?:\^\d+)?|\d+(?:/\d+)?|\*")


def parse_poly(text: str, vars: Sequence[Label] | None = None) -> HomPoly:
    """Parse the text grammar: rational coefficient, '*', space-separated powers.

    Example: ``"1*t1^2 t2 - 1/2*t2^3"``.  The coefficient and '*' may be
    omitted, and chained coefficients multiply.  Variables default to the
    sorted names appearing in the text.  Coefficients are read to (p, q)
    on ints and monomials to dense tuples, summed over the least common q
    in first-occurrence order, so the table, and every error, is the one
    the constructor would give the rational terms.
    """
    tokens = _TERM_RE.findall(text)
    if "".join(tokens).replace(" ", "") != text.replace(" ", ""):
        raise ValueError(f"cannot tokenize polynomial text: {text!r}")
    monomials: list[tuple[int, int, dict[str, int]]] = []  # (p, q, powers)
    sign, p, q, powers = 1, None, 1, {}
    for tok in tokens + ["+"]:
        if tok in "+-":
            if p is not None or powers:
                monomials.append((sign * (1 if p is None else p), q, powers))
            sign, p, q, powers = 1 if tok == "+" else -1, None, 1, {}
        elif tok[0].isdigit():
            num, slash, den = tok.partition("/")
            a, b = int(num), int(den) if slash else 1
            if not b:
                raise ValueError(f"zero denominator in {tok!r}")
            p, q = a if p is None else p * a, q * b
        elif tok != "*":
            name, _, exp = tok.partition("^")
            powers[name] = powers.get(name, 0) + (int(exp) if exp else 1)
    vars = tuple(sorted({v for _, _, pw in monomials for v in pw}) if vars is None else vars)
    if not monomials:
        return HomPoly.zero(vars, 0)
    degrees = {sum(pw.values()) for _, _, pw in monomials}
    if len(degrees) != 1:
        raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degrees)}")
    idx = {v: i for i, v in enumerate(vars)}
    den = lcm(*(q for _, q, _ in monomials))
    table: dict[tuple, int] = {}
    for p, q, pw in monomials:
        exps = [0] * len(vars)
        for v, e in pw.items():
            exps[idx[v]] = e
        # a variable at exponent 0 keeps the sparse key the constructor refuses
        key = tuple(exps) if 0 not in pw.values() else tuple(sorted((idx[v], e) for v, e in pw.items()))
        table[key] = table.get(key, 0) + p * (den // q)
    if len(idx) != len(vars):
        raise ValueError("duplicate variable labels")
    for key, c in table.items():
        if c and key and type(key[0]) is tuple:
            raise ValueError(f"malformed exponent key {key}")
    return HomPoly._trusted(vars, degrees.pop(), _nonzero(table), den, idx)


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
    """A rational subspace of R^V, stored by its canonical integer rows.

    ``rows`` is s times the canonical (rref) basis on Python ints, with
    s > 0 the least scale that makes it integral, so the rows are canonical
    and s is the entry at every pivot; ``pivots`` holds each row's pivot
    column.  A subspace is built by one ``linalg.eliminate`` on integer
    rows, or read off canonical rows it is known to have (a pin that stays
    canonical, in the module notes).  Pins, projections, the orthant LP of
    :mod:`lorentzlab.cones` and every caller that needs a spanning set read
    ``rows``; ``basis``, the rref rows as rationals, is formed on each read.
    """

    __slots__ = ("ambient", "rows", "pivots", "_index")

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

    @classmethod
    def _canonical(cls, ambient: tuple, rows: tuple, pivots: tuple) -> "LinSubspace":
        """The subspace whose canonical rows and pivots are already known."""
        L = object.__new__(cls)
        L._store(ambient, rows, pivots)
        return L

    def _canonicalize(self, ambient: tuple, M: list) -> None:
        M, pivots, prev, _ = linalg.eliminate(M)
        # the pivot rows are prev times the rref rows; dividing them by the
        # gcd of their entries, signed like prev, leaves the least scale s
        g = gcd(*(a for r in M[: len(pivots)] for a in r)) or 1
        g = -g if prev < 0 else g
        self._store(ambient, tuple(tuple(a // g for a in r) for r in M[: len(pivots)]), tuple(pivots))

    def _store(self, ambient: tuple, rows: tuple, pivots: tuple) -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, *a):
        raise AttributeError("LinSubspace is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return LinSubspace._span, (self.ambient, list(self.rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple:
        """The canonical (rref) basis: the rows divided by their pivot entry."""
        s = self.rows[0][self.pivots[0]] if self.rows else 1
        return tuple(tuple(Rational(a, s) if a else ZERO for a in r) for r in self.rows)

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

    def perp(self) -> "LinSubspace":
        """The orthogonal complement {x : b . x = 0 for every b in L}.  The
        canonical rows are s times the rref rows with s at every pivot, so
        ``linalg.kernel`` reads an integer kernel basis off them as they
        are."""
        s = self.rows[0][self.pivots[0]] if self.rows else 1
        return LinSubspace._span(self.ambient, linalg.kernel(list(self.rows), list(self.pivots), s, len(self.ambient)))

    def _positions(self, coords: Sequence[Label]) -> list[int]:
        """The positions of ``coords`` in the ambient, by an index formed on
        the first lookup and kept."""
        try:
            idx = self._index
        except AttributeError:
            idx = {v: i for i, v in enumerate(self.ambient)}
            object.__setattr__(self, "_index", idx)
        return [idx[c] for c in coords]

    def projects_onto(self, coords: Sequence[Label]) -> bool:
        """Whether the projection onto ``coords`` is all of R^coords, that
        is whether rank R[:, coords] = |coords|, by the block lemma of the
        module notes: only Y is eliminated, and only when F - P is not
        empty."""
        pos = self._positions(coords)
        if len(pos) > self.dim:
            return False
        free = [q for q in pos if q not in self.pivots]
        Y = [[b[q] for q in free] for b, p in zip(self.rows, self.pivots) if p not in pos]
        # the rank Y needs; above len(free) when a pivot column repeats
        need = len(pos) - self.dim + len(Y)
        return need == 0 or len(linalg.eliminate(Y)[1]) == need

    def pinning_row(self, v: Label) -> tuple[tuple | None, int]:
        """The first integer row with a nonzero entry c at ``v``, and c, so
        that row / c is the element l of L with l_v = 1 that pins v; on the
        canonical basis it is the basic solution of m_v = 1.  (None, 0) when
        every element vanishes at v."""
        (p,) = self._positions((v,))
        return next(((b, b[p]) for b in self.rows if b[p]), (None, 0))

    def pin(self, v: Label, keep: Sequence[Label]) -> tuple[tuple | None, int, "LinSubspace"]:
        """One elimination step at ``v``: (row, c, { m|keep : m in L, m_v = 0 }).

        (row, c) is :meth:`pinning_row`; each other integer row b becomes
        c*b - b_v*row, which clears its v-entry, so these rows span the
        elements vanishing at v.  Where the rows stay canonical (module
        notes), they are read off with no elimination.
        """
        p, *pos = self._positions((v, *keep))
        k = next((r for r, b in enumerate(self.rows) if b[p]), None)
        top, c = (None, 0) if k is None else (self.rows[k], self.rows[k][p])
        rows = [[c * b[q] - b[p] * top[q] for q in pos] if b[p] else [b[q] for q in pos]
                for r, b in enumerate(self.rows) if r != k]
        at = {q: j for j, q in enumerate(pos)}
        pivots = [q for r, q in enumerate(self.pivots) if r != k]
        if (k is None or self.pivots[k] == p) and all(q in at for q in pivots) and pos == sorted(at):
            g = gcd(*(a for b in rows for a in b)) or 1
            return top, c, LinSubspace._canonical(
                tuple(keep), tuple(tuple(a // g for a in b) for b in rows), tuple(at[q] for q in pivots))
        return top, c, LinSubspace._span(tuple(keep), rows)
