"""Exact rational scalars.

Every coefficient, matrix entry and witness in this library is an exact
rational number.  We use gmpy2's ``mpq`` (GMP-backed, roughly an order of
magnitude faster than ``fractions.Fraction``) and fall back to ``Fraction``
when gmpy2 is unavailable.  The two types interoperate (equality, hashing,
arithmetic), so callers may pass either, plus ints and ``"p/q"`` strings.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Union


try:
    from gmpy2 import mpq as _rational

    RAT_BACKEND = "gmpy2"
except ImportError:  # pragma: no cover
    _rational = Fraction
    RAT_BACKEND = "fractions"

Rational = type(_rational(0))


# the digit limit CPython puts on int(str): text with a larger decimal
# exponent would have the parse build a power of ten with more digits
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)  # as the parse reads one


def Q(a: Union[int, str, Fraction] = 0, b: int | None = None):
    """Coerce to an exact rational (no floats accepted; text with a decimal
    exponent above ``MAX_EXPONENT`` and a zero denominator are ValueErrors
    naming the input).  A rational of the backend's own type is returned
    as it is."""
    if b is None:
        if type(a) is Rational:
            return a
        if type(a) is str:
            exponent = _EXPONENT.search(a)
            if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
                raise ValueError(f"number {a} is out of range")
        elif isinstance(a, float):
            raise TypeError(f"floats are not exact rationals: Q({a!r}, {b!r})")
    elif isinstance(a, float) or isinstance(b, float):
        raise TypeError(f"floats are not exact rationals: Q({a!r}, {b!r})")
    try:
        if b is not None:
            return _rational(a, b)
        return _rational(a)
    except ZeroDivisionError:
        shown = repr(a) if b is None else f"{a!r}/{b!r}"
        raise ValueError(f"zero denominator in {shown}") from None


def ratio(x) -> tuple[int, int]:
    """(numerator, denominator > 0) of an exact rational on Python ints; an
    int is taken as it is, any other value goes through ``Q``."""
    if type(x) is int:
        return x, 1
    x = Q(x)
    return int(x.numerator), int(x.denominator)


def read_ratio(x) -> tuple[int, int]:
    """(p, q), Python ints in lowest terms with q > 0, of a value read from
    JSON: a Python int is taken as it is, every other value through its
    text, so "1/2" and a decimal read exactly and a bool, a list or a
    malformed string is a ValueError.  A "p", "-p" or "p/q" string of
    digits is read by ``int`` alone (``int`` and the rational parse accept
    the same decimal digits); every other value, and such a string that
    ``int`` refuses or with q = 0, goes through ``Q(str(x))``, so the
    grammar and every error are those of the rational parse."""
    if type(x) is int:
        return x, 1
    if type(x) is str:
        num, slash, den = x.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit() and (den.isdigit() or not slash):
            try:
                p, q = int(num), int(den) if slash else 1
            except ValueError:
                q = 0
            if q:
                g = gcd(p, q)
                return p // g, q // g
    return ratio(str(x))


def read_list(x, field: str) -> list:
    """``x``, the value of ``field`` read from JSON, when it is a list (or
    a tuple); anything else, a string or an object above all, which would
    otherwise be read item by item, is a ValueError naming the field."""
    if not isinstance(x, (list, tuple)):
        raise ValueError(f"{field} must be a list, got {x!r}")
    return x


def read_lists(x, field: str) -> list:
    """``read_list`` of ``field`` and of each of its items, named field[k]
    (a name formed only for an item that fails)."""
    rows = read_list(x, field)
    for k, r in enumerate(rows):
        if not isinstance(r, (list, tuple)):
            read_list(r, f"{field}[{k}]")
    return rows


def read_rat(x):
    """The exact rational of a value read from JSON (see ``read_ratio``)."""
    return Q(*read_ratio(x))


ZERO = Q(0)
ONE = Q(1)


def rat_str(x) -> str:
    """Canonical "p/q" (or "p" for integers) rendering."""
    x = Q(x)
    n, d = x.numerator, x.denominator
    return f"{n}/{d}" if d != 1 else f"{n}"


def sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0
