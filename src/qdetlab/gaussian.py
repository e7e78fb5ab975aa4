"""Exact rational arithmetic: the scalars of the package.

Every scalar in this package is a :class:`GaussianRational`: two ints,
``num / den`` with ``den > 0`` and ``gcd(num, den) == 1``, so values are
immutable and canonical (equal values have equal fields).  The field
operations and ``==`` work on these ints and reduce with ``math.gcd`` as
``fractions.Fraction`` does (Knuth, TAOCP vol. 2, 4.5.1).  No floating point
is involved anywhere.

No value carries the imaginary unit.  The closed forms of the paper meet i
only as a known power i^k times a rational: the evaluators that meet it take
the square s = u^2 of a common unit u in {1, i} and return the rational
r_k of p_k = u^k r_k (see :mod:`qdetlab.orthopoly`).  The read-outs ``re``,
``im`` (the int 0) and ``conjugate`` (the value itself) keep the interface
of a Gaussian rational, which the layer tracer of ``perfbench`` reads.

The canonical string form is ``[-]p[/q]``, e.g. ``0``, ``-1/3``, ``5``.
``parse`` accepts non-canonical inputs (such as ``-2/6``) and reduces them;
``str`` always emits the canonical form, so ``str . parse`` is idempotent.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

from .errors import ParseError

RationalLike = Union[int, Fraction]


class GaussianRational:
    """An exact rational number, num/den in lowest terms with den > 0."""

    __slots__ = ("_r", "_d")

    def __new__(cls, value: RationalLike = 0):
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"a scalar is an int or a Fraction, not {value!r}")
        return _new(value.numerator, value.denominator)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational values are immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussianRational values are immutable")

    re = property(lambda self: Fraction(self._r, self._d), doc="The value as a Fraction.")
    im = property(lambda self: 0, doc="The imaginary part: always 0.")

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._r)

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _add(self._r, self._d, other._r, other._d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _add(self._r, self._d, -other._r, other._d)

    def __rsub__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _add(other._r, other._d, -self._r, self._d)

    def __mul__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        a, p = self._r, self._d
        c, s = other._r, other._d
        # Cancel each numerator against the other denominator first; the
        # product is then in lowest terms.
        g = gcd(a, s)
        if g != 1:
            a //= g
            s //= g
        g = gcd(c, p)
        if g != 1:
            c //= g
            p //= g
        # Built in place, as _new does, to save a call on the hottest path.
        z = object.__new__(GaussianRational)
        _set_r(z, a * c)
        _set_d(z, p * s)
        return z

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _div(self._r, self._d, other._r, other._d)

    def __rtruediv__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _div(other._r, other._d, self._r, self._d)

    def __neg__(self):
        return _new(-self._r, self._d)

    def conjugate(self) -> "GaussianRational":
        return self

    def reciprocal(self) -> "GaussianRational":
        """1/self."""
        a, d = self._r, self._d
        if not a:
            raise ZeroDivisionError("division by zero in QQ")
        return _new(d, a) if a > 0 else _new(-d, -a)

    def __pow__(self, k: int) -> "GaussianRational":
        """Exact integer power; x**0 == 1."""
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base = self.reciprocal()
            k = -k
        return _new(base._r**k, base._d**k)

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return self._r == other._r and self._d == other._d

    def __hash__(self) -> int:
        # As the equal int or Fraction hashes.
        return hash(self._r) if self._d == 1 else hash(Fraction(self._r, self._d))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        # The fields are in lowest terms, so this is str(Fraction(num, den)).
        return str(self._r) if self._d == 1 else f"{self._r}/{self._d}"

    def __repr__(self) -> str:
        return f"GaussianRational('{self}')"


# The slots are written only through these, past the __setattr__ guard.
_set_r, _set_d = (GaussianRational.__dict__[name].__set__ for name in GaussianRational.__slots__)


def _new(r: int, d: int) -> GaussianRational:
    """r/d; the caller guarantees d > 0 and gcd(r, d) == 1."""
    z = object.__new__(GaussianRational)
    _set_r(z, r)
    _set_d(z, d)
    return z


def _reduced(r: int, d: int) -> GaussianRational:
    """r/d in lowest terms, for d > 0."""
    g = gcd(r, d)
    return _new(r, d) if g == 1 else _new(r // g, d // g)


# -- unreduced pairs ----------------------------------------------------------
# A running loop (a series, a recurrence, a moment sequence, a dynamic
# program) carries each quantity as a pair (num, den) of ints with den > 0,
# the value num/den, unreduced, and reduces once per value it emits, with
# _reduced(*pair); the loops of qseries and orthopoly keep the two ints in
# locals.  The matrix builders reduce none of theirs: they hand rows of
# pairs to ExactMatrix.from_pairs, which clears each row to integers over one
# denominator, and an entry becomes a scalar only when it is read.  A closed
# form multiplies factorial-table pairs and reduces once, with _ratio.  A
# pair is zero exactly when its numerator is.

Pair = tuple[int, int]
_ZERO, _ONE, _MINUS_ONE = (0, 1), (1, 1), (-1, 1)  # the pairs of 0, 1 and -1


def _parts(z: GaussianRational) -> Pair:
    """The pair of a scalar."""
    return z._r, z._d


def _pmul(x: Pair, y: Pair) -> Pair:
    """x * y."""
    return x[0] * y[0], x[1] * y[1]


def _one_minus(x: Pair, y: Pair) -> Pair:
    """1 - x * y."""
    d = x[1] * y[1]
    return d - x[0] * y[0], d


def _psub(x: Pair, y: Pair) -> Pair:
    """x - y."""
    a, p = x
    c, s = y
    return a * s - c * p, p * s


def _pdiv(x: Pair, y: Pair) -> Pair:
    """x / y, with the sign of y's numerator moved up."""
    a, p = x
    c, s = y
    if c > 0:
        return a * s, p * c
    if not c:
        raise ZeroDivisionError("division by zero in QQ")
    return -a * s, -p * c


def _ratio(numerators, denominators=()) -> GaussianRational:
    """The product of the numerator pairs over the product of the denominator
    pairs, reduced once: a closed form's factors need one gcd in all."""
    r = d = 1
    for a, p in numerators:
        r, d = r * a, d * p
    for c, s in denominators:
        if not c:
            raise ZeroDivisionError("division by zero in QQ")
        r, d = r * s, d * c
    return _reduced(r, d) if d > 0 else _reduced(-r, -d)


def _add(a: int, p: int, c: int, s: int) -> GaussianRational:
    """a/p + c/s.  Only primes of gcd(p, s) can cancel, as in Fraction._add."""
    g = gcd(p, s)
    if g == 1:
        r, d = a * s + c * p, p * s
    else:
        p //= g
        r = a * (s // g) + c * p
        g = gcd(r, g)
        if g == 1:
            d = p * s
        else:
            r, d = r // g, p * (s // g)
    z = object.__new__(GaussianRational)
    _set_r(z, r)
    _set_d(z, d)
    return z


def _div(a: int, p: int, c: int, s: int) -> GaussianRational:
    """(a/p) / (c/s), cancelling a against c and p against s first, as Fraction._div does."""
    if not c:
        raise ZeroDivisionError("division by zero in QQ")
    g = gcd(a, c)
    if g != 1:
        a //= g
        c //= g
    g = gcd(p, s)
    if g != 1:
        p //= g
        s //= g
    r, d = a * s, p * c
    if d < 0:
        r, d = -r, -d
    z = object.__new__(GaussianRational)
    _set_r(z, r)
    _set_d(z, d)
    return z


def _coerce(x) -> "GaussianRational":
    if type(x) is int:
        return _new(x, 1)
    try:
        return x if isinstance(x, GaussianRational) else GaussianRational(x)
    except TypeError:
        return NotImplemented


def to_gq(x) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational to a GaussianRational."""
    v = _coerce(x)
    if v is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a rational scalar")
    return v


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
TWO = GaussianRational(2)
HALF = ONE / 2


def sign(n: int) -> GaussianRational:
    """(-1)**n as a scalar."""
    return ONE if n % 2 == 0 else -ONE


# -- canonical string codec --------------------------------------------------


def _scan_digits(s: str, pos: int) -> tuple[int, int]:
    """Scan the digits starting at pos; returns (value, new position)."""
    start = pos
    while pos < len(s) and s[pos].isdigit():
        pos += 1
    if pos == start:
        raise ParseError("expected digits", start)
    return int(s[start:pos]), pos


def parse(s: str) -> GaussianRational:
    """Parse the canonical grammar ``[-]p[/q]``.

    Non-canonical fractions are reduced; malformed input raises
    :class:`~qdetlab.errors.ParseError` with the offending position.  The
    imaginary unit is not a scalar: an ``i`` anywhere in the input raises at
    its position.
    """
    if "i" in s:
        raise ParseError("the imaginary unit is not a scalar", s.index("i"))
    if not s:
        raise ParseError("empty string", 0)
    negative = s[0] == "-"
    num, pos = _scan_digits(s, int(negative))
    den = 1
    if pos < len(s) and s[pos] == "/":
        den, end = _scan_digits(s, pos + 1)
        if den == 0:
            raise ParseError("zero denominator", pos + 1)
        pos = end
    if pos != len(s):
        raise ParseError("trailing characters", pos)
    return GaussianRational(Fraction(-num if negative else num, den))
