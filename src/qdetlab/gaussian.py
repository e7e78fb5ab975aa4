"""Exact arithmetic over the Gaussian rationals QQ(i).

Every scalar in this package is a :class:`GaussianRational`: three ints,
``(re + im*i) / den`` with ``den > 0`` and ``gcd(re, im, den) == 1``, so
values are immutable and canonical (equal values have equal fields).  The
field operations and ``==`` work on these ints and reduce with ``math.gcd``
as ``fractions.Fraction`` does (Knuth, TAOCP vol. 2, 4.5.1); ``re`` and
``im`` read the parts back as Fractions.  Parts are ints or Fractions only:
no floating point is involved anywhere.

The canonical string form is ``[-]p[/q][(+|-)[p[/q]]i]``, e.g. ``0``,
``-1/3``, ``3/4+1/2i``, ``2-i``.  ``parse`` accepts non-canonical inputs
(such as ``-2/6``) and reduces them; ``str`` always emits the canonical
form, so ``str . parse`` is idempotent.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

from .errors import ParseError

RationalLike = Union[int, Fraction]


class GaussianRational:
    """An element of QQ(i) with exact rational components."""

    __slots__ = ("_r", "_i", "_d")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0):
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError(f"Gaussian rational parts must be ints or Fractions, not {re!r} and {im!r}")
        p, s = re.denominator, im.denominator
        return _reduced(re.numerator * s, im.numerator * p, p * s)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational values are immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussianRational values are immutable")

    re = property(lambda self: Fraction(self._r, self._d), doc="The real part, in lowest terms.")
    im = property(lambda self: Fraction(self._i, self._d), doc="The imaginary part, in lowest terms.")

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._r or self._i)

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _add(self._r, self._i, self._d, other._r, other._i, other._d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _add(self._r, self._i, self._d, -other._r, -other._i, other._d)

    def __rsub__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _add(other._r, other._i, other._d, -self._r, -self._i, self._d)

    def __mul__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        a, b, p = self._r, self._i, self._d
        c, e, s = other._r, other._i, other._d
        if b or e:
            r, i, d = a * c - b * e, a * e + b * c, p * s
            g = gcd(r, i, d)
            if g != 1:
                r, i, d = r // g, i // g, d // g
        else:
            # Real times real: cancel each numerator against the other
            # denominator first; the product is then in lowest terms.
            g = gcd(a, s)
            if g != 1:
                a //= g
                s //= g
            g = gcd(c, p)
            if g != 1:
                c //= g
                p //= g
            r, i, d = a * c, 0, p * s
        # Built in place, as _new does, to save a call on the hottest path.
        z = object.__new__(GaussianRational)
        _set_r(z, r)
        _set_i(z, i)
        _set_d(z, d)
        return z

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        if self._i or other._i:
            return self * other.reciprocal()
        return _real_div(self._r, self._d, other._r, other._d)

    def __rtruediv__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        if self._i or other._i:
            return other * self.reciprocal()
        return _real_div(other._r, other._d, self._r, self._d)

    def __neg__(self):
        return _new(-self._r, -self._i, self._d)

    def conjugate(self) -> "GaussianRational":
        return _new(self._r, -self._i, self._d)

    def reciprocal(self) -> "GaussianRational":
        """1/self; multiplies by the conjugate over the norm."""
        a, b, d = self._r, self._i, self._d
        if b:
            return _reduced(d * a, -d * b, a * a + b * b)
        if not a:
            raise ZeroDivisionError("division by zero in QQ(i)")
        return _new(d, 0, a) if a > 0 else _new(-d, 0, -a)

    def __pow__(self, k: int) -> "GaussianRational":
        """Exact integer power by binary exponentiation; x**0 == 1."""
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base = self.reciprocal()
            k = -k
        if not base._i:
            return _new(base._r**k, 0, base._d**k)
        result = ONE
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return self._r == other._r and self._i == other._i and self._d == other._d

    def __hash__(self) -> int:
        # Real values hash as the equal int or Fraction does.
        if self._i:
            return hash((self._r, self._i, self._d))
        return hash(self._r) if self._d == 1 else hash(Fraction(self._r, self._d))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        r, i, d = self._r, self._i, self._d
        if not i:
            return _ratio(r, d)
        sign = "-" if i < 0 else ("+" if r else "")
        coeff = "" if abs(i) == d else _ratio(abs(i), d)
        return f"{_ratio(r, d) if r else ''}{sign}{coeff}i"

    def __repr__(self) -> str:
        return f"GaussianRational('{self}')"


# The slots are written only through these, past the __setattr__ guard.
_set_r, _set_i, _set_d = (GaussianRational.__dict__[name].__set__ for name in GaussianRational.__slots__)


def _new(r: int, i: int, d: int) -> GaussianRational:
    """(r + i*i)/d; the caller guarantees d > 0 and gcd(r, i, d) == 1."""
    z = object.__new__(GaussianRational)
    _set_r(z, r)
    _set_i(z, i)
    _set_d(z, d)
    return z


def _reduced(r: int, i: int, d: int) -> GaussianRational:
    """(r + i*i)/d in lowest terms, for d > 0."""
    g = gcd(r, i, d)
    return _new(r, i, d) if g == 1 else _new(r // g, i // g, d // g)


# -- unreduced triples --------------------------------------------------------
# A running loop (a series, a recurrence, a moment sequence, a dynamic
# program) carries each quantity as a triple (re, im, den) of ints with
# den > 0, the value (re + im*i)/den, unreduced, and reduces once per value
# it emits, with _reduced(*triple).  The matrix builders reduce none of
# theirs: they hand rows of triples to ExactMatrix.from_triples, which
# clears each row to integers over one denominator, and an entry becomes a
# scalar only when it is read.  A triple is zero exactly when both of its
# numerator ints are.

Triple = tuple[int, int, int]
_ZERO, _ONE, _MINUS_ONE = (0, 0, 1), (1, 0, 1), (-1, 0, 1)  # the triples of 0, 1 and -1


def _parts(z: GaussianRational) -> Triple:
    """The triple of a scalar."""
    return z._r, z._i, z._d


def _tmul(x: Triple, y: Triple) -> Triple:
    """x * y."""
    a, b, p = x
    c, e, s = y
    return a * c - b * e, a * e + b * c, p * s


def _tone_minus(x: Triple, y: Triple | None = None) -> Triple:
    """1 - x, or 1 - x * y."""
    r, i, d = x if y is None else _tmul(x, y)
    return d - r, -i, d


def _tsub(x: Triple, y: Triple) -> Triple:
    """x - y."""
    a, b, p = x
    c, e, s = y
    return a * s - c * p, b * s - e * p, p * s


def _tdiv(x: Triple, y: Triple) -> Triple:
    """x / y: x times the conjugate of y's numerator over its norm."""
    a, b, p = x
    c, e, s = y
    if e:
        return (a * c + b * e) * s, (b * c - a * e) * s, p * (c * c + e * e)
    if c > 0:
        return a * s, b * s, p * c
    if not c:
        raise ZeroDivisionError("division by zero in QQ(i)")
    return -a * s, -b * s, -p * c


def _add(a: int, b: int, p: int, c: int, e: int, s: int) -> GaussianRational:
    """(a + b*i)/p + (c + e*i)/s.  Only primes of gcd(p, s) can cancel, as in Fraction._add."""
    g = gcd(p, s)
    if b or e:
        if g == 1:
            r, i, d = a * s + c * p, b * s + e * p, p * s
        else:
            p //= g
            t = s // g
            r, i = a * t + c * p, b * t + e * p
            g = gcd(r, i, g)
            if g == 1:
                d = p * s
            else:
                r, i, d = r // g, i // g, p * (s // g)
    elif g == 1:
        r, i, d = a * s + c * p, 0, p * s
    else:
        p //= g
        r, i = a * (s // g) + c * p, 0
        g = gcd(r, g)
        if g == 1:
            d = p * s
        else:
            r, d = r // g, p * (s // g)
    z = object.__new__(GaussianRational)
    _set_r(z, r)
    _set_i(z, i)
    _set_d(z, d)
    return z


def _real_div(a: int, p: int, c: int, s: int) -> GaussianRational:
    """(a/p) / (c/s), cancelling a against c and p against s first, as Fraction._div does."""
    if not c:
        raise ZeroDivisionError("division by zero in QQ(i)")
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
    _set_i(z, 0)
    _set_d(z, d)
    return z


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, rendered as str(Fraction(n, d)) renders it (d > 0)."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def _coerce(x) -> "GaussianRational":
    if type(x) is int:
        return _new(x, 0, 1)
    try:
        return x if isinstance(x, GaussianRational) else GaussianRational(x)
    except TypeError:
        return NotImplemented


def to_gq(x) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational to a GaussianRational."""
    v = _coerce(x)
    if v is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")
    return v


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
TWO = GaussianRational(2)
I = GaussianRational(0, 1)
HALF = ONE / 2


def sign(n: int) -> GaussianRational:
    """(-1)**n as a scalar."""
    return ONE if n % 2 == 0 else -ONE


# -- canonical string codec --------------------------------------------------


def _scan_fraction(s: str, pos: int) -> tuple[Fraction, int]:
    """Scan ``digits[/digits]`` starting at pos; returns (value, new position)."""
    start = pos
    while pos < len(s) and s[pos].isdigit():
        pos += 1
    if pos == start:
        raise ParseError("expected digits", start)
    num = int(s[start:pos])
    den = 1
    if pos < len(s) and s[pos] == "/":
        pos += 1
        dstart = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if pos == dstart:
            raise ParseError("expected denominator digits", dstart)
        den = int(s[dstart:pos])
        if den == 0:
            raise ParseError("zero denominator", dstart)
    return Fraction(num, den), pos


def parse(s: str) -> GaussianRational:
    """Parse the canonical grammar ``[-]p/q [+|-] [p/q] i`` (components optional).

    Non-canonical fractions are reduced; malformed input raises
    :class:`~qdetlab.errors.ParseError` with the offending position.
    """
    if not s:
        raise ParseError("empty string", 0)
    pos = 0
    sign = 1
    if s[pos] == "-":
        sign = -1
        pos += 1
    if pos < len(s) and s[pos] == "i":
        # pure imaginary with implicit coefficient 1
        if pos + 1 != len(s):
            raise ParseError("trailing characters after i", pos + 1)
        return GaussianRational(0, sign)
    first, pos = _scan_fraction(s, pos)
    first *= sign
    if pos == len(s):
        return GaussianRational(first)
    if s[pos] == "i":
        if pos + 1 != len(s):
            raise ParseError("trailing characters after i", pos + 1)
        return GaussianRational(0, first)
    if s[pos] not in "+-":
        raise ParseError("expected '+', '-', or 'i'", pos)
    isign = 1 if s[pos] == "+" else -1
    pos += 1
    if pos < len(s) and s[pos] == "i":
        imag = Fraction(1)
        pos += 1
    else:
        imag, pos = _scan_fraction(s, pos)
        if pos >= len(s) or s[pos] != "i":
            raise ParseError("expected 'i'", pos)
        pos += 1
    if pos != len(s):
        raise ParseError("trailing characters after i", pos)
    return GaussianRational(first, isign * imag)
