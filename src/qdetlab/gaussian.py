"""Exact arithmetic over the Gaussian rationals QQ(i).

Every scalar in this package is a :class:`GaussianRational`: a pair of
arbitrary-precision rationals (``fractions.Fraction``) holding the real and
imaginary parts.  Values are immutable, always canonical (both parts in
lowest terms with positive denominator, zero represented uniquely), and
closed under field operations and integer powers.  Equality is structural
equality of canonical forms; no floating point is involved anywhere.

The canonical string form is ``[-]p[/q][(+|-)[p[/q]]i]``, e.g. ``0``,
``-1/3``, ``3/4+1/2i``, ``2-i``.  ``parse`` accepts non-canonical inputs
(such as ``-2/6``) and reduces them; ``str`` always emits the canonical
form, so ``str . parse`` is idempotent.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import ParseError

RationalLike = Union[int, Fraction]

_FZERO = Fraction(0)


class GaussianRational:
    """An element of QQ(i) with exact rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational values are immutable")

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return not self.im

    def as_integer(self) -> int | None:
        """The value as a Python int when it is one, else None."""
        if self.im or self.re.denominator != 1:
            return None
        return self.re.numerator

    # -- field operations ---------------------------------------------------

    # Real operands take one Fraction operation; the result keeps the shared
    # zero as its imaginary part, so it stays canonical.

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return GaussianRational(self.re + other.re, _FZERO)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return GaussianRational(self.re - other.re, _FZERO)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return GaussianRational(other.re - self.re, _FZERO)
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return GaussianRational(a * c, _FZERO)
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.reciprocal()

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def reciprocal(self) -> "GaussianRational":
        """1/self; multiplies by the conjugate over the norm."""
        if not self.im:
            if not self.re:
                raise ZeroDivisionError("division by zero in QQ(i)")
            return GaussianRational(1 / self.re, _FZERO)
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("division by zero in QQ(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __pow__(self, k: int) -> "GaussianRational":
        """Exact integer power by binary exponentiation; x**0 == 1."""
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base = self.reciprocal()
            k = -k
        result = ONE
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            sign = "-" if self.im < 0 else ("+" if parts else "")
            mag = abs(self.im)
            coeff = "" if mag == 1 else str(mag)
            parts.append(f"{sign}{coeff}i")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"GaussianRational('{self}')"


def _coerce(x) -> "GaussianRational":
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
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
HALF = GaussianRational(Fraction(1, 2))


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
