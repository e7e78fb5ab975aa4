"""Scalars, draws, grids and comparisons shared by the test modules."""

import itertools
from fractions import Fraction
from math import gcd

import pytest

from qdetlab import ONE, PoleError, ZERO, GaussianRational
from qdetlab.orthopoly import AWParams


def frac(num, den=1):
    return GaussianRational(Fraction(num, den))


def gq(value):
    """The scalar of an int, a Fraction, or a tuple (num, den) for num/den."""
    return GaussianRational(Fraction(*value) if isinstance(value, tuple) else value)


def canonical(z):
    """True when z is stored in lowest terms: den > 0 and gcd(num, den) = 1."""
    return type(z) is GaussianRational and z._d > 0 and gcd(z._r, z._d) == 1


# -- a reference field QQ(i) ---------------------------------------------------


class QQi:
    """An exact re + im i over Fraction: the field in which the forms that
    carry i as a known power are checked.  Ints, Fractions and scalars mix in
    as real values, so a reference written with scalar operators runs on it."""

    __slots__ = ("re", "im")
    __hash__ = None

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        if (other := _qqi(other)) is NotImplemented:
            return NotImplemented
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, other):
        if (other := _qqi(other)) is NotImplemented:
            return NotImplemented
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if (other := _qqi(other)) is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return QQi(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (other := _qqi(other)) is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        norm = c * c + d * d
        if not norm:
            raise ZeroDivisionError("division by zero in QQ(i)")
        return QQi((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other):
        return _qqi(other) / self

    def __pow__(self, k):
        base, result = (QQi(1) / self, QQi(1)) if k < 0 else (self, QQi(1))
        for _ in range(abs(k)):
            result = result * base
        return result

    def __eq__(self, other):
        if (other := _qqi(other)) is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return bool(self.re or self.im)

    def __repr__(self):
        return f"QQi({self.re}, {self.im})"


def _qqi(x):
    if isinstance(x, QQi):
        return x
    if isinstance(x, GaussianRational):
        return QQi(x.re)
    if isinstance(x, (int, Fraction)):
        return QQi(x)
    return NotImplemented


I_REF = QQi(0, 1)


def at_unit(s, *values):
    """The values times the unit u with u^2 = s in {1, -1}, as QQi."""
    u = I_REF if s == -1 else QQi(1)
    return [u * v for v in values]


# -- random draws --------------------------------------------------------------


def rand_scalar(rng):
    """A nonzero real num/den with |num| <= 9 and den <= 9."""
    return frac(rng.choice([k for k in range(-9, 10) if k != 0]), rng.randint(1, 9))


def rand_q(rng):
    """rand_scalar other than 1 and -1."""
    while True:
        v = rand_scalar(rng)
        if v != ONE and v != -ONE:
            return v


def rand_rational(rng):
    """A num/den with |num| <= 9 and den <= 9, zero included."""
    return frac(rng.randint(-9, 9), rng.randint(1, 9))


def rand_rational_q(rng):
    """rand_rational other than 0 and 1."""
    while True:
        q = rand_rational(rng)
        if q and q != ONE:
            return q


# -- grids ---------------------------------------------------------------------

SCALARS = [ZERO, ONE, -ONE, frac(2), frac(-2), frac(1, 2), frac(-1, 3), frac(3, 5),
           frac(-5, 4), frac(7, 3), frac(-2, 9), frac(4)]
# Negative and root-of-unity bases: q = -1 makes (q;q) vanish.
QS = [frac(2), frac(-2), frac(1, 3), frac(-3, 4), frac(3, 2), frac(-1, 2), frac(5, 3), -ONE]
# The values at which factors 1 - u and parameter products most often vanish.
SPECIAL = [frac(v, d) for v, d in ((0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1),
                                  (1, 2), (-1, 2), (1, 3), (-1, 3))]
SPECIAL_Q = [v for v in SPECIAL if v not in (ZERO, ONE, -ONE)]


def aw_grid():
    """(a, b, c, d) over SPECIAL, with q and x cycling through SPECIAL_Q and SPECIAL.

    The printed recurrence coefficients and their guards are symmetric in
    b, c, d, so each multiset {b, c, d} appears once.
    """
    tuples = itertools.product(SPECIAL, itertools.combinations_with_replacement(SPECIAL, 3))
    for idx, (a, (b, c, d)) in enumerate(tuples):
        yield AWParams(a, b, c, d, SPECIAL_Q[idx % len(SPECIAL_Q)], SPECIAL[idx % 7])


# -- Askey-Wilson references ----------------------------------------------------
# Written with scalar operators only, so that they run on scalars and on QQi.


def aw_coeffs_reference(k, p):
    """The printed recurrence coefficients A_k, B_k, C_k, each power taken afresh,
    with the pole guards in printed order.  C_0 carries 1 - q^0 = 0, so at
    k = 0 it is 0 and neither its denominator nor the division in B is checked."""
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    if not a:
        raise PoleError("recurrence requires a nonzero leading parameter", "a=0")
    abcd = a * b * c * d
    qk1, qk = q ** (k - 1), q**k
    den_a = (ONE - abcd * q ** (2 * k - 1)) * (ONE - abcd * q ** (2 * k))
    if not den_a:
        raise PoleError("vanishing recurrence denominator", f"A at n={k}")
    coeff_a = (ONE - abcd * qk1) / den_a
    coeff_b = a + ONE / a - coeff_a / a * (ONE - a * b * qk) * (ONE - a * c * qk) * (ONE - a * d * qk)
    if k == 0:
        return coeff_a, coeff_b, ZERO
    den_c = (ONE - abcd * q ** (2 * k - 2)) * (ONE - abcd * q ** (2 * k - 1))
    if not den_c:
        raise PoleError("vanishing recurrence denominator", f"C at n={k}")
    pair = (ONE - a * b * qk1) * (ONE - a * c * qk1) * (ONE - a * d * qk1)
    coeff_c = (
        (ONE - qk) * pair * (ONE - b * c * qk1) * (ONE - b * d * qk1) * (ONE - c * d * qk1) / den_c
    )
    if not pair:
        raise PoleError("vanishing recurrence denominator", f"B division at n={k}")
    return coeff_a, coeff_b - coeff_c * a / pair, coeff_c


def aw_values_reference(n, p):
    """P_{-1}..P_n from the printed coefficients; a vanishing A_k is a pole."""
    values = {-1: ZERO, 0: ONE}
    for k in range(n):
        coeff_a, coeff_b, coeff_c = aw_coeffs_reference(k, p)
        if not coeff_a:
            raise PoleError("vanishing leading recurrence coefficient", f"A at n={k}")
        values[k + 1] = ((2 * p.x - coeff_b) * values[k] - coeff_c * values[k - 1]) / coeff_a
    return values


# -- comparison with a reference -----------------------------------------------


def outcome(fn, *args):
    """What fn(*args) gives: a table as its (key, value) items in order, or the
    class, message and location of what it raised."""
    try:
        value = fn(*args)
    except (PoleError, ZeroDivisionError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "location", None)
    return list(value.items()) if isinstance(value, dict) else value


def raised(got):
    """True when ``got`` is the outcome of a raised exception."""
    return isinstance(got, tuple) and len(got) == 3 and isinstance(got[0], type)


def agree(fn, reference, *args):
    """The outcome of fn(*args), asserted equal to that of reference(*args)."""
    got = outcome(fn, *args)
    assert got == outcome(reference, *args), args
    return got


def aw_at_unit(p, s):
    """The parameters of p with a, b, c, d and x times the unit u, u^2 = s, as QQi."""
    a, b, c, d, x = at_unit(s, p.a, p.b, p.c, p.d, p.x)
    return AWParams(a, b, c, d, p.q, x)


def agree_at_unit(fn, reference, n, p, s=-1):
    """The outcome of fn(n, p, s), each value r_k read as u^k r_k for u^2 = s,
    asserted equal to that of reference(n, aw_at_unit(p, s)) over QQ(i)."""
    u = at_unit(s, 1)[0]

    def read(n, p):
        got = fn(n, p, s)
        return {k: u**k * v for k, v in got.items()} if isinstance(got, dict) else u**n * got

    got = outcome(read, n, p)
    assert got == outcome(reference, n, aw_at_unit(p, s)), (p, n, s)
    return got


# -- random retries ------------------------------------------------------------

# Attempts allowed to each retry loop: the most any loop needs is 11 (for 10
# clean draws, in test_orthopoly.py::TestAskeyWilson::test_methods_agree).
ATTEMPT_BUDGET = 100


def until_clean(k, attempt, errors=(PoleError,)):
    """Call ``attempt()`` until ``k`` calls have returned without raising
    one of ``errors``; a call that raises one is a rejected draw.  Fails,
    naming the test, when ``ATTEMPT_BUDGET`` calls do not give ``k``, as
    when the evaluator under test raises on every draw."""
    clean = 0
    for _ in range(ATTEMPT_BUDGET):
        try:
            attempt()
        except errors:
            continue
        clean += 1
        if clean == k:
            return
    pytest.fail(f"{attempt.__qualname__}: {clean} of {k} draws evaluated in {ATTEMPT_BUDGET} attempts")
