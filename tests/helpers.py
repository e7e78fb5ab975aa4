"""Scalars, draws, grids and comparisons shared by the test modules."""

import itertools
from fractions import Fraction
from math import gcd

import pytest

from qdetlab import I, ONE, PoleError, ZERO, GaussianRational
from qdetlab.orthopoly import AWParams


def frac(num, den=1):
    return GaussianRational(Fraction(num, den))


def gq(re, im=0):
    """re + im i, where a tuple part (num, den) is the fraction num/den."""
    return GaussianRational(Fraction(*re) if isinstance(re, tuple) else re,
                            Fraction(*im) if isinstance(im, tuple) else im)


def canonical(z):
    """True when z is stored in lowest terms: den > 0 and gcd(re, im, den) = 1."""
    return type(z) is GaussianRational and z._d > 0 and gcd(z._r, z._i, z._d) == 1


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


def rand_gaussian(rng, complex_share=0.4):
    """A scalar, zero included, that is complex with the given probability."""
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    im = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < complex_share else 0
    return GaussianRational(re, im)


def rand_gaussian_q(rng):
    """rand_gaussian other than 0 and 1."""
    while True:
        q = rand_gaussian(rng)
        if q and q != ONE:
            return q


# -- grids ---------------------------------------------------------------------

SCALARS = [ZERO, ONE, -ONE, frac(2), frac(-2), frac(1, 2), frac(-1, 3), frac(3, 5),
           I, gq(1, 1), gq((1, 2), (-2, 3)), gq(0, (-3, 7))]
# Negative, complex and root-of-unity bases: q = -1 and q = i make (q;q) vanish.
QS = [frac(2), frac(-2), frac(1, 3), frac(-3, 4), I, gq((1, 2), (1, 2)), gq(2, -1), -ONE]
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
