"""q-shifted factorials, q-binomials, and terminating hypergeometric sums.

All evaluation is exact over QQ(i).  Each factorial sequence has one loop:
:func:`q_pochhammers` and :func:`rising_factorials` build a whole index
range by the running recurrence, the single-index :func:`q_pochhammer` and
:func:`rising_factorial` read those tables, and :func:`q_binomials` reads
every coefficient up to its top row from one (q;q) table, so a caller that
needs many indices builds one table instead of one product per index.
Series are only ever summed when they terminate.  A basic series is summed to the order n its caller declares,
and some numerator must equal ``q**(-n)``; the order is never searched for.
A classical series terminates at its nonpositive-integer numerator.
Running into a vanishing denominator factor raises
:class:`~qdetlab.errors.PoleError` naming the offending factor.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import NonTerminatingSeriesError, PoleError
from .gaussian import HALF, ONE, ZERO, GaussianRational, to_gq


def q_pochhammers(a, q, lo: int, hi: int) -> dict[int, GaussianRational]:
    """q-shifted factorials (a;q)_lo..(a;q)_hi keyed by index, for any integers.

    Runs (a;q)_{m+1} = (a;q)_m (1 - a q^m) up from (a;q)_0 = 1 and, for
    negative m, (a;q)_m = (a;q)_{m+1} / (1 - a q^m) down from it (Gasper and
    Rahman, Basic Hypergeometric Series, 1.2).  A vanishing factor on the way
    down is a pole.  Poles are downward-closed, so the range raises PoleError
    exactly when (a;q)_lo has one, naming the same factor.
    """
    if lo > hi:
        return {}
    a = to_gq(a)
    q = to_gq(q)
    table = {0: ONE}
    value, p = ONE, a  # (a;q)_m, a q^m at m = 0
    for m in range(hi):
        value = table[m + 1] = value * (ONE - p)
        p = p * q
    if lo < 0:
        qinv = q.reciprocal()
        value, p = ONE, a * qinv  # (a;q)_{m+1}, a q^m at m = -1
        for m in range(-1, lo - 1, -1):
            factor = ONE - p
            if not factor:
                raise PoleError(
                    "vanishing factor in negative-index q-shifted factorial",
                    f"(a;q)_{lo} at k={-m}",
                )
            value = table[m] = value / factor
            p = p * qinv
    return {m: table[m] for m in range(lo, hi + 1)}


def q_pochhammer_tails(a, q, n: int) -> list[GaussianRational]:
    """(a q^{n-t};q)_t for t = 0..n at list index t: the products of the last
    t factors of (a;q)_n, built from the top factor down.

    These are the suffix products that a quotient of q_pochhammers tables
    would give, without its 0/0 when a factor below them vanishes.
    """
    a, q = to_gq(a), to_gq(q)
    factors = []
    p = a
    for _ in range(n):
        factors.append(ONE - p)
        p = p * q
    tails = [ONE]
    for factor in reversed(factors):
        tails.append(tails[-1] * factor)
    return tails


def q_pochhammer(a, q, n: int) -> GaussianRational:
    """q-shifted factorial (a;q)_n for any integer n.

    Nonnegative n gives prod_{k=0}^{n-1} (1 - a q^k).  Negative n uses the
    finite reciprocal prod_{k=1}^{-n} (1 - a q^{-k})^{-1}; a vanishing factor
    there is a pole.
    """
    return q_pochhammers(a, q, n, n)[n]


def q_pochhammer_multi(params: Sequence, q, n: int) -> GaussianRational:
    """Factor-wise product (a1,...,ar;q)_n."""
    result = ONE
    for a in params:
        result = result * q_pochhammer(a, q, n)
    return result


def q_number(n: int, q) -> GaussianRational:
    """The q-integer [n]_q = (1 - q^n)/(1 - q); q must not be 1."""
    q = to_gq(q)
    if q == ONE:
        raise PoleError("q-integer undefined at q = 1", "[n]_q")
    return (ONE - q**n) / (ONE - q)


def q_factorial(n: int, q) -> GaussianRational:
    """[n]_q! = prod_{k=1}^n [k]_q."""
    result = ONE
    for k in range(1, n + 1):
        result = result * q_number(k, q)
    return result


def q_binomials(q, top: int) -> Callable[[int, int], GaussianRational]:
    """The Gaussian binomial coefficient as a function of (n, k) for n <= top,
    read from one (q;q)_0..(q;q)_top table; 0 when k is out of range."""
    f = q_pochhammers(q, q, 0, top)

    def binomial(n: int, k: int) -> GaussianRational:
        if k < 0 or k > n:
            return ZERO
        return f[n] / (f[k] * f[n - k])

    return binomial


def rising_factorials(a, lo: int, hi: int) -> dict[int, GaussianRational]:
    """Rising factorials (a)_lo..(a)_hi keyed by index, for any integers.

    Runs (a)_{m+1} = (a)_m (a + m) up from (a)_0 = 1 and, for negative m,
    (a)_m = (a)_{m+1} / (a + m) down from it: the reciprocal convention
    (a)_{-k} = 1/prod_{j=1}^k (a - j), which extends the Gamma-function
    quotient to integer shifts.  A vanishing factor on the way down is a
    pole; as for q_pochhammers, the range raises exactly when (a)_lo does.
    """
    if lo > hi:
        return {}
    a = to_gq(a)
    table = {0: ONE}
    value = ONE
    for m in range(hi):
        value = table[m + 1] = value * (a + m)
    value = ONE
    for m in range(-1, lo - 1, -1):
        factor = a + m
        if not factor:
            raise PoleError(
                "vanishing factor in negative-index rising factorial",
                f"(a)_{lo} at k={-m}",
            )
        value = table[m] = value / factor
    return {m: table[m] for m in range(lo, hi + 1)}


def rising_factorial(a, n: int) -> GaussianRational:
    """Rising factorial (a)_n = prod_{k=0}^{n-1} (a + k) for n >= 0, and
    (a)_{-m} = 1/prod_{k=1}^m (a - k) for negative n."""
    return rising_factorials(a, n, n)[n]


def phi_terms(numerators, denominators, q, z, order: int) -> list[GaussianRational]:
    """The terms of r+1_phi_r(numerators; denominators; q, z) up to z**order.

    Term k is (numerators;q)_k z**k / ((q;q)_k (denominators;q)_k), built
    from term k - 1 by its ratio; a vanishing denominator factor raises
    PoleError.
    """
    numerators = [to_gq(a) for a in numerators]
    denominators = [to_gq(b) for b in denominators]
    q, z = to_gq(q), to_gq(z)
    terms = [ONE]
    qk = ONE  # q**k
    for k in range(order):
        factor = z
        for a in numerators:
            factor = factor * (ONE - a * qk)
        den = ONE - q * qk
        if not den:
            raise PoleError("vanishing (q;q) factor in series", f"k={k + 1}")
        for j, b in enumerate(denominators):
            f = ONE - b * qk
            if not f:
                raise PoleError(
                    "vanishing denominator factor in series",
                    f"denominator parameter {j + 1} at k={k + 1}",
                )
            den = den * f
        terms.append(terms[-1] * factor / den)
        qk = qk * q
    return terms


def terminating_phi(numerators, denominators, q, z, order: int) -> GaussianRational:
    """Sum r+1_phi_r(numerators; denominators; q, z) exactly up to z**order.

    Some numerator must equal q**(-order), else NonTerminatingSeriesError.
    """
    numerators = [to_gq(a) for a in numerators]
    q_order = to_gq(q) ** order
    if not any(a * q_order == ONE for a in numerators):
        raise NonTerminatingSeriesError(
            f"declared order {order} has no matching q**(-n) numerator; refusing to sum"
        )
    return sum(phi_terms(numerators, denominators, q, z, order), ZERO)


def very_well_poised(a1_sqrt, tail, q, z, order: int) -> GaussianRational:
    """Terminating very-well-poised series r+1_W_r(a1; a4..a_{r+1}; q, z).

    ``a1_sqrt`` is the caller-supplied square root of a1 (roots are inputs,
    never computed), realizing the +-q*a1^(1/2) parameter pair exactly.
    """
    s = to_gq(a1_sqrt)
    q = to_gq(q)
    a1 = s * s
    tail = [to_gq(t) for t in tail]
    numerators = [a1, q * s, -(q * s), *tail]
    denominators = [s, -s, *[q * a1 / t for t in tail]]
    return terminating_phi(numerators, denominators, q, z, order)


def hyper_f(numerators, denominators, z) -> GaussianRational:
    """Terminating classical hypergeometric sum with rising factorials and k!.

    Terminates at the smallest n with -n among the numerators; a nonpositive
    integer denominator parameter reached inside the range is a pole.
    """
    numerators = [to_gq(a) for a in numerators]
    denominators = [to_gq(b) for b in denominators]
    z = to_gq(z)
    n = None
    for a in numerators:
        v = a.as_integer()
        if v is not None and v <= 0 and (n is None or -v < n):
            n = -v
    if n is None:
        raise NonTerminatingSeriesError(
            "classical series has no nonpositive-integer numerator; refusing to sum"
        )
    total = ONE
    term = ONE
    for k in range(n):
        factor = z
        for a in numerators:
            factor = factor * (a + k)
        den = GaussianRational(k + 1)
        for j, b in enumerate(denominators):
            f = b + k
            if not f:
                raise PoleError(
                    "nonpositive integer denominator parameter in classical series",
                    f"denominator parameter {j + 1} at k={k}",
                )
            den = den * f
        term = term * factor / den
        total = total + term
    return total


def factorial(n: int) -> GaussianRational:
    """n! as an exact scalar."""
    return GaussianRational(math.factorial(n))


def binomial(n: int, k: int) -> GaussianRational:
    """Ordinary binomial coefficient as an exact scalar; 0 out of range."""
    if k < 0 or k > n:
        return ZERO
    return GaussianRational(math.comb(n, k))


def half(x) -> GaussianRational:
    """x/2 as an exact scalar, accepting ints and Fractions."""
    return to_gq(x) * HALF
