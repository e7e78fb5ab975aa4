"""q-shifted factorials, q-binomials, and terminating hypergeometric sums.

All evaluation is exact over QQ(i).  Each factorial sequence has one loop:
:func:`q_pochhammers` and :func:`rising_factorials` build a whole index
range by the running recurrence, the single-index :func:`q_pochhammer` and
:func:`rising_factorial` return that loop's value at their index, and
:func:`q_binomials` reads every coefficient up to its top row from one (q;q)
table, so a caller that needs many indices builds one table instead of one
product per index.  The loops, and the term ratios and sums of the series,
run on unreduced Gaussian-integer triples (see ``gaussian._tmul``) and reduce
once per value they return.
Series are only ever summed when they terminate.  A basic series is summed to
the order n its caller declares, and some numerator must equal ``q**(-n)``;
the order is never searched for.
A classical series terminates at its nonpositive-integer numerator.
Running into a vanishing denominator factor raises
:class:`~qdetlab.errors.PoleError` naming the offending factor.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from .errors import NonTerminatingSeriesError, PoleError
from .gaussian import _ONE, ONE, ZERO, GaussianRational, Triple, to_gq
from .gaussian import _parts, _reduced, _tdiv, _tmul, _tone_minus


def _one_minus_powers(x, q, downward: bool = False):
    """1 - x q^j as triples for j = 0, 1, 2, ... or, downward, for j = -1, -2, ..."""
    q = _parts(q.reciprocal() if downward else q)
    x = _tmul(_parts(x), q) if downward else _parts(x)
    while True:
        yield _tone_minus(x)
        x = _tmul(x, q)


def _products(lo: int, hi: int, up, down=(), pole: str = "", name: str = "") -> list[GaussianRational]:
    """Values lo..hi of a factorial sequence in index order, each reduced once.

    Value m >= 0 is the product of the first m factor triples of ``up``
    (indices 0, 1, ...), and value m < 0 is one over the product of the first
    -m of ``down`` (indices -1, -2, ...).  A vanishing factor on the way down
    raises PoleError(pole), located as factor k of ``name`` at lo.  The
    upward part runs first: when generators that raise themselves would do
    so in both directions, the upward error is the one raised.
    """
    if lo > hi:
        return []
    out = [ONE] if lo <= 0 <= hi else []
    value = _ONE
    for m, factor in zip(range(1, hi + 1), up):
        value = _tmul(value, factor)
        if m >= lo:
            out.append(_reduced(*value))
    if lo < 0:
        below = []
        den = _ONE
        for m, factor in zip(range(-1, lo - 1, -1), down):
            if not (factor[0] or factor[1]):
                raise PoleError(pole, f"{name}_{lo} at k={-m}")
            den = _tmul(den, factor)
            if m <= hi:
                below.append(_reduced(*_tdiv(_ONE, den)))
        out = below[::-1] + out
    return out


def q_pochhammers(a, q, lo: int, hi: int) -> dict[int, GaussianRational]:
    """q-shifted factorials (a;q)_lo..(a;q)_hi keyed by index, for any integers.

    Runs (a;q)_{m+1} = (a;q)_m (1 - a q^m) up from (a;q)_0 = 1 and, for
    negative m, (a;q)_m = 1 / prod_{m <= j < 0} (1 - a q^j) down from it
    (Gasper and Rahman, Basic Hypergeometric Series, 1.2).  A vanishing
    factor on the way down is a pole.  Poles are downward-closed, so the
    range raises PoleError exactly when (a;q)_lo has one, naming the same
    factor.
    """
    a, q = to_gq(a), to_gq(q)
    values = _products(
        lo, hi, _one_minus_powers(a, q), _one_minus_powers(a, q, downward=True),
        "vanishing factor in negative-index q-shifted factorial", "(a;q)",
    )
    return dict(zip(range(lo, hi + 1), values))


def q_pochhammer_tails(a, q, n: int) -> list[GaussianRational]:
    """(a q^{n-t};q)_t for t = 0..n at list index t: the products of the last
    t factors of (a;q)_n, built from the top factor down.

    These are the suffix products that a quotient of q_pochhammers tables
    would give, without its 0/0 when a factor below them vanishes.
    """
    factors = list(itertools.islice(_one_minus_powers(to_gq(a), to_gq(q)), n))
    return _products(0, n, reversed(factors))


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
    (a)_m = 1 / prod_{m <= j < 0} (a + j) down from it: the reciprocal
    convention (a)_{-k} = 1/prod_{j=1}^k (a - j), which extends the
    Gamma-function quotient to integer shifts.  A vanishing factor on the way
    down is a pole; as for q_pochhammers, the range raises exactly when
    (a)_lo does.
    """
    ar, ai, ad = _parts(to_gq(a))
    values = _products(
        lo, hi,
        ((ar + j * ad, ai, ad) for j in itertools.count()),
        ((ar + j * ad, ai, ad) for j in itertools.count(-1, -1)),
        "vanishing factor in negative-index rising factorial", "(a)",
    )
    return dict(zip(range(lo, hi + 1), values))


def rising_factorial(a, n: int) -> GaussianRational:
    """Rising factorial (a)_n = prod_{k=0}^{n-1} (a + k) for n >= 0, and
    (a)_{-m} = 1/prod_{k=1}^m (a - k) for negative n."""
    return rising_factorials(a, n, n)[n]


def _series_sum(ratios) -> Triple:
    """1 + t_1 + t_2 + ... as a triple, where t_0 = 1 and t_{k+1} = t_k r_k
    for the ratio triples r_k.  Term and total share one denominator: each
    step multiplies both by the denominator of r_k."""
    term = total = _ONE
    for ratio in ratios:
        tr, ti, d = term = _tmul(term, ratio)
        m = ratio[2]
        total = (total[0] * m + tr, total[1] * m + ti, d)
    return total


def _phi_ratios(numerators, denominators, q, z, order: int):
    """Term k + 1 over term k of r+1_phi_r(numerators; denominators; q, z) as
    a triple, for k = 0..order-1.  The arguments are converted when it is
    called, so a non-scalar raises TypeError even at order 0; a vanishing
    denominator factor raises PoleError as the ratios are drawn."""
    numerators = [_parts(to_gq(a)) for a in numerators]
    denominators = [_parts(to_gq(b)) for b in denominators]
    q, z = _parts(to_gq(q)), _parts(to_gq(z))

    def ratios():
        qk = _ONE  # q**k
        for k in range(order):
            factor = z
            for a in numerators:
                factor = _tmul(factor, _tone_minus(a, qk))
            next_qk = _tmul(qk, q)
            den = _tone_minus(next_qk)
            if not (den[0] or den[1]):
                raise PoleError("vanishing (q;q) factor in series", f"k={k + 1}")
            for j, b in enumerate(denominators):
                f = _tone_minus(b, qk)
                if not (f[0] or f[1]):
                    raise PoleError(
                        "vanishing denominator factor in series",
                        f"denominator parameter {j + 1} at k={k + 1}",
                    )
                den = _tmul(den, f)
            yield _tdiv(factor, den)
            qk = next_qk

    return ratios()


def phi_terms(numerators, denominators, q, z, order: int) -> list[GaussianRational]:
    """The terms of r+1_phi_r(numerators; denominators; q, z) up to z**order.

    Term k is (numerators;q)_k z**k / ((q;q)_k (denominators;q)_k), built
    from term k - 1 by its ratio; a vanishing denominator factor raises
    PoleError.
    """
    return _products(0, order, _phi_ratios(numerators, denominators, q, z, order))


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
    return _reduced(*_series_sum(_phi_ratios(numerators, denominators, q, z, order)))


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
    numerators = [_parts(to_gq(a)) for a in numerators]
    denominators = [_parts(to_gq(b)) for b in denominators]
    z = _parts(to_gq(z))
    n = None
    for r, i, d in numerators:
        if not i and d == 1 and r <= 0 and (n is None or -r < n):
            n = -r
    if n is None:
        raise NonTerminatingSeriesError(
            "classical series has no nonpositive-integer numerator; refusing to sum"
        )

    def ratios():
        for k in range(n):
            factor = z
            for ar, ai, ad in numerators:
                factor = _tmul(factor, (ar + k * ad, ai, ad))
            den = (k + 1, 0, 1)
            for j, (br, bi, bd) in enumerate(denominators):
                f = (br + k * bd, bi, bd)
                if not (f[0] or bi):
                    raise PoleError(
                        "nonpositive integer denominator parameter in classical series",
                        f"denominator parameter {j + 1} at k={k}",
                    )
                den = _tmul(den, f)
            yield _tdiv(factor, den)

    return _reduced(*_series_sum(ratios()))

