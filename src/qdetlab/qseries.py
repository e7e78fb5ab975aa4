"""q-shifted factorials, q-binomials, and terminating hypergeometric sums.

All evaluation is exact over QQ.  Each factorial sequence has one loop:
:func:`q_pochhammers` and :func:`rising_factorials` build a whole index
range by the running recurrence, the single-index :func:`q_pochhammer` and
:func:`rising_factorial` return that loop's value at their index, and
:func:`q_binomials` reads every coefficient up to its top row from one (q;q)
table, so a caller that needs many indices builds one table instead of one
product per index.  Every loop here (the factorial tables and the term
ratios and sums of the series) carries each quantity as two int locals, num
and den, unreduced, and reduces once per value it returns.  The tables of
:func:`q_pochhammer_pairs` and :func:`rising_factorial_pairs` stay unreduced,
for closed forms that multiply them and reduce once (``gaussian._ratio``);
:func:`q_pochhammers` and :func:`rising_factorials` are their reduced views.
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
from .gaussian import _ONE, _ZERO, GaussianRational, Pair, to_gq
from .gaussian import _parts, _pdiv, _pmul, _ratio, _reduced


def _one_minus_powers(x: Pair, q, downward: bool = False):
    """1 - x q^j as pairs for j = 0, 1, 2, ... or, downward, for j = -1, -2, ...,
    for the pair x and the scalar q."""
    qr, qd = _parts(q.reciprocal() if downward else q)
    r, d = x
    if downward:
        r, d = r * qr, d * qd
    while True:
        yield d - r, d
        r, d = r * qr, d * qd


def _product_pairs(lo: int, hi: int, up, down=(), pole: str = "", name: str = "") -> list[Pair]:
    """Values lo..hi of a factorial sequence in index order, as unreduced pairs.

    Value m >= 0 is the product of the first m factor pairs of ``up``
    (indices 0, 1, ...), and value m < 0 is one over the product of the first
    -m of ``down`` (indices -1, -2, ...).  A vanishing factor on the way down
    raises PoleError(pole), located as factor k of ``name`` at lo.  The
    upward part runs first: when generators that raise themselves would do
    so in both directions, the upward error is the one raised.
    """
    if lo > hi:
        return []
    out = [_ONE] if lo <= 0 <= hi else []
    r = d = 1
    for m, (fr, fd) in zip(range(1, hi + 1), up):
        r, d = r * fr, d * fd
        if m >= lo:
            out.append((r, d))
    if lo < 0:
        below = []
        r = d = 1
        for m, (fr, fd) in zip(range(-1, lo - 1, -1), down):
            if not fr:
                raise PoleError(pole, f"{name}_{lo} at k={-m}")
            r, d = r * fr, d * fd
            if m <= hi:
                below.append((d, r) if r > 0 else (-d, -r))
        out = below[::-1] + out
    return out


def _products(lo: int, hi: int, up, down=(), pole: str = "", name: str = "") -> list[GaussianRational]:
    """The values of :func:`_product_pairs`, each reduced once."""
    return [_reduced(r, d) for r, d in _product_pairs(lo, hi, up, down, pole, name)]


def q_pochhammer_pairs(a, q, lo: int, hi: int) -> dict[int, Pair]:
    """The values of :func:`q_pochhammers` as unreduced pairs, for a caller
    that multiplies them into a product and reduces once."""
    a, q = to_gq(a), to_gq(q)
    pairs = _product_pairs(
        lo, hi, _one_minus_powers(_parts(a), q), _one_minus_powers(_parts(a), q, downward=True),
        "vanishing factor in negative-index q-shifted factorial", "(a;q)",
    )
    return dict(zip(range(lo, hi + 1), pairs))


def q_pochhammers(a, q, lo: int, hi: int) -> dict[int, GaussianRational]:
    """q-shifted factorials (a;q)_lo..(a;q)_hi keyed by index, for any integers.

    Runs (a;q)_{m+1} = (a;q)_m (1 - a q^m) up from (a;q)_0 = 1 and, for
    negative m, (a;q)_m = 1 / prod_{m <= j < 0} (1 - a q^j) down from it
    (Gasper and Rahman, Basic Hypergeometric Series, 1.2).  A vanishing
    factor on the way down is a pole.  Poles are downward-closed, so the
    range raises PoleError exactly when (a;q)_lo has one, naming the same
    factor.
    """
    return {m: _reduced(r, d) for m, (r, d) in q_pochhammer_pairs(a, q, lo, hi).items()}


def q_pochhammer_tails(a, q, n: int) -> list[GaussianRational]:
    """(a q^{n-t};q)_t for t = 0..n at list index t: the products of the last
    t factors of (a;q)_n, built from the top factor down.

    These are the suffix products that a quotient of q_pochhammers tables
    would give, without its 0/0 when a factor below them vanishes.
    """
    factors = list(itertools.islice(_one_minus_powers(_parts(to_gq(a)), to_gq(q)), n))
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
    return _ratio([q_pochhammer_pairs(a, q, n, n)[n] for a in params])


def _q_binomial_pairs(q, top: int) -> Callable[[int, int], Pair]:
    """The Gaussian binomial coefficient (q;q)_n / ((q;q)_k (q;q)_{n-k}) as an
    unreduced pair, as a function of (n, k) for n <= top, read from one
    (q;q)_0..(q;q)_top table; 0 when k is out of range."""
    f = list(q_pochhammer_pairs(q, q, 0, top).values())

    def binomial(n: int, k: int) -> Pair:
        if k < 0 or k > n:
            return _ZERO
        return _pdiv(f[n], _pmul(f[k], f[n - k]))

    return binomial


def q_binomials(q, top: int) -> Callable[[int, int], GaussianRational]:
    """The Gaussian binomial coefficient as a function of (n, k) for n <= top:
    the pairs of :func:`_q_binomial_pairs`, each reduced as it is read."""
    binomial = _q_binomial_pairs(q, top)
    return lambda n, k: _reduced(*binomial(n, k))


def rising_factorial_pairs(a, lo: int, hi: int) -> dict[int, Pair]:
    """The values of :func:`rising_factorials` as unreduced pairs, for a
    caller that multiplies them into a product and reduces once."""
    ar, ad = _parts(to_gq(a))
    pairs = _product_pairs(
        lo, hi,
        ((ar + j * ad, ad) for j in itertools.count()),
        ((ar + j * ad, ad) for j in itertools.count(-1, -1)),
        "vanishing factor in negative-index rising factorial", "(a)",
    )
    return dict(zip(range(lo, hi + 1), pairs))


def rising_factorials(a, lo: int, hi: int) -> dict[int, GaussianRational]:
    """Rising factorials (a)_lo..(a)_hi keyed by index, for any integers.

    Runs (a)_{m+1} = (a)_m (a + m) up from (a)_0 = 1 and, for negative m,
    (a)_m = 1 / prod_{m <= j < 0} (a + j) down from it: the reciprocal
    convention (a)_{-k} = 1/prod_{j=1}^k (a - j), which extends the
    Gamma-function quotient to integer shifts.  A vanishing factor on the way
    down is a pole; as for q_pochhammers, the range raises exactly when
    (a)_lo does.
    """
    return {m: _reduced(r, d) for m, (r, d) in rising_factorial_pairs(a, lo, hi).items()}


def rising_factorial(a, n: int) -> GaussianRational:
    """Rising factorial (a)_n = prod_{k=0}^{n-1} (a + k) for n >= 0, and
    (a)_{-m} = 1/prod_{k=1}^m (a - k) for negative n."""
    return rising_factorials(a, n, n)[n]


def _series_sum(ratios) -> Pair:
    """1 + t_1 + t_2 + ... as a pair, where t_0 = 1 and t_{k+1} = t_k r_k
    for the ratio pairs r_k.  Term and total share one denominator: each
    step multiplies both by the denominator of r_k."""
    term = total = den = 1
    for r, d in ratios:
        term *= r
        total = total * d + term
        den *= d
    return total, den


def _phi_ratios(numerators, denominators, q, z, order: int):
    """Term k + 1 over term k of r+1_phi_r(numerators; denominators; q, z) as
    a pair, for k = 0..order-1.  The arguments are converted when it is
    called, so a non-scalar raises TypeError even at order 0; a vanishing
    denominator factor raises PoleError as the ratios are drawn."""
    numerators = [_parts(to_gq(a)) for a in numerators]
    denominators = [_parts(to_gq(b)) for b in denominators]
    (qr, qd), (zr, zd) = _parts(to_gq(q)), _parts(to_gq(z))

    def ratios():
        kr = kd = 1  # q**k
        for k in range(order):
            nr, nd = zr, zd
            for ar, ad in numerators:
                ad *= kd
                nr *= ad - ar * kr
                nd *= ad
            next_r, next_d = kr * qr, kd * qd
            dr, dd = next_d - next_r, next_d
            if not dr:
                raise PoleError("vanishing (q;q) factor in series", f"k={k + 1}")
            for j, (br, bd) in enumerate(denominators):
                bd *= kd
                br = bd - br * kr
                if not br:
                    raise PoleError(
                        "vanishing denominator factor in series",
                        f"denominator parameter {j + 1} at k={k + 1}",
                    )
                dr *= br
                dd *= bd
            yield (nr * dd, nd * dr) if dr > 0 else (-nr * dd, -nd * dr)
            kr, kd = next_r, next_d

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
    qr, qd = _parts(to_gq(q) ** order)
    if not any(ar * qr == ad * qd for ar, ad in map(_parts, numerators)):
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
    zr, zd = _parts(to_gq(z))
    n = None
    for r, d in numerators:
        if d == 1 and r <= 0 and (n is None or -r < n):
            n = -r
    if n is None:
        raise NonTerminatingSeriesError(
            "classical series has no nonpositive-integer numerator; refusing to sum"
        )

    def ratios():
        for k in range(n):
            nr, nd = zr, zd
            for ar, ad in numerators:
                nr *= ar + k * ad
                nd *= ad
            dr, dd = k + 1, 1
            for j, (br, bd) in enumerate(denominators):
                br += k * bd
                if not br:
                    raise PoleError(
                        "nonpositive integer denominator parameter in classical series",
                        f"denominator parameter {j + 1} at k={k}",
                    )
                dr *= br
                dd *= bd
            yield (nr * dd, nd * dr) if dr > 0 else (-nr * dd, -nd * dr)

    return _reduced(*_series_sum(ratios()))

