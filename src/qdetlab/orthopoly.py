"""Exact evaluators for the orthogonal-polynomial families used by the checks.

Each function has one evaluation path.  The D-sequences are their
recurrences; their closed sums are the sides the checks compare them with.
Askey-Wilson values come from the 4-phi-3 form or, degree by degree, from
the recurrence, whose step 0 has no C term (C_0 carries 1 - q^0 = 0).
Al-Salam-Chihara values are Askey-Wilson values at c = d = 0 (Koekoek,
Lesky and Swarttouw, 14.8), read from the same recurrence.  The complex
exponential never appears: the conjugate parameter pair of the basic
hypergeometric form is evaluated through the paired product
prod_j (1 - 2 a x q^j + a^2 q^{2j}), which is rational in x = cos(theta).

The paper evaluates Askey-Wilson polynomials at imaginary parameters, such
as (iu, -iv, iw, -iw) at x = 0.  Both Askey-Wilson evaluators take rational
a, b, c, d, x and the square s = u^2 of a unit u in {1, i}, stand for the
polynomial at u a, u b, u c, u d and u x, and return the rational r_k with
p_k = u^k r_k.  s enters only where the parameters meet in pairs: ab, ac,
..., cd carry a factor s, a^2 and 2ax do, 1/a is s u / a, and abcd, which
carries s^2 = 1, does not; the u factored out of each degree is the u^k.
Both loops run on unreduced (num, den) pairs and reduce once per value they
return: each recurrence value, and the 4-phi-3 sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PoleError
from .gaussian import _ONE, _ZERO, ONE, TWO, ZERO, GaussianRational, sign, to_gq
from .gaussian import _one_minus, _parts, _pdiv, _pmul, _psub, _reduced
from .qseries import _series_sum, hyper_f, q_pochhammer_multi, rising_factorial


@dataclass(frozen=True)
class AWParams:
    """Askey-Wilson data (a, b, c, d; q) with evaluation point x = cos(theta)."""

    a: GaussianRational
    b: GaussianRational
    c: GaussianRational
    d: GaussianRational
    q: GaussianRational
    x: GaussianRational


def askey_wilson_values(n: int, params: AWParams, s: int = 1) -> dict[int, GaussianRational]:
    """r_{-1}..r_n keyed by degree, where u^k r_k is
    p_k(u x; u a, u b, u c, u d; q) for u^2 = s in {1, -1}, by the printed
    three-term recurrence.

    Step k checks the printed coefficients in order: the denominators of A
    and C, then the division in B.  At k = 0, C carries the factor
    1 - q^0 = 0 and multiplies p_{-1} = 0, so it drops out of both B and the
    step, and only the A denominator is checked.  A itself never vanishes:
    its numerator 1 - abcd q^{k-1} is a factor of the A denominator at step
    ceil((k-1)/2), which is checked first.  The values up to n raise
    PoleError exactly when p_n does.  C a / pair in B is taken as
    rest a / den_c, with the (ab, ac, ad) pair cancelled.  With u factored
    out, B is u times a + s/a - s A pair / a - rest a / den_c, and the C
    term, two degrees down, carries u^{-2} = s.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    values = {-1: ZERO, 0: ONE}
    if n == 0:
        return values
    if not params.a:
        raise PoleError("recurrence requires a nonzero leading parameter", "a=0")
    a_inv = s * params.a.reciprocal()
    a_plus_inv, two_x = _parts(params.a + a_inv), _parts(TWO * params.x)
    a_inv, qk1 = _parts(a_inv), _parts(params.q.reciprocal())  # qk1 is q^{k-1}
    a, b, c, d, q = map(_parts, (params.a, params.b, params.c, params.d, params.q))
    sa, sb, sc = (s * a[0], a[1]), (s * b[0], b[1]), (s * c[0], c[1])
    ab, ac, ad, bc, bd, cd = _pmul(sa, b), _pmul(sa, c), _pmul(sa, d), _pmul(sb, c), _pmul(sb, d), _pmul(sc, d)
    abcd = _pmul(ab, cd)
    w = _pmul(_pmul(abcd, qk1), qk1)  # abcd q^{2k-2}
    prev, cur = _ZERO, _ONE  # s r_{k-1}, r_k
    for k in range(n):
        qk = _pmul(qk1, q)
        w = _pmul(w, q)
        f_mid = _one_minus(w)  # 1 - abcd q^{2k-1}, in both the A and C denominators
        w = _pmul(w, q)
        f_hi = _one_minus(w)  # 1 - abcd q^{2k}, the next step's f_lo
        den_a = _pmul(f_mid, f_hi)
        if not den_a[0]:
            raise PoleError("vanishing recurrence denominator", f"A at n={k}")
        coeff_a = _pdiv(_one_minus(abcd, qk1), den_a)
        pair_next = _pmul(_pmul(_one_minus(ab, qk), _one_minus(ac, qk)), _one_minus(ad, qk))
        coeff_b = _psub(a_plus_inv, _pmul(_pmul(coeff_a, a_inv), pair_next))
        c_prev = _ZERO  # C_k p_{k-1}
        if k:  # C_0 = 0 times p_{-1} = 0: no C term, C guard or B division at k = 0
            den_c = _pmul(f_lo, f_mid)
            if not den_c[0]:
                raise PoleError("vanishing recurrence denominator", f"C at n={k}")
            rest = _pmul(_one_minus(qk), _one_minus(bc, qk1))
            rest = _pmul(_pmul(rest, _one_minus(bd, qk1)), _one_minus(cd, qk1))
            if not pair[0]:
                raise PoleError("vanishing recurrence denominator", f"B division at n={k}")
            coeff_b = _psub(coeff_b, _pdiv(_pmul(rest, a), den_c))  # C a / pair, with pair cancelled
            c_prev = _pmul(_pdiv(_pmul(pair, rest), den_c), prev)
        step = _psub(_pmul(_psub(two_x, coeff_b), cur), c_prev)
        value = values[k + 1] = _reduced(*_pdiv(step, coeff_a))
        prev, cur = (s * cur[0], cur[1]), _parts(value)
        qk1, f_lo, pair = qk, f_hi, pair_next
    return values


def askey_wilson(n: int, p: AWParams, s: int = 1) -> GaussianRational:
    """r_n for n >= -1 (r_{-1} = 0, r_0 = 1), where u^n r_n is
    p_n(u x; u a, u b, u c, u d; q) for u^2 = s in {1, -1}, by the
    terminating 4-phi-3 form: its prefactor (u a)^{-n} (s ab, s ac, s ad; q)_n
    is u^n times s^n a^{-n} (s ab, s ac, s ad; q)_n."""
    if n == -1:
        return ZERO
    if n < -1:
        raise ValueError("degree must be >= -1")
    a, q = p.a, p.q
    if not a:
        raise PoleError("basic hypergeometric form requires a nonzero leading parameter", "a=0")
    sa = s * a
    prefactor = q_pochhammer_multi((sa * p.b, sa * p.c, sa * p.d), q, n) * sa ** (-n)
    return prefactor * askey_wilson_phi(n, p, s)


def askey_wilson_phi(n: int, p: AWParams, s: int = 1) -> GaussianRational:
    """The 4-phi-3 of :func:`askey_wilson`,
    4phi3(q^{-n}, abcd q^{n-1}, a e^{i theta}, a e^{-i theta}; ab, ac, ad; q, q),
    at u a, u b, u c, u d and u x for u^2 = s; the numerator pair enters as
    the paired factor 1 - 2 s a x q^k + s a^2 q^{2k}.  A vanishing
    denominator factor raises PoleError."""
    a, q = p.a, p.q
    sa = s * a
    ab, ac, ad = sa * p.b, sa * p.c, sa * p.d
    abcd_q, qmn, two_ax, a2 = map(_parts, (a * p.b * p.c * p.d * q ** (n - 1), q ** (-n), TWO * sa * p.x, sa * a))
    named = (("ab", _parts(ab)), ("ac", _parts(ac)), ("ad", _parts(ad)))
    q = _parts(q)
    q2 = _pmul(q, q)

    def ratios():
        qk = q2k = _ONE  # q^k, q^{2k}
        for k in range(n):
            num = _pmul(
                _pmul(_one_minus(qmn, qk), _one_minus(abcd_q, qk)),
                _pmul(_one_minus(_psub(_pmul(two_ax, qk), _pmul(a2, q2k))), q),
            )
            qk1 = _pmul(q, qk)
            den = _one_minus(qk1)
            if not den[0]:
                raise PoleError("vanishing denominator q-shifted factorial", f"(q;q) at k={k + 1}")
            for name, v in named:
                f = _one_minus(v, qk)
                if not f[0]:
                    raise PoleError("vanishing denominator q-shifted factorial", f"({name};q) at k={k + 1}")
                den = _pmul(den, f)
            yield _pdiv(num, den)
            qk, q2k = qk1, _pmul(q2k, q2)

    return _reduced(*_series_sum(ratios()))


def continuous_hahn(n: int, t, a, b, c, d) -> GaussianRational:
    """i^{-n} times the continuous Hahn value, with the argument supplied as
    t = i*x: the factor i^n of the hypergeometric form is left to the caller.

    t enters only through the numerator parameter a + t, so either square
    root of -x^2 gives the same value.
    """
    t, a, b, c, d = to_gq(t), to_gq(a), to_gq(b), to_gq(c), to_gq(d)
    pre = rising_factorial(a + c, n) * rising_factorial(a + d, n) / math.factorial(n)
    return pre * hyper_f(
        (GaussianRational(-n), a + b + c + d + (n - 1), a + t), (a + c, a + d), ONE
    )


def wilson(n: int, t, alpha, beta, gamma, delta) -> GaussianRational:
    """Wilson value at argument x^2 = -t^2, i.e. t = i*x supplied directly."""
    t, alpha, beta, gamma, delta = to_gq(t), to_gq(alpha), to_gq(beta), to_gq(gamma), to_gq(delta)
    pre = (
        rising_factorial(alpha + beta, n)
        * rising_factorial(alpha + gamma, n)
        * rising_factorial(alpha + delta, n)
    )
    return pre * hyper_f(
        (GaussianRational(-n), alpha + beta + gamma + delta + (n - 1), alpha + t, alpha - t),
        (alpha + beta, alpha + gamma, alpha + delta),
        ONE,
    )


def mehta_wang_d(n: int, a, b) -> GaussianRational:
    """The Meixner-Pollaczek-type sequence D_n with D_{-1}=0, D_0=1, by its
    recurrence D_{n+1} = a D_n + n (b + n - 1) D_{n-1}."""
    a, b = to_gq(a), to_gq(b)
    if n == -1:
        return ZERO
    if n < -1:
        raise ValueError("index must be >= -1")
    prev, cur = ZERO, ONE
    for k in range(n):
        prev, cur = cur, a * cur + k * (b + (k - 1)) * prev
    return cur


def nishizawa_d(n: int, s, t, q) -> GaussianRational:
    """The q-deformation of mehta_wang_d by its three-term recurrence,
    parameterized by the square roots s, t of the two q-powers so that all
    half-integer exponents are exact."""
    s, t, q = to_gq(s), to_gq(t), to_gq(q)
    if not s or not t or not q:
        raise PoleError("parameters must be nonzero", "s, t, q")
    if q == ONE:
        raise PoleError("q-deformation undefined at q = 1", "q=1")
    if n == -1:
        return ZERO
    if n < -1:
        raise ValueError("index must be >= -1")
    s2 = s * s
    t2 = t * t
    one_minus_q = ONE - q
    prev, cur = ZERO, ONE
    for k in range(n):
        term1 = s2.reciprocal() * q**k * (ONE - s2) / one_minus_q * cur
        term2 = (
            (s2 * t2).reciprocal()
            * (ONE - q**k)
            / one_minus_q
            * (ONE - t2 * q ** (k - 1))
            / one_minus_q
            * prev
        )
        prev, cur = cur, term1 + term2
    return cur


def andrews_rhs(n: int, a, b, q) -> GaussianRational:
    """Closed form for p_n(0; a, -a, b, -b; q): zero at odd n, a four-factor
    base-q^2 product at n = 2m."""
    a, b, q = to_gq(a), to_gq(b), to_gq(q)
    if n % 2 == 1:
        return ZERO
    m = n // 2
    q2 = q * q
    return sign(m) * q_pochhammer_multi(
        (q, -(a * a), -(b * b), (a * a) * (b * b) * q ** (2 * m)), q2, m
    )
