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
Every loop here (the Askey-Wilson recurrence, the 4-phi-3 ratios and the
two D-recurrences) carries each quantity as two int locals, num and den,
unreduced, and reduces once per value it returns; each closed form is one
product of factorial-table pairs, reduced once (see ``gaussian._ratio``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PoleError
from .gaussian import ONE, ZERO, GaussianRational, _parts, _ratio, _reduced, sign, to_gq
from .qseries import _series_sum, hyper_f, q_pochhammer_multi, q_pochhammer_pairs, rising_factorial_pairs


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
    three-term recurrence A_k p_{k+1} = (2x - B_k) p_k - C_k p_{k-1}.

    Step k checks the printed coefficients in order: the denominator of A,
    then the division in B.  The denominator of C is a product of factors of
    the A denominators of steps k - 1 and k, so it never vanishes here.  At
    k = 0, C carries the factor 1 - q^0 = 0 and multiplies p_{-1} = 0, so it
    drops out of both B and the step.  A itself never vanishes: its
    numerator g = 1 - abcd q^{k-1} is a factor of the A denominator at step
    ceil((k-1)/2), which is checked first.  The values up to n raise
    PoleError exactly when p_n does.

    With u factored out, f_j = 1 - abcd q^{2k-j},
    P_k = (1 - ab q^k)(1 - ac q^k)(1 - ad q^k) and
    rest = (1 - q^k)(1 - bc q^{k-1})(1 - bd q^{k-1})(1 - cd q^{k-1}), the
    step solved for r_{k+1} is (s/a) P_k r_k + (f_1 f_0 (2x - a - s/a) r_k
    + (f_0 / f_2) rest (a r_k - P_{k-1} s r_{k-1})) / g: the C term, two
    degrees down, carries u^{-2} = s.  It runs on ints, and each r_{k+1} is
    reduced once.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    values = {-1: ZERO, 0: ONE}
    if n == 0:
        return values
    if not params.a:
        raise PoleError("recurrence requires a nonzero leading parameter", "a=0")
    jr, jd = _parts(params.q.reciprocal())  # q^{k-1}
    qr, qd = _parts(params.q)
    (ar, ad), b, c, d, x = map(_parts, (params.a, params.b, params.c, params.d, params.x))
    # Denominators may be negative from here on: each value's sign is moved up once.
    ir, id_ = s * ad, ar  # s/a
    er, ed = 2 * x[0] * ad * ar - x[1] * (ar * ar + s * ad * ad), x[1] * ad * ar  # 2x - a - s/a
    in_p = [(s * ar * v[0], ad * v[1]) for v in (b, c, d)]  # s ab, s ac, s ad
    in_rest = [(s * v[0] * w[0], v[1] * w[1]) for v, w in ((b, c), (b, d), (c, d))]  # s bc, s bd, s cd
    wr, wd = ar * b[0] * c[0] * d[0], ad * b[1] * c[1] * d[1]  # abcd: s^2 = 1
    kr = kd = 1  # q^k
    pr = pd = lr = ld = 1  # P_{k-1} and f_2, read from step 1 on
    vr, vd, ur, ud = 0, 1, 1, 1  # s r_{k-1} and r_k
    for k in range(n):
        md = wd * jd * kd
        mr = md - wr * jr * kr  # f_1
        hd = wd * kd * kd
        hr = hd - wr * kr * kr  # f_0
        if not (mr and hr):
            raise PoleError("vanishing recurrence denominator", f"A at n={k}")
        gd = wd * jd
        gr = gd - wr * jr
        nr = nd = 1  # P_k
        for zr, zd in in_p:
            zd *= kd
            nr *= zd - zr * kr
            nd *= zd
        yr, yd = mr * hr * er * ur, md * ed * ud  # f_1 f_0 (2x - a - s/a) r_k is yr / (hd yd)
        if k:  # C_0 = 0 times p_{-1} = 0: no C term or B division at k = 0
            tr, td = kd - kr, kd  # rest
            for zr, zd in in_rest:
                zd *= jd
                tr *= zd - zr * jr
                td *= zd
            if not pr:
                raise PoleError("vanishing recurrence denominator", f"B division at n={k}")
            # (f_0 / f_2) rest (a r_k - P_{k-1} s r_{k-1}) is cr / (hd cd)
            cr = hr * ld * tr * (ar * ur * pd * vd - pr * vr * ad * ud)
            cd = lr * td * ad * ud * pd * vd
            yr, yd = yr * cd + cr * yd, yd * cd
        zr, zd = ir * nr * ur, id_ * nd * ud  # (s/a) P_k r_k
        yd *= hd * gr
        num, den = zr * yd + yr * gd * zd, zd * yd
        value = values[k + 1] = _reduced(num, den) if den > 0 else _reduced(-num, -den)
        (vr, vd), (ur, ud) = (s * ur, ud), _parts(value)
        pr, pd, lr, ld = nr, nd, hr, hd
        jr, jd, kr, kd = kr, kd, kr * qr, kd * qd
    return values


def askey_wilson(n: int, p: AWParams, s: int = 1) -> GaussianRational:
    """r_n for n >= -1 (r_{-1} = 0, r_0 = 1), where u^n r_n is
    p_n(u x; u a, u b, u c, u d; q) for u^2 = s in {1, -1}, by the
    terminating 4-phi-3 form: its prefactor (u a)^{-n} (s ab, s ac, s ad; q)_n
    is u^n times s^n a^{-n} (s ab, s ac, s ad; q)_n, one product with the
    4-phi-3, reduced once."""
    if n == -1:
        return ZERO
    if n < -1:
        raise ValueError("degree must be >= -1")
    a, q = p.a, p.q
    if not a:
        raise PoleError("basic hypergeometric form requires a nonzero leading parameter", "a=0")
    sa = s * a
    pochhammers = [q_pochhammer_pairs(sa * v, q, n, n)[n] for v in (p.b, p.c, p.d)]
    return _ratio([*pochhammers, _parts(askey_wilson_phi(n, p, s))], [_parts(sa**n)])


def askey_wilson_phi(n: int, p: AWParams, s: int = 1) -> GaussianRational:
    """The 4-phi-3 of :func:`askey_wilson`,
    4phi3(q^{-n}, abcd q^{n-1}, a e^{i theta}, a e^{-i theta}; ab, ac, ad; q, q),
    at u a, u b, u c, u d and u x for u^2 = s; the numerator pair enters as
    the paired factor 1 - 2 s a x q^k + s a^2 q^{2k}.  A vanishing
    denominator factor raises PoleError."""
    q = p.q
    (ar, ad), (br, bd), (cr, cd), (dr, dd), (xr, xd) = map(_parts, (p.a, p.b, p.c, p.d, p.x))
    named = (("ab", (s * ar * br, ad * bd)), ("ac", (s * ar * cr, ad * cd)), ("ad", (s * ar * dr, ad * dd)))
    (mr, md), (jr, jd), (qr, qd) = _parts(q ** (-n)), _parts(q ** (n - 1)), _parts(q)
    wr, wd = ar * br * cr * dr * jr, ad * bd * cd * dd * jd  # abcd q^{n-1}
    # The paired factor is (e q_d^2 - q_r (f q_d - g q_r)) / (e q_d^2) at q^k = q_r / q_d.
    e, f, g = ad * ad * xd, 2 * s * ar * xr * ad, s * ar * ar * xd

    def ratios():
        kr = kd = 1  # q^k
        for k in range(n):
            kd2 = kd * kd
            nr = (md * kd - mr * kr) * (wd * kd - wr * kr) * (e * kd2 - kr * (f * kd - g * kr)) * qr
            nd = md * wd * e * kd2 * kd2 * qd
            next_r, next_d = kr * qr, kd * qd
            dr, dd = next_d - next_r, next_d
            if not dr:
                raise PoleError("vanishing denominator q-shifted factorial", f"(q;q) at k={k + 1}")
            for name, (zr, zd) in named:
                zd *= kd
                zr = zd - zr * kr
                if not zr:
                    raise PoleError("vanishing denominator q-shifted factorial", f"({name};q) at k={k + 1}")
                dr *= zr
                dd *= zd
            yield (nr * dd, nd * dr) if dr > 0 else (-nr * dd, -nd * dr)
            kr, kd = next_r, next_d

    return _reduced(*_series_sum(ratios()))


def continuous_hahn(n: int, t, a, b, c, d) -> GaussianRational:
    """i^{-n} times the continuous Hahn value, with the argument supplied as
    t = i*x: the factor i^n of the hypergeometric form is left to the caller.

    t enters only through the numerator parameter a + t, so either square
    root of -x^2 gives the same value.
    """
    t, a, b, c, d = to_gq(t), to_gq(a), to_gq(b), to_gq(c), to_gq(d)
    pre = [rising_factorial_pairs(a + c, n, n)[n], rising_factorial_pairs(a + d, n, n)[n]]
    series = hyper_f((GaussianRational(-n), a + b + c + d + (n - 1), a + t), (a + c, a + d), ONE)
    return _ratio([*pre, _parts(series)], [(math.factorial(n), 1)])


def wilson(n: int, t, alpha, beta, gamma, delta) -> GaussianRational:
    """Wilson value at argument x^2 = -t^2, i.e. t = i*x supplied directly."""
    t, alpha, beta, gamma, delta = to_gq(t), to_gq(alpha), to_gq(beta), to_gq(gamma), to_gq(delta)
    pre = [rising_factorial_pairs(alpha + v, n, n)[n] for v in (beta, gamma, delta)]
    series = hyper_f(
        (GaussianRational(-n), alpha + beta + gamma + delta + (n - 1), alpha + t, alpha - t),
        (alpha + beta, alpha + gamma, alpha + delta),
        ONE,
    )
    return _ratio([*pre, _parts(series)])


def mehta_wang_d(n: int, a, b) -> GaussianRational:
    """The Meixner-Pollaczek-type sequence D_n with D_{-1}=0, D_0=1, by its
    recurrence D_{n+1} = a D_n + n (b + n - 1) D_{n-1}, with D_{k-1} and D_k
    carried as two ints over one denominator and D_n reduced once."""
    a, b = to_gq(a), to_gq(b)
    if n == -1:
        return ZERO
    if n < -1:
        raise ValueError("index must be >= -1")
    (ar, ad), (br, bd) = _parts(a), _parts(b)
    prev, cur, den = 0, 1, 1  # D_{k-1}, D_k over den
    for k in range(n):
        prev, cur, den = cur * ad * bd, ar * bd * cur + k * (br + (k - 1) * bd) * ad * prev, den * ad * bd
    return _reduced(cur, den)


def nishizawa_d(n: int, s, t, q) -> GaussianRational:
    """The q-deformation of mehta_wang_d by its three-term recurrence
    D_{k+1} = s^{-2} q^k (1 - s^2) / (1 - q) D_k
    + (s^2 t^2)^{-1} (1 - q^k) (1 - t^2 q^{k-1}) / (1 - q)^2 D_{k-1},
    parameterized by the square roots s, t of the two q-powers so that all
    half-integer exponents are exact; run as mehta_wang_d is."""
    s, t, q = to_gq(s), to_gq(t), to_gq(q)
    if not s or not t or not q:
        raise PoleError("parameters must be nonzero", "s, t, q")
    if q == ONE:
        raise PoleError("q-deformation undefined at q = 1", "q=1")
    if n == -1:
        return ZERO
    if n < -1:
        raise ValueError("index must be >= -1")
    s2, t2 = s * s, t * t
    one_minus_q = ONE - q
    # D_{k+1} = f q^k D_k + g (1 - q^k) (1 - t^2 q^{k-1}) D_{k-1}, f and g formed once
    fr, fd = _parts((ONE - s2) / (s2 * one_minus_q))
    gr, gd = _parts((s2 * t2 * one_minus_q * one_minus_q).reciprocal())
    (tr, td), (qr, qd), (jr, jd) = _parts(t2), _parts(q), _parts(q.reciprocal())  # jr / jd is q^{k-1}
    kr = kd = 1  # q^k
    prev, cur, den = 0, 1, 1  # D_{k-1}, D_k over den
    for _ in range(n):
        xr, xd = fr * kr, fd * kd  # f q^k
        yd = td * jd
        yr, yd = gr * (kd - kr) * (yd - tr * jr), gd * kd * yd  # g (1 - q^k) (1 - t^2 q^{k-1})
        prev, cur, den = cur * xd * yd, xr * yd * cur + yr * xd * prev, den * xd * yd
        jr, jd, kr, kd = kr, kd, kr * qr, kd * qd
    return _reduced(cur, den)


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
