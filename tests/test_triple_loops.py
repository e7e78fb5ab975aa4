"""The series, recurrence and moment loops against their scalar forms.

The loops of qseries, orthopoly.askey_wilson_values / askey_wilson and
builders.moments run on unreduced Gaussian-integer triples and reduce once
per value they emit.  The scalar loops below, one GaussianRational per
operation, are kept as oracles: every value, the order of every table, and
every raised exception's class, message and location must agree.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qdetlab import I, NonTerminatingSeriesError, ONE, PoleError, ZERO, GaussianRational, to_gq
from qdetlab.gaussian import TWO
from qdetlab.identities.builders import moments
from qdetlab.orthopoly import AWParams, askey_wilson, askey_wilson_values
from qdetlab.qseries import (
    hyper_f,
    phi_terms,
    q_pochhammer,
    q_pochhammer_multi,
    q_pochhammer_tails,
    q_pochhammers,
    rising_factorial,
    rising_factorials,
    terminating_phi,
)
from test_orthopoly import aw_grid

# -- the scalar loops ----------------------------------------------------------


def q_pochhammers_scalar(a, q, lo, hi):
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


def q_pochhammer_tails_scalar(a, q, n):
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


def rising_factorials_scalar(a, lo, hi):
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


def phi_terms_scalar(numerators, denominators, q, z, order):
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


def terminating_phi_scalar(numerators, denominators, q, z, order):
    numerators = [to_gq(a) for a in numerators]
    q_order = to_gq(q) ** order
    if not any(a * q_order == ONE for a in numerators):
        raise NonTerminatingSeriesError(
            f"declared order {order} has no matching q**(-n) numerator; refusing to sum"
        )
    return sum(phi_terms_scalar(numerators, denominators, q, z, order), ZERO)


def hyper_f_scalar(numerators, denominators, z):
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


def askey_wilson_values_scalar(n, params):
    if n < 0:
        raise ValueError("degree must be >= 0")
    values = {-1: ZERO, 0: ONE}
    if n == 0:
        return values
    a, b, c, d, q = params.a, params.b, params.c, params.d, params.q
    if not a:
        raise PoleError("recurrence requires a nonzero leading parameter", "a=0")
    a_inv = a.reciprocal()
    ab, ac, ad, bc, bd, cd = a * b, a * c, a * d, b * c, b * d, c * d
    abcd = ab * cd
    two_x = TWO * params.x
    qk1 = q.reciprocal()  # q^{k-1}
    w = abcd * qk1 * qk1  # abcd q^{2k-2}
    f_lo = ONE - w
    pair = (ONE - ab * qk1) * (ONE - ac * qk1) * (ONE - ad * qk1)
    for k in range(n):
        qk = qk1 * q
        w = w * q
        f_mid = ONE - w
        w = w * q
        f_hi = ONE - w
        den_a = f_mid * f_hi
        if not den_a:
            raise PoleError("vanishing recurrence denominator", f"A at n={k}")
        coeff_a = (ONE - abcd * qk1) / den_a
        den_c = f_lo * f_mid
        if not den_c:
            raise PoleError("vanishing recurrence denominator", f"C at n={k}")
        coeff_c = (ONE - qk) * pair * (ONE - bc * qk1) * (ONE - bd * qk1) * (ONE - cd * qk1) / den_c
        if not pair:
            raise PoleError("vanishing recurrence denominator", f"B division at n={k}")
        pair_next = (ONE - ab * qk) * (ONE - ac * qk) * (ONE - ad * qk)
        coeff_b = a + a_inv - coeff_a * a_inv * pair_next - coeff_c * a / pair
        values[k + 1] = ((two_x - coeff_b) * values[k] - coeff_c * values[k - 1]) / coeff_a
        qk1, f_lo, pair = qk, f_hi, pair_next
    return values


def askey_wilson_scalar(n, p):
    if n == -1:
        return ZERO
    if n < -1:
        raise ValueError("degree must be >= -1")
    a, q = p.a, p.q
    if not a:
        raise PoleError("basic hypergeometric form requires a nonzero leading parameter", "a=0")
    ab, ac, ad = a * p.b, a * p.c, a * p.d
    prefactor = ONE
    for u in (ab, ac, ad):
        prefactor = prefactor * q_pochhammers_scalar(u, q, n, n)[n]
    prefactor = prefactor * a ** (-n)
    abcd_q = ab * p.c * p.d * q ** (n - 1)
    qmn = q ** (-n)
    two_ax = TWO * a * p.x
    a2 = a * a
    total = ONE
    term = ONE
    qk = ONE
    q2k = ONE
    q2 = q * q
    for k in range(n):
        num = (ONE - qmn * qk) * (ONE - abcd_q * qk) * (ONE - two_ax * qk + a2 * q2k) * q
        den = ONE - q * qk
        if not den:
            raise PoleError("vanishing denominator q-shifted factorial", f"(q;q) at k={k + 1}")
        for name, u in (("ab", ab), ("ac", ac), ("ad", ad)):
            f = ONE - u * qk
            if not f:
                raise PoleError("vanishing denominator q-shifted factorial", f"({name};q) at k={k + 1}")
            den = den * f
        term = term * num / den
        total = total + term
        qk = qk * q
        q2k = q2k * q2
    return prefactor * total


def moments_scalar(lo, hi, a, b, q):
    if lo > hi:
        return {}
    a, b, q = to_gq(a), to_gq(b), to_gq(q)
    mu = {0: ONE}
    value, x, y = ONE, a * q, a * b * q * q  # mu_m, a q^{m+1}, ab q^{m+2} at m = 0
    for m in range(hi):
        den = ONE - y
        if not den:
            raise PoleError("vanishing moment denominator", f"(abq^2;q)_{m + 1}")
        value = mu[m + 1] = value * (ONE - x) / den
        x, y = x * q, y * q
    if lo < 0:
        qinv = q.reciprocal()
        value, x, y = ONE, a, a * b * q  # mu_{m+1}, a q^{m+1}, ab q^{m+2} at m = -1
        for m in range(-1, lo - 1, -1):
            num, den = ONE - y, ONE - x
            if not num or not den:
                raise PoleError(
                    "vanishing factor in negative-index q-shifted factorial",
                    f"(abq^2;q)_{m}" if not num else f"(aq;q)_{m}",
                )
            value = mu[m] = value * num / den
            x, y = x * qinv, y * qinv
    return {m: mu[m] for m in range(lo, hi + 1)}


# -- comparison ----------------------------------------------------------------


def outcome(fn, *args):
    """What fn(*args) gives: a table as its (key, value) items in order, or the
    class, message and location of what it raised."""
    try:
        value = fn(*args)
    except (PoleError, ZeroDivisionError, NonTerminatingSeriesError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "location", None)
    return list(value.items()) if isinstance(value, dict) else value


def agree(new, old, *args):
    got = outcome(new, *args)
    assert got == outcome(old, *args), args
    return got


def raised(got):
    return isinstance(got, tuple) and len(got) == 3 and isinstance(got[0], type)


def frac(num, den=1):
    return GaussianRational(Fraction(num, den))


def gq(re, im, den=1):
    return GaussianRational(Fraction(re, den), Fraction(im, den))


SCALARS = [ZERO, ONE, -ONE, frac(2), frac(-2), frac(1, 2), frac(-1, 3), frac(3, 5),
           I, gq(1, 1), gq(3, -4, 6), gq(0, -3, 7)]
# Negative, complex and root-of-unity bases: q = -1 and q = i make (q;q) vanish.
QS = [frac(2), frac(-2), frac(1, 3), frac(-3, 4), I, gq(1, 1, 2), gq(2, -1), -ONE]


def rand_scalar(rng, complex_share=0.4):
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    im = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < complex_share else 0
    return GaussianRational(re, im)


def rand_q(rng):
    while True:
        q = rand_scalar(rng)
        if q and q != ONE:
            return q


# -- the loops -----------------------------------------------------------------


class TestFactorialTables:
    def test_q_pochhammers(self):
        poles = 0
        for q in QS:
            for a in SCALARS + [q**j for j in range(-3, 4)]:
                for lo in range(-4, 5):
                    for hi in range(lo - 1, 6):
                        poles += raised(agree(q_pochhammers, q_pochhammers_scalar, a, q, lo, hi))
        assert poles > 1000

    def test_single_index_reads(self):
        for q in QS:
            for a in SCALARS + [q**j for j in range(-3, 4)]:
                for n in range(-4, 6):
                    assert outcome(q_pochhammer, a, q, n) == outcome(lambda: q_pochhammers_scalar(a, q, n, n)[n])
                    assert outcome(rising_factorial, a, n) == outcome(lambda: rising_factorials_scalar(a, n, n)[n])
                assert q_pochhammer_multi((a, q, I), q, 3) == (
                    q_pochhammers_scalar(a, q, 3, 3)[3]
                    * q_pochhammers_scalar(q, q, 3, 3)[3]
                    * q_pochhammers_scalar(I, q, 3, 3)[3]
                )

    def test_q_pochhammer_tails(self):
        for q in QS:
            for a in SCALARS + [q**j for j in range(-3, 4)]:
                for n in range(7):
                    assert q_pochhammer_tails(a, q, n) == q_pochhammer_tails_scalar(a, q, n)

    def test_rising_factorials(self):
        poles = 0
        for a in SCALARS + [frac(k) for k in (3, -3, -4)] + [frac(5, 2), frac(-7, 2), gq(-2, 1)]:
            for lo in range(-5, 5):
                for hi in range(lo - 1, 7):
                    poles += raised(agree(rising_factorials, rising_factorials_scalar, a, lo, hi))
        assert poles > 50


class TestSeries:
    def test_phi_terms_and_terminating_phi(self):
        rng = random.Random(1201)
        poles = 0
        for _ in range(400):
            q = rng.choice(QS) if rng.random() < 0.3 else rand_q(rng)
            order = rng.randint(0, 6)
            numerators = [rand_scalar(rng) for _ in range(rng.randint(0, 3))]
            numerators.insert(rng.randint(0, len(numerators)), q**-order)
            # q^{-j} as a denominator parameter vanishes at k = j + 1
            denominators = [rng.choice([rand_scalar(rng), q ** -rng.randint(0, 5)]) for _ in range(rng.randint(0, 3))]
            z = rand_scalar(rng)
            got = agree(phi_terms, phi_terms_scalar, numerators, denominators, q, z, order)
            agree(phi_terms, phi_terms_scalar, numerators[1:], denominators, q, z, order)
            agree(terminating_phi, terminating_phi_scalar, numerators, denominators, q, z, order)
            agree(terminating_phi, terminating_phi_scalar, numerators[:1] + [ONE], denominators, q, z, order + 1)
            poles += raised(got)
        assert poles > 40

    @pytest.mark.parametrize("order", [0, 2])
    @pytest.mark.parametrize("slot", range(4))
    def test_phi_terms_converts_every_argument_on_the_call(self, order, slot):
        args = [[frac(3)], [frac(5)], frac(2), frac(7)]
        args[slot] = [object()] if slot < 2 else object()
        for fn in (phi_terms, phi_terms_scalar):
            with pytest.raises(TypeError, match="cannot interpret"):
                fn(*args, order)

    def test_hyper_f(self):
        rng = random.Random(1202)
        poles = 0
        for _ in range(400):
            n = rng.randint(0, 7)
            numerators = [rand_scalar(rng) for _ in range(rng.randint(0, 3))]
            numerators.insert(rng.randint(0, len(numerators)), frac(-n))
            # -j as a denominator parameter vanishes at k = j
            denominators = [rng.choice([rand_scalar(rng), frac(-rng.randint(0, 6))]) for _ in range(rng.randint(0, 3))]
            z = rand_scalar(rng)
            poles += raised(agree(hyper_f, hyper_f_scalar, numerators, denominators, z))
            agree(hyper_f, hyper_f_scalar, [frac(1, 2)] + numerators[1:2], denominators, z)
        assert poles > 40


class TestAskeyWilson:
    def test_recurrence_on_grid(self):
        # Every degree up to 5 over the grid, including the 29 sets that stop at
        # the k = 0 C guard and the 155 that stop at the k = 0 B-division guard.
        stops = {}
        for p in aw_grid():
            for n in range(6):
                got = agree(askey_wilson_values, askey_wilson_values_scalar, n, p)
            if raised(got):
                stops[got[2]] = stops.get(got[2], 0) + 1
        assert stops["C at n=0"] == 29
        assert stops["B division at n=0"] == 155

    def test_recurrence_with_complex_and_negative_parameters(self):
        rng = random.Random(1203)
        poles = 0
        for _ in range(300):
            q = rng.choice(QS) if rng.random() < 0.3 else rand_q(rng)
            a, b, c, x = (rand_scalar(rng) for _ in range(4))
            d = rng.choice([rand_scalar(rng), q ** rng.randint(-3, 3) / (a * b * c or ONE), q ** rng.randint(-3, 1) / (a or ONE)])
            p = AWParams(a, b, c, d, q, x)
            got = agree(askey_wilson_values, askey_wilson_values_scalar, 6, p)
            poles += raised(got)
        assert poles > 20

    def test_hypergeometric_form(self):
        rng = random.Random(1204)
        grid = list(itertools.islice(aw_grid(), 0, None, 7))
        samples = [AWParams(*(rand_scalar(rng) for _ in range(4)), rand_q(rng), rand_scalar(rng)) for _ in range(150)]
        poles = 0
        for p in grid + samples + [AWParams(ONE, frac(2), frac(3), frac(5), q, I) for q in QS]:
            for n in range(-2, 6):
                poles += raised(agree(askey_wilson, askey_wilson_scalar, n, p))
        assert poles > 100

    def test_hypergeometric_form_guards_the_q_factor(self):
        # 1 - q^k vanishes first at k = 2 for q = -1 and at k = 4 for q = +-i.
        for q, k in ((-ONE, 2), (I, 4), (-I, 4)):
            p = AWParams(ONE, frac(2), frac(3), frac(5), q, frac(1, 2))
            for n in range(k + 2):
                got = agree(askey_wilson, askey_wilson_scalar, n, p)
                if n < k:
                    assert not raised(got)
                else:
                    assert got[0] is PoleError and got[2] == f"(q;q) at k={k}"


class TestMoments:
    def test_up_and_down_with_poles(self):
        poles = 0
        for q in QS:
            params = [(a, b) for a in SCALARS[1:8:2] + [I, q**-2] for b in (ZERO, frac(3), gq(1, -2), q**-3)]
            params += [(a, q ** -j / a) for a in (frac(2), I) for j in (2, 4)]
            for a, b in params:
                for lo in range(-4, 5):
                    for hi in range(lo - 1, 7):
                        poles += raised(agree(moments, moments_scalar, lo, hi, a, b, q))
        assert poles > 1000


# -- every emitted value is canonical ------------------------------------------

small = st.builds(
    lambda re, im, den: GaussianRational(Fraction(re, den), Fraction(im, den)),
    st.integers(-12, 12), st.one_of(st.just(0), st.integers(-12, 12)), st.integers(1, 12),
)


def canonical(z):
    return type(z) is GaussianRational and z._d > 0 and gcd(z._r, z._i, z._d) == 1


@settings(max_examples=150, deadline=None)
@given(small, small, small, small.filter(lambda q: q and q != ONE))
def test_every_emitted_value_is_canonical(a, b, x, q):
    calls = [
        lambda: q_pochhammers(a, q, -3, 6).values(),
        lambda: q_pochhammer_tails(a, q, 6),
        lambda: [q_pochhammer(a, q, -3), rising_factorial(a, -3), rising_factorial(a, 5)],
        lambda: rising_factorials(a, -4, 6).values(),
        lambda: phi_terms([a, b, q**-5], [x], q, b, 5),
        lambda: [terminating_phi([a, b, q**-5], [x, q], q, x, 5)],
        lambda: [hyper_f([frac(-4), a], [x], b)],
        lambda: askey_wilson_values(5, AWParams(a, b, x, q, q, x)).values(),
        lambda: [askey_wilson(5, AWParams(a, b, x, q, q, x))],
        lambda: moments(-3, 6, a, b, q).values(),
    ]
    for call in calls:
        try:
            values = list(call())
        except (PoleError, ZeroDivisionError):
            continue
        assert all(canonical(v) for v in values), values
