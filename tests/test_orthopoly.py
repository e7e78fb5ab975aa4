"""Orthogonal-polynomial evaluators: cross-path agreement and closed forms."""

import itertools
import math
import random

import pytest

from qdetlab import ONE, PoleError, ZERO, to_gq
from qdetlab.gaussian import TWO
from qdetlab.orthopoly import (
    AWParams,
    andrews_rhs,
    askey_wilson,
    askey_wilson_values,
    continuous_hahn,
    mehta_wang_d,
    nishizawa_d,
    wilson,
)
from qdetlab.identities import REGISTRY, ParamPoint, checks_determinants, run_check
from qdetlab.identities.runner import PASS
from qdetlab.qseries import hyper_f, rising_factorial
from helpers import (
    I_REF,
    QS,
    QQi,
    agree,
    agree_at_unit,
    at_unit,
    aw_grid,
    aw_values_reference,
    frac,
    outcome,
    raised,
    rand_rational,
    rand_rational_q,
    rand_q,
    rand_scalar,
    until_clean,
)


def evaluate(check_id, n, **params):
    return REGISTRY[check_id].evaluate(ParamPoint(**params), n)


def assert_agree(comparisons):
    for label, lhs, rhs in comparisons:
        assert lhs == rhs, label


def rand_aw(rng):
    return AWParams(*(rand_scalar(rng) for _ in range(4)), rand_q(rng), rand_scalar(rng))


def al_salam_chihara_reference(n, x, a, b, q):
    """Q_n(x; a, b | q) by the Al-Salam-Chihara recurrence (Koekoek, Lesky and
    Swarttouw, 14.8.4): Q_{k+1} = (2x - (a + b) q^k) Q_k - (1 - q^k)(1 - ab q^{k-1}) Q_{k-1}."""
    prev, cur = ZERO, ONE
    for k in range(n):
        prev, cur = cur, (2 * x - (a + b) * q**k) * cur - (ONE - q**k) * (ONE - a * b * q ** (k - 1)) * prev
    return cur


def askey_wilson_scalar(n, p):
    """p_n by the 4-phi-3 form with one scalar per operation: the second path
    of askey_wilson, which runs on unreduced pairs.  Written with scalar
    operators only, so that it also runs over QQ(i) on QQi parameters."""
    if n == -1:
        return ZERO
    if n < -1:
        raise ValueError("degree must be >= -1")
    a, q = p.a, p.q
    if not a:
        raise PoleError("basic hypergeometric form requires a nonzero leading parameter", "a=0")
    ab, ac, ad = a * p.b, a * p.c, a * p.d
    prefactor = a ** (-n)
    for u in (ab, ac, ad):
        for k in range(n):
            prefactor = prefactor * (ONE - u * q**k)
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


class TestAskeyWilson:
    def test_degree_zero_and_minus_one(self):
        p = rand_aw(random.Random(1))
        assert askey_wilson_values(0, p)[0] == ONE
        assert askey_wilson(0, p) == ONE
        assert askey_wilson(-1, p) == ZERO
        with pytest.raises(ValueError):
            askey_wilson(-2, p)

    def test_methods_agree(self):
        rng = random.Random(2)

        def attempt():
            p = rand_aw(rng)
            n = rng.randint(1, 8)
            assert askey_wilson_values(n, p)[n] == askey_wilson(n, p)

        until_clean(10, attempt)

    def test_parameter_permutation_symmetry(self):
        rng = random.Random(3)

        def attempt():
            p = rand_aw(rng)
            n = rng.randint(1, 4)
            values = {
                askey_wilson(n, AWParams(a, b, c, d, p.q, p.x))
                for a, b, c, d in itertools.permutations((p.a, p.b, p.c, p.d))
            }
            assert len(values) == 1

        until_clean(3, attempt)

    def test_complex_parameters(self):
        # At s = -1 both evaluators stand for the imaginary parameters i a,
        # -i a, i c, i d at i x, and give the same r_3.
        rng = random.Random(4)

        def attempt():
            a = rand_scalar(rng)
            p = AWParams(a, -a, rand_scalar(rng), rand_q(rng), rand_q(rng), rand_scalar(rng))
            assert askey_wilson_values(3, p, -1)[3] == askey_wilson(3, p, -1)

        until_clean(5, attempt)

    def test_values_match_printed_coefficients_on_grid(self):
        # Values, exception types and messages agree with the printed
        # coefficients, poles and the a = 0 guard included: at degree 5 over
        # the whole grid, and at every degree up to 5 over a fifth of it.
        poles = 0
        for idx, p in enumerate(aw_grid()):
            for n in range(6) if idx % 5 == 0 else (5,):
                expected = outcome(aw_values_reference, n, p)
                assert outcome(askey_wilson_values, n, p) == expected, (p, n)
            poles += raised(expected)
        assert poles > 300

    def test_values_match_printed_coefficients_at_every_degree_on_grid(self):
        # Values, exception classes, messages and locations at every degree up
        # to 5 over the whole grid.  Where no step raises, the reference values
        # to degree n are the first of those to degree 5.
        stops = {}
        for p in aw_grid():
            top = outcome(aw_values_reference, 5, p)
            for n in range(6):
                expected = outcome(aw_values_reference, n, p) if raised(top) else top[: n + 2]
                assert outcome(askey_wilson_values, n, p) == expected, (p, n)
            if raised(top):
                stops[top[2]] = stops.get(top[2], 0) + 1
        # C_0 drops out of step 0, so only the A denominator can stop it
        assert [stop for stop in stops if stop.endswith("n=0")] == ["A at n=0"]
        assert stops == {
            "a=0": 165, "A at n=0": 75, "A at n=1": 40, "A at n=2": 6,
            "B division at n=1": 211, "B division at n=2": 70, "B division at n=3": 24,
        }

    def test_recurrence_with_complex_and_negative_parameters(self):
        # At s = -1 the recurrence gives r_k, where i^k r_k is the value at
        # the imaginary parameters i a, i b, i c, i d and i x: the printed
        # coefficients over QQ(i) raise the same poles, with the same
        # messages, or give i^k r_k at every degree.  At s = 1 the parameters
        # are the real ones.  d = q^j / abc makes abcd a power of q, and
        # d = -q^j / a makes the complex ad = -ad one.
        rng = random.Random(1203)
        poles = 0
        for trial in range(300):
            q = rng.choice(QS) if rng.random() < 0.3 else rand_rational_q(rng)
            a, b, c, x = (rand_rational(rng) for _ in range(4))
            d = rng.choice([rand_rational(rng), q ** rng.randint(-3, 3) / (a * b * c or ONE), -(q ** rng.randint(-3, 1)) / (a or ONE)])
            s = -1 if trial % 4 else 1
            poles += raised(agree_at_unit(askey_wilson_values, aw_values_reference, 6, AWParams(a, b, c, d, q, x), s))
        assert poles > 20

    def test_vanishing_a_numerator_is_caught_by_an_earlier_denominator(self):
        # abcd q^{k-1} = 1 zeroes the numerator of A at step k, but the same
        # factor is in the A denominator at step ceil((k-1)/2) <= k, so both
        # paths raise there, before the reference's vanishing-A guard.
        rng = random.Random(14)
        for k in range(7):
            for _ in range(12):
                a, b, c = (rand_scalar(rng) for _ in range(3))
                q = rand_q(rng)
                p = AWParams(a, b, c, q ** (1 - k) / (a * b * c), q, rand_scalar(rng))
                for n in range(k + 2):
                    assert outcome(askey_wilson_values, n, p) == outcome(aw_values_reference, n, p), (p, n)
                got = outcome(askey_wilson_values, k + 1, p)
                assert got[0] is PoleError and "vanishing recurrence denominator" in got[1]

    def test_values_match_hypergeometric_form_on_grid(self):
        compared = 0
        for p in itertools.islice(aw_grid(), 0, None, 2):
            try:
                values = askey_wilson_values(5, p)
            except PoleError:
                continue
            for deg in range(6):
                try:
                    hyp = askey_wilson(deg, p)
                except PoleError:
                    continue
                assert values[deg] == hyp, (p, deg)
                compared += 1
        assert compared > 500

    def test_hypergeometric_form_matches_scalar_loop(self):
        rng = random.Random(1204)
        grid = list(itertools.islice(aw_grid(), 0, None, 7))
        samples = [
            AWParams(*(rand_rational(rng) for _ in range(4)), rand_rational_q(rng), rand_rational(rng))
            for _ in range(150)
        ]
        poles = 0
        for p in grid + samples + [AWParams(ONE, frac(2), frac(3), frac(5), q, frac(-3, 2)) for q in QS]:
            for n in range(-2, 6):
                poles += raised(agree(askey_wilson, askey_wilson_scalar, n, p))
        assert poles > 100

    def test_hypergeometric_form_at_imaginary_parameters_matches_the_qqi_form(self):
        # At s = -1 the 4-phi-3 gives r_n, where i^n r_n is the 4-phi-3 over
        # QQ(i) at i a, i b, i c, i d and i x: the same poles or the same value.
        # d = q^j / abc and d = -q^j / a put poles in the (q;q), (ad;q) and
        # abcd factors.
        rng = random.Random(1205)
        poles = compared = 0
        for _ in range(150):
            q = rng.choice(QS) if rng.random() < 0.3 else rand_rational_q(rng)
            a, b, c, x = (rand_rational(rng) for _ in range(4))
            d = rng.choice([rand_rational(rng), q ** rng.randint(-3, 3) / (a * b * c or ONE), -(q ** rng.randint(-3, 1)) / (a or ONE)])
            for n in range(-1, 6):
                got = agree_at_unit(askey_wilson, askey_wilson_scalar, n, AWParams(a, b, c, d, q, x))
                poles += raised(got)
                compared += not raised(got)
        assert poles > 50 and compared > 500

    def test_hypergeometric_form_guards_the_q_factor(self):
        # 1 - q^k vanishes first at k = 2 for q = -1.
        for q, k in ((-ONE, 2),):
            p = AWParams(ONE, frac(2), frac(3), frac(5), q, frac(1, 2))
            for n in range(k + 2):
                got = agree(askey_wilson, askey_wilson_scalar, n, p)
                if n < k:
                    assert not raised(got)
                else:
                    assert got[0] is PoleError and got[2] == f"(q;q) at k={k}"

    def test_values_start_at_minus_one(self):
        p = rand_aw(random.Random(12))
        assert askey_wilson_values(0, p) == {-1: ZERO, 0: ONE}
        values = askey_wilson_values(4, p)
        assert list(values) == [-1, 0, 1, 2, 3, 4]
        assert values[4] == askey_wilson(4, p)
        with pytest.raises(ValueError):
            askey_wilson_values(-1, p)

    def test_guard_rejects_vanishing_division(self):
        # ab q^{n-1} = 1 at n = 1 makes the printed middle-coefficient division vanish
        p = AWParams(*map(to_gq, (2, frac(1, 2), 3, 5, frac(1, 7), 1)))
        with pytest.raises(PoleError):
            askey_wilson_values(2, p)

    def test_step_zero_has_no_c_term(self):
        # conjecture_mw3's first candidate at seed 42, trial 0: ac = q zeroes
        # the (ab, ac, ad) pair at k = 0, where only C_0 = 0 would divide by it.
        p = AWParams(ONE, frac(5, 9), frac(-2, 3), frac(1, 2), frac(-2, 3), -ONE)
        values = askey_wilson_values(6, p)
        assert values[1] == frac(-118, 27)
        for n in range(7):
            assert values[n] == askey_wilson(n, p), n


class TestAlSalamChihara:
    """Al-Salam-Chihara is Askey-Wilson at c = d = 0, evaluated by its recurrence."""

    def test_degree_zero(self):
        p = AWParams(frac(2), frac(3), ZERO, ZERO, frac(1, 2), ONE)
        assert askey_wilson_values(0, p) == {-1: ZERO, 0: ONE}
        with pytest.raises(ValueError, match="degree must be >= 0"):
            askey_wilson_values(-1, p)

    def test_degree_one_recurrence_step(self):
        x, a, b = frac(5, 7), frac(2, 3), frac(3)
        q = frac(2)
        assert askey_wilson_values(1, AWParams(a, b, ZERO, ZERO, q, x))[1] == 2 * x - (a + b)

    def test_recurrence_and_series_agree(self):
        rng = random.Random(5)

        def attempt():
            x, a, b, q = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng), rand_q(rng)
            n = rng.randint(1, 4)
            p = AWParams(a, b, ZERO, ZERO, q, x)
            assert askey_wilson_values(n, p)[n] == askey_wilson(n, p)

        until_clean(8, attempt)

    def test_equals_askey_wilson_with_trailing_zeros(self):
        # Random real points, and nishizawa's (st i, -(t/s) i) at x = 0, read
        # at s = -1 as i^n times the value and checked over QQ(i).
        rng = random.Random(6)
        s, t = frac(2, 3), frac(3, 5)
        points = [(ZERO, s * t, -(t / s), frac(2), -1)]
        points += [(rand_scalar(rng), rand_scalar(rng), rand_scalar(rng), rand_q(rng), 1) for _ in range(8)]
        for x, a, b, q, unit_sq in points:
            values = askey_wilson_values(6, AWParams(a, b, ZERO, ZERO, q, x), unit_sq)
            xu, au, bu, u = at_unit(unit_sq, x, a, b, 1)
            for n in range(7):
                assert u**n * values[n] == al_salam_chihara_reference(n, xu, au, bu, q), (x, a, b, q, n)


class TestAndrews:
    def test_odd_degree_vanishes(self):
        assert andrews_rhs(1, frac(2), frac(3), frac(5)) == ZERO
        assert andrews_rhs(5, frac(2), frac(3), frac(5)) == ZERO

    def test_empty_product(self):
        assert andrews_rhs(0, frac(2), frac(3), frac(5)) == ONE

    def test_closed_form_at_two(self):
        a, b, q = frac(2), frac(3), frac(5)
        expected = -(ONE - q) * (ONE + a * a) * (ONE + b * b) * (ONE - a * a * b * b * q * q)
        assert andrews_rhs(2, a, b, q) == expected

    def test_matches_askey_wilson_at_origin(self):
        rng = random.Random(7)

        def attempt():
            a, b, q = rand_scalar(rng), rand_scalar(rng), rand_q(rng)
            # n >= 1: degree 0 is 1 == 1 whatever the evaluator does
            n = rng.randint(1, 8)
            value = askey_wilson(n, AWParams(a, -a, b, -b, q, ZERO))
            assert value == andrews_rhs(n, a, b, q)

        until_clean(6, attempt)


def continuous_hahn_qqi(n, a, b, c, d):
    """p_n(0; a, b, c, d) over QQ(i): i^n (a+c)_n (a+d)_n / n! times the 3F2
    (-n, n+a+b+c+d-1, a; a+c, a+d; 1), summed term by term up to its last
    nonzero term; a vanishing denominator factor on the way is a pole."""
    total = term = QQi(1)
    for k in range(n):
        num = (k - n) * (n + a + b + c + d - 1 + k) * (a + k)
        if not num:
            break
        den = (a + c + k) * (a + d + k) * (k + 1)
        if not den:
            raise PoleError(
                "nonpositive integer denominator parameter in classical series",
                f"denominator parameter {1 if not a + c + k else 2} at k={k}",
            )
        term = term * num / den
        total = total + term
    return I_REF**n * rising_factorial(a + c, n) * rising_factorial(a + d, n) / math.factorial(n) * total


class TestContinuousHahn:
    def test_degree_zero(self):
        assert continuous_hahn(0, frac(1, 3), frac(1), frac(2), frac(3), frac(4)) == ONE

    def test_degree_one_two_term(self):
        t, a, b, c, d = frac(1, 3), frac(1, 2), frac(2), frac(3), frac(5, 2)
        expected = (a + c) * (a + d) * (
            ONE - (a + b + c + d) * (a + t) / ((a + c) * (a + d))
        )
        assert continuous_hahn(1, t, a, b, c, d) == expected

    def test_degree_two_against_term_sum(self):
        t, a, b, c, d = frac(2, 3), frac(1, 4), frac(3, 2), frac(2), frac(5, 3)
        n = 2
        total = ZERO
        for k in range(n + 1):
            total = total + (
                rising_factorial(-n, k)
                * rising_factorial(a + b + c + d + n - 1, k)
                * rising_factorial(a + t, k)
                / (
                    rising_factorial(a + c, k)
                    * rising_factorial(a + d, k)
                    * math.factorial(k)
                )
            )
        pre = rising_factorial(a + c, n) * rising_factorial(a + d, n) / math.factorial(n)
        assert continuous_hahn(n, t, a, b, c, d) == pre * total

    def test_matches_the_qqi_form_at_argument_zero(self):
        # i^n continuous_hahn(n, 0, ...) is p_n(0; a, b, c, d) over QQ(i), from
        # the 3F2 term by term, which stops where a numerator factor vanishes
        # as the terminating sum does: the same poles or the same value.
        rng = random.Random(9)
        poles = compared = 0
        for _ in range(60):
            a, b, c, d = (rand_rational(rng) for _ in range(4))
            if rng.random() < 0.3:
                c = frac(-rng.randint(0, 3)) - a  # a + c a nonpositive integer
            for n in range(6):
                got = outcome(lambda: I_REF**n * continuous_hahn(n, ZERO, a, b, c, d))
                assert got == outcome(continuous_hahn_qqi, n, a, b, c, d), (a, b, c, d, n)
                poles += raised(got)
                compared += not raised(got)
        assert poles > 10 and compared > 250


class TestWilson:
    def test_degree_zero(self):
        assert wilson(0, frac(1, 2), frac(1), frac(2), frac(3), frac(4)) == ONE

    def test_degree_one_two_term(self):
        t, al, be, ga, de = frac(1, 5), frac(1, 2), frac(2), frac(3), frac(4)
        pre = (al + be) * (al + ga) * (al + de)
        expected = pre * (
            ONE
            - (al + be + ga + de) * (al + t) * (al - t) / ((al + be) * (al + ga) * (al + de))
        )
        assert wilson(1, t, al, be, ga, de) == expected

    def test_root_sign_immaterial(self):
        rng = random.Random(8)

        def attempt():
            t, al, be, ga, de = (rand_scalar(rng) for _ in range(5))
            for n in range(4):
                assert wilson(n, t, al, be, ga, de) == wilson(n, -t, al, be, ga, de)

        until_clean(4, attempt)

    def test_argument_zero_degenerates_to_squared_pair(self):
        al, be, ga, de = frac(1, 2), frac(2), frac(3), frac(4)
        n = 3
        direct = wilson(n, ZERO, al, be, ga, de)
        pre = (
            rising_factorial(al + be, n)
            * rising_factorial(al + ga, n)
            * rising_factorial(al + de, n)
        )
        oracle = pre * hyper_f(
            [-n, al + be + ga + de + n - 1, al, al],
            [al + be, al + ga, al + de],
            1,
        )
        assert direct == oracle


class TestMehtaWangD:
    def test_first_values(self):
        a, b = frac(2, 3), frac(5, 7)
        assert mehta_wang_d(-1, a, b) == ZERO
        assert mehta_wang_d(0, a, b) == ONE
        assert mehta_wang_d(1, a, b) == a
        assert mehta_wang_d(2, a, b) == a * a + b
        with pytest.raises(ValueError, match="index must be >= -1"):
            mehta_wang_d(-2, a, b)

    def test_sum_path_low_orders(self):
        a, b = frac(3, 4), frac(7, 2)
        for n, expected in ((1, a), (0, ONE)):
            sides = {label: rhs for label, _, rhs in evaluate("mehta_wang", n, a=a, b=b)}
            assert sides["D-sequence recurrence vs signed binomial sum"] == expected


class TestNishizawaD:
    def test_first_values(self):
        s, t, q = frac(2, 3), frac(3, 5), frac(2)
        assert nishizawa_d(-1, s, t, q) == ZERO
        assert nishizawa_d(0, s, t, q) == ONE
        s2 = s * s
        assert nishizawa_d(1, s, t, q) == (ONE - s2) / (s2 * (ONE - q))
        with pytest.raises(ValueError, match="index must be >= -1"):
            nishizawa_d(-2, s, t, q)

    def test_one_al_salam_chihara_value_per_evaluation(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return askey_wilson_values(*args, **kwargs)

        monkeypatch.setattr(checks_determinants, "askey_wilson_values", counted)
        comparisons = evaluate("nishizawa", 4, s_half=frac(2, 3), t_half=frac(3, 5), q=frac(2))
        assert_agree(comparisons)
        assert len(comparisons) == 4 and len(calls) == 1

    def test_explicit_sum_pole_is_kept(self):
        # t^2 q^2 = 1.  At n = 2 the factor 1 - t^2 q^2 lies past the 3-phi-2's
        # last term, and the point passes; from n = 3 it divides term 3, and the
        # series rejects the point.  From n = 4 the Askey-Wilson recurrence for
        # Q_n would also divide by it, but the series reports the pole first.
        pt = ParamPoint(s_half=frac(2, 3), t_half=frac(2), q=frac(1, 2))
        assert run_check("nishizawa", 2, pt).status == PASS
        for n in (3, 4):
            with pytest.raises(PoleError, match=r"vanishing denominator factor in series.*parameter 1 at k=3"):
                evaluate("nishizawa", n, s_half=frac(2, 3), t_half=frac(2), q=frac(1, 2))

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(PoleError):
            nishizawa_d(2, 0, 1, 2)
        with pytest.raises(PoleError):
            nishizawa_d(2, frac(1, 2), frac(1, 3), 1)
