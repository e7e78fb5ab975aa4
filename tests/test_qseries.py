"""q-shifted factorials, q-binomials, and terminating hypergeometric sums."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdetlab import NonTerminatingSeriesError, ONE, PoleError, ZERO, GaussianRational, to_gq
from qdetlab.identities.builders import moments
from qdetlab.orthopoly import AWParams, askey_wilson, askey_wilson_values
from qdetlab.qseries import (
    hyper_f,
    phi_terms,
    q_binomials,
    q_pochhammer,
    q_pochhammer_multi,
    q_pochhammer_tails,
    q_pochhammers,
    rising_factorial,
    rising_factorials,
    terminating_phi,
    very_well_poised,
)
from helpers import (
    QS,
    SCALARS,
    agree,
    canonical,
    frac,
    outcome,
    raised,
    rand_rational,
    rand_rational_q,
    rand_q,
    rand_scalar,
    until_clean,
)


def q_pochhammer_reference(a, q, n):
    """(a;q)_n as the product of its factors; the reciprocal one for negative n."""
    result = ONE
    if n >= 0:
        for k in range(n):
            result = result * (ONE - a * q**k)
        return result
    for k in range(1, -n + 1):
        factor = ONE - a * q ** (-k)
        if not factor:
            raise PoleError(
                "vanishing factor in negative-index q-shifted factorial", f"(a;q)_{n} at k={k}"
            )
        result = result / factor
    return result


def rising_factorial_reference(a, n):
    """(a)_n as the product of its factors; the reciprocal one for negative n."""
    result = ONE
    if n >= 0:
        for k in range(n):
            result = result * (a + k)
        return result
    for k in range(1, -n + 1):
        factor = a - k
        if not factor:
            raise PoleError("vanishing factor in negative-index rising factorial", f"(a)_{n} at k={k}")
        result = result / factor
    return result


# The series loops with one scalar per operation: the second path of
# phi_terms, terminating_phi and hyper_f, which run on unreduced triples.


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
        if a._d == 1 and a._r <= 0 and (n is None or -a._r < n):
            n = -a._r
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


def assert_table_matches_per_index(table, reference, args, lo_min, hi_max):
    """Every range lo_min <= lo <= hi + 1 <= hi_max + 1 of table(*args, lo, hi)
    against per-index reference(*args, m) calls: the values in index order
    or, when a call in the range raises, what the call at lo raises.  Returns
    the number of ranges that raised and the indices at which a call raised."""
    per_index = {m: outcome(reference, *args, m) for m in range(lo_min, hi_max + 1)}
    pole_indices = {m for m, v in per_index.items() if raised(v)}
    ranges_raised = 0
    for lo in range(lo_min, hi_max + 1):
        for hi in range(lo - 1, hi_max + 1):
            got = outcome(table, *args, lo, hi)
            if pole_indices.intersection(range(lo, hi + 1)):
                # poles are downward-closed: the range raises as its lowest index does
                assert lo in pole_indices and got == per_index[lo], (args, lo, hi)
                ranges_raised += 1
            else:
                assert got == [(m, per_index[m]) for m in range(lo, hi + 1)], (args, lo, hi)
    return ranges_raised, pole_indices


class TestTables:
    def test_q_pochhammers_match_per_index_products_and_poles(self):
        pole_indices = set()
        for q in (frac(2), frac(-2), frac(1, 3), frac(-3, 4), frac(3, 2)):
            for a in (ZERO, ONE, -ONE, frac(3, 5), frac(-5, 2), q, q * q, q**3):
                pole_indices |= assert_table_matches_per_index(q_pochhammers, q_pochhammer_reference, (a, q), -3, 4)[1]
        # a = q^k puts a pole at every index up to -k
        assert pole_indices == {-3, -2, -1}

    def test_q_pochhammers_match_per_index_products_at_negative_and_unit_bases(self):
        # a = q^j puts a pole at every index up to -j
        ranges_raised = 0
        for q in QS:
            for a in SCALARS + [q**j for j in range(-3, 4)]:
                ranges_raised += assert_table_matches_per_index(q_pochhammers, q_pochhammer_reference, (a, q), -4, 5)[0]
        # -1 is the only root of unity among rational bases (it alone gives 278)
        assert ranges_raised > 900

    def test_rising_factorials_match_per_index_products_and_poles(self):
        pole_indices = set()
        for a in (ZERO, ONE, frac(2), frac(3), -ONE, frac(1, 2), frac(-5, 2), frac(7, 3)):
            pole_indices |= assert_table_matches_per_index(rising_factorials, rising_factorial_reference, (a,), -3, 4)[1]
        assert pole_indices == {-3, -2, -1}

    def test_rising_factorials_match_per_index_products_at_negative_and_integer_parameters(self):
        ranges_raised = 0
        for a in SCALARS + [frac(k) for k in (3, -3, -4)] + [frac(5, 2), frac(-7, 2), frac(-9, 4)]:
            ranges_raised += assert_table_matches_per_index(rising_factorials, rising_factorial_reference, (a,), -5, 6)[0]
        assert ranges_raised > 50

    def test_single_index_reads_agree_with_tables(self):
        for m in range(-3, 5):
            agree(q_pochhammer, q_pochhammer_reference, frac(3, 5), frac(2), m)
            agree(rising_factorial, rising_factorial_reference, frac(2), m)

    def test_single_index_reads_match_per_index_products_at_negative_and_unit_bases(self):
        for q in QS:
            for a in SCALARS + [q**j for j in range(-3, 4)]:
                for n in range(-4, 6):
                    agree(q_pochhammer, q_pochhammer_reference, a, q, n)
                    agree(rising_factorial, rising_factorial_reference, a, n)
                assert q_pochhammer_multi((a, q, -ONE), q, 3) == (
                    q_pochhammer_reference(a, q, 3) * q_pochhammer_reference(q, q, 3) * q_pochhammer_reference(-ONE, q, 3)
                )

    def test_q_pochhammer_tails_are_the_last_factors(self):
        for q in (frac(2), frac(-1, 3), frac(3, 2)):
            for a in (ZERO, ONE, frac(3, 5), q**-2, frac(-5, 2)):
                for n in range(0, 6):
                    expected = [q_pochhammer_reference(a * q ** (n - t), q, t) for t in range(n + 1)]
                    assert q_pochhammer_tails(a, q, n) == expected

    def test_q_pochhammer_tails_match_per_index_products_at_negative_and_unit_bases(self):
        for q in QS:
            for a in SCALARS + [q**j for j in range(-3, 4)]:
                for n in range(7):
                    expected = [q_pochhammer_reference(a * q ** (n - t), q, t) for t in range(n + 1)]
                    assert q_pochhammer_tails(a, q, n) == expected

    def test_empty_range(self):
        assert q_pochhammers(frac(2), frac(3), 2, 1) == {}
        assert rising_factorials(frac(2), 0, -1) == {}


class TestQPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(frac(5, 7), 3, 0) == ONE

    def test_direct_product(self):
        assert q_pochhammer(3, 2, 2) == frac(10)

    def test_negative_index_reciprocal(self):
        assert q_pochhammer(3, 2, -1) == frac(-2)

    def test_negative_index_pole_names_k(self):
        # 1 - a q^{-2} = 0 for a = 4, q = 2
        with pytest.raises(PoleError) as exc:
            q_pochhammer(4, 2, -3)
        assert "k=2" in str(exc.value)

    def test_cocycle_on_random_samples(self):
        rng = random.Random(101)
        for _ in range(60):
            a, q = rand_scalar(rng), rand_q(rng)
            m, n = rng.randint(-4, 4), rng.randint(-4, 4)
            try:
                lhs = q_pochhammer(a, q, m + n)
                rhs = q_pochhammer(a, q, m) * q_pochhammer(a * q**m, q, n)
            except PoleError:
                continue
            assert lhs == rhs

    def test_multi_parameter_shorthand(self):
        rng = random.Random(7)
        a, b, q = rand_scalar(rng), rand_scalar(rng), rand_q(rng)
        assert q_pochhammer_multi((a, b), q, 3) == q_pochhammer(a, q, 3) * q_pochhammer(b, q, 3)


class TestQNumbers:
    def test_q_binomial_edges(self):
        assert q_binomials(frac(4, 3), 5)(5, 0) == ONE
        assert q_binomials(frac(4, 3), 3)(3, 5) == ZERO
        assert q_binomials(frac(4, 3), 3)(3, -1) == ZERO

    def test_q_binomial_value(self):
        assert q_binomials(2, 4)(4, 2) == frac(35)

    def test_q_binomial_symmetry(self):
        rng = random.Random(33)
        for _ in range(25):
            q = rand_q(rng)
            n = rng.randint(0, 9)
            k = rng.randint(0, n)
            binomial = q_binomials(q, n)
            assert binomial(n, k) == binomial(n, n - k)

    def test_q_binomial_theorem(self):
        # sum_k (-1)^k x^k q^{k(k-1)/2} [n,k]_q == (x;q)_n
        rng = random.Random(55)
        for _ in range(20):
            x, q = rand_scalar(rng), rand_q(rng)
            n = rng.randint(0, 12)
            binomial = q_binomials(q, n)
            total = ZERO
            for k in range(n + 1):
                sign = ONE if k % 2 == 0 else -ONE
                total = total + sign * x**k * q ** (k * (k - 1) // 2) * binomial(n, k)
            assert total == q_pochhammer(x, q, n)


class TestRisingFactorial:
    def test_empty(self):
        assert rising_factorial(frac(9, 2), 0) == ONE

    def test_value(self):
        assert rising_factorial(3, 4) == frac(360)

    def test_zero_factor(self):
        assert rising_factorial(-2, 4) == ZERO

    def test_negative_index(self):
        # (a)_{-2} = 1/((a-1)(a-2))
        assert rising_factorial(5, -2) == frac(1, 12)
        assert rising_factorial(5, -2) * rising_factorial(3, 2) == ONE

    def test_negative_index_pole(self):
        with pytest.raises(PoleError):
            rising_factorial(2, -3)


class TestPhi:
    def test_numerator_one_truncates_immediately(self):
        assert terminating_phi([1, frac(3, 2)], [frac(5)], frac(2), frac(7), order=0) == ONE

    def test_chu_vandermonde_two_term(self):
        # 2-phi-1 with a=3, q^{-1}; c=5 at q=2, z=2
        q = frac(2)
        value = terminating_phi([3, q**-1], [5], q, 2, order=1)
        assert value == frac(1, 2)
        a, c = frac(3), frac(5)
        rhs = q_pochhammer(c / a, q, 1) * a / q_pochhammer(c, q, 1)
        assert value == rhs

    def test_declared_order_sums_three_terms(self):
        q = frac(2)
        total = ONE
        term = ONE
        for k in range(2):
            term = (
                term
                * (ONE - q**-2 * q**k)
                * (ONE - 3 * q**k)
                / ((ONE - q ** (k + 1)) * (ONE - 5 * q**k))
                * frac(1, 3)
            )
            total = total + term
        assert terminating_phi([q**-2, frac(3)], [frac(5)], q, frac(1, 3), order=2) == total

    def test_q_chu_vandermonde_identity(self):
        # 2-phi-1(a, q^{-n}; c; q, q) == (c/a;q)_n a^n / (c;q)_n
        rng = random.Random(77)
        for _ in range(24):
            a, c, q = rand_scalar(rng), rand_scalar(rng), rand_q(rng)
            n = rng.randint(0, 8)
            try:
                lhs = terminating_phi([a, q**-n], [c], q, q, order=n)
                rhs = q_pochhammer(c / a, q, n) * a**n / q_pochhammer(c, q, n)
            except (PoleError, ZeroDivisionError):
                continue
            assert lhs == rhs

    def test_non_terminating_rejected(self):
        # no numerator is a power q**(-n), so every declared order is refused
        for order in (0, 1, 2, 5):
            with pytest.raises(NonTerminatingSeriesError):
                terminating_phi([frac(3)], [frac(5)], frac(2), frac(1), order=order)

    def test_denominator_pole_inside_range(self):
        q = frac(2)
        # denominator parameter q^{-1} makes (b;q)_k vanish at k = 2
        with pytest.raises(PoleError):
            terminating_phi([q**-3], [q**-1], q, q, order=3)

    def test_declared_order_must_match(self):
        with pytest.raises(ValueError):
            terminating_phi([frac(3)], [frac(5)], frac(2), frac(1), order=2)


class TestPhiTerms:
    def test_order_zero(self):
        assert phi_terms([frac(3), frac(4)], [frac(5)], frac(2), ONE, 0) == [ONE]

    def test_order_one_formula(self):
        assert phi_terms([frac(3), frac(4)], [frac(5)], frac(2), ONE, 1)[1] == frac(3, 2)

    def test_matches_definition(self):
        rng = random.Random(11)
        q = rand_q(rng)
        a, b, c, z = (rand_scalar(rng) for _ in range(4))
        order = 6
        terms = phi_terms([a, b], [c], q, z, order)
        assert len(terms) == order + 1
        for k, term in enumerate(terms):
            expected = q_pochhammer_multi((a, b), q, k) * z**k / (
                q_pochhammer(q, q, k) * q_pochhammer(c, q, k)
            )
            assert term == expected
        # (c;q)_3 = 0 at c = q^{-2}: the first pole is term 3
        with pytest.raises(PoleError, match="denominator parameter 1 at k=3"):
            phi_terms([a, b], [q**-2], q, z, 3)
        assert len(phi_terms([a, b], [q**-2], q, z, 2)) == 3
        # (q;q)_2 = 0 at q = -1
        with pytest.raises(PoleError, match=r"\(q;q\) factor in series \[k=2\]"):
            phi_terms([a, b], [c], -ONE, z, 2)

    def test_phi_terms_and_terminating_phi_match_scalar_loops(self):
        rng = random.Random(1201)
        poles = 0
        for _ in range(400):
            q = rng.choice(QS) if rng.random() < 0.3 else rand_rational_q(rng)
            order = rng.randint(0, 6)
            numerators = [rand_rational(rng) for _ in range(rng.randint(0, 3))]
            numerators.insert(rng.randint(0, len(numerators)), q**-order)
            # q^{-j} as a denominator parameter vanishes at k = j + 1
            denominators = [rng.choice([rand_rational(rng), q ** -rng.randint(0, 5)]) for _ in range(rng.randint(0, 3))]
            z = rand_rational(rng)
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


class TestVeryWellPoised:
    def test_tail_containing_one_truncates(self):
        rng = random.Random(5)
        s = rand_scalar(rng)
        assert very_well_poised(s, [1, frac(3)], frac(2), frac(7), order=0) == ONE

    def test_matches_phi_construction(self):
        rng = random.Random(6)
        for _ in range(10):
            s, q = rand_scalar(rng), rand_q(rng)
            n = rng.randint(0, 3)
            tail = [rand_scalar(rng), rand_scalar(rng), q**-n]
            z = rand_scalar(rng)
            a1 = s * s
            direct = terminating_phi(
                [a1, q * s, -(q * s), *tail],
                [s, -s, *[q * a1 / t for t in tail]],
                q,
                z,
                order=n,
            )
            assert very_well_poised(s, tail, q, z, order=n) == direct

    def test_two_term_hand_sum(self):
        # 8-W-7 terminating with q^{-1}: 1 + explicit k=1 term
        s, q, z = frac(3, 2), frac(2), frac(5, 7)
        b, c, d, e = frac(2), frac(3), frac(5), frac(7)
        a1 = s * s
        tail = [b, c, d, e, q**-1]
        num = ONE
        for u in (a1, q * s, -(q * s), *tail):
            num = num * (ONE - u)
        den = ONE - q
        for u in (s, -s, *[q * a1 / t for t in tail]):
            den = den * (ONE - u)
        assert very_well_poised(s, tail, q, z, order=1) == ONE + num * z / den

    def test_watson_transformation(self):
        # terminating 8-W-7 equals the balanced 4-phi-3 with the printed prefactor
        rng = random.Random(99)

        def attempt():
            s, q = rand_scalar(rng), rand_q(rng)
            b, c, d, e = (rand_scalar(rng) for _ in range(4))
            n = rng.randint(0, 6)
            a = s * s
            z = a * a * q ** (n + 2) / (b * c * d * e)
            lhs = very_well_poised(s, [b, c, d, e, q**-n], q, z, order=n)
            pre = (
                q_pochhammer(a * q, q, n)
                * q_pochhammer(a * q / (d * e), q, n)
                / (q_pochhammer(a * q / d, q, n) * q_pochhammer(a * q / e, q, n))
            )
            rhs = pre * terminating_phi(
                [q**-n, d, e, a * q / (b * c)],
                [a * q / b, a * q / c, d * e * q**-n / a],
                q,
                q,
                order=n,
            )
            assert lhs == rhs

        until_clean(12, attempt, (PoleError, ZeroDivisionError))


class TestHyperF:
    def test_zero_numerator_gives_one(self):
        assert hyper_f([0, frac(7, 2)], [frac(3)], frac(5)) == ONE

    def test_two_term_2f1_at_unit_argument(self):
        beta, gamma = frac(3, 4), frac(7, 5)
        assert hyper_f([-1, beta], [gamma], 1) == (gamma - beta) / gamma

    def test_termination_after_n_plus_one_terms(self):
        # numerator -n sums k = 0..n; check against direct evaluation
        alpha, beta = frac(2, 3), frac(5, 2)
        n = 3
        total = ZERO
        for k in range(n + 1):
            total = total + (
                rising_factorial(-n, k)
                * rising_factorial(alpha, k)
                / (rising_factorial(beta, k) * rising_factorial(1, k))
            )
        assert hyper_f([-n, alpha], [beta], 1) == total

    def test_non_terminating_rejected(self):
        with pytest.raises(NonTerminatingSeriesError):
            hyper_f([frac(1, 2)], [frac(3)], 1)

    def test_denominator_pole_named(self):
        with pytest.raises(PoleError) as exc:
            hyper_f([-4, frac(1, 2)], [-2], 1)
        assert "denominator parameter 1" in str(exc.value)

    def test_matches_scalar_loop(self):
        rng = random.Random(1202)
        poles = 0
        for _ in range(400):
            n = rng.randint(0, 7)
            numerators = [rand_rational(rng) for _ in range(rng.randint(0, 3))]
            numerators.insert(rng.randint(0, len(numerators)), frac(-n))
            # -j as a denominator parameter vanishes at k = j
            denominators = [rng.choice([rand_rational(rng), frac(-rng.randint(0, 6))]) for _ in range(rng.randint(0, 3))]
            z = rand_rational(rng)
            poles += raised(agree(hyper_f, hyper_f_scalar, numerators, denominators, z))
            agree(hyper_f, hyper_f_scalar, [frac(1, 2)] + numerators[1:2], denominators, z)
        assert poles > 40


# The series, recurrence and moment loops of qseries, orthopoly and builders
# reduce once per value they emit; every emitted value must be in lowest terms.

small = st.builds(
    lambda num, den: GaussianRational(Fraction(num, den)), st.integers(-12, 12), st.integers(1, 12)
)


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
