"""Structured-matrix builders and the ordered-partition sum."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qdetlab import ExactMatrix, GaussianRational, ONE, PoleError, ZERO, determinant, to_gq
from qdetlab.identities import (
    build_m,
    build_theorem_matrix,
    mehta_wang_matrix,
    moment,
    moment_hankel_rows,
    moments,
    nishizawa_matrix,
    r_values,
    row_factors,
    theorem_matrix_rows,
)
from qdetlab.gaussian import _parts, _reduced
from qdetlab.identities.builders import column_products, l_matrix, u_inverse, u_matrix, x_matrix, y_inverse, y_matrix
from qdetlab.linalg import submatrix
from qdetlab.qseries import q_binomials, q_pochhammer, rising_factorial
from helpers import QS, SCALARS, SPECIAL, SPECIAL_Q, agree, frac, outcome, raised


A, B, C, Q = frac(2, 3), frac(3, 5), frac(5, 7), frac(2)


def moments_scalar(lo, hi, a, b, q):
    """mu_lo..mu_hi by their running quotients with one scalar per operation:
    the second path of moments, which runs on unreduced triples."""
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


class TestMoment:
    def test_zero_index(self):
        assert moment(0, A, B, Q) == ONE

    def test_first_moment(self):
        assert moment(1, A, B, Q) == (ONE - A * Q) / (ONE - A * B * Q * Q)

    def test_vanishing_second_parameter_collapses_denominator(self):
        assert moment(3, A, ZERO, Q) == q_pochhammer(A * Q, Q, 3)

    def test_negative_index(self):
        m = moment(-2, A, B, Q)
        assert m * q_pochhammer(A * B * Q * Q, Q, -2) / q_pochhammer(A * Q, Q, -2) == ONE

    def test_pole_when_denominator_vanishes(self):
        # a b q^2 = 1 makes (abq^2;q)_m vanish for m >= 1
        with pytest.raises(PoleError):
            moment(2, frac(1, 2), frac(1, 2), frac(2))

    def test_sequence_matches_scalar_loop_and_poles(self):
        # Values in index order, and the class, message and location of each
        # pole; the upward pole is raised when both directions have one.
        poles = 0
        for q in QS:
            params = [(a, b) for a in SCALARS[1:8:2] + [frac(-3, 2), q**-2] for b in (ZERO, frac(3), frac(-1, 2), q**-3)]
            params += [(a, q ** -j / a) for a in (frac(2), frac(-3, 2)) for j in (2, 4)]
            for a, b in params:
                for lo in range(-4, 5):
                    for hi in range(lo - 1, 7):
                        poles += raised(agree(moments, moments_scalar, lo, hi, a, b, q))
        assert poles > 1000

    def test_sequence_matches_scalar_loop_at_special_values(self):
        pole_indices = set()
        for a, b, q in itertools.product(SPECIAL, SPECIAL, SPECIAL_Q):
            for lo in range(-2, 4):
                for hi in range(lo, 4):
                    if raised(agree(moments, moments_scalar, lo, hi, a, b, q)) and lo == hi:
                        pole_indices.add(lo)
        # the special values put poles at every index but 0, on both sides of it
        assert pole_indices == {-2, -1, 1, 2, 3}

    def test_empty_range_and_empty_matrices(self):
        assert moments(3, 2, A, B, Q) == {}
        for m in (moment_hankel_rows(range(3, 3), A, B, Q), moment_hankel_rows((), A, B, Q),
                  theorem_matrix_rows((), A, B, C, Q), build_theorem_matrix(0, 1, A, B, C, Q)):
            assert (m.rows, m.cols) == (0, 0)


class TestTheoremMatrix:
    def test_size_one_no_shift(self):
        m = build_theorem_matrix(1, 0, A, B, C, Q)
        assert m.at(1, 1) == ONE - C

    def test_size_one_with_shift(self):
        m = build_theorem_matrix(1, 1, A, B, C, Q)
        assert m.at(1, 1) == (ONE - C) * (ONE - A * Q) / (ONE - A * B * Q * Q)

    def test_skew_at_c_equal_one(self):
        m = build_theorem_matrix(4, 1, A, B, ONE, Q)
        for i in range(1, 5):
            for j in range(1, 5):
                assert m.at(i, j) == -m.at(j, i)

    def test_hankel_is_c_zero_column_scaled(self):
        # the consecutive-row Hankel matrix agrees with the moments directly
        h = moment_hankel_rows(range(3, 6), A, B, Q)
        for i in range(1, 4):
            for j in range(1, 4):
                assert h.at(i, j) == moment(i + j, A, B, Q)


class TestClearedMatrix:
    def test_size_one(self):
        m = build_m([5], A, B, C, Q)
        assert m.at(1, 1) == Q**4 - C

    def test_hand_expansion(self):
        rng = random.Random(13)
        for n in range(6):
            tuples = [tuple(range(1, n + 1)), tuple(range(n, 0, -1))]
            tuples += [tuple(rng.sample(range(-3, 9), n)) for _ in range(3)]
            for k in tuples:
                m = build_m(k, A, B, C, Q)
                assert (m.rows, m.cols) == (n, n)
                for i, ki in enumerate(k, start=1):
                    for j in range(1, n + 1):
                        expected = (
                            (Q ** (ki - 1) - C * Q ** (j - 1))
                            * q_pochhammer(A * Q**ki, Q, j - 1)
                            * q_pochhammer(A * B * Q ** (ki + j), Q, n - j)
                        )
                        assert m.at(i, j) == expected, (k, i, j)

    def test_duplicate_rows_kill_determinant(self):
        m = build_m([3, 3], A, B, C, Q)
        assert determinant(m) == ZERO


class TestTriangulars:
    def test_y_unit_diagonal(self):
        y = y_matrix(5, Q)
        for i in range(1, 6):
            assert y.at(i, i) == ONE

    def test_u_superdiagonal_entry(self):
        u = u_matrix(4, Q)
        assert u.at(1, 2) == -Q

    def test_x_strictly_upper_zero(self):
        x = x_matrix([2, 5, 7, 11], A, Q)
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert x.at(i, j) == ZERO

    def test_x_diagonal_closed_form(self):
        k = [2, 5, 7]
        x = x_matrix(k, A, Q)
        j = 2
        kj = k[j - 1]
        expected = -(
            Q**kj * (ONE - A * Q**kj) * (Q ** k[0] - Q**kj)
        ).reciprocal()
        assert x.at(2, 2) == expected

    def test_l_uses_shifted_parameter(self):
        k = [2, 5]
        n = 2
        l_mat = l_matrix(k, A, B, Q)
        kj = k[0]
        expected = -(Q**kj * (ONE - A * B * Q ** (kj + n - 1))).reciprocal()
        assert l_mat.at(1, 1) == expected

    def test_x_and_l_match_the_per_entry_product(self):
        builders = {"X": lambda k, a, b, q: x_matrix(k, a, q), "L": l_matrix}

        def reference(kind, k, a, b, q):
            n = len(k)
            shift = a if kind == "X" else a * b * q ** (n - 1)

            def entry(i, j):
                if i < j:
                    return ZERO
                qk = q ** k[j - 1]
                prod = qk * (ONE - shift * qk)
                for l in range(1, i + 1):
                    if l != j:
                        prod = prod * (q ** k[l - 1] - qk)
                return -prod.reciprocal()

            return ExactMatrix.build(n, n, entry)

        rng = random.Random(64)
        for n in range(0, 7):
            for q in (Q, frac(-3, 4), frac(5, 7)):
                k = rng.sample(range(1, 13), 12)[:n]
                for kind, build in builders.items():
                    assert build(k, A, B, q) == reference(kind, k, A, B, q)
        # Where a product vanishes (a repeated row index, or 1 - a q^{k_j} = 0),
        # both raise the same error.
        for kind, k, a in (("X", [2, 3, 2], A), ("L", [2, 3, 2], A), ("X", [1, 3, 4], frac(1, 2))):
            for build in (lambda *args: reference(kind, *args), builders[kind]):
                with pytest.raises(ZeroDivisionError, match="division by zero in QQ"):
                    build(k, a, B, Q)

    def test_rows_from_first_are_rows_of_the_full_matrix(self):
        builders = {"X": lambda k, a, b, q, *first: x_matrix(k, a, q, *first), "L": l_matrix}
        rng = random.Random(65)
        for n in range(1, 7):
            k = rng.sample(range(1, 13), n)
            cols = list(range(1, n + 1))
            for build in builders.values():
                full = build(k, A, B, Q)
                assert build(k, A, B, Q, 1) == full
                for first in range(1, n + 1):
                    assert build(k, A, B, Q, first) == submatrix(full, list(range(first, n + 1)), cols)
                for first in (0, n + 1):
                    with pytest.raises(ValueError, match="outside"):
                        build(k, A, B, Q, first)
        # The last row alone raises exactly where the whole matrix does: at a
        # repeated row index, at 1 - shift q^{k_j} = 0, and at q = 0.
        poles = 0
        for k in ([2, 3, 2], [3, 2, 2], [1, 3, 4], [4, 1, 3]):
            for a, q in itertools.product((A, frac(1, 2), frac(1, 4), frac(-1, 8)), (Q, ZERO)):
                for build in builders.values():
                    full = outcome(build, k, a, B, q)
                    last = outcome(build, k, a, B, q, len(k))
                    if raised(full):
                        assert last == full == (ZeroDivisionError, "division by zero in QQ", None)
                        poles += 1
                    else:
                        assert last == submatrix(full, [len(k)], [1, 2, 3])
        assert poles > 20

    def test_last_row_is_minus_one_over_the_residue_denominators(self):
        def residue_denominators(xs, shift):
            # x_nu (1 - shift x_nu) prod_{l != nu} (x_l - x_nu), one scalar at a time
            out = []
            for nu, x in enumerate(xs):
                d = x * (ONE - shift * x)
                for l, y in enumerate(xs):
                    if l != nu:
                        d = d * (y - x)
                out.append(d)
            return out

        rng = random.Random(66)
        for n in range(1, 7):
            for _ in range(3):
                xs = [frac(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
                shift = frac(rng.randint(-9, 9), rng.randint(1, 9))
                if len(set(xs)) < n or any(ONE == shift * x for x in xs):
                    continue
                (row,) = column_products([_parts(x) for x in xs], _parts(shift), n)
                assert [_reduced(*e) for e in row] == [-d.reciprocal() for d in residue_denominators(xs, shift)]

    def test_closed_inverses(self):
        from qdetlab import ExactMatrix

        for build, inverse in ((y_matrix, y_inverse), (u_matrix, u_inverse)):
            assert build(5, Q) @ inverse(5, Q) == ExactMatrix.identity(5)

    def test_y_binomial_content(self):
        y = y_matrix(3, Q)
        assert y.at(3, 1) == Q ** (-3) * q_binomials(Q, 2)(2, 2)

    def test_q_binomial_entries(self):
        # every entry of Y, U and their inverses against the displayed formulas,
        # with qb(n, k) the Gaussian binomial [n, k]_q
        sign = lambda e: ONE if e % 2 == 0 else -ONE
        formulas = {
            "Y": lambda n, i, j, q, qb: sign(i + j) * q ** (-((i - j) * (2 * n + 1 - i - j)) // 2)
            * qb(n - j, i - j),
            "U": lambda n, i, j, q, qb: sign(i + j) * q ** (((j - i) * (j - i + 1)) // 2) * qb(j - 1, j - i),
        }
        inverses = {
            "Y": lambda n, i, j, q, qb: q ** ((j - i) * (n + 1 - i)) * qb(n - j, i - j),
            "U": lambda n, i, j, q, qb: q ** (j - i) * qb(j - 1, i - 1),
        }
        builders = {"Y": (y_matrix, y_inverse), "U": (u_matrix, u_inverse)}
        for q in (Q, frac(-3, 4), frac(5, 7)):
            for n in range(0, 7):
                qb = q_binomials(q, n)
                for kind, (build, inverse) in builders.items():
                    lower = kind == "Y"
                    expected = ExactMatrix.build(
                        n, n, lambda i, j: formulas[kind](n, i, j, q, qb) if (i >= j) == lower or i == j else ZERO
                    )
                    assert build(n, q) == expected
                    expected = ExactMatrix.build(n, n, lambda i, j: inverses[kind](n, i, j, q, qb))
                    assert inverse(n, q) == expected


def compute_r_reference(n, nu, k_tuple, a, b, q):
    """R_{n,nu} summed over its C(n, nu) splittings, one weight per splitting."""
    if nu < 0 or nu > n:
        return ZERO
    ab = a * b
    total = ZERO
    universe = range(1, n + 1)
    for i_set in itertools.combinations(universe, n - nu):
        j_set = tuple(v for v in universe if v not in i_set)
        weight = q ** (sum(i_set) - n + nu)
        for l, iv in enumerate(i_set, start=1):
            weight = weight * (ONE - a * q ** (k_tuple[iv - 1] - iv + l + nu))
        for l, jv in enumerate(j_set, start=1):
            weight = weight * (ONE - ab * q ** (k_tuple[jv - 1] + jv - l + nu - 1))
        total = total + weight
    return total


def compute_r_forward(n, nu, k_tuple, a, b, q):
    """R_{n,nu} by a forward dynamic program for this nu alone.

    After v steps, partial[t] sums the placements of 1..v with t of them in
    the i-tuple.  Placing v in the i-tuple (while t < n - nu) multiplies by
    q^{v-1} (1 - a q^{k_v-v+t+1+nu}); placing it in the j-tuple (while
    v - t <= nu) multiplies by (1 - ab q^{k_v+t+nu-1}).
    """
    if nu < 0 or nu > n:
        return ZERO
    ab = a * b
    partial = [ONE] + [ZERO] * (n - nu)
    for v in range(1, n + 1):
        k = k_tuple[v - 1]
        step = [ZERO] * (n - nu + 1)
        for t, value in enumerate(partial):
            if not value:
                continue  # unreached, or a sum that adds nothing
            if t < n - nu:
                step[t + 1] = step[t + 1] + value * q ** (v - 1) * (ONE - a * q ** (k - v + t + 1 + nu))
            if v - t <= nu:
                step[t] = step[t] + value * (ONE - ab * q ** (k + t + nu - 1))
        partial = step
    return partial[n - nu]


class TestRowFactors:
    def test_matches_two_q_pochhammers(self):
        rng = random.Random(61)
        for n in range(0, 7):
            for _ in range(3):
                x, a, ab = (frac(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
                q = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                expected = [
                    q_pochhammer(a * x, q, j - 1) * q_pochhammer(ab * x * q**j, q, n - j)
                    for j in range(1, n + 1)
                ]
                assert row_factors(x, a, ab, q, n) == expected

    def test_build_m_rows(self):
        k = (3, 1, 4)
        m = build_m(k, A, B, C, Q)
        for i, kv in enumerate(k, start=1):
            factors = row_factors(Q**kv, A, A * B, Q, 3)
            for j in range(1, 4):
                assert m.at(i, j) == (Q ** (kv - 1) - C * Q ** (j - 1)) * factors[j - 1]


class TestComputeR:
    """R_{n,0}..R_{n,n} as :func:`r_values` returns them."""

    def test_matches_subset_enumeration(self):
        rng = random.Random(62)
        for n in range(0, 7):
            for _ in range(3):
                k = [rng.randint(1, 12) for _ in range(n + rng.randint(0, 2))]
                a, b = frac(rng.randint(-9, 9), rng.randint(1, 9)), frac(rng.randint(-9, 9), rng.randint(1, 9))
                q = GaussianRational(Fraction(rng.choice([-3, -2, 2, 3]), rng.randint(1, 4)))
                expected = [compute_r_reference(n, nu, k, a, b, q) for nu in range(n + 1)]
                assert r_values(n, k, a, b, q) == expected

    def test_polynomial_in_q(self):
        # R is a polynomial in q, so it is defined at q = 0: the sum must never
        # form a negative power of q.
        for n in range(0, 6):
            for k in ([1] * n, list(range(1, n + 1)), [3, 1, 2, 1, 1][:n]):
                expected = [compute_r_reference(n, nu, k, A, B, ZERO) for nu in range(n + 1)]
                assert r_values(n, k, A, B, ZERO) == expected

    def test_values_match_both_references_for_every_nu(self):
        rng = random.Random(63)
        for n in range(0, 7):
            for _ in range(3):
                k = [rng.randint(1, 12) for _ in range(n + rng.randint(0, 2))]
                a, b = frac(rng.randint(-9, 9), rng.randint(1, 9)), frac(rng.randint(-9, 9), rng.randint(1, 9))
                for q in (
                    GaussianRational(Fraction(rng.choice([-3, -2, 2, 3]), rng.randint(1, 4))),
                    frac(rng.choice([-3, -1, 1, 3]), rng.randint(2, 5)),
                    ZERO,
                ):
                    values = r_values(n, k, a, b, q)
                    assert len(values) == n + 1
                    assert values == [compute_r_reference(n, nu, k, a, b, q) for nu in range(n + 1)]
                    assert values == [compute_r_forward(n, nu, k, a, b, q) for nu in range(n + 1)]

    def test_values_at_size_zero_and_short_tuples(self):
        assert r_values(0, [], A, B, Q) == [ONE]
        assert r_values(0, [5], A, B, ZERO) == [ONE]
        with pytest.raises(ValueError):
            r_values(2, [3], A, B, Q)

    def test_single_row(self):
        assert r_values(1, [4], A, B, Q)[0] == ONE - A * Q**4

    def test_empty(self):
        assert r_values(0, [], A, B, Q)[0] == ONE

    def test_three_row_expansion(self):
        k = [2, 5, 7]
        ab = A * B
        expected = (
            (ONE - A * Q ** (k[0] + 2)) * (ONE - ab * Q ** (k[1] + 2)) * (ONE - ab * Q ** (k[2] + 2))
            + Q * (ONE - A * Q ** (k[1] + 1)) * (ONE - ab * Q ** (k[0] + 1)) * (ONE - ab * Q ** (k[2] + 2))
            + Q * Q * (ONE - A * Q ** k[2]) * (ONE - ab * Q ** (k[0] + 1)) * (ONE - ab * Q ** (k[1] + 1))
        )
        assert r_values(3, k, A, B, Q)[2] == expected

    def test_requires_enough_rows(self):
        with pytest.raises(ValueError):
            r_values(3, [1, 2], A, B, Q)


class TestClassicalKernels:
    def test_mehta_wang_entries(self):
        a, b = frac(1, 2), frac(3, 4)
        m = mehta_wang_matrix(2, a, b)
        assert m.at(1, 1) == a
        assert m.at(1, 2) == (a + 1) * b
        assert m.at(2, 1) == (a - 1) * b
        assert m.at(2, 2) == a * b * (b + 1)

    def test_nishizawa_entries(self):
        s, t = frac(2, 3), frac(3, 2)
        m = nishizawa_matrix(2, s, t, Q)
        assert m.at(1, 1) == ONE - s * s
        assert m.at(2, 1) == (Q - s * s) * (ONE - t * t)
        # a 4 x 4 case, every entry against (q^{i-1} - s^2 q^{j-1}) (t^2;q)_{i+j-2}
        s, t, q = frac(-3, 4), frac(5, 2), frac(-2, 3)
        m = nishizawa_matrix(4, s, t, q)
        for i, j in itertools.product(range(1, 5), repeat=2):
            expected = (q ** (i - 1) - s * s * q ** (j - 1)) * q_pochhammer(t * t, q, i + j - 2)
            assert m.at(i, j) == expected

    def test_nishizawa_size_one_value(self):
        s, t = frac(2, 5), frac(5, 3)
        m = nishizawa_matrix(1, s, t, Q)
        assert determinant(m) == ONE - s * s

    def test_classical_matches_per_entry_factorials_and_poles(self):
        from qdetlab.identities import classical_matrix

        def reference(n, r, al, be, ga):
            def entry(i, j):
                m = i + j + r - 2
                den = rising_factorial(al + be + 2, m)
                if not den:
                    raise PoleError("vanishing classical moment denominator", f"(alpha+beta+2)_{m}")
                return (ga + (j - i)) * rising_factorial(al + 1, m) / den

            return ExactMatrix.build(n, n, entry)

        values = [frac(v) for v in (0, 1, -1, 2, -2, -3, -4)] + [frac(1, 2)]
        messages = set()
        for al, be in itertools.product(values, repeat=2):
            for n, r in itertools.product(range(0, 4), range(-2, 4)):
                expected = agree(classical_matrix, reference, n, r, al, be, frac(3, 7))
                if raised(expected):
                    messages.add(expected[1].partition(" [")[0])
        assert messages == {
            "vanishing classical moment denominator",
            "vanishing factor in negative-index rising factorial",
        }

    def test_mehta_wang_matches_per_entry_factorials(self):
        for a, b in itertools.product((frac(1, 2), frac(-3)), (frac(3, 4), frac(-2), ZERO)):
            for n in range(0, 5):
                expected = ExactMatrix.build(n, n, lambda i, j: (a + (j - i)) * rising_factorial(b, i + j - 2))
                assert mehta_wang_matrix(n, a, b) == expected

    def test_classical_negative_shift_uses_reciprocals(self):
        from qdetlab.identities import classical_matrix

        al, be, ga = frac(1, 3), frac(2, 5), frac(4, 7)
        m = classical_matrix(1, -2, al, be, ga)
        expected = ga * rising_factorial(al + 1, -2) / rising_factorial(al + be + 2, -2)
        assert m.at(1, 1) == expected


# -- every integer-row builder against its scalar formula ---------------------
#
# Each reference builds the displayed formula with ExactMatrix.build, one
# scalar operation at a time, in the order the formula reads its factors, so
# it raises what a scalar evaluation raises: a pole of the moments, a
# negative power of q = 0, or a vanishing (q;q)_k (q;q)_{top-k} at q = 1 or
# q = -1.  The builders must store the same rows and raise the same class and
# message.

small = st.fractions(min_value=-12, max_value=12, max_denominator=12).map(GaussianRational)
# every scalar slot sees 0, 1 and -1 often, as well as negative q and |q| > 1
scalar = st.one_of(st.sampled_from([ZERO, ONE, -ONE, frac(2), frac(-1, 2)]), small)
sizes = st.integers(0, 6)


def theorem_reference(n, r, a, b, c, q):
    mu = moments(r, 2 * n + r - 2, a, b, q)
    return ExactMatrix.build(n, n, lambda i, j: (q ** (i - 1) - c * q ** (j - 1)) * mu[i + j + r - 2])


def rows_reference(k, a, b, c, q, prefactor=True):
    mu = moments(min(k) - 1, max(k) + len(k) - 2, a, b, q) if k else {}

    def entry(i, j):
        ki = k[i - 1]
        return (q ** (ki - 1) - c * q ** (j - 1) if prefactor else ONE) * mu[ki + j - 2]

    return ExactMatrix.build(len(k), len(k), entry)


def cleared_reference(k, a, b, c, q):
    def entry(i, j):
        ki = k[i - 1]
        pre = q ** (ki - 1) - c * q ** (j - 1)
        return pre * q_pochhammer(a * q**ki, q, j - 1) * q_pochhammer(a * b * q ** (ki + j), q, len(k) - j)

    return ExactMatrix.build(len(k), len(k), entry)


def q_binomial_references(n, q):
    """Y, U, Y^-1 and U^-1 by their displayed formulas: q^e is read before
    [top, k]_q, and an entry outside the triangle of Y or U reads neither."""
    qb = q_binomials(q, n)
    sign = lambda e: ONE if e % 2 == 0 else -ONE

    def y(i, j):
        return sign(i + j) * q ** (-((i - j) * (2 * n + 1 - i - j)) // 2) * qb(n - j, i - j) if i >= j else ZERO

    def u(i, j):
        return sign(i + j) * q ** ((j - i) * (j - i + 1) // 2) * qb(j - 1, j - i) if i <= j else ZERO

    return {
        y_matrix: lambda: ExactMatrix.build(n, n, y),
        u_matrix: lambda: ExactMatrix.build(n, n, u),
        y_inverse: lambda: ExactMatrix.build(n, n, lambda i, j: q ** ((j - i) * (n + 1 - i)) * qb(n - j, i - j)),
        u_inverse: lambda: ExactMatrix.build(n, n, lambda i, j: q ** (j - i) * qb(j - 1, i - 1)),
    }


def k_tuples(lo):
    return st.lists(st.integers(lo, 12), max_size=6)


class TestIntegerRowsAgainstScalarFormulas:
    @settings(max_examples=150, deadline=None)
    @given(sizes, st.integers(-3, 3), scalar, scalar, scalar, scalar)
    @example(3, 1, frac(2, 3), frac(3, 5), frac(5, 7), ZERO)
    @example(3, -2, frac(2, 3), frac(3, 5), frac(5, 7), ZERO)  # the downward moments need 1/q
    @example(3, 1, frac(2, 3), frac(3, 5), frac(5, 7), ONE)
    @example(4, 1, frac(2, 3), frac(3, 5), frac(5, 7), -ONE)
    @example(4, 0, frac(2, 3), frac(3, 5), ZERO, frac(-7, 2))
    @example(3, 0, frac(1, 2), frac(1, 2), frac(5, 7), frac(2))  # a b q^2 = 1: a moment pole
    @example(3, -2, frac(1, 4), frac(3), frac(5, 7), frac(2))  # a q^-1 = 1/8: none; (aq;q)_-2 below
    @example(2, -2, frac(2), frac(3), frac(5, 7), frac(1, 2))  # (aq;q)_{-1} = 1 - a: a pole on the way down
    @example(1, 0, ONE, ONE, ONE, ONE)
    @example(0, 2, frac(2), frac(3), frac(4), ZERO)
    def test_theorem_matrix(self, n, r, a, b, c, q):
        agree(build_theorem_matrix, theorem_reference, n, r, a, b, c, q)

    @settings(max_examples=150, deadline=None)
    @given(k_tuples(-2), scalar, scalar, scalar, scalar)
    @example([3, 1, 12, 7], frac(2, 3), frac(3, 5), frac(5, 7), ZERO)
    @example([3, 0, 2], frac(2, 3), frac(3, 5), frac(5, 7), ZERO)  # q^-1 at q = 0
    @example([3, -2, 2], frac(2, 3), frac(3, 5), frac(5, 7), frac(-4, 3))
    @example([2, 5, 1], frac(2, 3), frac(3, 5), frac(5, 7), ONE)
    @example([2, 5, 1], frac(2, 3), frac(3, 5), frac(5, 7), -ONE)
    @example([2, 5, 1], frac(2, 3), frac(3, 5), ZERO, frac(9, 2))
    @example([2, 5, 1], frac(1, 2), frac(1, 2), frac(5, 7), frac(2))  # a moment pole
    @example([12, 11, 10, 9, 8, 7], frac(-9, 11), frac(7, 5), frac(3, 8), frac(-11, 4))
    @example([4], frac(2, 3), frac(3, 5), frac(5, 7), frac(2))
    @example([], frac(2, 3), frac(3, 5), frac(5, 7), frac(2))
    def test_row_selected_kernels_and_cleared_matrix(self, k, a, b, c, q):
        agree(theorem_matrix_rows, rows_reference, k, a, b, c, q)
        agree(lambda *args: moment_hankel_rows(*args[:3], args[4]), lambda *args: rows_reference(*args, False), k, a, b, c, q)
        agree(build_m, cleared_reference, k, a, b, c, q)

    @settings(max_examples=100, deadline=None)
    @given(sizes, scalar)
    @example(6, ZERO)
    @example(1, ZERO)
    @example(2, ONE)
    @example(1, ONE)
    @example(3, -ONE)
    @example(2, -ONE)
    @example(6, frac(-9, 2))
    @example(0, ONE)
    def test_q_binomial_triangulars_and_inverses(self, n, q):
        for build, reference in q_binomial_references(n, q).items():
            agree(build, lambda n, q: reference(), n, q)

    @settings(max_examples=100, deadline=None)
    @given(k_tuples(-2), scalar, scalar, scalar)
    @example([2, 5, 7], frac(2, 3), frac(3, 5), ZERO)
    @example([-1, 5, 7], frac(2, 3), frac(3, 5), ZERO)
    @example([2, 5, 2], frac(2, 3), frac(3, 5), frac(-3, 2))  # a repeated row index
    @example([1, 3, 4], frac(1, 2), frac(3, 5), frac(2))  # 1 - a q^{k_1} = 0
    @example([], frac(2, 3), frac(3, 5), ZERO)  # L reads q^-1
    def test_x_and_l(self, k, a, b, q):
        def x_reference(k, a, b, q, shift=None):
            shift = a if shift is None else shift

            def entry(i, j):
                if i < j:
                    return ZERO
                prod = q ** k[j - 1] * (ONE - shift * q ** k[j - 1])
                for l in range(1, i + 1):
                    if l != j:
                        prod = prod * (q ** k[l - 1] - q ** k[j - 1])
                return -prod.reciprocal()

            xs = [q**kv for kv in k]  # read first, as the builder reads them
            return ExactMatrix.build(len(xs), len(xs), entry)

        agree(lambda k, a, b, q: x_matrix(k, a, q), x_reference, k, a, b, q)
        l_reference = lambda k, a, b, q: x_reference(k, a, b, q, a * b * q ** (len(k) - 1))
        agree(l_matrix, l_reference, k, a, b, q)

    def test_degenerate_points_raise_as_the_formulas_do(self):
        zero_division = (ZeroDivisionError, "division by zero in QQ", None)
        pole = frac(1, 2), frac(1, 2), C, frac(2)  # a b q^2 = 1
        moment_pole = (PoleError, "vanishing moment denominator [(abq^2;q)_1]", "(abq^2;q)_1")
        cases = [
            (build_theorem_matrix, theorem_reference, (3, -2, A, B, C, ZERO), zero_division),
            (build_theorem_matrix, theorem_reference, (3, 0, *pole), moment_pole),
            (theorem_matrix_rows, rows_reference, ([3, 0, 2], A, B, C, ZERO), zero_division),
            (theorem_matrix_rows, rows_reference, ([2, 5, 1], *pole), moment_pole),
            (build_m, cleared_reference, ([3, 0, 2], A, B, C, ZERO), zero_division),
            (y_matrix, lambda n, q: q_binomial_references(n, q)[y_matrix](), (2, ONE), zero_division),
            (y_matrix, lambda n, q: q_binomial_references(n, q)[y_matrix](), (3, -ONE), zero_division),
            (y_matrix, lambda n, q: q_binomial_references(n, q)[y_matrix](), (2, ZERO), zero_division),
            (u_inverse, lambda n, q: q_binomial_references(n, q)[u_inverse](), (2, ZERO), zero_division),
        ]
        for build, reference, args, expected in cases:
            assert agree(build, reference, *args) == expected, (build.__name__, args)
        # and where the formula stays defined, so does the builder: c = 0, [t, 1]_q at q = -1
        for build, args in ((build_theorem_matrix, (3, 1, A, B, ZERO, Q)), (u_matrix, (2, -ONE)), (y_matrix, (1, ONE))):
            assert not raised(outcome(build, *args))

    @settings(max_examples=100, deadline=None)
    @given(sizes, st.lists(st.integers(1, 12), min_size=6, max_size=6), scalar, scalar, scalar)
    @example(3, [1, 1, 1, 1, 1, 1], frac(2, 3), frac(3, 5), ZERO)
    @example(3, [12, 11, 10, 9, 8, 7], frac(2, 3), frac(3, 5), ONE)
    @example(4, [2, 5, 7, 1, 3, 3], frac(2, 3), frac(3, 5), -ONE)
    @example(6, [12, 1, 12, 1, 12, 1], frac(-7, 3), frac(9, 4), frac(-11, 5))
    @example(0, [4, 4, 4, 4, 4, 4], frac(2, 3), frac(3, 5), frac(2))
    def test_r_values(self, n, k, a, b, q):
        # the R-sum is defined for positive row indices, and at q = 0
        assert r_values(n, k, a, b, q) == [compute_r_reference(n, nu, k, a, b, q) for nu in range(n + 1)]
