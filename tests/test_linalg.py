"""Exact matrices: determinants, Pfaffians, and submatrix selection."""

import itertools
import random
from fractions import Fraction

import pytest

from qdetlab import ExactMatrix, GaussianRational, ONE, ZERO, determinant, pfaffian, submatrix


def frac(num, den=1):
    return GaussianRational(Fraction(num, den))


def rand_entry(rng):
    return GaussianRational(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    )


def rand_matrix(rng, n, m=None):
    m = n if m is None else m
    return ExactMatrix(n, m, [rand_entry(rng) for _ in range(n * m)])


def rand_skew(rng, n):
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rand_entry(rng)
            rows[i][j] = v
            rows[j][i] = -v
    return ExactMatrix.from_rows(rows)


class TestDeterminant:
    def test_identity(self):
        assert determinant(ExactMatrix.identity(3)) == ONE

    def test_two_by_two(self):
        assert determinant(ExactMatrix.from_rows([[1, 2], [3, 4]])) == frac(-2)

    def test_duplicated_row(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
        assert determinant(m) == ZERO

    def test_empty_matrix(self):
        assert determinant(ExactMatrix(0, 0, [])) == ONE

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant(ExactMatrix(2, 3, [1] * 6))

    def test_elimination_matches_cofactor(self):
        rng = random.Random(21)
        for n in range(1, 6):
            for _ in range(4):
                m = rand_matrix(rng, n)
                assert determinant(m, "elimination") == determinant(m, "cofactor")

    def test_multiplicativity(self):
        rng = random.Random(22)
        for _ in range(4):
            a, b = rand_matrix(rng, 4), rand_matrix(rng, 4)
            assert determinant(a @ b) == determinant(a) * determinant(b)

    def test_desnanot_jacobi(self):
        rng = random.Random(23)
        for n in range(3, 7):
            a = rand_matrix(rng, n)
            inner = list(range(2, n))
            full = list(range(1, n + 1))
            head = list(range(1, n))
            tail = list(range(2, n + 1))
            lhs = determinant(submatrix(a, inner, inner)) * determinant(a)
            rhs = determinant(submatrix(a, head, head)) * determinant(
                submatrix(a, tail, tail)
            ) - determinant(submatrix(a, head, tail)) * determinant(submatrix(a, tail, head))
            assert lhs == rhs

    def test_cauchy_binet(self):
        rng = random.Random(24)
        for n, big_n in [(1, 3), (2, 4), (3, 5)]:
            a = rand_matrix(rng, n, big_n)
            b = rand_matrix(rng, big_n, n)
            total = ZERO
            for cols in itertools.combinations(range(1, big_n + 1), n):
                total = total + determinant(
                    submatrix(a, list(range(1, n + 1)), list(cols))
                ) * determinant(submatrix(b, list(cols), list(range(1, n + 1))))
            assert determinant(a @ b) == total


class TestPfaffian:
    def test_two_by_two(self):
        m = frac(7, 3)
        mat = ExactMatrix.from_rows([[ZERO, m], [-m, ZERO]])
        assert pfaffian(mat) == m

    def test_four_by_four_expansion_value(self):
        # upper entries 1..6 give 1*6 - 2*5 + 3*4 = 8
        mat = ExactMatrix.from_rows(
            [
                [0, 1, 2, 3],
                [-1, 0, 4, 5],
                [-2, -4, 0, 6],
                [-3, -5, -6, 0],
            ]
        )
        assert pfaffian(mat) == frac(8)
        assert pfaffian(mat, "expansion") == frac(8)

    def test_empty(self):
        assert pfaffian(ExactMatrix(0, 0, [])) == ONE

    def test_odd_dimension_rejected(self):
        m = ExactMatrix.from_rows([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
        with pytest.raises(ValueError):
            pfaffian(m)

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            pfaffian(ExactMatrix.from_rows([[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            pfaffian(ExactMatrix.from_rows([[1, 1], [-1, 0]]))

    def test_square_equals_determinant(self):
        rng = random.Random(25)
        for n in (2, 4, 6, 8):
            m = rand_skew(rng, n)
            pf = pfaffian(m)
            assert pf * pf == determinant(m)

    def test_elimination_matches_expansion(self):
        rng = random.Random(26)
        for n in (2, 4, 6):
            m = rand_skew(rng, n)
            assert pfaffian(m, "elimination") == pfaffian(m, "expansion")

    def test_singular_skew(self):
        mat = ExactMatrix.from_rows(
            [
                [0, 0, 0, 0],
                [0, 0, 0, 1],
                [0, 0, 0, 2],
                [0, -1, -2, 0],
            ]
        )
        assert pfaffian(mat) == ZERO
        assert determinant(mat) == ZERO


class TestSubmatrixAndAccess:
    def test_full_index_lists(self):
        rng = random.Random(27)
        m = rand_matrix(rng, 3)
        assert submatrix(m, [1, 2, 3], [1, 2, 3]) == m

    def test_single_entry(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        s = submatrix(m, [2], [1])
        assert s.rows == s.cols == 1
        assert s.at(1, 1) == frac(3)

    def test_central_block(self):
        m = ExactMatrix.build(4, 4, lambda i, j: 10 * i + j)
        c = submatrix(m, [2, 3], [2, 3])
        assert c == ExactMatrix.from_rows([[22, 23], [32, 33]])

    def test_out_of_range_rejected(self):
        m = ExactMatrix.identity(2)
        with pytest.raises(IndexError):
            submatrix(m, [0], [1])
        with pytest.raises(IndexError):
            submatrix(m, [1], [3])
        with pytest.raises(IndexError):
            m.at(3, 1)

    def test_one_based_access(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert m.at(1, 2) == frac(2)
        assert m.transpose().at(2, 1) == frac(2)

    def test_immutability(self):
        m = ExactMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 5
        for name in ("rows", "cols", "_e"):
            with pytest.raises(AttributeError):
                delattr(m, name)
        assert m == ExactMatrix.identity(2)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            ExactMatrix.identity(2) @ ExactMatrix.identity(3)
