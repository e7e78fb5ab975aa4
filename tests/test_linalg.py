"""Exact matrices: determinants, Pfaffians, and submatrix selection."""

import itertools
import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from qdetlab import ExactMatrix, GaussianRational, ONE, ZERO, determinant, linalg, pfaffian, submatrix
from qdetlab.linalg import bordered_determinants, minor
from helpers import frac


def rand_entry(rng):
    return GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def rand_matrix(rng, n, m=None):
    m = n if m is None else m
    return ExactMatrix(n, m, [rand_entry(rng) for _ in range(n * m)])


def sparse_entry(rng):
    """Zero half the time, so pivots vanish and rows, columns or partners swap."""
    if rng.random() < 0.5:
        return ZERO
    return GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def sparse_integer_entry(rng):
    """An integer, zero half the time, so that cofactor expansion stays fast
    at orders 8 to 10 and planted row content stays visible."""
    if rng.random() < 0.5:
        return ZERO
    return frac(rng.randint(-9, 9))


def sparse_entries(integer_entries):
    """The sparse entry draw: integers (rows need no clearing) or rationals."""
    return sparse_integer_entry if integer_entries else sparse_entry


def alternating_pivots():
    """Rows of a block upper triangular matrix with diagonal blocks
    [[0, 2], [3, 1]], [[0, -1], [5, 2]] and [4]: the leading minors are 0,
    -6, 0, -30, -120, alternately zero and not, so the first and the third
    elimination steps swap rows."""
    blocks = {(0, 1): 2, (1, 0): 3, (1, 1): 1, (2, 3): -1, (3, 2): 5, (3, 3): 2, (4, 4): 4}
    return [
        [blocks.get((i, j), frac(i * j - 3, i + j + 1) if j // 2 > i // 2 else ZERO) for j in range(5)]
        for i in range(5)
    ]


def det_cofactor(m):
    """Reference determinant by cofactor expansion along the first row (n <= 5)."""

    def rec(rows):
        total = ONE if not rows else ZERO
        for j, a in enumerate(rows[0] if rows else []):
            if a:
                term = a * rec([r[:j] + r[j + 1 :] for r in rows[1:]])
                total = total + (term if j % 2 == 0 else -term)
        return total

    return rec(m.to_lists())


def pf_expansion(m):
    """Reference Pfaffian by expansion along the first row (sizes up to 6)."""
    rows = m.to_lists()

    def rec(ids):
        total = ONE if not ids else ZERO
        for pos in range(1, len(ids)):
            if a := rows[ids[0]][ids[pos]]:
                term = a * rec(ids[1:pos] + ids[pos + 1 :])
                total = total + (term if pos % 2 == 1 else -term)
        return total

    return rec(list(range(m.rows)))


def big_entry(rng):
    """An entry over a denominator near 2**200, different from entry to entry."""
    return GaussianRational(Fraction(rng.randint(-(2**200), 2**200), 2**200 + rng.randint(0, 2**20)))


def banded(n, entry):
    """Rows of the n x n matrix with entry(i, j) (0-based) where |i - j| <= 2
    and zeros elsewhere."""
    return [[entry(i, j) if abs(i - j) <= 2 else 0 for j in range(n)] for i in range(n)]


def skew_from(n, entry):
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = entry(i, j)
            rows[j][i] = -rows[i][j]
    return ExactMatrix.from_rows(rows)


def rand_skew(rng, n):
    return skew_from(n, lambda i, j: rand_entry(rng))


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
                assert determinant(m) == det_cofactor(m)

    @pytest.mark.parametrize("integer_entries", [False, True])
    def test_sparse_elimination_matches_cofactor(self, integer_entries):
        rng, entry = random.Random(31 + integer_entries), sparse_entries(integer_entries)
        swaps = zeros = 0
        for n in range(1, 6):
            for _ in range(40):
                m = ExactMatrix(n, n, [entry(rng) for _ in range(n * n)])
                value = determinant(m)
                assert value == det_cofactor(m)
                swaps += not m.at(1, 1)
                zeros += not value
        assert swaps > 20 and zeros > 20

    @pytest.mark.parametrize("integer_entries", [False, True])
    def test_sparse_elimination_either_side_of_the_strip_order(self, integer_entries):
        # orders 8 and 9 lie either side of linalg.STRIP_ORDER
        rng, entry = random.Random(36 + integer_entries), sparse_entries(integer_entries)
        for n in (8, 9):
            for _ in range(6):
                m = ExactMatrix(n, n, [entry(rng) for _ in range(n * n)])
                assert determinant(m) == det_cofactor(m)

    @pytest.mark.parametrize("integer_entries", [False, True])
    def test_planted_row_and_column_content(self, integer_entries):
        # det(D_r M D_c) = det(D_r) det(M) det(D_c) for integer diagonals D_r, D_c
        rng, entry = random.Random(38 + integer_entries), sparse_entries(integer_entries)
        for n in (8, 9):
            m = ExactMatrix(n, n, [entry(rng) for _ in range(n * n)])
            dr = [rng.choice([-12, -6, 2, 4, 9, 30]) for _ in range(n)]
            dc = [rng.choice([-10, -3, 1, 6, 8, 15]) for _ in range(n)]
            planted = ExactMatrix.build(n, n, lambda i, j: dr[i - 1] * dc[j - 1] * m.at(i, j))
            assert determinant(planted) == frac(prod(dr) * prod(dc)) * det_cofactor(m)

    def test_zero_row_or_column(self):
        rng = random.Random(33)
        for k in range(1, 5):
            m = rand_matrix(rng, 4)
            rows = m.to_lists()
            rows[k - 1] = [ZERO] * 4
            assert determinant(ExactMatrix.from_rows(rows)) == ZERO
            assert determinant(ExactMatrix.from_rows(rows).transpose()) == ZERO
        # at order 9 the zero row or column meets the content step
        for k in (1, 5, 9):
            rows = [[sparse_integer_entry(rng) or ONE for _ in range(9)] for _ in range(9)]
            rows[k - 1] = [ZERO] * 9
            assert determinant(ExactMatrix.from_rows(rows)) == ZERO
            assert determinant(ExactMatrix.from_rows(rows).transpose()) == ZERO

    def test_trailing_block_vanishes_before_the_last_step(self):
        # W = A B has rank r < n: from order linalg.STRIP_ORDER on, the block
        # left after step r is zero, its content is 0, and the next step has
        # no pivot
        rng = random.Random(39)
        for n, r in ((9, 1), (9, 5), (10, 9), (12, 11)):
            a = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(n)]
            b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
            rows = [[frac(sum(x * y for x, y in zip(row, col)), 6) for col in zip(*b)] for row in a]
            assert determinant(ExactMatrix.from_rows(rows)) == ZERO

    def test_row_swap_after_a_content_step(self):
        # Every entry is a multiple of 6, so the first block has content at
        # least 36; the second row is twice the first in the first two
        # columns, so the leading 2 x 2 minor is 0 and the second step swaps
        # rows.
        rng = random.Random(40)
        for n in (9, 10):
            for _ in range(2):
                rows = [[6 * sparse_integer_entry(rng) for _ in range(n)] for _ in range(n)]
                rows[0][0] = frac(6 * rng.choice([-2, -1, 1, 3]))
                rows[1][:2] = [2 * rows[0][0], 2 * rows[0][1]]
                rows[2][1] = frac(6)
                m = ExactMatrix.from_rows(rows)
                assert determinant(m) == det_cofactor(m)

    def test_first_pivot_below_the_diagonal(self):
        # zeros above the anti-diagonal: the first two pivots lie below the diagonal
        m = ExactMatrix.from_rows([[0, 0, 0, 2], [0, 0, 3, 1], [0, 5, 1, 1], [7, 1, 1, 1]])
        assert determinant(m) == det_cofactor(m) == frac(2 * 3 * 5 * 7)

    @pytest.mark.parametrize(
        "rows, loop, calls, pfaffian_calls",
        [
            # real, the first pivot in the third row
            ([[0, 3, 1], [0, 2, 5], [4, 1, 1]], "real", 1, None),
            # the first and the third pivot in a lower row
            (alternating_pivots(), "real", 1, None),
            ([], "real", 1, 1),
            # skew, real, the first partner in the third column
            (skew_from(4, lambda i, j: 0 if (i, j) == (0, 1) else i + 2 * j + 1).to_lists(), "real", 1, 1),
            # order 9 = linalg.STRIP_ORDER, pentadiagonal so that the expansion stays short
            (banded(9, lambda i, j: (i + 2 * j) % 7 - 3 or 5), "primitive", 1, None),
        ],
        ids=["real-row-swap", "alternating-pivots", "empty", "real-skew-partner-swap", "real-order-9"],
    )
    def test_each_elimination_loop_matches_cofactor(self, monkeypatch, rows, loop, calls, pfaffian_calls):
        taken = []
        for name in ("bareiss_real", "bareiss_primitive", "pfaffian_real"):
            kernel = getattr(linalg, f"_{name}")

            def spy(w, *lead, kernel=kernel, name=name):
                taken.append(name)
                return kernel(w, *lead)

            monkeypatch.setattr(linalg, f"_{name}", spy)
        m = ExactMatrix.from_rows(rows)
        assert determinant(m) == det_cofactor(m)
        assert taken == [f"bareiss_{loop}"] * calls
        if pfaffian_calls:
            assert pfaffian(m) == pf_expansion(m)
            assert taken[calls:] == ["pfaffian_real"] * pfaffian_calls

    def test_denominators_near_two_to_the_200(self):
        rng = random.Random(35)
        for n in range(1, 5):
            m = ExactMatrix(n, n, [big_entry(rng) for _ in range(n * n)])
            assert determinant(m) == det_cofactor(m)

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


def matmul_reference(a, b):
    """The product by the scalar triple loop over reduced fractions."""
    rows, cols = a.to_lists(), b.to_lists()
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = ZERO
            for k in range(a.cols):
                acc = acc + rows[i][k] * cols[k][j]
            out.append(acc)
    return ExactMatrix(a.rows, b.cols, out)


class TestProduct:
    SHAPES = [(1, 1, 1), (2, 3, 4), (4, 2, 3), (3, 3, 3), (5, 1, 5), (1, 5, 1), (6, 6, 6)]

    def check(self, rng, entry, shapes=SHAPES):
        for n, k, m in shapes:
            a = ExactMatrix(n, k, [entry(rng) for _ in range(n * k)])
            b = ExactMatrix(k, m, [entry(rng) for _ in range(k * m)])
            assert a @ b == matmul_reference(a, b)

    def test_real(self):
        self.check(random.Random(41), rand_entry)

    def test_sparse(self):
        for entry in (sparse_entry, sparse_integer_entry):
            self.check(random.Random(43), entry)

    def test_denominators_near_two_to_the_200(self):
        self.check(random.Random(44), big_entry, [(1, 1, 1), (2, 3, 2), (3, 2, 4), (4, 4, 4)])

    def test_empty_shapes(self):
        rng = random.Random(46)
        for n, k, m in [(0, 3, 2), (2, 3, 0), (0, 0, 0), (3, 0, 2), (0, 2, 0)]:
            a = ExactMatrix(n, k, [rand_entry(rng) for _ in range(n * k)])
            b = ExactMatrix(k, m, [rand_entry(rng) for _ in range(k * m)])
            product = a @ b
            assert (product.rows, product.cols) == (n, m)
            assert product == matmul_reference(a, b)

    def test_entries_are_canonical(self):
        half = frac(1, 2)
        product = ExactMatrix.from_rows([[half, half]]) @ ExactMatrix.from_rows([[half], [-half]])
        assert product.at(1, 1) == ZERO
        assert str(product.at(1, 1)) == "0"


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
        assert pf_expansion(mat) == frac(8)

    def test_empty(self):
        assert pfaffian(ExactMatrix(0, 0, [])) == ONE

    def test_odd_dimension_rejected(self):
        m = ExactMatrix.from_rows([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
        with pytest.raises(ValueError):
            pfaffian(m)
        with pytest.raises(ValueError, match="square"):
            pfaffian(ExactMatrix(2, 4, [0] * 8))

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
            assert pfaffian(m) == pf_expansion(m)

    @pytest.mark.parametrize("integer_entries", [False, True])
    def test_sparse_elimination_matches_expansion(self, integer_entries):
        rng, entry = random.Random(41 + integer_entries), sparse_entries(integer_entries)
        swaps = zeros = 0
        for n in (2, 4, 6, 8, 10):
            for _ in range(60):
                m = skew_from(n, lambda i, j: entry(rng))
                value = pfaffian(m)
                assert value == pf_expansion(m)
                swaps += not m.at(1, 2) and any(m.at(1, j) for j in range(3, n + 1))
                zeros += not value
        assert swaps > 20 and zeros > 20

    def test_zero_row_and_column(self):
        rng = random.Random(43)
        for k in range(6):
            m = skew_from(6, lambda i, j: ZERO if k in (i, j) else rand_entry(rng))
            assert pfaffian(m) == ZERO

    def test_real_loop_zero_row_and_partner_swap(self):
        # order 10, above linalg.STRIP_ORDER: the rows also meet the content step
        rng = random.Random(47)
        for k in (0, 3, 9):
            m = skew_from(10, lambda i, j: ZERO if k in (i, j) else rand_entry(rng))
            assert pfaffian(m) == ZERO
        # a partner swap at the first step (w[0][1] = 0) and at the second
        # (w[0][2] = w[0][3] = w[2][3] = 0, so the leading 4x4 Pfaffian vanishes)
        for zeros in ({(0, 1)}, {(0, 2), (0, 3), (2, 3)}):
            m = skew_from(10, lambda i, j: ZERO if (i, j) in zeros else rand_entry(rng))
            assert pfaffian(m) == pf_expansion(m)

    @pytest.mark.parametrize("integer_entries", [False, True])
    def test_planted_content(self, integer_entries):
        # Pf(D M D^T) = det(D) Pf(M) for an integer diagonal D
        rng, entry = random.Random(50 + integer_entries), sparse_entries(integer_entries)
        for n in (8, 10):
            m = skew_from(n, lambda i, j: entry(rng))
            d = [rng.choice([-12, -6, 2, 4, 9, 30]) for _ in range(n)]
            planted = ExactMatrix.build(n, n, lambda i, j: d[i - 1] * d[j - 1] * m.at(i, j))
            assert pfaffian(planted) == frac(prod(d)) * pf_expansion(m)

    def test_denominators_near_two_to_the_200(self):
        rng = random.Random(45)
        for n in (2, 4, 6):
            m = skew_from(n, lambda i, j: big_entry(rng))
            assert pfaffian(m) == pf_expansion(m)

    def test_non_skew_error_names_the_first_entry(self):
        rows = rand_skew(random.Random(46), 4).to_lists()
        rows[2][3] = rows[2][3] + frac(1, 5)
        with pytest.raises(ValueError, match=r"not skew-symmetric at \(3, 4\)"):
            pfaffian(ExactMatrix.from_rows(rows))
        rows[1][1] = frac(1, 2)
        with pytest.raises(ValueError, match=r"not skew-symmetric at \(2, 2\)"):
            pfaffian(ExactMatrix.from_rows(rows))

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
        for name in ("rows", "cols", "_cleared_rows"):
            with pytest.raises(AttributeError):
                delattr(m, name)
        assert m == ExactMatrix.identity(2) and hash(m) == hash(ExactMatrix.identity(2))

    def test_entries_are_coerced_or_rejected(self):
        m = ExactMatrix(1, 3, [2, Fraction(1, 3), GaussianRational(Fraction(-5, 2))])
        assert [m.at(1, j) for j in (1, 2, 3)] == [frac(2), frac(1, 3), frac(-5, 2)]
        assert repr(m) == "ExactMatrix(1x3: 2 1/3 -5/2)"
        assert m != m.to_lists() and m.__eq__(m.to_lists()) is NotImplemented
        with pytest.raises(TypeError):
            ExactMatrix(1, 1, [0.5])
        with pytest.raises(ValueError, match="nonnegative"):
            ExactMatrix(-1, 0, [])
        with pytest.raises(ValueError, match="expected 4 entries, got 3"):
            ExactMatrix(2, 2, [1, 2, 3])
        with pytest.raises(ValueError, match="ragged"):
            ExactMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError, match="expected 2 rows of 2 entries"):
            ExactMatrix.from_pairs(2, 2, [[(1, 1), (2, 3)], [(1, 1)]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            ExactMatrix.identity(2) @ ExactMatrix.identity(3)


# -- storage ---------------------------------------------------------------------


@st.composite
def unreduced_matrices(draw, rows=st.integers(0, 4), cols=st.integers(0, 4)):
    """(values, pairs) of a rows x cols matrix: values[i][j] is a Fraction
    and pairs[i][j] the pair of the same value with a random factor put
    into numerator and denominator, times a factor common to the row."""
    n, m = draw(rows), draw(cols)
    values, pairs = [], []
    for _ in range(n):
        common = draw(st.integers(1, 12))
        row = [Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 30))) for _ in range(m)]
        factors = [common * draw(st.integers(1, 40)) for _ in range(m)]
        values.append(row)
        pairs.append([(v.numerator * k, v.denominator * k) for v, k in zip(row, factors)])
    return values, pairs


def rebuilt(m):
    """m built again from its entries read back as scalars."""
    return ExactMatrix(m.rows, m.cols, [x for row in m.to_lists() for x in row])


class TestStorage:
    @settings(max_examples=150, deadline=None)
    @given(unreduced_matrices())
    def test_unreduced_pairs_store_as_the_reduced_scalars(self, case):
        values, pairs = case
        n, m = len(values), len(values[0]) if values else 0
        stored = ExactMatrix.from_pairs(n, m, pairs)
        scalars = ExactMatrix(n, m, [frac(v.numerator, v.denominator) for row in values for v in row])
        assert stored == scalars and hash(stored) == hash(scalars)
        # each row is kept over the lcm of its reduced denominators, so the
        # integers an elimination reads do not depend on how the row was built
        for (l, w), row in zip(stored._cleared_rows, values):
            assert l == lcm(*[v.denominator for v in row])
            assert list(w) == [v * l for v in row]

    @settings(max_examples=150, deadline=None)
    @given(unreduced_matrices(rows=st.integers(1, 4)), st.data())
    def test_submatrix_transpose_and_product_rows_are_canonical(self, case, data):
        values, pairs = case
        a = ExactMatrix.from_pairs(len(values), len(values[0]), pairs)
        row_idx = data.draw(st.lists(st.integers(1, a.rows), max_size=4))
        col_idx = data.draw(st.lists(st.integers(1, a.cols), max_size=4)) if a.cols else []
        _, right = data.draw(unreduced_matrices(rows=st.just(a.cols)))
        b = ExactMatrix.from_pairs(a.cols, len(right[0]) if right else 0, right)
        for result in (submatrix(a, row_idx, col_idx), a.transpose(), a @ b):
            assert result == rebuilt(result) and hash(result) == hash(rebuilt(result))


# -- minors and bordered determinants ------------------------------------------


def pair_rows(values):
    return [[(v.numerator, v.denominator) for v in row] for row in values]


class TestMinor:
    @settings(max_examples=150, deadline=None)
    @given(unreduced_matrices(rows=st.integers(1, 5), cols=st.integers(1, 5)), st.data())
    def test_matches_the_determinant_of_the_submatrix(self, case, data):
        # unordered and repeated indices, and the 0 x 0 selection
        values, pairs = case
        a = ExactMatrix.from_pairs(len(values), len(values[0]), pairs)
        k = data.draw(st.integers(0, 5))
        row_idx = data.draw(st.lists(st.integers(1, a.rows), min_size=k, max_size=k))
        col_idx = data.draw(st.lists(st.integers(1, a.cols), min_size=k, max_size=k))
        assert minor(a, row_idx, col_idx) == determinant(submatrix(a, row_idx, col_idx))
        if k == 0:
            assert minor(a, [], []) == ONE

    def test_primitive_path_from_the_strip_order(self, monkeypatch):
        rng = random.Random(71)
        a = rand_matrix(rng, 11)
        row_idx = rng.sample(range(1, 12), linalg.STRIP_ORDER)
        col_idx = rng.sample(range(1, 12), linalg.STRIP_ORDER)
        expected = determinant(submatrix(a, row_idx, col_idx))
        taken = []
        primitive = linalg._bareiss_primitive
        monkeypatch.setattr(linalg, "_bareiss_primitive", lambda w: taken.append(len(w)) or primitive(w))
        assert minor(a, row_idx, col_idx) == expected
        assert taken == [linalg.STRIP_ORDER]

    def test_rejected_selections(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match="as many rows as columns"):
            minor(m, [1, 2], [1])
        with pytest.raises(IndexError, match="row index 3"):
            minor(m, [1, 3], [1, 2])
        with pytest.raises(IndexError, match="column index 0"):
            minor(m, [1], [0])


@st.composite
def bordered_cases(draw):
    """(n, k, values) of an n x (n - 1 + k) rational matrix, n in 1..7 and
    k in 1..4, whose lead block may start with a zero pivot (a row swap) or
    have a zero lead column (rank below n - 1)."""
    n, k = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    values = [[draw(entry) for _ in range(n - 1 + k)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        values[0][0] = Fraction(0)
    if n > 1 and draw(st.booleans()):
        column = draw(st.integers(0, n - 2))
        for row in values:
            row[column] = Fraction(0)
    return n, k, values


class TestBorderedDeterminants:
    @settings(max_examples=150, deadline=None)
    @given(bordered_cases())
    def test_each_bordered_matrix_by_itself(self, case):
        n, k, values = case
        rows = pair_rows(values)
        expected = [
            determinant(ExactMatrix.from_pairs(n, n, [row[: n - 1] + [row[n - 1 + j]] for row in rows]))
            for j in range(k)
        ]
        assert bordered_determinants(ExactMatrix.from_pairs(n, n - 1 + k, rows)) == expected

    def test_row_swap_and_rank_deficient_lead_block(self):
        # the lead column (0, 2, 1) needs a swap; the second lead block has
        # its second column twice its first, so every bordered minor is 0
        swap = ExactMatrix.from_rows([[0, 1, 4, 1], [2, 3, 7, 0], [1, 1, 1, 0]])
        for j, value in enumerate(bordered_determinants(swap), 3):
            assert value == det_cofactor(submatrix(swap, [1, 2, 3], [1, 2, j]))
        assert bordered_determinants(swap) == [ONE, -ONE]
        deficient = ExactMatrix.from_rows([[1, 2, 5, 1], [3, 6, 7, 0], [1, 2, 1, 4]])
        assert bordered_determinants(deficient) == [ZERO, ZERO]

    def test_too_few_columns_rejected(self):
        with pytest.raises(ValueError, match="1 <= rows <= columns"):
            bordered_determinants(ExactMatrix.from_rows([[1], [2]]))
        with pytest.raises(ValueError, match="1 <= rows <= columns"):
            bordered_determinants(ExactMatrix(0, 2, []))
