"""Exact dense matrices over QQ(i): determinants, Pfaffians, submatrices.

The public index convention is 1-based, matching the displayed formulas the
matrices come from; storage is a row-major list.  Sizes in this package stay
tiny (n <= 12), so plain fraction arithmetic with first-nonzero pivoting is
both exact and fast, and keeps runs reproducible.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .gaussian import ONE, ZERO, GaussianRational, to_gq


class ExactMatrix:
    """Immutable dense matrix of GaussianRational entries (1-based access)."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        e = [to_gq(x) for x in entries]
        if len(e) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(e)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_e", tuple(e))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [x for r in rows for x in r])

    @classmethod
    def build(cls, rows: int, cols: int, entry: Callable[[int, int], object]) -> "ExactMatrix":
        """Construct from a 1-based entry function entry(i, j)."""
        return cls(rows, cols, [entry(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.build(n, n, lambda i, j: ONE if i == j else ZERO)

    def at(self, i: int, j: int) -> GaussianRational:
        """Entry at row i, column j (both 1-based)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"index ({i}, {j}) out of range for {self.rows}x{self.cols} matrix")
        return self._e[(i - 1) * self.cols + (j - 1)]

    def to_lists(self) -> list[list[GaussianRational]]:
        return [list(self._e[r * self.cols : (r + 1) * self.cols]) for r in range(self.rows)]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix.build(self.cols, self.rows, lambda i, j: self.at(j, i))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        a, b = self.to_lists(), other.to_lists()
        out = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    acc = acc + ai[k] * b[k][j]
                out.append(acc)
        return ExactMatrix(self.rows, other.cols, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._e == other._e

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._e))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.to_lists())
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def submatrix(m: ExactMatrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> ExactMatrix:
    """Rows and columns selected by 1-based index lists, in the given order."""
    for i in row_idx:
        if not 1 <= i <= m.rows:
            raise IndexError(f"row index {i} out of range")
    for j in col_idx:
        if not 1 <= j <= m.cols:
            raise IndexError(f"column index {j} out of range")
    return ExactMatrix(
        len(row_idx), len(col_idx), [m.at(i, j) for i in row_idx for j in col_idx]
    )


def _det_elimination(m: ExactMatrix) -> GaussianRational:
    n = m.rows
    w = m.to_lists()
    sign = ONE
    result = ONE
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if w[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            w[col], w[pivot_row] = w[pivot_row], w[col]
            sign = -sign
        pivot = w[col][col]
        result = result * pivot
        for r in range(col + 1, n):
            factor = w[r][col]
            if not factor:
                continue
            ratio = factor / pivot
            wr, wc = w[r], w[col]
            for c in range(col, n):
                wr[c] = wr[c] - ratio * wc[c]
    return sign * result


def _det_cofactor(m: ExactMatrix) -> GaussianRational:
    n = m.rows
    rows = m.to_lists()

    def rec(row_ids: list[int], col_ids: list[int]) -> GaussianRational:
        if not row_ids:
            return ONE
        i = row_ids[0]
        rest = row_ids[1:]
        total = ZERO
        for pos, j in enumerate(col_ids):
            a = rows[i][j]
            if not a:
                continue
            minor = rec(rest, col_ids[:pos] + col_ids[pos + 1 :])
            term = a * minor
            total = total + (term if pos % 2 == 0 else -term)
        return total

    return rec(list(range(n)), list(range(n)))


def determinant(m: ExactMatrix, method: str = "elimination") -> GaussianRational:
    """Exact determinant; the 0x0 determinant is 1.

    ``elimination`` is the workhorse (exact division, first nonzero pivot);
    ``cofactor`` is the independent first-row-expansion oracle for n <= 5.
    """
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    if method == "elimination":
        return _det_elimination(m)
    if method == "cofactor":
        return _det_cofactor(m)
    raise ValueError(f"unknown method {method!r}")


def _check_skew(m: ExactMatrix) -> None:
    if m.rows != m.cols:
        raise ValueError("Pfaffian requires a square matrix")
    if m.rows % 2 == 1:
        raise ValueError("Pfaffian requires even dimension")
    for i in range(1, m.rows + 1):
        for j in range(i, m.cols + 1):
            if m.at(i, j) != -m.at(j, i):
                raise ValueError(f"matrix is not skew-symmetric at ({i}, {j})")


def _pf_elimination(m: ExactMatrix) -> GaussianRational:
    n = m.rows
    w = m.to_lists()
    sign = ONE
    result = ONE
    for k in range(0, n, 2):
        pivot_col = None
        for j in range(k + 1, n):
            if w[k][j]:
                pivot_col = j
                break
        if pivot_col is None:
            return ZERO
        if pivot_col != k + 1:
            # congruence swap of row/column pair flips the sign
            w[k + 1], w[pivot_col] = w[pivot_col], w[k + 1]
            for row in w:
                row[k + 1], row[pivot_col] = row[pivot_col], row[k + 1]
            sign = -sign
        pivot = w[k][k + 1]
        result = result * pivot
        for j in range(k + 2, n):
            if not w[k][j]:
                continue
            ratio = w[k][j] / pivot
            for i in range(n):
                w[i][j] = w[i][j] - ratio * w[i][k + 1]
            for c in range(n):
                w[j][c] = w[j][c] - ratio * w[k + 1][c]
    return sign * result


def _pf_expansion(m: ExactMatrix) -> GaussianRational:
    rows = m.to_lists()

    def rec(ids: list[int]) -> GaussianRational:
        if not ids:
            return ONE
        i = ids[0]
        total = ZERO
        for pos in range(1, len(ids)):
            j = ids[pos]
            a = rows[i][j]
            if not a:
                continue
            term = a * rec(ids[1:pos] + ids[pos + 1 :])
            total = total + (term if pos % 2 == 1 else -term)
        return total

    return rec(list(range(m.rows)))


def pfaffian(m: ExactMatrix, method: str = "elimination") -> GaussianRational:
    """Exact Pfaffian of an even-dimensional skew-symmetric matrix; Pf of the
    0x0 matrix is 1.  Odd dimension or non-skew input is rejected outright.

    ``expansion`` is the first-row-expansion oracle for sizes up to 6.
    """
    _check_skew(m)
    if method == "elimination":
        return _pf_elimination(m)
    if method == "expansion":
        return _pf_expansion(m)
    raise ValueError(f"unknown method {method!r}")
