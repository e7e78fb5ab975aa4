"""Exact dense matrices over QQ: determinants, Pfaffians, submatrices.

Entries are GaussianRational scalars with zero imaginary part; the
constructor rejects any other.  Every kernel of the paper is real when its
parameters are, and the imaginary unit enters only through the scalar
parameters of the closed forms, so the matrices are real and each routine
runs over the integers alone.

The public index convention is 1-based, matching the displayed formulas the
matrices come from; storage is a row-major list.  Products, determinants
and Pfaffians first clear each row (and, for the right factor of a
product, each column) of its denominators.  A product entry is then one
integer dot product.  Elimination is fraction-free, and every later
division is exact (Bareiss 1968 for determinants, the Pfaffian form of
Sylvester's identity for Pfaffians; Knuth, "Overlapping Pfaffians", 1996).
Each value is reduced to lowest terms once, at the end.  Pivots are the
first nonzero entries, so runs stay reproducible.  There is one
elimination loop per kernel and order range.

From order STRIP_ORDER = 9 on, a determinant is eliminated on the
primitive parts of its trailing blocks: each step forms the new block
without dividing by the previous pivot, divides it by its content (the gcd
of all its entries), and carries the block's true scale g exactly as
g' = g^2 c / q, an integer because the true Bareiss block g^2 X / q is
integral and X / c is primitive.  The integer matrix of a Pfaffian is
stripped of its integer content instead: row r and column r are divided
by the gcd of row r (a congruence), and the product of those gcds is
multiplied back into the result.  The minors of the large moment kernels
share big integer factors, and dividing them out shortens every operand
of the elimination.  On the determinants of the moment kernels of orders
4-12, the primitive loop took x0.54-0.77 of the time of the plain loop
after a one-off content strip at orders 9-12, about as long at order 8,
and x1.19-2.62 of the plain loop's time at orders 4-7.  Stripping took
x0.59-0.95 of the elimination time for Pfaffians of order 10 and 12 and
x1.32-1.58 at order 4-8.  The tests check each path against expansion
oracles.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm, prod
from operator import mul
from typing import Callable, Sequence

from .gaussian import ONE, ZERO, GaussianRational, _reduced, to_gq


class ExactMatrix:
    """Immutable dense matrix of real GaussianRational entries (1-based access)."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        e = [x if type(x) is GaussianRational else to_gq(x) for x in entries]
        if len(e) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(e)}")
        for k, x in enumerate(e):
            if x._i:
                raise ValueError(f"entry ({k // cols + 1}, {k % cols + 1}) is not real: {x}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_e", tuple(e))

    @classmethod
    def _of(cls, rows: int, cols: int, entries: tuple) -> "ExactMatrix":
        """A rows x cols matrix over a tuple of entries that are already
        real GaussianRational scalars, taken as they are."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_e", entries)
        return m

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
        """Matrix product over the integers.

        Row i of self is cleared by L_i, the lcm of its denominators, and
        column j of other by M_j, so entry (i, j) is one integer dot
        product, reduced once over L_i M_j.
        """
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        ls, a = _cleared(self.to_lists())
        ms, b = _cleared([other._e[j :: other.cols] for j in range(other.cols)])
        out = tuple([_reduced(sum(map(mul, x, y)), 0, l * m) for l, x in zip(ls, a) for m, y in zip(ms, b)])
        return ExactMatrix._of(self.rows, other.cols, out)

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
    e, n = m._e, m.cols
    picked = tuple([e[(i - 1) * n + j - 1] for i in row_idx for j in col_idx])
    return ExactMatrix._of(len(row_idx), len(col_idx), picked)


def _cleared(lines) -> tuple[list[int], list[list[int]]]:
    """(L, rows): line r (a row or a column) times L[r], the lcm of its
    denominators, as a list of integers."""
    ls, out = [], []
    for line in lines:
        l = lcm(*[x._d for x in line])
        ls.append(l)
        out.append([x._r * (l // x._d) for x in line])
    return ls, out


# The order from which a determinant is eliminated on primitive parts
# and a Pfaffian's cleared matrix is stripped of its integer content: the
# measured crossover (see the module docstring).
STRIP_ORDER = 9


def _strip_content(w: list[list[int]]) -> int:
    """Divide row r and column r of the integer skew matrix W by the gcd of
    row r's entries, in place and row by row; returns the product of those
    gcds.  A zero row is left as it is.  This is a congruence, so it divides
    the Pfaffian by that product."""
    content = 1
    for r, row in enumerate(w):
        g = gcd(*row)
        if g > 1:
            w[r] = [x // g for x in row]
            for other, x in zip(w, w[r]):
                other[r] = -x
            content *= g
    return content


def determinant(m: ExactMatrix) -> GaussianRational:
    """Exact determinant by fraction-free Bareiss elimination over the
    integers, with first-nonzero pivoting, after each row is scaled by the
    lcm of its denominators; the 0x0 determinant is 1.  From order
    STRIP_ORDER on, the elimination runs on the primitive parts of the
    trailing blocks."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    ls, w = _cleared(m.to_lists())
    eliminate = _bareiss_primitive if m.rows >= STRIP_ORDER else _bareiss_real
    return _reduced(eliminate(w), 0, prod(ls))


# Bareiss on the cleared matrix W: after step k, w[r][c] (r, c > k) is the
# minor on rows 0..k, r and columns 0..k, c, so each division by the previous
# pivot q is exact; the last pivot is det W = det(M) * prod(L).  The minors
# of the moment kernels carry large integer factors common to a whole
# trailing block, which the plain loop multiplies and divides again at every
# step; from STRIP_ORDER on, W is eliminated on the primitive parts of
# its trailing blocks instead (_bareiss_primitive), carrying each block's
# scale exactly.  Both loops swap rows to the first nonzero pivot (flipping
# the sign) and return 0 when a column has none; the plain loop works in
# place.


def _bareiss_real(w: list[list[int]]) -> int:
    """det W for an integer matrix W: 2 products and 1 division per entry."""
    n = len(w)
    sign, q = 1, 1
    for k in range(n):
        for p in range(k, n):
            if w[p][k]:
                break
        else:
            return 0
        if p != k:
            w[k], w[p] = w[p], w[k]
            sign = -sign
        pivot_row = w[k]
        pivot = pivot_row[k]
        for r in range(k + 1, n):
            row = w[r]
            b = row[k]
            for c in range(k + 1, n):
                row[c] = (row[c] * pivot - b * pivot_row[c]) // q
        q = pivot
    return sign * q


def _bareiss_primitive(w: list[list[int]]) -> int:
    """det W for an integer matrix W, eliminated on the primitive parts of
    its trailing blocks: 2 products per entry, then 1 division by the
    block's content where that is above 1.

    The block w kept is the true Bareiss block over its scale g.  A step
    forms X = p w[r][c] - b w[k][c] without dividing, so the true block is
    g^2 X / q, q the previous true pivot.  X is divided by its content c,
    the gcd of all its entries; X / c is primitive and g^2 X / q is
    integral, so g' = g^2 c / q is an integer.  The true pivot is g p, and
    the last one is det W up to the sign of the row swaps.  A block that
    vanishes has c = 0, so g' = 0 and the next step finds no pivot.  Each
    step keeps only the trailing block, so w shrinks by a row and a column.
    """
    sign, g, q = 1, 1, 1
    while w:
        for p, row in enumerate(w):
            if row[0]:
                break
        else:
            return 0
        if p:
            w[0], w[p] = w[p], w[0]
            sign = -sign
        pivot, *tail = w[0]
        w = [[x * pivot - b * y for x, y in zip(rest, tail)] for b, *rest in w[1:]]
        c = gcd(*chain.from_iterable(w))
        if c > 1:
            w = [[x // c for x in row] for row in w]
        g, q = g * g * c // q, g * pivot
    return sign * q


def pfaffian(m: ExactMatrix) -> GaussianRational:
    """Exact Pfaffian of an even-dimensional skew-symmetric matrix; Pf of the
    0x0 matrix is 1.  Odd dimension or non-skew input is rejected outright.

    Fraction-free pivot-pair elimination over the integers, with the first
    nonzero partner in the pivot row, after the congruence W = D M D, D the
    diagonal of the rows' lcms of denominators.  From order STRIP_ORDER on,
    W is stripped of its integer content first.
    """
    if m.rows != m.cols:
        raise ValueError("Pfaffian requires a square matrix")
    if m.rows % 2 == 1:
        raise ValueError("Pfaffian requires even dimension")
    e, n = m._e, m.cols
    for i in range(n):
        for j in range(i, n):
            a, b = e[i * n + j], e[j * n + i]
            if a._r != -b._r or a._d != b._d:
                raise ValueError(f"matrix is not skew-symmetric at ({i + 1}, {j + 1})")
    # W = D M D with D = diag(L) is skew over the integers and Pf W = Pf(M) * prod(L).
    ls, w = _cleared(m.to_lists())
    for row in w:
        for c, l in enumerate(ls):
            row[c] *= l
    # Dividing row i and column i by g is a congruence that divides Pf by g.
    content = _strip_content(w) if n >= STRIP_ORDER else 1
    return _reduced(content * _pfaffian_real(w), 0, prod(ls))


# Pivot-pair elimination on the skew matrix W: eliminating the pair (k, k+1)
# replaces w[i][j] (k+1 < i < j) by the Pfaffian of W on rows 0..k+1, i, j,
# so the division by the previous pivot q is exact, and the last pivot is
# Pf W.  The loop works in place, keeps the lower triangle as the negated
# upper one, brings the first nonzero partner of row k to k+1 by a congruence
# swap (flipping the sign) and returns 0 when row k has none.


def _pfaffian_real(w: list[list[int]]) -> int:
    """Pf W for an integer skew matrix W: 3 products and 1 division per entry."""
    n = len(w)
    sign, q = 1, 1
    for k in range(0, n, 2):
        k1 = k + 1
        pivot_row = w[k]
        for p in range(k1, n):
            if pivot_row[p]:
                break
        else:
            return 0
        if p != k1:
            w[k1], w[p] = w[p], w[k1]
            for row in w:
                row[k1], row[p] = row[p], row[k1]
            sign = -sign
        partner_row = w[k1]
        pivot = pivot_row[k1]
        for i in range(k + 2, n):
            row = w[i]
            a, b = pivot_row[i], partner_row[i]
            for j in range(i + 1, n):
                # p * w[i][j] - w[k][i] * w[k1][j] + w[k][j] * w[k1][i]
                v = (pivot * row[j] - a * partner_row[j] + pivot_row[j] * b) // q
                row[j] = v
                w[j][i] = -v
        q = pivot
    return sign * q

