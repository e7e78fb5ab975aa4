"""Exact dense matrices over QQ: determinants, minors, Pfaffians, submatrices.

A matrix is stored as its cleared integer rows: row r is kept once, as
(L_r, w_r), where L_r is the lcm of the reduced denominators of the row's
entries and w_r is the integer row L_r times it, so entry (r, c) is
w_r[c] / L_r.  One routine, ``_row``, makes every stored row: given a line
over any common denominator, it divides the denominator and the integer
line by their one gcd, which leaves the least denominator, so equal
matrices have equal rows.  A matrix is built from rows of pairs
(num, den) (see ``gaussian._pmul``), not necessarily in lowest terms:
each row is scaled to the lcm of its denominators and handed to ``_row``.
The public constructors turn scalars into pairs; the builders of
:mod:`qdetlab.identities.builders` hand over their unreduced pairs as
they are.  Submatrices, transposes and products already know a common
denominator of each output row (L_r, the lcm of the L_r, L_i times the lcm
of the right factor's L_k) and re-clear it with ``_row`` alone: one gcd per
row.  An entry is reduced to a scalar only when it is read (``at``,
``to_lists``).  Each routine runs over the integers alone.

The public index convention is 1-based, matching the displayed formulas the
matrices come from.  Determinants, minors and Pfaffians read the stored
rows directly, and a product entry is one integer dot product.  ``minor``
(the minors of ``dj_generic``, ``pq_lemma`` and ``triangular_inverses``)
eliminates the selected stored entries as they are and divides by the
selected L_r: a determinant does not care which common denominator a row
is kept over, so no row is re-cleared.  ``submatrix`` keeps the re-clear,
because its matrices are compared with ``==``, which needs canonical rows.
``bordered_determinants`` (``vandermonde_vw``) eliminates n - 1 shared
columns once, and the last row holds each bordered determinant.
Elimination is fraction-free, and every later division is exact (Bareiss 1968 for
determinants, the Pfaffian form of Sylvester's identity for Pfaffians;
Knuth, "Overlapping Pfaffians", 1996).  Each value is reduced to lowest
terms once, at the end.  Pivots are the first nonzero entries, so runs stay
reproducible.  There is one elimination loop per kernel and order range.

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

from .gaussian import ONE, ZERO, GaussianRational, Pair, _reduced, to_gq

# One stored row (L, w): the row is w / L, with L as small as it can be.
Row = tuple[int, tuple[int, ...]]


def _row(l: int, w: list[int]) -> Row:
    """The stored row of the line w / l, for any common denominator l > 0
    of its entries: l and w divided by their gcd.

    Every common denominator of a line is a multiple k L of the least one,
    L, and no prime divides L and all of the integers L * line (else L / p
    would clear the line), so the gcd of l and w is k.
    """
    g = gcd(l, *w)
    if g != 1:
        return l // g, tuple([x // g for x in w])
    return l, tuple(w)


def _stored(rows: int, cols: int, cleared: tuple[Row, ...]) -> "ExactMatrix":
    """The rows x cols matrix with the given stored rows, each made by _row."""
    m = object.__new__(ExactMatrix)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "_cleared_rows", cleared)
    return m


class ExactMatrix:
    """Immutable dense matrix over QQ (1-based access), stored as its
    cleared integer rows; entries read back as GaussianRational scalars."""

    __slots__ = ("rows", "cols", "_cleared_rows")

    def __new__(cls, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        e = [x if type(x) is GaussianRational else to_gq(x) for x in entries]
        if len(e) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(e)}")
        lines = [[(x._r, x._d) for x in e[r * cols : (r + 1) * cols]] for r in range(rows)]
        return cls.from_pairs(rows, cols, lines)

    @staticmethod
    def from_pairs(rows: int, cols: int, lines: Sequence[Sequence[Pair]]) -> "ExactMatrix":
        """The rows x cols matrix whose entry (i, j) is the value of the
        pair lines[i - 1][j - 1] (den > 0, not necessarily in lowest
        terms); each row is cleared over the lcm of its denominators."""
        if len(lines) != rows or any(map(cols.__ne__, map(len, lines))):
            raise ValueError(f"expected {rows} rows of {cols} entries")
        cleared = []
        for line in lines:
            l = lcm(*[d for _, d in line])
            cleared.append(_row(l, [r * (l // d) for r, d in line]))
        return _stored(rows, cols, tuple(cleared))

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
        """Entry at row i, column j (both 1-based), reduced as it is read."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"index ({i}, {j}) out of range for {self.rows}x{self.cols} matrix")
        l, w = self._cleared_rows[i - 1]
        return _reduced(w[j - 1], l)

    def to_lists(self) -> list[list[GaussianRational]]:
        return [[_reduced(x, l) for x in w] for l, w in self._cleared_rows]

    def transpose(self) -> "ExactMatrix":
        # Column j is w_r[j] / L_r down the rows r: over the lcm of the L_r
        # it is one integer line.
        rows = self._cleared_rows
        l = lcm(*[lr for lr, _ in rows])
        scaled = [(l // lr, w) for lr, w in rows]
        columns = [_row(l, [w[j] * t for t, w in scaled]) for j in range(self.cols)]
        return _stored(self.cols, self.rows, tuple(columns))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Matrix product over the integers.

        With other = V / M row by row and M' the lcm of the M_k, row i of
        the product is (w_i * (M' / M)) V over L_i M': one integer dot
        product per entry, then one gcd per row.
        """
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        b = other._cleared_rows
        l = lcm(*[m for m, _ in b])
        scale = [l // m for m, _ in b]
        columns = [[v[j] for _, v in b] for j in range(other.cols)]
        out = []
        for li, w in self._cleared_rows:
            x = list(map(mul, w, scale))
            out.append(_row(li * l, [sum(map(mul, x, y)) for y in columns]))
        return _stored(self.rows, other.cols, tuple(out))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._cleared_rows == other._cleared_rows

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._cleared_rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.to_lists())
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def _check_indices(m: ExactMatrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> None:
    for i in row_idx:
        if not 1 <= i <= m.rows:
            raise IndexError(f"row index {i} out of range")
    for j in col_idx:
        if not 1 <= j <= m.cols:
            raise IndexError(f"column index {j} out of range")


def submatrix(m: ExactMatrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> ExactMatrix:
    """Rows and columns selected by 1-based index lists, in the given order."""
    _check_indices(m, row_idx, col_idx)
    rows = m._cleared_rows
    picked = [_row(l, [w[j - 1] for j in col_idx]) for l, w in (rows[i - 1] for i in row_idx)]
    return _stored(len(row_idx), len(col_idx), tuple(picked))


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


def _determinant(w: list[list[int]], l: int) -> GaussianRational:
    """det(W) / l for a square integer matrix W, by the loop for its order."""
    if len(w) >= STRIP_ORDER:
        return _reduced(_bareiss_primitive(w), l)
    return _reduced(_bareiss_real(w, len(w) - 1)[0], l)


def determinant(m: ExactMatrix) -> GaussianRational:
    """Exact determinant by fraction-free Bareiss elimination over the
    integers, with first-nonzero pivoting, after each row is scaled by the
    lcm of its denominators; the 0x0 determinant is 1.  From order
    STRIP_ORDER on, the elimination runs on the primitive parts of the
    trailing blocks."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    rows = m._cleared_rows
    return _determinant([list(w) for _, w in rows], prod([l for l, _ in rows]))


def minor(m: ExactMatrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> GaussianRational:
    """det(submatrix(m, row_idx, col_idx)), read from the stored rows with
    no matrix built in between."""
    _check_indices(m, row_idx, col_idx)
    if len(row_idx) != len(col_idx):
        raise ValueError("minor requires as many rows as columns")
    picked = [m._cleared_rows[i - 1] for i in row_idx]
    return _determinant([[w[j - 1] for j in col_idx] for _, w in picked], prod([l for l, _ in picked]))


def bordered_determinants(m: ExactMatrix) -> list[GaussianRational]:
    """The k determinants of the first n - 1 columns of an n x (n - 1 + k)
    matrix (n >= 1) bordered by each later column, from one elimination.
    The bordered families stay below STRIP_ORDER: the plain loop only."""
    if not 0 < m.rows <= m.cols:
        raise ValueError("bordered determinants require 1 <= rows <= columns")
    rows = m._cleared_rows
    l = prod([l for l, _ in rows])
    return [_reduced(x, l) for x in _bareiss_real([list(w) for _, w in rows], m.rows - 1)]


# Bareiss on the cleared matrix W: after step k, w[r][c] (r, c > k) is the
# minor on rows 0..k, r and columns 0..k, c, so each division by the previous
# pivot q is exact; after n - 1 steps the last row holds the minors on the
# n - 1 lead columns and one later column (for square W, det(M) * prod(L)).
# The minors of the moment kernels carry large integer factors common to a
# whole trailing block, which the plain loop multiplies and divides again at
# every step; from STRIP_ORDER on, W is eliminated on the primitive parts of
# its trailing blocks instead (_bareiss_primitive), carrying each block's
# scale exactly.  Both loops swap rows to the first nonzero pivot (flipping
# the sign) and give 0 when a column has none; the plain loop works in
# place.


def _bareiss_real(w: list[list[int]], lead: int) -> list[int]:
    """The last row of the integer matrix W after eliminating its first
    ``lead`` columns, signed by the row swaps: 2 products and 1 division
    per entry.  [1] for the 0 x 0 matrix, whose determinant is 1."""
    n, cols = len(w), len(w[0]) if w else 0
    sign, q = 1, 1
    for k in range(lead):
        for p in range(k, n):
            if w[p][k]:
                break
        else:
            return [0] * (cols - lead)
        if p != k:
            w[k], w[p] = w[p], w[k]
            sign = -sign
        pivot_row = w[k]
        pivot = pivot_row[k]
        for r in range(k + 1, n):
            row = w[r]
            b = row[k]
            for c in range(k + 1, cols):
                row[c] = (row[c] * pivot - b * pivot_row[c]) // q
        q = pivot
    return [sign * x for x in w[-1][lead:]] if w else [1]


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
    rows, n = m._cleared_rows, m.cols
    # Entry (i, j) is w_i[j] / L_i, so M is skew when w_i[j] L_j == -w_j[i] L_i.
    for i, (li, wi) in enumerate(rows):
        for j in range(i, n):
            lj, wj = rows[j]
            if wi[j] * lj != -wj[i] * li:
                raise ValueError(f"matrix is not skew-symmetric at ({i + 1}, {j + 1})")
    # W = D M D with D = diag(L) is skew over the integers and Pf W = Pf(M) * prod(L).
    ls = [l for l, _ in rows]
    w = [list(map(mul, wi, ls)) for _, wi in rows]
    # Dividing row i and column i by g is a congruence that divides Pf by g.
    content = _strip_content(w) if n >= STRIP_ORDER else 1
    return _reduced(content * _pfaffian_real(w), prod(ls))


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

