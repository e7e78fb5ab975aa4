"""Builders for the structured matrices and combinatorial sums the checks use.

Each builder evaluates a displayed formula in exact arithmetic: moment
sequences of the little q-Jacobi polynomials, the determinant kernels built
from them, the denominator-cleared row matrix, its four triangular
companions X, L, Y and U (one builder each, plus the closed-form inverses
of Y and U), and the ordered-partition sum R_{n,nu}.  X and L share one
running product down each column, :func:`column_products`, which gives any
trailing range of rows: its last row holds the products P_{n,nu} that the
residue identities divide by.  Every sequence a builder reads (moments,
q-powers, q-shifted and rising factorials) is built once per call by one
running loop and read by index, and the n + 1 sums R_{n,0}..R_{n,n} come
from one backward dynamic program over the row indices instead of from
their C(n, nu) splittings.  The moments, and the prefix and suffix
factorials along a row of the cleared matrix, are running products taken
by the factorial loop of :mod:`qdetlab.qseries`.  All matrix builders use
the 1-based convention of the formulas.

Every matrix builder computes each entry as an unreduced (num, den) pair
(see ``gaussian._pmul``) and hands rows of pairs to
:meth:`ExactMatrix.from_pairs`, which clears each row to integers over
one denominator; no entry is reduced on the way.  That holds for the moment
kernels (Hankel, theorem and row-selected), the cleared row matrix, X and
L, the q-binomial triangulars Y and U and their inverses (one helper, which
reads the q-powers as pairs and the q-binomials as the pairs that
:func:`~qdetlab.qseries.q_binomials` reduces), and the classical kernels.
The dynamic program of R_{n,nu} reduces once per cell.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

from ..errors import PoleError
from ..gaussian import _MINUS_ONE, _ZERO, ONE, ZERO, GaussianRational, Pair, to_gq
from ..gaussian import _one_minus, _parts, _pdiv, _pmul, _psub, _reduced
from ..linalg import ExactMatrix
from ..qseries import _one_minus_powers, _product_pairs, _products, _q_binomial_pairs, rising_factorials


def moments(lo: int, hi: int, a, b, q) -> dict[int, GaussianRational]:
    """Little q-Jacobi moments mu_lo..mu_hi keyed by index, mu_m = (aq;q)_m / (abq^2;q)_m.

    mu_{m+1} = mu_m (1 - a q^{m+1}) / (1 - ab q^{m+2}), so the moments are
    the running products of these ratios, up from mu_0 = 1 and, for negative
    m, down from it; :func:`~qdetlab.qseries._products` runs both.  Each
    ratio's generator raises PoleError at a vanishing factor.  Poles are
    upward-closed for m >= 0 and downward-closed for m < 0, so the range
    raises PoleError exactly when one of its moments has a pole, and the
    upward pole when both directions have one.
    """
    a, b, q = to_gq(a), to_gq(b), to_gq(q)
    aq, abq2 = _parts(a * q), _parts(a * b * q * q)

    def up():
        for m, fx, fy in zip(range(1, hi + 1), _one_minus_powers(aq, q), _one_minus_powers(abq2, q)):
            if not fy[0]:
                raise PoleError("vanishing moment denominator", f"(abq^2;q)_{m}")
            yield _pdiv(fx, fy)

    def down():
        steps = zip(range(-1, lo - 1, -1), _one_minus_powers(aq, q, True), _one_minus_powers(abq2, q, True))
        for m, fx, fy in steps:
            if not fy[0] or not fx[0]:
                raise PoleError(
                    "vanishing factor in negative-index q-shifted factorial",
                    f"(abq^2;q)_{m}" if not fy[0] else f"(aq;q)_{m}",
                )
            yield _pdiv(fx, fy)

    return dict(zip(range(lo, hi + 1), _products(lo, hi, up(), down())))


def moment(m: int, a, b, q) -> GaussianRational:
    """Little q-Jacobi moment mu_m = (aq;q)_m / (abq^2;q)_m, any integer m."""
    return moments(m, m, a, b, q)[m]


class _Powers(dict):
    """q**e keyed by exponent e, each computed on first use; one table per builder call."""

    def __init__(self, q: GaussianRational):
        super().__init__()
        self.q = q

    def __missing__(self, e: int) -> GaussianRational:
        power = self[e] = self.q**e
        return power


def _row_moments(k_tuple: Sequence[int], a, b, q) -> dict[int, GaussianRational]:
    """The moments mu_{k_i+j-2} (1 <= j <= n) that a row-selected kernel reads."""
    if not k_tuple:
        return {}
    return moments(min(k_tuple) - 1, max(k_tuple) + len(k_tuple) - 2, a, b, q)


def moment_hankel_rows(k_tuple: Sequence[int], a, b, q) -> ExactMatrix:
    """Row-selected moment matrix (mu_{k_i+j-2})."""
    n = len(k_tuple)
    mu = {m: _parts(v) for m, v in _row_moments(k_tuple, a, b, q).items()}
    return ExactMatrix.from_pairs(n, n, [[mu[k + j] for j in range(-1, n - 1)] for k in k_tuple])


def _kernel(rows: Sequence[tuple[GaussianRational, int]], mu: dict[int, GaussianRational], c, qp) -> ExactMatrix:
    """The kernel ((x_i - c q^{j-1}) mu_{o_i+j-1}) over rows (x_i, o_i), each
    entry one unreduced pair; qp is the builder's table of q-powers."""
    n = len(rows)
    cq = [_parts(c * qp[j]) for j in range(n)]
    mu = {m: _parts(v) for m, v in mu.items()}
    lines = []
    for x, o in rows:
        x = _parts(x)
        lines.append([_pmul(_psub(x, y), mu[o + j]) for j, y in enumerate(cq)])
    return ExactMatrix.from_pairs(n, n, lines)


def build_theorem_matrix(n: int, r: int, a, b, c, q) -> ExactMatrix:
    """The shifted kernel ((q^{i-1} - c q^{j-1}) mu_{i+j+r-2})_{1<=i,j<=n}.

    At c = 1 the prefactor is antisymmetric and the matrix is exactly skew.
    """
    a, b, c, q = to_gq(a), to_gq(b), to_gq(c), to_gq(q)
    mu = moments(r, 2 * n + r - 2, a, b, q)
    qp = _Powers(q)
    return _kernel([(qp[i], i + r) for i in range(n)], mu, c, qp)


def theorem_matrix_rows(k_tuple: Sequence[int], a, b, c, q) -> ExactMatrix:
    """Arbitrary-rows kernel ((q^{k_i-1} - c q^{j-1}) mu_{k_i+j-2})."""
    a, b, c, q = to_gq(a), to_gq(b), to_gq(c), to_gq(q)
    mu = _row_moments(k_tuple, a, b, q)
    qp = _Powers(q)
    return _kernel([(qp[k - 1], k - 1) for k in k_tuple], mu, c, qp)


def _row_factor_pairs(x, a, ab, q, n: int) -> list[Pair]:
    """(a x;q)_{j-1} (ab x q^j;q)_{n-j} for j = 1..n as unreduced pairs, at
    list index j - 1, for scalars x, a, ab and q: the prefixes of (a x;q)_n
    and, as in :func:`~qdetlab.qseries.q_pochhammer_tails`, the suffixes of
    (ab x;q)_n from its top factor down, each one run of the factorial loop.
    a x and ab x enter as unreduced pair products, with no gcd."""
    x = _parts(x)
    prefix = _product_pairs(0, n - 1, _one_minus_powers(_pmul(_parts(a), x), q))  # (a x;q)_t at t
    tops = list(islice(_one_minus_powers(_pmul(_parts(ab), x), q), 1, n))  # 1 - ab x q^m for m = 1..n-1
    suffix = _product_pairs(0, n - 1, reversed(tops))  # (ab x q^{n-t};q)_t at t
    return list(map(_pmul, prefix, reversed(suffix)))


def row_factors(x, a, ab, q, n: int) -> list[GaussianRational]:
    """(a x;q)_{j-1} (ab x q^j;q)_{n-j} for j = 1..n, at list index j - 1.

    The first factorial is a prefix of (a x;q)_n and the second a suffix of
    (ab x;q)_n, so the n values take one running product of each.
    """
    return [_reduced(*t) for t in _row_factor_pairs(to_gq(x), to_gq(a), to_gq(ab), to_gq(q), n)]


def build_m(k_tuple: Sequence[int], a, b, c, q) -> ExactMatrix:
    """Denominator-cleared row matrix with entries
    (q^{k_i-1} - c q^{j-1}) (a q^{k_i};q)_{j-1} (a b q^{k_i+j};q)_{n-j},
    each row's factorials the unreduced pairs that :func:`row_factors`
    reduces, at x = q^{k_i}; the entries are handed over unreduced.
    """
    a, b, c, q = to_gq(a), to_gq(b), to_gq(c), to_gq(q)
    n = len(k_tuple)
    ab = a * b
    qp = _Powers(q)
    cq = [_parts(c * qp[j]) for j in range(n)]
    lines = []
    for k in k_tuple:
        factors = _row_factor_pairs(qp[k], a, ab, q, n)
        xk = _parts(qp[k - 1])
        lines.append([_pmul(_psub(xk, y), f) for y, f in zip(cq, factors)])
    return ExactMatrix.from_pairs(n, n, lines)


def column_products(xs: Sequence[GaussianRational], shift: GaussianRational, first: int = 1) -> list[list[Pair]]:
    """Rows first..n of the lower triangular matrix with entry (i, j), i >= j,
    -1/P_{ij} for P_{ij} = x_j (1 - shift x_j) prod_{l <= i, l != j} (x_l - x_j), as unreduced pairs.

    P_{ij} is carried down column j in one pass, one factor per row, and
    divided into -1 only on the rows asked for.  P_{ij} divides P_{nj}, so row
    n alone raises ZeroDivisionError at exactly the points where all rows do.
    """
    n, start = len(xs), first - 1
    if not 0 <= start < max(n, 1):
        raise ValueError(f"first row {first} is outside 1..{n}")
    xs, shift = [_parts(x) for x in xs], _parts(shift)
    lines = [[_ZERO] * n for _ in range(start, n)]
    for j, x in enumerate(xs):
        prod = _pmul(x, _one_minus(shift, x))
        for i, y in enumerate(xs):
            if i != j:
                prod = _pmul(prod, _psub(y, x))
            if i >= j and i >= start:
                lines[i - start][j] = _pdiv(_MINUS_ONE, prod)
    return lines


def x_matrix(k_tuple: Sequence[int], a, q, first: int = 1) -> ExactMatrix:
    """Rows first..n of the lower triangular X over the k-tuple: entry (i, j),
    i >= j, is -1 / (q^{k_j} (1 - a q^{k_j}) prod_{l <= i, l != j} (q^{k_l} - q^{k_j}))."""
    q = to_gq(q)
    lines = column_products([q**k for k in k_tuple], to_gq(a), first)
    return ExactMatrix.from_pairs(len(lines), len(k_tuple), lines)


def l_matrix(k_tuple: Sequence[int], a, b, q, first: int = 1) -> ExactMatrix:
    """Rows first..n of the lower triangular L: X with a replaced by ab q^{n-1}, n = len(k_tuple)."""
    q = to_gq(q)
    return x_matrix(k_tuple, to_gq(a) * to_gq(b) * q ** (len(k_tuple) - 1), q, first)


def _q_binomial_matrix(n: int, q, entry) -> ExactMatrix:
    """The n x n matrix whose entry (i, j) is (-1)^s q^e [top, k]_q for
    (s, e, top, k) = entry(i, j), or 0 where entry gives None; [top, k]_q is 0
    for k outside 0..top, but q^e is read even then, so that q = 0 raises at
    a negative exponent.  The q-powers and the q-binomials, from one
    (q;q)_0..(q;q)_n table, are pairs."""
    q = to_gq(q)
    qp = _Powers(q)
    binomial = _q_binomial_pairs(q, n)
    lines = []
    for i in range(1, n + 1):
        line = []
        for j in range(1, n + 1):
            spec = entry(i, j)
            if spec is None:
                line.append(_ZERO)
                continue
            s, e, top, k = spec
            r, d = _pmul(_parts(qp[e]), binomial(top, k))
            line.append((-r, d) if s % 2 else (r, d))
        lines.append(line)
    return ExactMatrix.from_pairs(n, n, lines)


def y_matrix(n: int, q) -> ExactMatrix:
    """Lower unitriangular q-binomial Y: (-1)^{i+j} q^{-(i-j)(2n+1-i-j)/2} [n-j, i-j]_q for i >= j."""
    return _q_binomial_matrix(
        n, q, lambda i, j: None if i < j else (i + j, -((i - j) * (2 * n + 1 - i - j)) // 2, n - j, i - j)
    )


def u_matrix(n: int, q) -> ExactMatrix:
    """Upper unitriangular q-binomial U: (-1)^{i+j} q^{(j-i)(j-i+1)/2} [j-1, j-i]_q for i <= j."""
    return _q_binomial_matrix(
        n, q, lambda i, j: None if i > j else (i + j, ((j - i) * (j - i + 1)) // 2, j - 1, j - i)
    )


def y_inverse(n: int, q) -> ExactMatrix:
    """Closed-form inverse of Y: q^{(j-i)(n+1-i)} [n-j, i-j]_q."""
    return _q_binomial_matrix(n, q, lambda i, j: (0, (j - i) * (n + 1 - i), n - j, i - j))


def u_inverse(n: int, q) -> ExactMatrix:
    """Closed-form inverse of U: q^{j-i} [j-1, i-1]_q."""
    return _q_binomial_matrix(n, q, lambda i, j: (0, j - i, j - 1, i - 1))


def r_values(n: int, k_tuple: Sequence[int], a, b, q) -> list[GaussianRational]:
    """[R_{n,0}, ..., R_{n,n}], the ordered disjoint-pair partition sums.

    R_{n,nu} runs over splittings of {1..n} into an increasing (n-nu)-tuple i
    and its increasing nu-tuple complement j, weighting each by
    q^{sum i_l - n + nu} prod (1 - a q^{k_{i_l}-i_l+l+nu}) prod (1 - ab q^{k_{j_l}+j_l-l+nu-1}).

    Place v = 1..n in turn and let s be nu plus the number of earlier values
    placed in the i-tuple.  Placing v in the i-tuple (while s < n) multiplies
    by q^{v-1} (1 - a q^{k_v-v+s+1}) = q^{v-1} - a q^{k_v+s} and moves s to
    s + 1; placing it in the j-tuple (while v <= s) multiplies by
    (1 - ab q^{k_v+s-1}) and keeps s.  Neither weight depends on nu, so one
    backward pass serves every nu: H_n(s) = [s = n], H_{v-1}(s) sums the two
    steps into H_v, and R_{n,nu} = H_0(nu).  Only the cells s >= v - 1 can
    reach s = n, and only they are computed, so every q-exponent is
    nonnegative and R is defined at q = 0.  All n + 1 values cost O(n^2)
    factors.
    """
    if len(k_tuple) < n:
        raise ValueError("k-tuple shorter than n")
    a, b, q = to_gq(a), to_gq(b), to_gq(q)
    ab = a * b
    qp = _Powers(q)
    at, abt = _parts(a), _parts(ab)
    h = [ZERO] * n + [ONE]  # H_v(s) at list index s
    for v in range(n, 0, -1):
        k, qv = k_tuple[v - 1], _parts(qp[v - 1])
        # In place, upward in s: H_{v-1}(s) reads H_v(s) and H_v(s + 1).
        # H_v(v - 1) was never written and is 0, so the j-step needs no v <= s test.
        # Each cell is one pair, reduced once.
        for s in range(v - 1, n + 1):
            total = _pmul(_parts(h[s]), _one_minus(abt, _parts(qp[k + s - 1]))) if h[s] else _ZERO
            if s < n and h[s + 1]:
                total = _psub(total, _pmul(_parts(h[s + 1]), _psub(_pmul(at, _parts(qp[k + s])), qv)))
            h[s] = _reduced(*total)
    return h


def mehta_wang_matrix(n: int, a, b) -> ExactMatrix:
    """Gamma-normalized classical kernel ((a + j - i) (b)_{i+j-2})_{1<=i,j<=n}."""
    ar, ad = _parts(to_gq(a))
    rf = [_parts(v) for v in rising_factorials(b, 0, 2 * n - 2).values()]
    lines = [[_pmul((ar + (j - i) * ad, ad), rf[i + j]) for j in range(n)] for i in range(n)]
    return ExactMatrix.from_pairs(n, n, lines)


def nishizawa_matrix(n: int, s, t, q) -> ExactMatrix:
    """q-Gamma-normalized kernel ((q^{i-1} - s^2 q^{j-1}) (t^2;q)_{i+j-2}).

    This is the theorem kernel at a = t^2/q, b = 0, c = s^2, r = 0: with
    b = 0 the moment denominator (abq^2;q)_m is 1, so mu_m = (t^2;q)_m.  It
    is the Nishizawa case that the main theorem generalises.
    """
    s, t, q = to_gq(s), to_gq(t), to_gq(q)
    return build_theorem_matrix(n, 0, t * t / q, ZERO, s * s, q)


def classical_matrix(n: int, r: int, alpha, beta, gamma) -> ExactMatrix:
    """Classical-limit kernel ((gamma + j - i) (alpha+1)_{i+j+r-2} / (alpha+beta+2)_{i+j+r-2})."""
    alpha, beta = to_gq(alpha), to_gq(beta)
    gr, gd = _parts(to_gq(gamma))
    den = {m: _parts(v) for m, v in rising_factorials(alpha + beta + 2, r, 2 * n + r - 2).items()}
    num = {m: _parts(v) for m, v in rising_factorials(alpha + 1, r, 2 * n + r - 2).items()}
    lines = []
    for i in range(n):
        line = []
        for j in range(n):
            m = i + j + r
            if not den[m][0]:
                raise PoleError("vanishing classical moment denominator", f"(alpha+beta+2)_{m}")
            line.append(_pdiv(_pmul((gr + (j - i) * gd, gd), num[m]), den[m]))
        lines.append(line)
    return ExactMatrix.from_pairs(n, n, lines)
