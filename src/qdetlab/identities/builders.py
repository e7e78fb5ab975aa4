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

The moment kernels, the cleared row matrix, Y, U, their inverses and the
classical kernels hand :meth:`ExactMatrix.from_integer_rows` integer rows
formed from int tables, with no scalar and no pair per entry.  For q = u/v
and c = g/h in lowest terms, the prefactor rows (q^e - c q^j)_j are integers
over h u^{-lo} v^{hi}, times a row's window of reduced moments or its
factorial pairs, cleared over their lcm.  Y, U and their inverses read
v^{k(t-k)} [t, k]_q from the homogenised q-Pascal rule, and R_{n,nu} runs on
integers over one denominator per step.  X and L keep a pair -1/P_ij per entry.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice, repeat
from math import lcm
from operator import mul
from typing import Sequence

from ..errors import PoleError
from ..gaussian import _MINUS_ONE, _ZERO, ZERO, GaussianRational, Pair, to_gq
from ..gaussian import _one_minus, _parts, _pdiv, _pmul, _psub, _reduced
from ..linalg import ExactMatrix
from ..qseries import _one_minus_powers, _product_pairs, _products, rising_factorials


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
    aq = _pmul(_parts(a), _parts(q))
    abq2 = _pmul(_pmul(aq, _parts(b)), _parts(q))

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


def _q_powers(q: GaussianRational, lo: int, hi: int) -> tuple[list[int], int]:
    """([p_lo, .., p_hi], w) with q^t = p_t / w, w > 0: for q = u/v in lowest
    terms, p_t = u^{t-lo} v^{hi-t} and w = u^{-lo} v^{hi}, both negated when
    u^{-lo} < 0, from running products.  At q = 0, lo < 0 raises ZeroDivisionError."""
    u, v = _parts(q)
    if lo < 0 and not u:
        raise ZeroDivisionError("division by zero in QQ")
    us, vs = (list(accumulate(repeat(x, hi - lo), mul, initial=1)) for x in (u, v))
    s = 1 if us[-lo] > 0 else -1
    return [s * us[t] * vs[hi - lo - t] for t in range(hi - lo + 1)], s * us[-lo] * vs[hi]


def _power_pairs(q: GaussianRational, exponents: Sequence[int]) -> list[Pair]:
    """q^e for each e in ``exponents``: the pair (u^e, v^e) for q = u/v, or (1/q)^-e."""
    (u, v), (iu, iv) = _parts(q), _parts(q.reciprocal()) if min(exponents, default=0) < 0 else (0, 1)
    return [(u**e, v**e) if e >= 0 else (iu**-e, iv**-e) for e in exponents]


def _prefactor(exponents: Sequence[int], n: int, c, q) -> tuple[int, list[int], list[int]]:
    """(d, x, y) with (q^e - c q^j)_{0<=j<n} = (x_e - y_j) / d for each e in
    ``exponents``: x_e = h p_e, y_j = g p_j and d = h w for c = g/h in lowest
    terms and q^t = p_t / w from :func:`_q_powers`."""
    (g, h), lo = _parts(c), min([0, *exponents])
    qp, w = _q_powers(q, lo, max([n - 1, *exponents]))
    return h * w, [h * qp[e - lo] for e in exponents], [g * qp[j - lo] for j in range(n)]


def _times_prefactor(n: int, prefactor: tuple[int, list[int], list[int]], windows) -> ExactMatrix:
    """The matrix ((x_i - y_j) / d times the pair windows[i][j]) for the prefactor
    (d, x, y): row i is integers over d times the lcm of its window's denominators."""
    d, xs, ys = prefactor
    ls = [lcm(*[t for _, t in window]) for window in windows]
    rows = [(d * l, [(x - y) * r * (l // t) for y, (r, t) in zip(ys, w)]) for x, l, w in zip(xs, ls, windows)]
    return ExactMatrix.from_integer_rows(n, n, rows)


def _row_moments(k_tuple: Sequence[int], a, b, q) -> list[Pair]:
    """The pairs of the reduced moments mu_{k_i-1}..mu_{k_i+n-2}, one window per row."""
    n, lo = len(k_tuple), min(k_tuple, default=1) - 1
    mu = list(map(_parts, moments(lo, max(k_tuple, default=0) + n - 2, a, b, q).values()))
    return [mu[k - 1 - lo : k - 1 - lo + n] for k in k_tuple]


def moment_hankel_rows(k_tuple: Sequence[int], a, b, q) -> ExactMatrix:
    """Row-selected moment matrix (mu_{k_i+j-2})."""
    n = len(k_tuple)
    return ExactMatrix.from_pairs(n, n, _row_moments(k_tuple, a, b, q))


def build_theorem_matrix(n: int, r: int, a, b, c, q) -> ExactMatrix:
    """The shifted kernel ((q^{i-1} - c q^{j-1}) mu_{i+j+r-2})_{1<=i,j<=n}.

    At c = 1 the prefactor is antisymmetric and the matrix is exactly skew.
    """
    a, b, c, q = to_gq(a), to_gq(b), to_gq(c), to_gq(q)
    mu = list(map(_parts, moments(r, 2 * n + r - 2, a, b, q).values()))
    return _times_prefactor(n, _prefactor(range(n), n, c, q), [mu[i : i + n] for i in range(n)])


def theorem_matrix_rows(k_tuple: Sequence[int], a, b, c, q) -> ExactMatrix:
    """Arbitrary-rows kernel ((q^{k_i-1} - c q^{j-1}) mu_{k_i+j-2})."""
    a, b, c, q = to_gq(a), to_gq(b), to_gq(c), to_gq(q)
    windows = _row_moments(k_tuple, a, b, q)
    return _times_prefactor(len(k_tuple), _prefactor([k - 1 for k in k_tuple], len(k_tuple), c, q), windows)


def _row_factor_pairs(x: Pair, a, ab, q, n: int) -> list[Pair]:
    """(a x;q)_{j-1} (ab x q^j;q)_{n-j} for j = 1..n as unreduced pairs, at
    list index j - 1, for the pair x and scalars a, ab and q: the prefixes
    of (a x;q)_n and, as in :func:`~qdetlab.qseries.q_pochhammer_tails`, the
    suffixes of (ab x;q)_n from its top factor down, each one run of the
    factorial loop.  a x and ab x enter as unreduced pair products."""
    prefix = _product_pairs(0, n - 1, _one_minus_powers(_pmul(_parts(a), x), q))  # (a x;q)_t at t
    tops = list(islice(_one_minus_powers(_pmul(_parts(ab), x), q), 1, n))  # 1 - ab x q^m for m = 1..n-1
    suffix = _product_pairs(0, n - 1, reversed(tops))  # (ab x q^{n-t};q)_t at t
    return list(map(_pmul, prefix, reversed(suffix)))


def row_factors(x, a, ab, q, n: int) -> list[GaussianRational]:
    """(a x;q)_{j-1} (ab x q^j;q)_{n-j} for j = 1..n, at list index j - 1.

    The first factorial is a prefix of (a x;q)_n and the second a suffix of
    (ab x;q)_n, so the n values take one running product of each.
    """
    return [_reduced(*t) for t in _row_factor_pairs(_parts(to_gq(x)), to_gq(a), to_gq(ab), to_gq(q), n)]


def build_m(k_tuple: Sequence[int], a, b, c, q) -> ExactMatrix:
    """Denominator-cleared row matrix with entries
    (q^{k_i-1} - c q^{j-1}) (a q^{k_i};q)_{j-1} (a b q^{k_i+j};q)_{n-j}:
    each row the integer prefactor line times the factorial pairs of
    :func:`row_factors` at x = q^{k_i}."""
    a, b, c, q = to_gq(a), to_gq(b), to_gq(c), to_gq(q)
    n, ab = len(k_tuple), a * b
    prefactor = _prefactor([k - 1 for k in k_tuple], n, c, q)
    return _times_prefactor(n, prefactor, [_row_factor_pairs(x, a, ab, q, n) for x in _power_pairs(q, k_tuple)])


def column_products(xs: Sequence[Pair], shift: Pair, first: int = 1) -> list[list[Pair]]:
    """Rows first..n of the lower triangular matrix with entry (i, j), i >= j,
    -1/P_{ij} for P_{ij} = x_j (1 - shift x_j) prod_{l <= i, l != j} (x_l - x_j),
    for the pairs xs and shift, as unreduced pairs.

    P_{ij} is carried down column j in one pass, one factor per row, and
    divided into -1 only on the rows asked for.  P_{ij} divides P_{nj}, so row
    n alone raises ZeroDivisionError at exactly the points where all rows do.
    """
    n, start = len(xs), first - 1
    if not 0 <= start < max(n, 1):
        raise ValueError(f"first row {first} is outside 1..{n}")
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
    lines = column_products(_power_pairs(to_gq(q), k_tuple), _parts(to_gq(a)), first)
    return ExactMatrix.from_pairs(len(lines), len(k_tuple), lines)


def l_matrix(k_tuple: Sequence[int], a, b, q, first: int = 1) -> ExactMatrix:
    """Rows first..n of the lower triangular L: X with a replaced by ab q^{n-1}, n = len(k_tuple)."""
    q = to_gq(q)
    return x_matrix(k_tuple, to_gq(a) * to_gq(b) * q ** (len(k_tuple) - 1), q, first)


def _q_binomial_matrix(n: int, q, entry) -> ExactMatrix:
    """The n x n matrix whose entry (i, j) is (-1)^s q^e [top, k]_q for
    (s, e, top, k) = entry(i, j), or 0 where entry gives None.

    For q = u/v in lowest terms, B(t, k) = v^{k(t-k)} [t, k]_q is an integer by
    the homogenised q-Pascal rule B(t, k) = v^{t-k} B(t-1, k-1) + u^k B(t-1, k)
    (Andrews, The Theory of Partitions, Thm. 3.2), so with q^e = p_e / w and K
    the largest k(top-k), entry (i, j) is (-1)^s p_e B(top, k) v^{K-k(top-k)}
    over w v^K.  As the formula does, this reads q^e even where [top, k]_q is 0,
    and raises ZeroDivisionError where (q;q)_k (q;q)_{top-k} vanishes: at q = 1,
    and at q = -1 from index 2."""
    u, v = _parts(q := to_gq(q))
    specs = [[entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    cells = [spec for spec in chain.from_iterable(specs) if spec]
    unit = abs(u) == v and 1 + (u < 0)  # (q;q)_m = 0 from m = unit on, at q = 1 or -1
    if unit and any(0 <= k <= t and max(k, t - k) >= unit for _, _, t, k in cells):
        raise ZeroDivisionError("division by zero in QQ")
    es = [e for _, e, _, _ in cells]
    lo, top = min([0, *es]), max([0, *[k * (t - k) for _, _, t, k in cells]])
    qp, w = _q_powers(q, lo, max([0, *es]))  # q^e = qp[e - lo] / w
    binomial = [[1]]
    for t in range(1, n):
        prev = binomial[-1]
        binomial.append([1, *[v ** (t - k) * prev[k - 1] + u**k * prev[k] for k in range(1, t)], 1])

    def cell(s, e, t, k):
        x = qp[e - lo] * binomial[t][k] * v ** (top - k * (t - k)) if 0 <= k <= t else 0
        return -x if s % 2 else x

    return ExactMatrix.from_integer_rows(n, n, [(w * v**top, [cell(*s) if s else 0 for s in line]) for line in specs])


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
    nonnegative for positive k_v, and R is defined at q = 0.  All n + 1
    values cost O(n^2) factors.  Each q^t read is an integer over one w
    (:func:`_q_powers`), so the cells are integers over one denominator per
    step, and each R_{n,nu} is reduced once.
    """
    if len(k_tuple) < n:
        raise ValueError("k-tuple shorter than n")
    a, b, q = to_gq(a), to_gq(b), to_gq(q)
    (ar, ad), (br, bd) = _parts(a), _parts(a * b)
    lo = min([0, *[k + v - 2 for v, k in enumerate(k_tuple[:n], 1)]])
    qp, w = _q_powers(q, lo, max([n - 1, *[k + n for k in k_tuple[:n]]]))  # q^t = qp[t - lo] / w
    h = [0] * n + [1]  # H_v(s) at list index s, over (ad bd w)^(n - v)
    for v in range(n, 0, -1):
        k, qv = k_tuple[v - 1], ad * qp[v - 1 - lo]
        # In place, upward in s: H_{v-1}(s) reads H_v(s) and H_v(s + 1), and
        # both steps go over ad bd w.  H_v(v - 1) was never written and is 0,
        # so the j-step needs no v <= s test.
        for s in range(v - 1, n + 1):
            total = h[s] * (bd * w - br * qp[k + s - 1 - lo]) * ad if h[s] else 0
            if s < n and h[s + 1]:
                total += h[s + 1] * (qv - ar * qp[k + s - lo]) * bd
            h[s] = total
    d = (ad * bd * w) ** n
    return [_reduced(x, d) for x in h]


def mehta_wang_matrix(n: int, a, b) -> ExactMatrix:
    """Gamma-normalized classical kernel ((a + j - i) (b)_{i+j-2})_{1<=i,j<=n}."""
    ar, ad = _parts(to_gq(a))
    rf = [_parts(v) for v in rising_factorials(b, 0, 2 * n - 2).values()]
    prefactor = ad, [ar - i * ad for i in range(n)], [-j * ad for j in range(n)]  # (a + j - i) ad
    return _times_prefactor(n, prefactor, [rf[i : i + n] for i in range(n)])


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
    ratios = []
    for m in range(r, 2 * n + r - 1):
        if not den[m][0]:
            raise PoleError("vanishing classical moment denominator", f"(alpha+beta+2)_{m}")
        ratios.append(_pdiv(num[m], den[m]))
    prefactor = gd, [gr - i * gd for i in range(n)], [-j * gd for j in range(n)]  # gamma + j - i
    return _times_prefactor(n, prefactor, [ratios[i : i + n] for i in range(n)])
