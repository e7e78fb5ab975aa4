"""Checks for the arbitrary-row determinant machinery.

These exercise the internal scaffolding behind the headline identities: the
ordered-partition sum R, the denominator-cleared row matrix, its triangular
conjugations, the partial-fraction residue identities, and the closed-form
inverses of the q-binomial triangular matrices.
"""

from __future__ import annotations

from itertools import combinations

from ..gaussian import ONE, ZERO, GaussianRational, _parts, _pdiv, sign
from ..linalg import ExactMatrix, determinant, submatrix
from ..qseries import q_binomials, q_pochhammer as qp, q_pochhammer_tails, q_pochhammers
from .builders import (
    build_m,
    l_matrix,
    moment_hankel_rows,
    r_values,
    row_factors,
    theorem_matrix_rows,
    u_inverse,
    u_matrix,
    x_matrix,
    y_inverse,
    y_matrix,
)
from .points import Comparison, check


def _q_vandermonde(k, q) -> GaussianRational:
    """prod_{i<j} (q^{k_i - 1} - q^{k_j - 1})."""
    out = ONE
    for x, y in combinations([q ** (kv - 1) for kv in k], 2):
        out = out * (x - y)
    return out


def _x_products(xs, a, abq) -> tuple[GaussianRational, GaussianRational, GaussianRational]:
    """prod x, prod (1 - a x) and prod (1 - abq x) over ``xs``."""
    prod_x = ONE
    inv_ax = ONE
    inv_abx = ONE
    for x in xs:
        prod_x = prod_x * x
        inv_ax = inv_ax * (ONE - a * x)
        inv_abx = inv_abx * (ONE - abq * x)
    return prod_x, inv_ax, inv_abx


def _boundary_terms(xs, a, b, c, q) -> tuple[GaussianRational, GaussianRational, GaussianRational]:
    """prod x over ``xs`` (n of them) and the two residue boundary terms
    sign(n) a^{n-1} (1 - acq) (bq;q)_{n-1} / (q prod (1 - a x)) and
    a^{n-1} q^{n(n-3)/2} (1 - abc q^{2n-1}) (bq;q)_{n-1} / prod (1 - ab q^{n-1} x)."""
    n = len(xs)
    prod_x, inv_ax, inv_abx = _x_products(xs, a, a * b * q ** (n - 1))
    common = a ** (n - 1) * qp(b * q, q, n - 1)
    first = sign(n) * common * (ONE - a * c * q) / (q * inv_ax)
    second = common * q ** (n * (n - 3) // 2) * (ONE - a * b * c * q ** (2 * n - 1)) / inv_abx
    return prod_x, first, second


def _residue_denominators(xs, *shifts) -> list[list[GaussianRational]]:
    """For each shift, x_nu (1 - shift x_nu) prod_{l != nu} (x_l - x_nu) for each
    x_nu in ``xs``; the shared core x_nu prod_{l != nu} (x_l - x_nu) is formed
    once per nu."""
    cores = []
    for nu, x in enumerate(xs):
        d = x
        for l, y in enumerate(xs):
            if l != nu:
                d = d * (y - x)
        cores.append(d)
    return [[d * (ONE - shift * x) for d, x in zip(cores, xs)] for shift in shifts]


def _row_scale(k, n, a, b, q) -> GaussianRational:
    """prod_i (aq;q)_{k_i-1} / (abq^2;q)_{k_i+n-2}: the kernel over the cleared matrix."""
    fa = q_pochhammers(a * q, q, min(k) - 1, max(k) - 1)
    fb = q_pochhammers(a * b * q * q, q, min(k) + n - 2, max(k) + n - 2)
    scale = ONE
    for kv in k:
        scale = scale * fa[kv - 1] / fb[kv + n - 2]
    return scale


def _r_closed_form(n, k, a, b, c, q) -> GaussianRational:
    """The cleared-kernel determinant as an R-sum:
    (-1)^n a^{n(n-3)/2} q^{n(n+1)(n-4)/6} prod_i (bq;q)_{i-2} prod_{i<j} (q^{k_i-1} - q^{k_j-1})
    sum_nu (-1)^nu (abc q^{2nu+1}; q^2)_{n-nu} (acq; q^2)_nu R_{n,nu}."""
    pre = sign(n) * a ** (n * (n - 3) // 2) * q ** (n * (n + 1) * (n - 4) // 6)
    fb = q_pochhammers(b * q, q, -1, n - 2)
    for i in range(1, n + 1):
        pre = pre * fb[i - 2]
    pre = pre * _q_vandermonde(k, q)
    q2 = q * q
    tail = q_pochhammer_tails(a * b * c * q, q2, n)  # (abc q^{2nu+1}; q^2)_{n-nu} at n - nu
    fac = q_pochhammers(a * c * q, q2, 0, n)
    total = ZERO
    for nu, r in enumerate(r_values(n, k, a, b, q)):
        total = total + sign(nu) * tail[n - nu] * fac[nu] * r
    return pre * total


@check(
    summary="Arbitrary-row kernel determinant equals the R-sum closed form",
    size_role="number of rows n",
    draws=("a", "b", "q", "c", "k_tuple"),
    default_sizes=(1, 2, 3, 4, 5, 6),
)
def thm_rows(pt, n: int) -> list[Comparison]:
    a, b, c, q = pt.a, pt.b, pt.c, pt.q
    k = pt.k_tuple[:n]
    # The kernel determinant is the cleared one times the row scale (m_closed
    # checks that too), and sign(n) sign(nu) = sign(n - nu) gives its signs.
    # The closed form goes first: where it has a pole the point is rejected
    # before the determinant is paid for.
    rhs = _row_scale(k, n, a, b, q) * _r_closed_form(n, k, a, b, c, q)
    lhs = determinant(theorem_matrix_rows(k, a, b, c, q))
    return [("arbitrary-row determinant vs R-sum closed form", lhs, rhs)]


@check(
    summary="Arbitrary-row moment determinant equals its Vandermonde-type product",
    size_role="number of rows n",
    draws=("a", "b", "q", "k_tuple"),
    default_sizes=(1, 2, 3, 4, 5, 6),
)
def q_kratt(pt, n: int) -> list[Comparison]:
    a, b, q = pt.a, pt.b, pt.q
    k = pt.k_tuple[:n]
    lhs = determinant(moment_hankel_rows(k, a, b, q))
    rhs = a ** (n * (n - 1) // 2) * q ** ((n + 1) * n * (n - 1) // 6) * _row_scale(k, n, a, b, q)
    for f in q_pochhammers(b * q, q, 0, n - 1).values():
        rhs = rhs * f
    rhs = rhs * _q_vandermonde(k, q)
    return [("arbitrary-row moment determinant vs product form", lhs, rhs)]


@check(
    summary="R-sum over consecutive rows collapses to a q-binomial product",
    size_role="number of rows n",
    draws=("a", "b", "q"),
    default_sizes=(1, 2, 3, 4, 5, 6),
)
def r_closed(pt, n: int) -> list[Comparison]:
    a, b, q = pt.a, pt.b, pt.q
    consecutive = tuple(range(1, n + 1))
    binomial = q_binomials(q, n)
    tail = q_pochhammer_tails(a * q, q, n)  # (a q^{nu+1};q)_{n-nu} at n - nu
    fab = q_pochhammers(a * b * q**n, q, 0, n)
    comps = []
    for nu, lhs in enumerate(r_values(n, consecutive, a, b, q)):
        rhs = q ** ((n - nu) * (n - nu - 1) // 2) * binomial(n, nu) * tail[n - nu] * fab[nu]
        comps.append((f"R at consecutive rows, nu={nu}", lhs, rhs))
    return comps


@check(
    summary="R-sum satisfies its two-term recurrence in the last row index",
    size_role="number of rows n",
    draws=("a", "b", "q", "k_tuple"),
    default_sizes=(1, 2, 3, 4, 5, 6),
)
def r_recurrence(pt, n: int) -> list[Comparison]:
    a, b, q = pt.a, pt.b, pt.q
    k = pt.k_tuple[:n]
    head = k[:-1]
    kn = k[-1]
    # R_{n-1,nu} is 0 outside 0 <= nu <= n - 1.
    shifted = [ZERO] + r_values(n - 1, head, a * q, b, q)
    plain = r_values(n - 1, head, a, b, q) + [ZERO]
    comps = []
    for nu, lhs in enumerate(r_values(n, k, a, b, q)):
        rhs = (ONE - a * b * q ** (kn + n - 1)) * shifted[nu] + q ** (n - 1) * (ONE - a * q**kn) * plain[nu]
        comps.append((f"R last-index recurrence, nu={nu}", lhs, rhs))
    return comps


@check(
    summary="Alternating sum of R over its second index telescopes to one product",
    size_role="number of rows n",
    draws=("a", "b", "q", "k_tuple"),
    default_sizes=(1, 2, 3, 4, 5, 6),
)
def r_sum(pt, n: int) -> list[Comparison]:
    a, b, q = pt.a, pt.b, pt.q
    k = pt.k_tuple[:n]
    total = ZERO
    for nu, r in enumerate(r_values(n, k, a, b, q)):
        total = total + sign(n - nu) * r
    rhs = a**n * q ** (n * (n - 1) // 2 + sum(k)) * qp(b, q, n)
    return [("alternating R-sum vs single product", total, rhs)]


@check(
    summary="Partial-fraction residue identities behind the kernel factorization",
    size_role="number of variables n",
    draws=("a", "b", "q", "c", "x_list"),
    default_sizes=(1, 2, 3, 4, 5, 6),
)
def residue_ids(pt, n: int) -> list[Comparison]:
    a, b, c, q = pt.a, pt.b, pt.c, pt.q
    xs = pt.x_list[:n]
    prod_x, first, second = _boundary_terms(xs, a, b, c, q)
    factors = [row_factors(x, a, a * b, q, n) for x in xs]
    # x_nu / q and both kinds' denominators do not depend on j.
    xq = [x / q for x in xs]
    den1, den2 = _residue_denominators(xs, a, a * b * q ** (n - 1))
    comps = []
    for j in range(1, n + 1):
        cq = c * q ** (j - 1)
        s1 = ZERO
        s2 = ZERO
        for x, f, d1, d2 in zip(xq, factors, den1, den2):
            num = (x - cq) * f[j - 1]
            s1 = s1 + num / d1
            s2 = s2 + num / d2
        rhs = cq / prod_x
        comps.append((f"residue identity (first kind), j={j}", -s1, rhs + first if j == 1 else rhs))
        comps.append((f"residue identity (second kind), j={j}", -s2, rhs - second if j == n else rhs))
    return comps


@check(
    summary="Vandermonde-type determinants with one structured column",
    size_role="matrix size n",
    draws=("a", "b", "q", "c", "x_list"),
    default_sizes=(1, 2, 3, 4, 5, 6),
)
def vandermonde_vw(pt, n: int) -> list[Comparison]:
    a, b, c, q = pt.a, pt.b, pt.c, pt.q
    xs = pt.x_list[:n]
    vandermonde = ONE
    for i in range(n):
        for j in range(i + 1, n):
            vandermonde = vandermonde * (xs[j] - xs[i])
    abq = a * b * q ** (n - 1)
    # The column uses c q^k where the residue identities use c q^{k-1}, so
    # each boundary term enters times q.
    prod_x, first, second = _boundary_terms(xs, a, b, c, q)
    factors = [row_factors(x, a, a * b, q, n) for x in xs]
    # The first n - 1 columns x^0..x^{n-2} and the last column's divisors
    # x (1 - a x) and x (1 - abq x) are the same for every k.
    powers = [[_parts(x**e) for e in range(n - 1)] for x in xs]
    div_v = [_parts(x * (ONE - a * x)) for x in xs]
    div_w = [_parts(x * (ONE - abq * x)) for x in xs]
    comps = []
    for k in range(1, n + 1):
        cq = c * q**k
        nums = [_parts(-((x - cq) * f[k - 1])) for x, f in zip(xs, factors)]
        v = ExactMatrix.from_pairs(n, n, [row + [_pdiv(num, d)] for row, num, d in zip(powers, nums, div_v)])
        lhs_v = sign(n - 1) * determinant(v) / vandermonde
        rhs = cq / prod_x
        comps.append((f"structured-column Vandermonde (first kind), k={k}", lhs_v, rhs + q * first if k == 1 else rhs))

        w = ExactMatrix.from_pairs(n, n, [row + [_pdiv(num, d)] for row, num, d in zip(powers, nums, div_w)])
        lhs_w = sign(n - 1) * determinant(w) / vandermonde
        comps.append((f"structured-column Vandermonde (second kind), k={k}", lhs_w, rhs - q * second if k == n else rhs))
    return comps


@check(
    summary="Bottom rows of the two triangular conjugations are sparse with known entries",
    size_role="matrix size n",
    draws=("a", "b", "q", "c", "k_tuple"),
    default_sizes=(2, 3, 4, 5, 6),
    min_size=2,
)
def bottom_rows(pt, n: int) -> list[Comparison]:
    a, b, c, q = pt.a, pt.b, pt.c, pt.q
    k = pt.k_tuple[:n]
    m = build_m(k, a, b, c, q)
    bottom, cols = [n], list(range(1, n + 1))
    p = submatrix(x_matrix(k, a, q), bottom, cols) @ m @ y_matrix(n, q)
    qq = submatrix(l_matrix(k, a, b, q), bottom, cols) @ m @ u_matrix(n, q)
    sum_k = sum(k)
    _, first, second = _boundary_terms([q**kv for kv in k], a, b, c, q)
    comps = []
    for j in range(1, n + 1):
        if j == 1:
            expected_p = first
            expected_q = c * q ** (-sum_k)
        elif j == n:
            expected_p = c * q ** (n - 1 - sum_k)
            expected_q = -second
        else:
            expected_p = ZERO
            expected_q = ZERO
        comps.append((f"first conjugation bottom row, j={j}", p.at(1, j), expected_p))
        comps.append((f"second conjugation bottom row, j={j}", qq.at(1, j), expected_q))
    return comps


@check(
    summary="Closed-form inverses and signed minors of the q-binomial triangulars",
    size_role="matrix size n",
    draws=("q",),
    default_sizes=(1, 2, 3, 4, 5, 6),
)
def triangular_inverses(pt, n: int) -> list[Comparison]:
    q = pt.q
    comps = []
    y = y_matrix(n, q)
    u = u_matrix(n, q)
    for name, tri, inverse in (("Y", y, y_inverse), ("U", u, u_inverse)):
        prod = tri @ inverse(n, q)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                comps.append(
                    (f"{name} inverse product entry ({i},{j})", prod.at(i, j), ONE if i == j else ZERO)
                )
    all_rows = list(range(1, n + 1))
    for i in range(1, n + 1):
        rows = [r for r in all_rows if r != i]
        dy = determinant(submatrix(y, rows, list(range(1, n))))
        comps.append((f"Y minor dropping row {i}", dy, (-q) ** (i - n)))
        du = determinant(submatrix(u, rows, list(range(2, n + 1))))
        comps.append((f"U minor dropping row {i}", du, (-q) ** (i - 1)))
    return comps


@check(
    summary="Principal minors of the conjugated kernels reduce to smaller kernels",
    size_role="matrix size n",
    draws=("a", "b", "q", "c", "k_tuple"),
    default_sizes=(2, 3, 4, 5, 6),
    min_size=2,
)
def pq_lemma(pt, n: int) -> list[Comparison]:
    a, b, c, q = pt.a, pt.b, pt.c, pt.q
    k = pt.k_tuple[:n]
    m = build_m(k, a, b, c, q)
    p = x_matrix(k, a, q) @ m @ y_matrix(n, q)
    qq = l_matrix(k, a, b, q) @ m @ u_matrix(n, q)
    head = list(k[:-1])
    denom = q ** sum(head) * _q_vandermonde([h + 1 for h in head], q)
    rows = list(range(1, n))
    shifted_cols = list(range(2, n + 1))
    lead_cols = list(range(1, n))
    comps = [
        (
            "shifted principal minor of first conjugation",
            determinant(submatrix(p, rows, shifted_cols)),
            sign(n - 1) * determinant(build_m(head, a * q, b, c * q, q)) / denom,
        ),
        (
            "leading principal minor of second conjugation",
            determinant(submatrix(qq, rows, lead_cols)),
            sign(n - 1) * determinant(build_m(head, a, b, c, q)) / denom,
        ),
    ]
    _, ratio_q, ratio_p = _x_products([q**kv for kv in head], a, a * b * q ** (n - 1))
    comps.append(
        (
            "cross relation between the two off-principal minors",
            determinant(submatrix(p, rows, lead_cols)) / ratio_p,
            (-q) ** (1 - n) * determinant(submatrix(qq, rows, shifted_cols)) / ratio_q,
        )
    )
    return comps


@check(
    summary="Cleared-kernel determinant satisfies its size recurrence",
    size_role="matrix size n",
    draws=("a", "b", "q", "c", "k_tuple"),
    default_sizes=(2, 3, 4, 5, 6),
    min_size=2,
)
def m_recurrence(pt, n: int) -> list[Comparison]:
    a, b, c, q = pt.a, pt.b, pt.c, pt.q
    k = pt.k_tuple[:n]
    head = k[:-1]
    kn = k[-1]
    det_full = determinant(build_m(k, a, b, c, q))
    denom = a ** (n - 2) * qp(b * q, q, n - 2)
    for kv in head:
        denom = denom * (q**kv - q**kn)
    lhs = det_full / denom
    rhs = (ONE - a * c * q) * (ONE - a * b * q ** (kn + n - 1)) * determinant(
        build_m(head, a * q, b, c * q, q)
    ) / q - q ** (n * (n - 3) // 2) * (ONE - a * b * c * q ** (2 * n - 1)) * (
        ONE - a * q**kn
    ) * determinant(build_m(head, a, b, c, q))
    return [("cleared-kernel determinant size recurrence", lhs, rhs)]


@check(
    summary="Cleared-kernel determinant equals its R-sum closed form",
    size_role="matrix size n",
    draws=("a", "b", "q", "c", "k_tuple"),
    default_sizes=(1, 2, 3, 4, 5, 6),
)
def m_closed(pt, n: int) -> list[Comparison]:
    a, b, c, q = pt.a, pt.b, pt.c, pt.q
    k = pt.k_tuple[:n]
    # The closed form goes first, as in thm_rows.
    closed = _r_closed_form(n, k, a, b, c, q)
    scale = _row_scale(k, n, a, b, q)
    det_m = determinant(build_m(k, a, b, c, q))
    return [
        ("cleared-kernel determinant vs R-sum closed form", det_m, closed),
        (
            "kernel determinant vs scaled cleared determinant",
            determinant(theorem_matrix_rows(k, a, b, c, q)),
            scale * det_m,
        ),
    ]
