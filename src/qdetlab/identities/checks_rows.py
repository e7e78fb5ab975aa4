"""Checks for the arbitrary-row determinant machinery.

These exercise the internal scaffolding behind the headline identities: the
ordered-partition sum R, the denominator-cleared row matrix, its triangular
conjugations, the partial-fraction residue identities, and the closed-form
inverses of the q-binomial triangular matrices.  Each product over a list of
points has one home: P_{i,nu} in :func:`~.builders.column_products`, the row
factorials in :func:`~.builders.row_factors`, the Vandermonde in :func:`_vandermonde`.
"""

from __future__ import annotations

from itertools import combinations

from ..gaussian import _ZERO, ONE, ZERO, GaussianRational, Pair, sign
from ..gaussian import _one_minus, _parts, _pdiv, _pmul, _pprod, _psub, _ratio, _reduced
from ..linalg import ExactMatrix, bordered_determinants, determinant, minor
from ..qseries import q_binomials, q_pochhammer as qp, q_pochhammer_pairs, q_pochhammer_tails, q_pochhammers
from .builders import (
    build_m,
    column_products,
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


def _vandermonde(xs) -> GaussianRational:
    """prod_{i<j} (x_i - x_j), reduced once."""
    return _ratio(_psub(x, y) for x, y in combinations([_parts(x) for x in xs], 2))


def _x_products(xs, a, abq) -> tuple[GaussianRational, GaussianRational, GaussianRational]:
    """prod x, prod (1 - a x) and prod (1 - abq x) over ``xs``, each reduced once."""
    xs, a, abq = [_parts(x) for x in xs], _parts(a), _parts(abq)
    return _ratio(xs), _ratio(_one_minus(a, x) for x in xs), _ratio(_one_minus(abq, x) for x in xs)


def _boundary_terms(xs, a, b, c, q) -> tuple[GaussianRational, GaussianRational, GaussianRational]:
    """prod x over ``xs`` (n of them) and the two residue boundary terms
    sign(n) a^{n-1} (1 - acq) (bq;q)_{n-1} / (q prod (1 - a x)) and
    a^{n-1} q^{n(n-3)/2} (1 - abc q^{2n-1}) (bq;q)_{n-1} / prod (1 - ab q^{n-1} x),
    each a product of pairs reduced once."""
    n, xs, at, qt = len(xs), [_parts(x) for x in xs], _parts(a), _parts(q)
    ac = _pmul(at, _parts(c))
    abq = _pmul(_pmul(at, _parts(b)), _parts(q ** (n - 1)))
    common = [_parts(a ** (n - 1)), q_pochhammer_pairs(b * q, q, n - 1, n - 1)[n - 1]]
    first = _ratio([((-1) ** n, 1), *common, _one_minus(ac, qt)], [qt, *(_one_minus(at, x) for x in xs)])
    second = [*common, _parts(q ** (n * (n - 3) // 2)), _one_minus(_pmul(ac, _parts(b)), _parts(q ** (2 * n - 1)))]
    return _ratio(xs), first, _ratio(second, [_one_minus(abq, x) for x in xs])


def _row_scale(k, n, a, b, q) -> tuple[list[Pair], list[Pair]]:
    """The numerator and denominator pairs of prod_i (aq;q)_{k_i-1} / (abq^2;q)_{k_i+n-2}:
    the kernel over the cleared matrix."""
    fa = q_pochhammer_pairs(a * q, q, min(k) - 1, max(k) - 1)
    fb = q_pochhammer_pairs(a * b * q * q, q, min(k) + n - 2, max(k) + n - 2)
    return [fa[kv - 1] for kv in k], [fb[kv + n - 2] for kv in k]


def _r_closed_form(n, k, a, b, c, q) -> GaussianRational:
    """The cleared-kernel determinant as an R-sum:
    (-1)^n a^{n(n-3)/2} q^{n(n+1)(n-4)/6} prod_i (bq;q)_{i-2} prod_{i<j} (q^{k_i-1} - q^{k_j-1})
    sum_nu (-1)^nu (abc q^{2nu+1}; q^2)_{n-nu} (acq; q^2)_nu R_{n,nu}."""
    pre = sign(n) * a ** (n * (n - 3) // 2) * q ** (n * (n + 1) * (n - 4) // 6)
    fb = q_pochhammer_pairs(b * q, q, -1, n - 2)  # (bq;q)_{i-2} for i = 1..n
    q2 = q * q
    tail = q_pochhammer_tails(a * b * c * q, q2, n)  # (abc q^{2nu+1}; q^2)_{n-nu} at n - nu
    fac = q_pochhammer_pairs(a * c * q, q2, 0, n)
    total = _ZERO  # the R-sum, one pair
    for nu, r in enumerate(r_values(n, k, a, b, q)):
        total = _psub(total, _pprod([((-1) ** (nu + 1), 1), _parts(tail[n - nu]), fac[nu], _parts(r)]))
    return _ratio([_parts(pre), *fb.values(), _parts(_vandermonde([q ** (kv - 1) for kv in k])), total])


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
    rhs = _ratio(*_row_scale(k, n, a, b, q)) * _r_closed_form(n, k, a, b, c, q)
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
    pre = a ** (n * (n - 1) // 2) * q ** ((n + 1) * n * (n - 1) // 6)
    num, den = _row_scale(k, n, a, b, q)
    fb = q_pochhammer_pairs(b * q, q, 0, n - 1)
    rhs = _ratio([_parts(pre), *num, *fb.values(), _parts(_vandermonde([q ** (kv - 1) for kv in k]))], den)
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
    # x_nu / q and -1/P_{n,nu}, the last rows of X and L, do not depend on j.
    xq = [x / q for x in xs]
    pairs = [_parts(x) for x in xs]
    inv1, inv2 = ([_reduced(*e) for e in column_products(pairs, _parts(s), n)[0]] for s in (a, a * b * q ** (n - 1)))
    comps = []
    for j in range(1, n + 1):
        cq = c * q ** (j - 1)
        s1 = s2 = ZERO
        for x, f, e1, e2 in zip(xq, factors, inv1, inv2):
            num = (x - cq) * f[j - 1]
            s1 = s1 + num * e1
            s2 = s2 + num * e2
        rhs = cq / prod_x
        comps.append((f"residue identity (first kind), j={j}", s1, rhs + first if j == 1 else rhs))
        comps.append((f"residue identity (second kind), j={j}", s2, rhs - second if j == n else rhs))
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
    vandermonde = _vandermonde(xs[::-1])  # prod_{i<j} (x_j - x_i)
    abq = a * b * q ** (n - 1)
    # The column uses c q^k where the residue identities use c q^{k-1}, so
    # each boundary term enters times q.
    prod_x, first, second = _boundary_terms(xs, a, b, c, q)
    factors = [row_factors(x, a, a * b, q, n) for x in xs]
    # One n x (3n - 1) matrix: the powers x^0..x^{n-2}, then the first-kind
    # last columns for k = 1..n, then the second-kind ones; each last column
    # is -(x - c q^k) f_k over x (1 - a x) or x (1 - abq x).
    cqs = [c * q**k for k in range(1, n + 1)]
    lines = []
    for x, f in zip(xs, factors):
        nums = [_parts(-((x - cq) * fk)) for cq, fk in zip(cqs, f)]
        div_v, div_w = _parts(x * (ONE - a * x)), _parts(x * (ONE - abq * x))
        powers = [_parts(x**e) for e in range(n - 1)]
        lines.append(powers + [_pdiv(num, div_v) for num in nums] + [_pdiv(num, div_w) for num in nums])
    dets = bordered_determinants(ExactMatrix.from_pairs(n, 3 * n - 1, lines))
    scale = sign(n - 1) / vandermonde
    comps = []
    for k, cq, det_v, det_w in zip(range(1, n + 1), cqs, dets, dets[n:]):
        rhs = cq / prod_x
        comps.append((f"structured-column Vandermonde (first kind), k={k}", det_v * scale, rhs + q * first if k == 1 else rhs))
        comps.append((f"structured-column Vandermonde (second kind), k={k}", det_w * scale, rhs - q * second if k == n else rhs))
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
    p = x_matrix(k, a, q, n) @ m @ y_matrix(n, q)
    qq = l_matrix(k, a, b, q, n) @ m @ u_matrix(n, q)
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
        comps.append((f"Y minor dropping row {i}", minor(y, rows, list(range(1, n))), (-q) ** (i - n)))
        comps.append((f"U minor dropping row {i}", minor(u, rows, list(range(2, n + 1))), (-q) ** (i - 1)))
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
    denom = q ** sum(head) * _vandermonde([q**h for h in head])
    rows = list(range(1, n))
    shifted_cols = list(range(2, n + 1))
    lead_cols = list(range(1, n))
    comps = [
        (
            "shifted principal minor of first conjugation",
            minor(p, rows, shifted_cols),
            sign(n - 1) * determinant(build_m(head, a * q, b, c * q, q)) / denom,
        ),
        (
            "leading principal minor of second conjugation",
            minor(qq, rows, lead_cols),
            sign(n - 1) * determinant(build_m(head, a, b, c, q)) / denom,
        ),
    ]
    _, ratio_q, ratio_p = _x_products([q**kv for kv in head], a, a * b * q ** (n - 1))
    comps.append(
        (
            "cross relation between the two off-principal minors",
            minor(p, rows, lead_cols) / ratio_p,
            (-q) ** (1 - n) * minor(qq, rows, shifted_cols) / ratio_q,
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
    # a^{n-2} (bq;q)_{n-2} prod_{v<n} (q^{k_v} - q^{k_n})
    qk = [_parts(q**kv) for kv in k]
    fb = q_pochhammer_pairs(b * q, q, n - 2, n - 2)[n - 2]
    lhs = det_full / _ratio([_parts(a ** (n - 2)), fb, *(_psub(x, qk[-1]) for x in qk[:-1])])
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
    scale = _ratio(*_row_scale(k, n, a, b, q))
    det_m = determinant(build_m(k, a, b, c, q))
    return [
        ("cleared-kernel determinant vs R-sum closed form", det_m, closed),
        (
            "kernel determinant vs scaled cleared determinant",
            determinant(theorem_matrix_rows(k, a, b, c, q)),
            scale * det_m,
        ),
    ]
