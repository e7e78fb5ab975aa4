"""The headline determinant and Pfaffian checks.

Each evaluator returns labeled (lhs, rhs) pairs that must agree exactly.
Exponents that are half-integers in the displayed formulas are carried as
integer powers of the sampled roots (kappa^2 = q, alpha^2 = a, ...), so both
sides are rational.  Where a closed form evaluates a polynomial at imaginary
parameters, it reads the rational r_n of p_n = i^n r_n (see
:mod:`qdetlab.orthopoly`), and the prefactor's power of i cancels the i^n.
Each closed product is one ``gaussian._ratio`` call over unreduced
factorial-table pairs, reduced once; a product with a denominator is taken
before any later evaluation that can raise, so its ZeroDivisionError stays
the first error at its point.
"""

from __future__ import annotations

import math

from ..gaussian import HALF, ONE, ZERO, GaussianRational, _parts, _ratio, sign
from ..linalg import determinant, pfaffian
from ..orthopoly import (
    AWParams,
    askey_wilson,
    askey_wilson_values,
    continuous_hahn,
    mehta_wang_d,
    nishizawa_d,
    wilson,
)
from ..qseries import (
    hyper_f,
    q_pochhammer as qp,
    q_pochhammer_pairs,
    rising_factorial as rf,
    rising_factorial_pairs,
    rising_factorials,
    terminating_phi,
)
from .builders import (
    build_theorem_matrix,
    classical_matrix,
    mehta_wang_matrix,
    moment_hankel_rows,
    nishizawa_matrix,
)
from .points import Comparison, check


@check(
    summary="Hankel determinant of the q-moment sequence equals its closed product",
    size_role="matrix size n",
    draws=("a", "b", "q", "r"),
    default_sizes=(1, 2, 3, 4, 5, 6),
)
def hankel(pt, n: int) -> list[Comparison]:
    a, b, q, r = pt.a, pt.b, pt.q, pt.r
    lhs = determinant(moment_hankel_rows(range(r + 1, n + r + 1), a, b, q))
    pre = a ** (n * (n - 1) // 2) * q ** (n * (n - 1) * (2 * n - 1) // 6 + n * (n - 1) * r // 2)
    fq = q_pochhammer_pairs(q, q, 0, n - 1)
    fb = q_pochhammer_pairs(b * q, q, 0, n - 1)
    fa = q_pochhammer_pairs(a * q, q, r, n + r - 1)
    fab = q_pochhammer_pairs(a * b * q * q, q, n + r - 1, 2 * n + r - 2)
    # prod_{k=1}^n (q;q)_{k-1} (bq;q)_{k-1} (aq;q)_{k+r-1} / (abq^2;q)_{k+n+r-2}
    rhs = _ratio([_parts(pre), *fq.values(), *fb.values(), *fa.values()], fab.values())
    return [("moment Hankel determinant vs closed product", lhs, rhs)]


@check(
    summary="Pfaffian of the skew q-moment kernel equals its closed product",
    size_role="half matrix size m (matrix is 2m x 2m)",
    draws=("a", "b", "q", "r"),
    default_sizes=(1, 2, 3, 4),
)
def pfaffian_moments(pt, m: int) -> list[Comparison]:
    a, b, q, r = pt.a, pt.b, pt.q, pt.r
    lhs = pfaffian(build_theorem_matrix(2 * m, r, a, b, ONE, q))
    num = [_parts(a ** (m * (m - 1)) * q ** (m * (m - 1) * (4 * m + 1) // 3 + m * (m - 1) * r))]
    fb = q_pochhammer_pairs(b * q, q, 2, 2 * m - 2)
    num += (fb[2 * k] for k in range(1, m))
    fq = q_pochhammer_pairs(q, q, 1, 2 * m - 1)
    fa = q_pochhammer_pairs(a * q, q, r + 1, 2 * m + r - 1)
    fab = q_pochhammer_pairs(a * b * q * q, q, 2 * m + r - 1, 4 * m + r - 3)
    den = []
    for k in range(1, m + 1):
        num += fq[2 * k - 1], fa[2 * k + r - 1]
        den.append(fab[2 * (k + m) + r - 3])
    rhs = _ratio(num, den)
    return [("skew moment Pfaffian vs closed product", lhs, rhs)]


@check(
    summary="At c=1 the even determinant equals the square of its Pfaffian",
    size_role="half size m (matrix is 2m x 2m)",
    draws=("a", "b", "q", "r"),
    default_sizes=(1, 2, 3),
)
def c1_pfaffian_square(pt, m: int) -> list[Comparison]:
    mat = build_theorem_matrix(2 * m, pt.r, pt.a, pt.b, ONE, pt.q)
    pf = pfaffian(mat)
    return [("determinant at c=1 vs squared Pfaffian", determinant(mat), pf * pf)]


@check(
    summary="Normalized factorial-moment determinant equals the D-sequence product",
    size_role="matrix size n",
    draws=("a", "b"),
    default_sizes=(1, 2, 3, 4, 5, 6),
)
def mehta_wang(pt, n: int) -> list[Comparison]:
    a, b = pt.a, pt.b
    lhs = determinant(mehta_wang_matrix(n, a, b))
    d_rec = mehta_wang_d(n, a, b)
    # prod_{i<n} i! (b)_i
    fb = rising_factorial_pairs(b, 0, n - 1)
    rhs = _ratio([_parts(d_rec), *((math.factorial(i), 1) for i in range(n)), *fb.values()])
    # D_n = sum_k (-1)^k C(n,k) ((b-a)/2)_k ((a+b)/2)_{n-k}
    fu, fv = rising_factorials((b - a) / 2, 0, n), rising_factorials((a + b) / 2, 0, n)
    d_sum = ZERO
    for k in range(n + 1):
        d_sum = d_sum + sign(k) * math.comb(n, k) * fu[k] * fv[n - k]
    return [
        ("normalized determinant vs D-sequence product", lhs, rhs),
        ("D-sequence recurrence vs signed binomial sum", d_rec, d_sum),
    ]


@check(
    summary="q-deformed factorial determinant equals its Al-Salam-Chihara closed form",
    size_role="matrix size n",
    draws=("s_half", "t_half", "q"),
    default_sizes=(1, 2, 3, 4, 5),
)
def nishizawa(pt, n: int) -> list[Comparison]:
    s, t, q = pt.s_half, pt.t_half, pt.q
    st, t2 = s * t, t * t
    det_f = determinant(nishizawa_matrix(n, s, t, q))
    fq = q_pochhammer_pairs(q, q, 0, n)
    ft = q_pochhammer_pairs(t2, q, 0, n)
    # prod_{k<n} (q;q)_k (t^2;q)_k
    factorials = [*(fq[k] for k in range(n)), *(ft[k] for k in range(n))]
    pre = [_parts(t ** (n * (n - 2)) * s**n * q ** (n * (n - 1) * (n - 2) // 3)), *factorials]

    # The same determinant, renormalized by q-Gamma ratios, against the
    # D-sequence statement with its original power-of-q prefactor.
    one_minus_q = ONE - q
    det_e = det_f / (q ** (n * (n - 1) // 2) * one_minus_q ** (n * n))
    d_val = nishizawa_d(n, s, t, q)
    rhs2 = s ** (2 * n) * t ** (n * (n - 1)) * q ** (n * (n - 1) * (2 * n - 7) // 6) * d_val
    # prod_{k<n} [k]_q! (t^2;q)_k / (1 - q)^k, with [k]_q! = (q;q)_k / (1 - q)^k
    rhs2 = _ratio([_parts(rhs2), *factorials], [_parts(one_minus_q ** (n * (n - 1)))])

    # Nishizawa's explicit sum, as (s^2t^2;q^2)_k = (st;q)_k (-st;q)_k:
    # D_n = (t^2;q)_n / ((st)^{2n} (q-1)^n) 3phi2(q^{-n}, st, -st; t^2, 0; q, q).
    total = terminating_phi([q**-n, st, -st], [t2, ZERO], q, q, order=n)
    explicit = _ratio([ft[n], _parts(total)], [_parts(st ** (2 * n) * (q - ONE) ** n)])

    # Q_n(0; st i, -(t/s) i | q) = i^n asc, Al-Salam-Chihara as Askey-Wilson at
    # c = d = 0, read at the unit u = i (s = -1); the prefactor (-i)^n of the
    # closed forms cancels the i^n.  Its recurrence divides only by
    # 1 - t^2 q^j, j < n - 1, each a denominator factor of the 3phi2 above, so
    # such a pole is reported by the series.
    asc = askey_wilson_values(n, AWParams(st, -(t / s), ZERO, ZERO, q, ZERO), s=-1)[n]
    # D_n = (-i)^n (st)^{-n} (1-q)^{-n} Q_n(0; st i, -(t/s) i; q)
    specialized = asc / (st**n * one_minus_q**n)
    return [
        ("normalized determinant vs Al-Salam-Chihara closed form", det_f, _ratio([*pre, _parts(asc)])),
        ("q-Gamma-normalized determinant vs D-sequence product", det_e, rhs2),
        ("D recurrence vs explicit sum", d_val, explicit),
        ("D recurrence vs Al-Salam-Chihara specialization", d_val, specialized),
    ]


@check(
    summary="Shifted q-moment determinant equals the terminating series closed form",
    size_role="matrix size n",
    draws=("roots", "r"),
    default_sizes=(1, 2, 3, 4, 5, 6),
)
def thm_main_phi(pt, n: int) -> list[Comparison]:
    a, b, c, q, r = pt.a, pt.b, pt.c, pt.q, pt.r
    alpha, gamma, kappa = pt.alpha, pt.gamma, pt.kappa
    u = alpha * gamma * kappa ** (r + 1)
    v = alpha * pt.beta * gamma * kappa ** (r + 1)
    series = terminating_phi(
        [q**-n, u, -u, a * b * q ** (n + r)],
        [a * q ** (r + 1), v, -v],
        q,
        q,
        order=n,
    )
    pre = (
        sign(n)
        * a ** (n * (n - 3) // 2)
        * q ** (n * (n + 1) * (2 * n - 5) // 6 + n * (n - 3) * r // 2)
        * qp(a * b * c * q ** (r + 1), q * q, n)
    )
    fq = q_pochhammer_pairs(q, q, 0, n - 1)
    fa = q_pochhammer_pairs(a * q, q, r + 1, n + r)
    fb = q_pochhammer_pairs(b * q, q, -1, n - 2)
    fab = q_pochhammer_pairs(a * b * q * q, q, n + r - 1, 2 * n + r - 2)
    # prod_{k=1}^n (q;q)_{k-1} (aq;q)_{k+r} (bq;q)_{k-2} / (abq^2;q)_{k+n+r-2}
    rhs = _ratio([_parts(pre), *fq.values(), *fa.values(), *fb.values(), _parts(series)], fab.values())
    # The closed form goes first, as in thm_main_aw.
    lhs = determinant(build_theorem_matrix(n, r, a, b, c, q))
    return [("kernel determinant vs terminating series form", lhs, rhs)]


@check(
    summary="Shifted q-moment determinant equals the Askey-Wilson closed form",
    size_role="matrix size n",
    draws=("roots", "r"),
    default_sizes=(1, 2, 3, 4, 5, 6),
)
def thm_main_aw(pt, n: int) -> list[Comparison]:
    a, b, c, q, r = pt.a, pt.b, pt.c, pt.q, pt.r
    alpha, beta, gamma, kappa = pt.alpha, pt.beta, pt.gamma, pt.kappa
    krp = kappa ** (r + 1)
    # The closed form is (-i)^n p_n(0; i alpha gamma krp, -i (alpha/gamma) krp,
    # i beta, -i beta | q), and p_n = i^n value at the unit u = i (s = -1).
    value = askey_wilson(n, AWParams(alpha * gamma * krp, -(alpha / gamma) * krp, beta, -beta, q, ZERO), s=-1)
    pre = alpha ** (n * (n - 2)) * gamma**n * kappa ** (n * (n - 2) * (2 * n + 1) // 3 + n * (n - 2) * r)
    fq = q_pochhammer_pairs(q, q, 0, n - 1)
    fa = q_pochhammer_pairs(a * q, q, r, n + r - 1)
    fb = q_pochhammer_pairs(b * q, q, -1, n - 2)
    fab = q_pochhammer_pairs(a * b * q * q, q, n + r - 1, 2 * n + r - 2)
    # prod_{k=1}^n (q;q)_{k-1} (aq;q)_{k+r-1} (bq;q)_{k-2} / (abq^2;q)_{k+n+r-2}
    rhs = _ratio([_parts(pre), *fq.values(), *fa.values(), *fb.values(), _parts(value)], fab.values())
    # The closed form goes first: where it has a pole (b = 1 makes fb raise
    # at index -1) the point is rejected before the determinant is paid for.
    lhs = determinant(build_theorem_matrix(n, r, a, b, c, q))
    return [("kernel determinant vs Askey-Wilson form", lhs, rhs)]


@check(
    summary="Even-size determinant equals the base-q^2 terminating series form",
    size_role="half size m (matrix is 2m x 2m)",
    draws=("a", "b", "q", "c", "r"),
    default_sizes=(1, 2, 3),
)
def cor_even_phi(pt, m: int) -> list[Comparison]:
    a, b, c, q, r = pt.a, pt.b, pt.c, pt.q, pt.r
    q2 = q * q
    lhs = determinant(build_theorem_matrix(2 * m, r, a, b, c, q))
    series = terminating_phi(
        [q ** (-2 * m), q ** (-2 * m + 1) / b, c, c.reciprocal()],
        [q, a * q ** (r + 1), q ** (1 - 4 * m - r) / (a * b)],
        q2,
        q2,
        order=m,
    )
    pre = a ** (2 * m * (m - 1)) * c**m * q ** (2 * m * (m - 1) * (4 * m + 1) // 3 + 2 * m * (m - 1) * r)
    fq = q_pochhammer_pairs(q, q, 1, 2 * m - 1)
    fa = q_pochhammer_pairs(a * q, q, r + 1, 2 * m + r - 1)
    fb = q_pochhammer_pairs(b * q, q, 0, 2 * m - 2)
    fab = q_pochhammer_pairs(a * b * q * q, q, 2 * m + r - 1, 4 * m + r - 3)
    num, den = [], []
    for k in range(1, m + 1):
        num += fq[2 * k - 1], fa[2 * k + r - 1], fb[2 * k - 2]
        den.append(fab[2 * (k + m) + r - 3])
    # each factor enters squared
    rhs = _ratio([_parts(pre), *num, *num, _parts(series)], den * 2)
    return [("even-size determinant vs base-q^2 series form", lhs, rhs)]


@check(
    summary="Even-size determinant equals the base-q^2 Askey-Wilson form",
    size_role="half size m (matrix is 2m x 2m)",
    draws=("a", "b", "q", "c", "r"),
    default_sizes=(1, 2, 3),
)
def cor_even_aw(pt, m: int) -> list[Comparison]:
    a, b, c, q, r = pt.a, pt.b, pt.c, pt.q, pt.r
    q2 = q * q
    lhs = determinant(build_theorem_matrix(2 * m, r, a, b, c, q))
    value = askey_wilson(
        m,
        AWParams(
            ONE,
            q,
            a * q ** (r + 1),
            q ** (1 - 4 * m - r) / (a * b),
            q2,
            (c + c.reciprocal()) / 2,
        ),
    )
    pre = (
        sign(m)
        * a ** (m * (2 * m - 1))
        * b**m
        * c**m
        * q ** (m * (8 * m * m + 3 * m - 2) // 3 + m * (2 * m - 1) * r)
    )
    fq = q_pochhammer_pairs(q, q, 0, 2 * m - 1)
    fa = q_pochhammer_pairs(a * q, q, r, 2 * m + r - 1)
    fab = q_pochhammer_pairs(a * b * q * q, q, 2 * m + r - 1, 4 * m + r - 2)
    fb = q_pochhammer_pairs(b * q, q, 0, 2 * m - 2)
    # prod_{k=1}^{2m} (q;q)_{k-1} (aq;q)_{k+r-1} / (abq^2;q)_{k+2m+r-2} times prod_{k=1}^m (bq;q)_{2k-2}^2
    evens = [fb[2 * k - 2] for k in range(1, m + 1)]
    rhs = _ratio([_parts(pre), *fq.values(), *fa.values(), *evens, *evens, _parts(value)], fab.values())
    return [("even-size determinant vs base-q^2 Askey-Wilson form", lhs, rhs)]


@check(
    summary="Odd-size determinant equals the base-q^2 terminating series form",
    size_role="half size m (matrix is (2m+1) x (2m+1))",
    draws=("a", "b", "q", "c", "r"),
    default_sizes=(1, 2, 3),
)
def cor_odd_phi(pt, m: int) -> list[Comparison]:
    a, b, c, q, r = pt.a, pt.b, pt.c, pt.q, pt.r
    q2 = q * q
    lhs = determinant(build_theorem_matrix(2 * m + 1, r, a, b, c, q))
    series = terminating_phi(
        [q ** (-2 * m), q ** (-2 * m + 1) / b, c * q, q / c],
        [q**3, a * q ** (r + 2), q ** (-4 * m - r) / (a * b)],
        q2,
        q2,
        order=m,
    )
    pre = (
        a ** (2 * m * m)
        * c**m
        * q ** (2 * m * (m + 1) * (4 * m - 1) // 3 + 2 * m * m * r)
        * (ONE - c)
        / (ONE - q)
    )
    fq = q_pochhammer_pairs(q, q, 1, 2 * m + 1)
    fa = q_pochhammer_pairs(a * q, q, r, 2 * m + r)
    fb = q_pochhammer_pairs(b * q, q, 0, 2 * m)
    fab = q_pochhammer_pairs(a * b * q * q, q, 2 * m + r, 4 * m + r)
    num, den = [_parts(pre), _parts(series)], []
    for k in range(1, m + 2):
        num += fq[2 * k - 1], fa[2 * k + r - 2], fb[2 * k - 2]
        den.append(fab[2 * (k + m - 1) + r])
    for k in range(1, m + 1):
        num += fq[2 * k - 1], fa[2 * k + r], fb[2 * k - 2]
        den.append(fab[2 * (k + m - 1) + r])
    return [("odd-size determinant vs base-q^2 series form", lhs, _ratio(num, den))]


@check(
    summary="Odd-size determinant equals the base-q^2 Askey-Wilson form",
    size_role="half size m (matrix is (2m+1) x (2m+1))",
    draws=("a", "b", "q", "c", "r"),
    default_sizes=(1, 2, 3),
)
def cor_odd_aw(pt, m: int) -> list[Comparison]:
    a, b, c, q, r = pt.a, pt.b, pt.c, pt.q, pt.r
    q2 = q * q
    lhs = determinant(build_theorem_matrix(2 * m + 1, r, a, b, c, q))
    value = askey_wilson(
        m,
        AWParams(
            q,
            q2,
            a * q ** (r + 1),
            q ** (-4 * m - r - 1) / (a * b),
            q2,
            (c + c.reciprocal()) / 2,
        ),
    )
    pre = (
        sign(m)
        * a ** (m * (2 * m + 1))
        * b**m
        * c**m
        * (ONE - c)
        * q ** (m * (8 * m * m + 15 * m + 4) // 3 + m * (2 * m + 1) * r)
    )
    fq = q_pochhammer_pairs(q, q, 0, 2 * m)
    fa = q_pochhammer_pairs(a * q, q, r, 2 * m + r)
    fab = q_pochhammer_pairs(a * b * q * q, q, 2 * m + r, 4 * m + r)
    fb = q_pochhammer_pairs(b * q, q, 0, 2 * m)
    # prod_{k=1}^{2m+1} (q;q)_{k-1} (aq;q)_{k+r-1} / (abq^2;q)_{k+2m+r-1}
    # times prod_{k=1}^{m+1} (bq;q)_{2k-2} prod_{k=1}^m (bq;q)_{2k-2}
    evens = [fb[2 * k - 2] for k in range(1, m + 2)]
    num = [_parts(pre), *fq.values(), *fa.values(), *evens, *evens[:m], _parts(value)]
    return [("odd-size determinant vs base-q^2 Askey-Wilson form", lhs, _ratio(num, fab.values()))]


@check(
    summary="Classical-limit determinant equals 3F2 and continuous-Hahn closed forms",
    size_role="matrix size n",
    draws=("alpha_c", "beta_c", "gamma_c", "r"),
    default_sizes=(1, 2, 3, 4, 5),
)
def classical_hahn(pt, n: int) -> list[Comparison]:
    al, be, ga, r = pt.alpha_c, pt.beta_c, pt.gamma_c, pt.r
    lhs = determinant(classical_matrix(n, r, al, be, ga))
    pre1 = GaussianRational(-2) ** n * rf((al + be + ga + (r + 1)) / 2, n)
    fa = rising_factorial_pairs(al + 1, r, n + r)
    fb = rising_factorial_pairs(be + 1, -1, n - 2)
    fab = rising_factorial_pairs(al + be + 2, n + r - 1, 2 * n + r - 2)
    num, den = [_parts(pre1)], fab.values()
    for k in range(1, n + 1):
        num += (math.factorial(k - 1), 1), fa[k + r], fb[k - 2]
    rhs1 = _ratio(num, den) * hyper_f(
        [GaussianRational(-n), (al + ga + (r + 1)) / 2, al + be + (n + r)],
        [(al + be + ga + (r + 1)) / 2, al + (r + 1)],
        ONE,
    )
    num = [((-2) ** n, 1)]  # (2i)^n times the i^n that continuous_hahn leaves out
    for k in range(1, n + 1):
        num += (math.factorial(k), 1), fa[k + r - 1], fb[k - 2]
    rhs2 = _ratio(num, den) * continuous_hahn(
        n, ZERO, (al + ga + (r + 1)) / 2, be / 2, (al - ga + (r + 1)) / 2, be / 2
    )
    return [
        ("classical determinant vs terminating 3F2 form", lhs, rhs1),
        ("classical determinant vs continuous Hahn form", lhs, rhs2),
    ]


@check(
    summary="Even classical determinant equals 4F3 and Wilson closed forms",
    size_role="half size m (matrix is 2m x 2m)",
    draws=("alpha_c", "beta_c", "gamma_c", "r"),
    default_sizes=(1, 2),
)
def classical_wilson_even(pt, m: int) -> list[Comparison]:
    al, be, ga, r = pt.alpha_c, pt.beta_c, pt.gamma_c, pt.r
    lhs = determinant(classical_matrix(2 * m, r, al, be, ga))
    hg = ga / 2
    slot3 = (al + (r + 1)) / 2
    slot4 = -2 * m - (al + be + (r - 1)) / 2
    fa = rising_factorial_pairs(al + 1, r, 2 * m + r - 1)
    fb = rising_factorial_pairs(be + 1, 0, 2 * m - 2)
    fab = rising_factorial_pairs(al + be + 2, 2 * m + r - 1, 4 * m + r - 2)
    num, den = [], []
    for k in range(1, m + 1):
        num += (math.factorial(2 * k - 1), 1), fa[2 * k + r - 1], fb[2 * k - 2]
        den.append(fab[2 * (k + m) + r - 3])
    # each factor enters squared
    rhs1 = _ratio(num * 2, den * 2) * hyper_f(
        [GaussianRational(-m), -(be - 1) / 2 - m, hg, -hg],
        [HALF, slot3, slot4],
        ONE,
    )
    # prod_{k=1}^{2m} (k-1)! (al+1)_{k+r-1} / (al+be+2)_{k+2m+r-2} times prod_{k=1}^m (be+1)_{2k-2}^2
    evens = [fb[2 * k - 2] for k in range(1, m + 1)]
    num = [((-2) ** (3 * m), 1), *((math.factorial(k), 1) for k in range(2 * m)), *fa.values(), *evens, *evens]
    rhs2 = _ratio(num, fab.values()) * wilson(m, hg, ZERO, HALF, slot3, slot4)
    return [
        ("even classical determinant vs terminating 4F3 form", lhs, rhs1),
        ("even classical determinant vs Wilson form", lhs, rhs2),
    ]


@check(
    summary="Odd classical determinant equals 4F3 and Wilson closed forms",
    size_role="half size m (matrix is (2m+1) x (2m+1))",
    draws=("alpha_c", "beta_c", "gamma_c", "r"),
    default_sizes=(1, 2),
)
def classical_wilson_odd(pt, m: int) -> list[Comparison]:
    al, be, ga, r = pt.alpha_c, pt.beta_c, pt.gamma_c, pt.r
    lhs = determinant(classical_matrix(2 * m + 1, r, al, be, ga))
    fa = rising_factorial_pairs(al + 1, r, 2 * m + r)
    fb = rising_factorial_pairs(be + 1, 0, 2 * m)
    fab = rising_factorial_pairs(al + be + 2, 2 * m + r, 4 * m + r)
    num, den = [_parts(ga)], []
    for k in range(1, m + 2):
        num += (math.factorial(2 * k - 1), 1), fa[2 * k + r - 2], fb[2 * k - 2]
        den.append(fab[2 * (k + m - 1) + r])
    for k in range(1, m + 1):
        num += (math.factorial(2 * k - 1), 1), fa[2 * k + r], fb[2 * k - 2]
        den.append(fab[2 * (k + m - 1) + r])
    rhs1 = _ratio(num, den) * hyper_f(
        [GaussianRational(-m), -(be - 1) / 2 - m, (ga + 1) / 2, (1 - ga) / 2],
        [3 * HALF, (al + r) / 2 + 1, -2 * m - (al + be + r) / 2],
        ONE,
    )
    # prod_{k=1}^{2m+1} (k-1)! (al+1)_{k+r-1} / (al+be+2)_{k+2m+r-1}
    # times prod_{k=1}^{m+1} (be+1)_{2k-2} prod_{k=1}^m (be+1)_{2k-2}
    evens = [fb[2 * k - 2] for k in range(1, m + 2)]
    num = [((-2) ** (3 * m), 1), _parts(ga), *((math.factorial(k), 1) for k in range(2 * m + 1)), *fa.values()]
    rhs2 = _ratio([*num, *evens, *evens[:m]], fab.values()) * wilson(
        m, ga / 2, HALF, ONE, (al + (r + 1)) / 2, -2 * m - (al + be + (r + 1)) / 2
    )
    return [
        ("odd classical determinant vs terminating 4F3 form", lhs, rhs1),
        ("odd classical determinant vs Wilson form", lhs, rhs2),
    ]
