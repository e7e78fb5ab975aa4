"""Contiguous relations, the Watson transformation, and origin factorizations."""

from __future__ import annotations

from ..gaussian import ONE, ZERO, sign
from ..orthopoly import AWParams, andrews_rhs, askey_wilson
from ..qseries import phi_terms, q_pochhammer as qp, terminating_phi, very_well_poised
from .points import Comparison, check


@check(
    summary="First contiguous relation for the 4-parameter series, coefficient-wise",
    size_role="highest argument power checked",
    draws=("extras:7", "q"),
    default_sizes=(12,),
)
def phi_contiguous_1(pt, order: int) -> list[Comparison]:
    a, b, c, d, e, f, g = pt.extras
    q = pt.q
    s1 = ((a, b * q, c, d), (e, f, g))
    s2 = ((a * q, b, c, d), (e, f, g))
    s3 = ((a * q, b * q, c * q, d * q), (e * q, f * q, g * q))
    factor = (b - a) * (ONE - c) * (ONE - d) / ((ONE - e) * (ONE - f) * (ONE - g))
    t1, t2 = phi_terms(*s1, q, ONE, order), phi_terms(*s2, q, ONE, order)
    t3 = phi_terms(*s3, q, ONE, order - 1)
    return [
        (f"argument-power {k} coefficient", t1[k] - t2[k], factor * t3[k - 1] if k >= 1 else ZERO)
        for k in range(order + 1)
    ]


@check(
    summary="Second contiguous relation for the 4-parameter series, coefficient-wise",
    size_role="highest argument power checked",
    draws=("extras:7", "q"),
    default_sizes=(12,),
)
def phi_contiguous_2(pt, order: int) -> list[Comparison]:
    a, b, c, d, e, f, g = pt.extras
    q = pt.q
    s1 = ((a, b, c, d), (e * q, f, g))
    s2 = ((a, b, c, d), (e, f * q, g))
    s3 = ((a * q, b, c, d), (e * q, f * q, g))
    t1, t2, t3 = (phi_terms(*s, q, ONE, order) for s in (s1, s2, s3))
    comps = []
    for k in range(order + 1):
        lhs = (ONE - f) * (a - e) * t1[k] - (ONE - e) * (a - f) * t2[k]
        comps.append((f"argument-power {k} coefficient", lhs, (ONE - a) * (f - e) * t3[k]))
    return comps


@check(
    summary="Balanced terminating three-term contiguous relation at unit shift",
    size_role="termination order n",
    draws=("extras:5", "q"),
    default_sizes=(1, 2, 3, 4, 5),
)
def phi_contiguous_3(pt, n: int) -> list[Comparison]:
    c, d, e, f, g = pt.extras
    q = pt.q
    a = q**-n
    b = e * f * g * q ** (n - 1) / (c * d)
    t1 = terminating_phi((a, b, c, d), (e, f, g), q, q, order=n)
    t2 = terminating_phi((a * q, b * q, c, d), (e, f * q, g * q), q, q, order=n - 1)
    t3 = terminating_phi((a * q, b * q, c * q, d), (e * q, f * q, g * q), q, q, order=n - 1)
    lhs = (ONE - e) * (ONE - f) * (ONE - g) * t1
    rhs = c * (ONE - e) * (ONE - f / c) * (ONE - g / c) * t2 + d * (ONE - c) * (
        ONE - e / d
    ) * (ONE - f * g / (c * d)) * t3
    return [("balanced terminating three-term relation", lhs, rhs)]


@check(
    summary="Watson transformation: terminating very-well-poised sum vs balanced series",
    size_role="termination order n",
    draws=("extras:4", "q", "alpha"),
    default_sizes=(1, 2, 3, 4, 5),
)
def watson(pt, n: int) -> list[Comparison]:
    rho = pt.alpha
    b, c, d, e = pt.extras
    q = pt.q
    a = rho * rho
    z = a * a * q ** (n + 2) / (b * c * d * e)
    lhs = very_well_poised(rho, (b, c, d, e, q**-n), q, z, order=n)
    pre = (
        qp(a * q, q, n)
        * qp(a * q / (d * e), q, n)
        / (qp(a * q / d, q, n) * qp(a * q / e, q, n))
    )
    rhs = pre * terminating_phi(
        (q**-n, d, e, a * q / (b * c)),
        (a * q / b, a * q / c, d * e * q**-n / a),
        q,
        q,
        order=n,
    )
    return [("very-well-poised sum vs balanced series", lhs, rhs)]


@check(
    summary="Three-term contiguous relation for the terminating very-well-poised sum",
    size_role="termination order n",
    draws=("extras:4", "alpha", "kappa"),
    default_sizes=(1, 2, 3, 4, 5),
)
def w8_contiguous(pt, n: int) -> list[Comparison]:
    rho, kappa = pt.alpha, pt.kappa
    b, c, d, e = pt.extras
    q = kappa * kappa
    a = rho * rho
    z = a * a * q ** (n + 1) / (b * c * d * e)
    t_lhs = very_well_poised(rho, (b, c * q, d, e, q**-n), q, z, order=n)
    t_mid = very_well_poised(rho * kappa, (b * q, c * q, d, e, q ** (-n + 1)), q, z, order=n - 1)
    t_rhs = very_well_poised(rho, (b, c, d, e, q ** (-n + 1)), q, z, order=n - 1)
    lhs = (c - a) * (d - a * q) * (e - a * q) * (b - a * q**n) * t_lhs
    rhs = a * (ONE - b) * (ONE - a * q) * (d * e - a * q) * (ONE - c * q**n) * t_mid + (
        b * c - a
    ) * (d - a * q) * (e - a * q) * (ONE - a * q**n) * t_rhs
    return [("three-term very-well-poised contiguous relation", lhs, rhs)]


@check(
    summary="Origin values factor through half-degree base-q^2 values (even and odd)",
    size_role="half degree m (degrees 2m and 2m+1)",
    draws=("a", "b", "q", "c"),
    default_sizes=(1, 2, 3),
)
def even_odd_factorization(pt, m: int) -> list[Comparison]:
    a, b, c, q = pt.a, pt.b, pt.c, pt.q
    q2 = q * q
    c2 = c * c
    x0 = -(a / b + b / a) / 2
    even_lhs = askey_wilson(2 * m, AWParams(a, b, c, -c, q, ZERO))
    even_rhs = (
        sign(m)
        * a**m
        * b**m
        * c ** (2 * m)
        * q ** (m * (3 * m - 1))
        * qp(-c2, q2, m)
        * askey_wilson(
            m,
            AWParams(ONE, q, a * b, -(q ** (-4 * m + 2)) / (a * b * c2), q2, x0),
        )
    )
    odd_lhs = askey_wilson(2 * m + 1, AWParams(a, b, c, -c, q, ZERO))
    odd_rhs = (
        sign(m + 1)
        * a**m
        * b ** (m + 1)
        * c ** (2 * m)
        * (ONE + a / b)
        * q ** (m * (3 * m + 1))
        * qp(-c2, q2, m + 1)
        * askey_wilson(
            m,
            AWParams(q, q2, a * b, -(q ** (-4 * m)) / (a * b * c2), q2, x0),
        )
    )
    return [
        ("even-degree origin value vs half-degree factorization", even_lhs, even_rhs),
        ("odd-degree origin value vs half-degree factorization", odd_lhs, odd_rhs),
    ]


@check(
    summary="Paired-parameter origin value has a four-factor closed product",
    size_role="polynomial degree n",
    draws=("a", "b", "q"),
    default_sizes=(1, 2, 3, 4, 5, 6, 7, 8),
)
def andrews(pt, n: int) -> list[Comparison]:
    a, b, q = pt.a, pt.b, pt.q
    lhs = askey_wilson(n, AWParams(a, -a, b, -b, q, ZERO))
    return [("paired-parameter origin value vs closed product", lhs, andrews_rhs(n, a, b, q))]
