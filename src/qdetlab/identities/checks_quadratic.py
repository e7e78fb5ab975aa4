"""Determinant-minor quadratic relations and the open conjecture."""

from __future__ import annotations

from ..gaussian import I, ONE, ZERO, GaussianRational, _parts
from ..linalg import ExactMatrix, determinant, submatrix
from ..orthopoly import AWParams, askey_wilson_values
from ..qseries import q_pochhammer as qp, terminating_phi
from .builders import build_theorem_matrix
from .points import CAPACITY, Comparison, check


@check(
    summary="Determinant condensation identity on a random rational matrix",
    size_role="matrix size n",
    draws=("matrix_entries",),
    default_sizes=(4, 5, 6),
    min_size=2,
)
def dj_generic(pt, n: int) -> list[Comparison]:
    # The leading n x n block of the row-major entries, as rows of triples.
    size, entries = CAPACITY["matrix_entries"], pt.matrix_entries
    rows = [[_parts(v) for v in entries[i : i + n]] for i in range(0, n * size, size)]
    a = ExactMatrix.from_triples(n, n, rows)
    inner = list(range(2, n))
    head = list(range(1, n))
    tail = list(range(2, n + 1))
    lhs = determinant(submatrix(a, inner, inner)) * determinant(a)
    rhs = determinant(submatrix(a, head, head)) * determinant(
        submatrix(a, tail, tail)
    ) - determinant(submatrix(a, head, tail)) * determinant(submatrix(a, tail, head))
    return [("inner-minor product vs corner-minor products", lhs, rhs)]


@check(
    summary="Condensation identity specialized to the shifted q-moment determinant",
    size_role="matrix size n",
    draws=("a", "b", "q", "c"),
    default_sizes=(2, 3, 4, 5, 6),
    min_size=2,
)
def dj_specialized(pt, n: int) -> list[Comparison]:
    a, b, c, q = pt.a, pt.b, pt.c, pt.q
    q2 = q * q

    def dd(size, aa, cc):
        return determinant(build_theorem_matrix(size, 0, aa, b, cc, q))

    lhs = dd(n, a, c) * dd(n - 2, a * q2, c)
    rhs = q * qp(a * q, q, 2) / qp(a * b * q2, q, 2) * dd(n - 1, a, c) * dd(
        n - 1, a * q2, c
    ) - q * (ONE - a * q) ** n * (ONE - a * b * q**3) ** (n - 2) / (
        (ONE - a * q2) ** (n - 2) * (ONE - a * b * q2) ** n
    ) * dd(n - 1, a * q, c * q) * dd(n - 1, a * q, c / q)
    return [("condensation of the shifted kernel determinant", lhs, rhs)]


@check(
    summary="Quadratic relation among origin values in root parameters",
    size_role="polynomial degree n",
    draws=("roots",),
    default_sizes=(1, 2, 3, 4, 5, 6, 7, 8),
)
def quadratic_full(pt, n: int) -> list[Comparison]:
    # With a = alpha^2, b = beta^2 and q = kappa^2, the relation's ab is aq and
    # its cd is b at these four parameters.
    alpha, beta, gamma, kappa = pt.alpha, pt.beta, pt.gamma, pt.kappa
    lhs, rhs = _quadratic_relation(
        n, alpha * gamma * kappa * I, -(alpha / gamma) * kappa * I, beta * I, -(beta * I), pt.q, ZERO
    )
    return [("quadratic relation in root parameters", lhs, rhs)]


def _quadratic_relation(n: int, a, b, c, d, q, x) -> tuple[GaussianRational, GaussianRational]:
    """Both sides of the quadratic relation among the values p_k(x; a, b, c, d; q)
    with a, b or both shifted by q."""

    def p(aa, bb, top):
        return askey_wilson_values(top, AWParams(aa, bb, c, d, q, x))

    # p_ij: the values with a shifted by q^i and b by q^j
    p00, p11 = p(a, b, n), p(a * q, b * q, n - 1)
    p10, p01 = p(a * q, b, n - 1), p(a, b * q, n - 1)
    lhs = a * b * (ONE - q ** (n - 1)) * (ONE - c * d * q ** (n - 2)) * p00[n] * p11[n - 2]
    rhs = (ONE - a * b * q ** (n - 1)) * (ONE - a * b * c * d * q ** (n - 1)) * p00[n - 1] * p11[n - 1]
    rhs = rhs - (ONE - a * b) * (ONE - a * b * c * d * q ** (2 * n - 2)) * p10[n - 1] * p01[n - 1]
    return lhs, rhs


@check(
    summary="Quadratic relation among origin values in plain parameters",
    size_role="polynomial degree n",
    draws=("a", "b", "q", "c"),
    default_sizes=(1, 2, 3, 4, 5, 6, 7, 8),
)
def quadratic_clean(pt, n: int) -> list[Comparison]:
    # At d = -c the factors 1 - cd q^j of the relation are 1 + c^2 q^j.
    lhs, rhs = _quadratic_relation(n, pt.a, pt.b, pt.c, -pt.c, pt.q, ZERO)
    return [("quadratic relation at the origin", lhs, rhs)]


@check(
    summary="Quadratic relation rewritten with terminating series factors",
    size_role="polynomial degree n",
    draws=("a", "b", "q", "c"),
    default_sizes=(1, 2, 3, 4, 5, 6, 7, 8),
)
def quadratic_phi(pt, n: int) -> list[Comparison]:
    a, b, c, q = pt.a, pt.b, pt.c, pt.q
    c2 = c * c
    ai = a * I
    aqi = a * q * I

    def product(mult, num1, den1, order1, num2, den2, order2):
        # At n = 1 the first factor below has order -1, and its multiplier
        # (1 - q^{n-1}) vanishes.  Every other order is non-negative and its
        # series is formed even under a zero multiplier, so that a pole such
        # as (abq^2; q)_1 = 0 reaches the sampler instead of being hidden.
        if order1 < 0 or order2 < 0:
            return ZERO
        s1 = terminating_phi(num1, den1, q, q, order=order1)
        s2 = terminating_phi(num2, den2, q, q, order=order2)
        return mult * s1 * s2

    lhs = product(
        a * b * q * (ONE - q ** (n - 1)) * (ONE + c2 * q ** (n - 2)),
        (q**-n, -(a * b * c2) * q ** (n - 1), ai, -ai),
        (a * b, a * c, -(a * c)),
        n,
        (q ** (-n + 2), -(a * b * c2) * q ** (n - 1), aqi, -aqi),
        (a * b * q * q, a * c * q, -(a * c * q)),
        n - 2,
    )
    rhs = product(
        (ONE - a * b * q**n) * (ONE + a * b * c2 * q ** (n - 1)),
        (q ** (-n + 1), -(a * b * c2) * q ** (n - 2), ai, -ai),
        (a * b, a * c, -(a * c)),
        n - 1,
        (q ** (-n + 1), -(a * b * c2) * q**n, aqi, -aqi),
        (a * b * q * q, a * c * q, -(a * c * q)),
        n - 1,
    ) - product(
        (ONE - a * b * q) * (ONE + a * b * c2 * q ** (2 * n - 2)),
        (q ** (-n + 1), -(a * b * c2) * q ** (n - 1), aqi, -aqi),
        (a * b * q, a * c * q, -(a * c * q)),
        n - 1,
        (q ** (-n + 1), -(a * b * c2) * q ** (n - 1), ai, -ai),
        (a * b * q, a * c, -(a * c)),
        n - 1,
    )
    return [("quadratic relation in terminating series form", lhs, rhs)]


@check(
    summary="Conjectured quadratic relation with two extra free parameters",
    size_role="polynomial degree n",
    draws=("a", "b", "q", "c", "d", "x"),
    default_sizes=(1, 2, 3, 4, 5, 6),
    mode="evidence",
)
def conjecture_mw3(pt, n: int) -> list[Comparison]:
    lhs, rhs = _quadratic_relation(n, pt.a, pt.b, pt.c, pt.d, pt.q, pt.x)
    return [("two-extra-parameter quadratic relation", lhs, rhs)]
