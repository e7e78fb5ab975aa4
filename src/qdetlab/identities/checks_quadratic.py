"""Determinant-minor quadratic relations and the open conjecture."""

from __future__ import annotations

from ..gaussian import ONE, ZERO, GaussianRational, _parts
from ..linalg import ExactMatrix, determinant, minor
from ..orthopoly import AWParams, askey_wilson_phi, askey_wilson_values
from ..qseries import q_pochhammer as qp
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
    # The leading n x n block of the row-major entries, as rows of pairs.
    size, entries = CAPACITY["matrix_entries"], pt.matrix_entries
    rows = [[_parts(v) for v in entries[i : i + n]] for i in range(0, n * size, size)]
    a = ExactMatrix.from_pairs(n, n, rows)
    inner = list(range(2, n))
    head = list(range(1, n))
    tail = list(range(2, n + 1))
    lhs = minor(a, inner, inner) * determinant(a)
    rhs = minor(a, head, head) * minor(a, tail, tail) - minor(a, head, tail) * minor(a, tail, head)
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
    # At the imaginary parameters i alpha gamma kappa, -i (alpha/gamma) kappa,
    # i beta and -i beta (s = -1), with a = alpha^2, b = beta^2 and
    # q = kappa^2, the relation's ab is aq and its cd is b.
    alpha, beta, gamma, kappa = pt.alpha, pt.beta, pt.gamma, pt.kappa
    lhs, rhs = _quadratic_relation(n, alpha * gamma * kappa, -(alpha / gamma) * kappa, beta, -beta, pt.q, ZERO, -1)
    return [("quadratic relation in root parameters", lhs, rhs)]


def _quadratic_relation(n: int, a, b, c, d, q, x, s: int) -> tuple[GaussianRational, GaussianRational]:
    """Both sides of the quadratic relation among the values
    p_k(u x; u a, u b, u c, u d; q), u^2 = s in {1, -1}, with a, b or both
    shifted by q.

    Each product of two values has degrees adding up to 2n - 2, so it is
    u^{2n-2} times the product of the rational r_k (see
    :func:`~qdetlab.orthopoly.askey_wilson_values`), and both sides are
    given divided by u^{2n-2}.  The parameter pairs ab and cd carry s, and
    abcd carries s^2 = 1.
    """

    def p(aa, bb, top):
        return askey_wilson_values(top, AWParams(aa, bb, c, d, q, x), s)

    # p_ij: the values with a shifted by q^i and b by q^j
    p00, p11 = p(a, b, n), p(a * q, b * q, n - 1)
    p10, p01 = p(a * q, b, n - 1), p(a, b * q, n - 1)
    ab, cd = s * a * b, s * c * d
    lhs = ab * (ONE - q ** (n - 1)) * (ONE - cd * q ** (n - 2)) * p00[n] * p11[n - 2]
    rhs = (ONE - ab * q ** (n - 1)) * (ONE - ab * cd * q ** (n - 1)) * p00[n - 1] * p11[n - 1]
    rhs = rhs - (ONE - ab) * (ONE - ab * cd * q ** (2 * n - 2)) * p10[n - 1] * p01[n - 1]
    return lhs, rhs


@check(
    summary="Quadratic relation among origin values in plain parameters",
    size_role="polynomial degree n",
    draws=("a", "b", "q", "c"),
    default_sizes=(1, 2, 3, 4, 5, 6, 7, 8),
)
def quadratic_clean(pt, n: int) -> list[Comparison]:
    # At d = -c the factors 1 - cd q^j of the relation are 1 + c^2 q^j.
    lhs, rhs = _quadratic_relation(n, pt.a, pt.b, pt.c, -pt.c, pt.q, ZERO, 1)
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

    def series(order, aa, bb):
        # 4phi3(q^-order, -aa bb c^2 q^(order-1), aa i, -aa i; aa bb, aa c, -aa c; q, q):
        # the Askey-Wilson 4-phi-3 at (aa, bb, c, -c) and x = 0, where the
        # numerator pair aa i, -aa i is the paired factor 1 + aa^2 q^(2k).
        return askey_wilson_phi(order, AWParams(aa, bb, c, -c, q, ZERO))

    def product(mult, first, second):
        # At n = 1 the first factor below has order -1, and its multiplier
        # (1 - q^{n-1}) vanishes.  Every other order is non-negative and its
        # series is formed even under a zero multiplier, so that a pole such
        # as (abq^2; q)_1 = 0 reaches the sampler instead of being hidden.
        if first[0] < 0 or second[0] < 0:
            return ZERO
        return mult * series(*first) * series(*second)

    aq, bq = a * q, b * q
    lhs = product(a * b * q * (ONE - q ** (n - 1)) * (ONE + c2 * q ** (n - 2)), (n, a, b), (n - 2, aq, bq))
    rhs = product(
        (ONE - a * b * q**n) * (ONE + a * b * c2 * q ** (n - 1)), (n - 1, a, b), (n - 1, aq, bq)
    ) - product((ONE - a * b * q) * (ONE + a * b * c2 * q ** (2 * n - 2)), (n - 1, aq, b), (n - 1, a, bq))
    return [("quadratic relation in terminating series form", lhs, rhs)]


@check(
    summary="Conjectured quadratic relation with two extra free parameters",
    size_role="polynomial degree n",
    draws=("a", "b", "q", "c", "d", "x"),
    default_sizes=(1, 2, 3, 4, 5, 6),
    mode="evidence",
)
def conjecture_mw3(pt, n: int) -> list[Comparison]:
    lhs, rhs = _quadratic_relation(n, pt.a, pt.b, pt.c, pt.d, pt.q, pt.x, 1)
    return [("two-extra-parameter quadratic relation", lhs, rhs)]
