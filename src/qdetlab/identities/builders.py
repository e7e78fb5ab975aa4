"""Builders for the structured matrices and combinatorial sums the checks use.

Everything here is a direct transcription of a displayed formula into exact
arithmetic: moment sequences of the little q-Jacobi polynomials, the
determinant kernels built from them, the denominator-cleared row matrix and
its four triangular companions, and the ordered-partition sum R_{n,nu}.
All matrix builders use the 1-based convention of the formulas.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ..errors import PoleError
from ..gaussian import ONE, ZERO, GaussianRational, sign, to_gq
from ..linalg import ExactMatrix
from ..qseries import q_binomial, q_pochhammer, rising_factorial


def moment(m: int, a, b, q) -> GaussianRational:
    """Little q-Jacobi moment mu_m = (aq;q)_m / (abq^2;q)_m, any integer m."""
    a, b, q = to_gq(a), to_gq(b), to_gq(q)
    num = q_pochhammer(a * q, q, m)
    den = q_pochhammer(a * b * q * q, q, m)
    if not den:
        raise PoleError("vanishing moment denominator", f"(abq^2;q)_{m}")
    return num / den


def moment_hankel(n: int, r: int, a, b, q) -> ExactMatrix:
    """Hankel matrix (mu_{i+j+r-2})_{1<=i,j<=n}."""
    return ExactMatrix.build(n, n, lambda i, j: moment(i + j + r - 2, a, b, q))


def moment_hankel_rows(k_tuple: Sequence[int], a, b, q) -> ExactMatrix:
    """Row-selected moment matrix (mu_{k_i+j-2})."""
    n = len(k_tuple)
    return ExactMatrix.build(n, n, lambda i, j: moment(k_tuple[i - 1] + j - 2, a, b, q))


def build_theorem_matrix(n: int, r: int, a, b, c, q) -> ExactMatrix:
    """The shifted kernel ((q^{i-1} - c q^{j-1}) mu_{i+j+r-2})_{1<=i,j<=n}.

    At c = 1 the prefactor is antisymmetric and the matrix is exactly skew.
    """
    a, b, c, q = to_gq(a), to_gq(b), to_gq(c), to_gq(q)
    return ExactMatrix.build(
        n,
        n,
        lambda i, j: (q ** (i - 1) - c * q ** (j - 1)) * moment(i + j + r - 2, a, b, q),
    )


def theorem_matrix_rows(k_tuple: Sequence[int], a, b, c, q) -> ExactMatrix:
    """Arbitrary-rows kernel ((q^{k_i-1} - c q^{j-1}) mu_{k_i+j-2})."""
    a, b, c, q = to_gq(a), to_gq(b), to_gq(c), to_gq(q)
    n = len(k_tuple)
    return ExactMatrix.build(
        n,
        n,
        lambda i, j: (q ** (k_tuple[i - 1] - 1) - c * q ** (j - 1))
        * moment(k_tuple[i - 1] + j - 2, a, b, q),
    )


def build_m(k_tuple: Sequence[int], a, b, c, q) -> ExactMatrix:
    """Denominator-cleared row matrix with entries
    (q^{k_i-1} - c q^{j-1}) (a q^{k_i};q)_{j-1} (a b q^{k_i+j};q)_{n-j}."""
    a, b, c, q = to_gq(a), to_gq(b), to_gq(c), to_gq(q)
    n = len(k_tuple)
    ab = a * b

    def entry(i, j):
        k = k_tuple[i - 1]
        return (
            (q ** (k - 1) - c * q ** (j - 1))
            * q_pochhammer(a * q**k, q, j - 1)
            * q_pochhammer(ab * q ** (k + j), q, n - j)
        )

    return ExactMatrix.build(n, n, entry)


def build_triangular(kind: str, n: int, k_tuple: Sequence[int] | None, a=None, b=None, q=None) -> ExactMatrix:
    """The four triangular companions of the cleared row matrix.

    ``X`` and ``L`` are lower triangular with row-dependent reciprocal
    entries over the k-tuple; ``Y`` (lower) and ``U`` (upper) are the
    unitriangular q-binomial matrices.  Structural zeros realize the
    indicator factors.
    """
    q = to_gq(q)
    if kind == "X" or kind == "L":
        a = to_gq(a)
        if kind == "L":
            ab_shift = to_gq(a) * to_gq(b) * q ** (n - 1)

        def entry(i, j):
            if i < j:
                return ZERO
            kj = k_tuple[j - 1]
            if kind == "X":
                head = q**kj * (ONE - a * q**kj)
            else:
                head = q**kj * (ONE - ab_shift * q**kj)
            prod = head
            for l in range(1, i + 1):
                if l == j:
                    continue
                prod = prod * (q ** k_tuple[l - 1] - q**kj)
            return -prod.reciprocal()

        return ExactMatrix.build(n, n, entry)
    if kind == "Y":

        def entry(i, j):
            if i < j:
                return ZERO
            return sign(i + j) * q ** (-((i - j) * (2 * n + 1 - i - j)) // 2) * q_binomial(
                n - j, i - j, q
            )

        return ExactMatrix.build(n, n, entry)
    if kind == "U":

        def entry(i, j):
            if i > j:
                return ZERO
            return sign(i + j) * q ** (((j - i) * (j - i + 1)) // 2) * q_binomial(j - 1, j - i, q)

        return ExactMatrix.build(n, n, entry)
    raise ValueError(f"unknown triangular kind {kind!r}")


def triangular_inverse(kind: str, n: int, q) -> ExactMatrix:
    """Closed-form inverses of the Y and U unitriangular matrices."""
    q = to_gq(q)
    if kind == "Y":
        return ExactMatrix.build(
            n, n, lambda i, j: q ** ((j - i) * (n + 1 - i)) * q_binomial(n - j, i - j, q)
        )
    if kind == "U":
        return ExactMatrix.build(
            n, n, lambda i, j: q ** (j - i) * q_binomial(j - 1, i - 1, q)
        )
    raise ValueError(f"unknown triangular kind {kind!r}")


def compute_r(n: int, nu: int, k_tuple: Sequence[int], a, b, q) -> GaussianRational:
    """The ordered disjoint-pair partition sum R_{n,nu}; 0 unless 0 <= nu <= n.

    The sum runs over splittings of {1..n} into an increasing (n-nu)-tuple i
    and its increasing nu-tuple complement j, weighting each by
    q^{sum i_l - n + nu} prod (1 - a q^{k_{i_l}-i_l+l+nu}) prod (1 - ab q^{k_{j_l}+j_l-l+nu-1}).
    """
    if nu < 0 or nu > n:
        return ZERO
    if len(k_tuple) < n:
        raise ValueError("k-tuple shorter than n")
    a, b, q = to_gq(a), to_gq(b), to_gq(q)
    ab = a * b
    total = ZERO
    universe = range(1, n + 1)
    for i_set in itertools.combinations(universe, n - nu):
        j_set = tuple(v for v in universe if v not in i_set)
        weight = q ** (sum(i_set) - n + nu)
        for l, iv in enumerate(i_set, start=1):
            weight = weight * (ONE - a * q ** (k_tuple[iv - 1] - iv + l + nu))
        for l, jv in enumerate(j_set, start=1):
            weight = weight * (ONE - ab * q ** (k_tuple[jv - 1] + jv - l + nu - 1))
        total = total + weight
    return total


def mehta_wang_matrix(n: int, a, b) -> ExactMatrix:
    """Gamma-normalized classical kernel ((a + j - i) (b)_{i+j-2})_{1<=i,j<=n}."""
    a, b = to_gq(a), to_gq(b)
    return ExactMatrix.build(
        n, n, lambda i, j: (a + (j - i)) * rising_factorial(b, i + j - 2)
    )


def nishizawa_matrix(n: int, s, t, q) -> ExactMatrix:
    """q-Gamma-normalized kernel ((q^{i-1} - s^2 q^{j-1}) (t^2;q)_{i+j-2})."""
    s, t, q = to_gq(s), to_gq(t), to_gq(q)
    c = s * s
    t2 = t * t
    return ExactMatrix.build(
        n,
        n,
        lambda i, j: (q ** (i - 1) - c * q ** (j - 1)) * q_pochhammer(t2, q, i + j - 2),
    )


def classical_matrix(n: int, r: int, alpha, beta, gamma) -> ExactMatrix:
    """Classical-limit kernel ((gamma + j - i) (alpha+1)_{i+j+r-2} / (alpha+beta+2)_{i+j+r-2})."""
    alpha, beta, gamma = to_gq(alpha), to_gq(beta), to_gq(gamma)

    def entry(i, j):
        m = i + j + r - 2
        den = rising_factorial(alpha + beta + 2, m)
        if not den:
            raise PoleError("vanishing classical moment denominator", f"(alpha+beta+2)_{m}")
        return (gamma + (j - i)) * rising_factorial(alpha + 1, m) / den

    return ExactMatrix.build(n, n, entry)
