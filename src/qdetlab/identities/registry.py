"""Static registry of identity checks.

Every check names the inputs it draws, in RNG order, and pairs them with an
evaluator producing labeled (lhs, rhs) comparisons that must agree exactly.
``mode`` distinguishes proven statements (``identity``) from the open
quadratic relation (``evidence``), whose outcome is reported but never
fails a run.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

from .checks_determinants import (
    eval_c1_pfaffian_square,
    eval_classical_hahn,
    eval_classical_wilson_even,
    eval_classical_wilson_odd,
    eval_cor_even_aw,
    eval_cor_even_phi,
    eval_cor_odd_aw,
    eval_cor_odd_phi,
    eval_hankel,
    eval_mehta_wang,
    eval_nishizawa,
    eval_pfaffian_moments,
    eval_thm_main_aw,
    eval_thm_main_phi,
)
from .checks_quadratic import (
    eval_conjecture_mw3,
    eval_dj_generic,
    eval_dj_specialized,
    eval_quadratic_clean,
    eval_quadratic_full,
    eval_quadratic_phi,
)
from .checks_rows import (
    eval_bottom_rows,
    eval_m_closed,
    eval_m_recurrence,
    eval_pq_lemma,
    eval_q_kratt,
    eval_r_closed,
    eval_r_recurrence,
    eval_r_sum,
    eval_residue_ids,
    eval_thm_rows,
    eval_triangular_inverses,
    eval_vandermonde_vw,
)
from .checks_series import (
    eval_andrews,
    eval_even_odd_factorization,
    eval_phi_contiguous_1,
    eval_phi_contiguous_2,
    eval_phi_contiguous_3,
    eval_w8_contiguous,
    eval_watson,
)
from .points import Comparison, ParamPoint, draw


@dataclass(frozen=True)
class CheckDef:
    """One registry entry: what to draw, how to evaluate, how to describe it.

    ``draws`` names the sampled slots once, in RNG order (see
    :func:`~qdetlab.identities.points.draw`); ``sample`` defaults to drawing
    them.
    """

    id: str
    summary: str
    size_role: str
    draws: tuple[str, ...]
    default_sizes: tuple[int, ...]
    evaluate: Callable[[ParamPoint, int], list[Comparison]]
    mode: str = "identity"
    min_size: int = 1
    max_size: int | None = None
    sample: Callable[[random.Random], dict] | None = None

    def __post_init__(self):
        if self.sample is None:
            object.__setattr__(self, "sample", functools.partial(draw, self.draws))


_CHECKS = [
    CheckDef(
        id="hankel",
        summary="Hankel determinant of the q-moment sequence equals its closed product",
        size_role="matrix size n",
        draws=("a", "b", "q", "r"),
        default_sizes=(1, 2, 3, 4, 5, 6),
        evaluate=eval_hankel,
    ),
    CheckDef(
        id="pfaffian_moments",
        summary="Pfaffian of the skew q-moment kernel equals its closed product",
        size_role="half matrix size m (matrix is 2m x 2m)",
        draws=("a", "b", "q", "r"),
        default_sizes=(1, 2, 3, 4),
        evaluate=eval_pfaffian_moments,
    ),
    CheckDef(
        id="mehta_wang",
        summary="Normalized factorial-moment determinant equals the D-sequence product",
        size_role="matrix size n",
        draws=("a", "b"),
        default_sizes=(1, 2, 3, 4, 5, 6),
        evaluate=eval_mehta_wang,
    ),
    CheckDef(
        id="nishizawa",
        summary="q-deformed factorial determinant equals its Al-Salam-Chihara closed form",
        size_role="matrix size n",
        draws=("s_half", "t_half", "q"),
        default_sizes=(1, 2, 3, 4, 5),
        evaluate=eval_nishizawa,
    ),
    CheckDef(
        id="thm_main_phi",
        summary="Shifted q-moment determinant equals the terminating series closed form",
        size_role="matrix size n",
        draws=("roots", "r"),
        default_sizes=(1, 2, 3, 4, 5, 6),
        evaluate=eval_thm_main_phi,
    ),
    CheckDef(
        id="thm_main_aw",
        summary="Shifted q-moment determinant equals the Askey-Wilson closed form",
        size_role="matrix size n",
        draws=("roots", "r"),
        default_sizes=(1, 2, 3, 4, 5, 6),
        evaluate=eval_thm_main_aw,
    ),
    CheckDef(
        id="cor_even_phi",
        summary="Even-size determinant equals the base-q^2 terminating series form",
        size_role="half size m (matrix is 2m x 2m)",
        draws=("a", "b", "q", "c", "r"),
        default_sizes=(1, 2, 3),
        evaluate=eval_cor_even_phi,
    ),
    CheckDef(
        id="cor_even_aw",
        summary="Even-size determinant equals the base-q^2 Askey-Wilson form",
        size_role="half size m (matrix is 2m x 2m)",
        draws=("a", "b", "q", "c", "r"),
        default_sizes=(1, 2, 3),
        evaluate=eval_cor_even_aw,
    ),
    CheckDef(
        id="cor_odd_phi",
        summary="Odd-size determinant equals the base-q^2 terminating series form",
        size_role="half size m (matrix is (2m+1) x (2m+1))",
        draws=("a", "b", "q", "c", "r"),
        default_sizes=(1, 2, 3),
        evaluate=eval_cor_odd_phi,
    ),
    CheckDef(
        id="cor_odd_aw",
        summary="Odd-size determinant equals the base-q^2 Askey-Wilson form",
        size_role="half size m (matrix is (2m+1) x (2m+1))",
        draws=("a", "b", "q", "c", "r"),
        default_sizes=(1, 2, 3),
        evaluate=eval_cor_odd_aw,
    ),
    CheckDef(
        id="c1_pfaffian_square",
        summary="At c=1 the even determinant equals the square of its Pfaffian",
        size_role="half size m (matrix is 2m x 2m)",
        draws=("a", "b", "q", "r"),
        default_sizes=(1, 2, 3),
        evaluate=eval_c1_pfaffian_square,
    ),
    CheckDef(
        id="classical_hahn",
        summary="Classical-limit determinant equals 3F2 and continuous-Hahn closed forms",
        size_role="matrix size n",
        draws=("alpha_c", "beta_c", "gamma_c", "r"),
        default_sizes=(1, 2, 3, 4, 5),
        evaluate=eval_classical_hahn,
    ),
    CheckDef(
        id="classical_wilson_even",
        summary="Even classical determinant equals 4F3 and Wilson closed forms",
        size_role="half size m (matrix is 2m x 2m)",
        draws=("alpha_c", "beta_c", "gamma_c", "r"),
        default_sizes=(1, 2),
        evaluate=eval_classical_wilson_even,
    ),
    CheckDef(
        id="classical_wilson_odd",
        summary="Odd classical determinant equals 4F3 and Wilson closed forms",
        size_role="half size m (matrix is (2m+1) x (2m+1))",
        draws=("alpha_c", "beta_c", "gamma_c", "r"),
        default_sizes=(1, 2),
        evaluate=eval_classical_wilson_odd,
    ),
    CheckDef(
        id="thm_rows",
        summary="Arbitrary-row kernel determinant equals the R-sum closed form",
        size_role="number of rows n",
        draws=("a", "b", "q", "c", "k_tuple"),
        default_sizes=(1, 2, 3, 4, 5, 6),
        max_size=12,
        evaluate=eval_thm_rows,
    ),
    CheckDef(
        id="q_kratt",
        summary="Arbitrary-row moment determinant equals its Vandermonde-type product",
        size_role="number of rows n",
        draws=("a", "b", "q", "k_tuple"),
        default_sizes=(1, 2, 3, 4, 5, 6),
        max_size=12,
        evaluate=eval_q_kratt,
    ),
    CheckDef(
        id="r_closed",
        summary="R-sum over consecutive rows collapses to a q-binomial product",
        size_role="number of rows n",
        draws=("a", "b", "q"),
        default_sizes=(1, 2, 3, 4, 5, 6),
        evaluate=eval_r_closed,
    ),
    CheckDef(
        id="r_recurrence",
        summary="R-sum satisfies its two-term recurrence in the last row index",
        size_role="number of rows n",
        draws=("a", "b", "q", "k_tuple"),
        default_sizes=(1, 2, 3, 4, 5, 6),
        max_size=12,
        evaluate=eval_r_recurrence,
    ),
    CheckDef(
        id="r_sum",
        summary="Alternating sum of R over its second index telescopes to one product",
        size_role="number of rows n",
        draws=("a", "b", "q", "k_tuple"),
        default_sizes=(1, 2, 3, 4, 5, 6),
        max_size=12,
        evaluate=eval_r_sum,
    ),
    CheckDef(
        id="residue_ids",
        summary="Partial-fraction residue identities behind the kernel factorization",
        size_role="number of variables n",
        draws=("a", "b", "q", "c", "x_list"),
        default_sizes=(1, 2, 3, 4, 5, 6),
        max_size=6,
        evaluate=eval_residue_ids,
    ),
    CheckDef(
        id="vandermonde_vw",
        summary="Vandermonde-type determinants with one structured column",
        size_role="matrix size n",
        draws=("a", "b", "q", "c", "x_list"),
        default_sizes=(1, 2, 3, 4, 5, 6),
        max_size=6,
        evaluate=eval_vandermonde_vw,
    ),
    CheckDef(
        id="bottom_rows",
        summary="Bottom rows of the two triangular conjugations are sparse with known entries",
        size_role="matrix size n",
        draws=("a", "b", "q", "c", "k_tuple"),
        default_sizes=(2, 3, 4, 5, 6),
        min_size=2,
        max_size=12,
        evaluate=eval_bottom_rows,
    ),
    CheckDef(
        id="triangular_inverses",
        summary="Closed-form inverses and signed minors of the q-binomial triangulars",
        size_role="matrix size n",
        draws=("q",),
        default_sizes=(1, 2, 3, 4, 5, 6),
        evaluate=eval_triangular_inverses,
    ),
    CheckDef(
        id="pq_lemma",
        summary="Principal minors of the conjugated kernels reduce to smaller kernels",
        size_role="matrix size n",
        draws=("a", "b", "q", "c", "k_tuple"),
        default_sizes=(2, 3, 4, 5, 6),
        min_size=2,
        max_size=12,
        evaluate=eval_pq_lemma,
    ),
    CheckDef(
        id="m_recurrence",
        summary="Cleared-kernel determinant satisfies its size recurrence",
        size_role="matrix size n",
        draws=("a", "b", "q", "c", "k_tuple"),
        default_sizes=(2, 3, 4, 5, 6),
        min_size=2,
        max_size=12,
        evaluate=eval_m_recurrence,
    ),
    CheckDef(
        id="m_closed",
        summary="Cleared-kernel determinant equals its R-sum closed form",
        size_role="matrix size n",
        draws=("a", "b", "q", "c", "k_tuple"),
        default_sizes=(1, 2, 3, 4, 5, 6),
        max_size=12,
        evaluate=eval_m_closed,
    ),
    CheckDef(
        id="phi_contiguous_1",
        summary="First contiguous relation for the 4-parameter series, coefficient-wise",
        size_role="highest argument power checked",
        draws=("extras:7", "q"),
        default_sizes=(12,),
        evaluate=eval_phi_contiguous_1,
    ),
    CheckDef(
        id="phi_contiguous_2",
        summary="Second contiguous relation for the 4-parameter series, coefficient-wise",
        size_role="highest argument power checked",
        draws=("extras:7", "q"),
        default_sizes=(12,),
        evaluate=eval_phi_contiguous_2,
    ),
    CheckDef(
        id="phi_contiguous_3",
        summary="Balanced terminating three-term contiguous relation at unit shift",
        size_role="termination order n",
        draws=("extras:5", "q"),
        default_sizes=(1, 2, 3, 4, 5),
        evaluate=eval_phi_contiguous_3,
    ),
    CheckDef(
        id="watson",
        summary="Watson transformation: terminating very-well-poised sum vs balanced series",
        size_role="termination order n",
        draws=("extras:4", "q", "alpha"),
        default_sizes=(1, 2, 3, 4, 5),
        evaluate=eval_watson,
    ),
    CheckDef(
        id="w8_contiguous",
        summary="Three-term contiguous relation for the terminating very-well-poised sum",
        size_role="termination order n",
        draws=("extras:4", "alpha", "kappa"),
        default_sizes=(1, 2, 3, 4, 5),
        evaluate=eval_w8_contiguous,
    ),
    CheckDef(
        id="even_odd_factorization",
        summary="Origin values factor through half-degree base-q^2 values (even and odd)",
        size_role="half degree m (degrees 2m and 2m+1)",
        draws=("a", "b", "q", "c"),
        default_sizes=(1, 2, 3),
        evaluate=eval_even_odd_factorization,
    ),
    CheckDef(
        id="andrews",
        summary="Paired-parameter origin value has a four-factor closed product",
        size_role="polynomial degree n",
        draws=("a", "b", "q"),
        default_sizes=(1, 2, 3, 4, 5, 6, 7, 8),
        evaluate=eval_andrews,
    ),
    CheckDef(
        id="dj_generic",
        summary="Determinant condensation identity on a random complex-rational matrix",
        size_role="matrix size n",
        draws=("matrix_entries",),
        default_sizes=(4, 5, 6),
        min_size=2,
        max_size=6,
        evaluate=eval_dj_generic,
    ),
    CheckDef(
        id="dj_specialized",
        summary="Condensation identity specialized to the shifted q-moment determinant",
        size_role="matrix size n",
        draws=("a", "b", "q", "c"),
        default_sizes=(2, 3, 4, 5, 6),
        min_size=2,
        evaluate=eval_dj_specialized,
    ),
    CheckDef(
        id="quadratic_full",
        summary="Quadratic relation among origin values in root parameters",
        size_role="polynomial degree n",
        draws=("roots",),
        default_sizes=(1, 2, 3, 4, 5, 6, 7, 8),
        evaluate=eval_quadratic_full,
    ),
    CheckDef(
        id="quadratic_clean",
        summary="Quadratic relation among origin values in plain parameters",
        size_role="polynomial degree n",
        draws=("a", "b", "q", "c"),
        default_sizes=(1, 2, 3, 4, 5, 6, 7, 8),
        evaluate=eval_quadratic_clean,
    ),
    CheckDef(
        id="quadratic_phi",
        summary="Quadratic relation rewritten with terminating series factors",
        size_role="polynomial degree n",
        draws=("a", "b", "q", "c"),
        default_sizes=(1, 2, 3, 4, 5, 6, 7, 8),
        evaluate=eval_quadratic_phi,
    ),
    CheckDef(
        id="conjecture_mw3",
        summary="Conjectured quadratic relation with two extra free parameters",
        size_role="polynomial degree n",
        draws=("a", "b", "q", "c", "d", "x"),
        default_sizes=(1, 2, 3, 4, 5, 6),
        evaluate=eval_conjecture_mw3,
        mode="evidence",
    ),
]

REGISTRY: dict[str, CheckDef] = {check.id: check for check in _CHECKS}

assert len(REGISTRY) == len(_CHECKS), "duplicate check ids"


def get_check(check_id: str) -> CheckDef:
    try:
        return REGISTRY[check_id]
    except KeyError:
        raise KeyError(f"unknown check id {check_id!r}") from None


def check_ids() -> list[str]:
    return sorted(REGISTRY)
