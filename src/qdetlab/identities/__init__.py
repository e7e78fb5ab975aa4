"""Identity checks: structured-matrix builders, sampler, registry, runner."""

from .builders import (
    build_m,
    build_theorem_matrix,
    classical_matrix,
    mehta_wang_matrix,
    moment,
    moment_hankel_rows,
    moments,
    nishizawa_matrix,
    r_values,
    row_factors,
    theorem_matrix_rows,
)
from .points import ParamPoint
from .registry import REGISTRY, CheckDef, check_ids, get_check
from .runner import CheckResult, Report, run_check, run_suite, sample_point

__all__ = [
    "CheckDef",
    "CheckResult",
    "ParamPoint",
    "REGISTRY",
    "Report",
    "build_m",
    "build_theorem_matrix",
    "check_ids",
    "classical_matrix",
    "get_check",
    "mehta_wang_matrix",
    "moment",
    "moment_hankel_rows",
    "moments",
    "nishizawa_matrix",
    "r_values",
    "row_factors",
    "run_check",
    "run_suite",
    "sample_point",
    "theorem_matrix_rows",
]
