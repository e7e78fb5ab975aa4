"""The registry of identity checks, collected from the ``checks_*`` modules.

Each check is declared once, on its evaluator (see
:func:`~qdetlab.identities.points.check`).  ``mode`` distinguishes proven
statements (``identity``) from the open quadratic relation (``evidence``),
whose outcome is reported but never fails a run.
"""

from __future__ import annotations

from . import checks_determinants, checks_quadratic, checks_rows, checks_series
from .points import CheckDef

_CHECKS = [
    value
    for module in (checks_determinants, checks_quadratic, checks_rows, checks_series)
    for value in vars(module).values()
    if isinstance(value, CheckDef)
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
