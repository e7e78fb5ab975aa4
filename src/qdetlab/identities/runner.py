"""Check execution and deterministic reporting.

A run is a pure function of (check ids, sizes, trials, seed): results are
ordered by (check id, size, trial), scalars are serialized in canonical
string form, and the report timestamp is taken from SOURCE_DATE_EPOCH
(default epoch zero), so identical inputs produce byte-identical reports.

The JSON report is the text of ``json.dumps(report.to_dict(), indent=2)``
plus a newline, rendered in one pass by :func:`_render`: with an indent,
json runs its generator-based pure-Python encoder, while the renderer
appends each line to one list and quotes strings with json's C function.
A flat list (all strs, or all ints, such as a point's matrix entries) goes
out in one join.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote

from .. import __version__
from ..errors import DegenerateSampleError, PoleError, UsageError
from .points import CheckDef, Comparison, ParamPoint
from .registry import get_check

PASS = "pass"
FAIL = "fail"
EVIDENCE_PASS = "evidence-pass"
EVIDENCE_FAIL = "evidence-fail"
SKIPPED = "skipped-degenerate"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check at one size and trial, with witnesses on non-pass."""

    check: str
    n: int
    trial: int
    seed: int
    status: str
    point: dict = field(default_factory=dict)
    lhs: str | None = None
    rhs: str | None = None
    detail: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready view in field order; unset witnesses are left out."""
        out: dict = {}
        for name in _RESULT_FIELDS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


_RESULT_FIELDS = tuple(slot.name for slot in fields(CheckResult))


# How a member of a flat list is written: a list whose members are all of one
# of these types goes out in one join.
_FLAT = {str: _quote, int: int.__repr__}


def _render(value, indent: str, out: list[str]) -> None:
    """Append the text of json.dumps(value, indent=2), nested at ``indent``,
    for a value built of dicts with str keys, lists, strs and ints; any other
    type raises TypeError.  Strings are quoted by the C function json.dumps
    uses; a str or int member goes out in one piece with its line head, and a
    list of strs only or ints only in one join."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is not dict and kind is not list:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    elif not value:
        out.append("{}" if kind is dict else "[]")
    else:
        inner = indent + "  "
        members = set(map(type, value)) if kind is list else ()
        if len(members) == 1 and (write := _FLAT.get(members.pop())):
            out.append("[\n" + inner + (",\n" + inner).join(map(write, value)) + "\n" + indent + "]")
            return
        head = ("{\n" if kind is dict else "[\n") + inner
        for item in value:
            if kind is dict:
                if type(item) is not str:
                    raise TypeError(f"keys must be str, not {type(item).__name__}")
                head += _quote(item) + ": "
                item = value[item]
            member = type(item)
            if member is str:
                out.append(head + _quote(item))
            elif member is int:
                out.append(head + int.__repr__(item))
            else:
                out.append(head)
                _render(item, inner, out)
            head = ",\n" + inner
        out.append("\n" + indent + ("}" if kind is dict else "]"))


_MAX_ATTEMPTS = 1000


def _sample(entry: CheckDef, seed: int, trial: int, n: int) -> tuple[ParamPoint, list[Comparison]]:
    """The rejection loop: the first point at which the check evaluates cleanly.

    Candidates come from one RNG stream per ``(check, seed, trial)`` and each
    is evaluated once at size ``n``; a pole rejects it.  Returns the accepted
    point with its comparisons, or raises :class:`DegenerateSampleError`.
    """
    rng = random.Random(f"{entry.id}|{seed}|{trial}")
    for _ in range(_MAX_ATTEMPTS):
        point = ParamPoint(seed=seed, trial=trial, **entry.sample(rng))
        try:
            return point, entry.evaluate(point, n)
        except (PoleError, ZeroDivisionError):
            continue
    raise DegenerateSampleError(
        f"no non-degenerate point for check {entry.id!r} at n={n} "
        f"after {_MAX_ATTEMPTS} attempts (seed={seed}, trial={trial})"
    )


def sample_point(check_id: str, seed: int, trial: int, n: int) -> ParamPoint:
    """Deterministic point at which ``check_id`` evaluates cleanly at size ``n``.

    Identical arguments always return the identical point.
    """
    return _sample(get_check(check_id), seed, trial, n)[0]


def _witness(x) -> str:
    """str(x) at any size: past CPython's limit on the digits of an int turned
    into a string (from 3.10.7), the limit is lifted for this one conversion."""
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(x)
        finally:
            sys.set_int_max_str_digits(limit)


def _outcome(entry: CheckDef, comparisons: list[Comparison]) -> dict:
    """Status and witnesses: exact agreement of every comparison passes."""
    for label, lhs, rhs in comparisons:
        if lhs != rhs:
            status = EVIDENCE_FAIL if entry.mode == "evidence" else FAIL
            return {"status": status, "lhs": _witness(lhs), "rhs": _witness(rhs), "detail": label}
    return {"status": EVIDENCE_PASS if entry.mode == "evidence" else PASS}


def run_check(check_id: str, n: int, point: ParamPoint) -> CheckResult:
    """Evaluate one check at one given point.

    A pole reached mid-way (possible only for hand-built points, since
    sampled ones are pre-vetted) is reported as skipped-degenerate, never as
    a crash.
    """
    entry = get_check(check_id)
    try:
        outcome = _outcome(entry, entry.evaluate(point, n))
    except (PoleError, ZeroDivisionError) as exc:
        outcome = {"status": SKIPPED, "detail": str(exc)}
    return CheckResult(
        check=check_id, n=n, trial=point.trial, seed=point.seed, point=point.describe(), **outcome
    )


def _sizes_for(entry: CheckDef, n_min: int | None, n_max: int | None) -> list[int]:
    if n_min is None and n_max is None:
        return list(entry.default_sizes)
    lo = entry.min_size if n_min is None else max(n_min, entry.min_size)
    hi = max(max(entry.default_sizes), lo) if n_max is None else n_max
    if entry.max_size is not None:
        hi = min(hi, entry.max_size)
    return list(range(lo, hi + 1))


def _timestamp() -> str:
    """The report stamp from SOURCE_DATE_EPOCH; a malformed value is a UsageError."""
    raw = os.environ.get("SOURCE_DATE_EPOCH", "0")
    try:
        started = datetime.fromtimestamp(int(raw), tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise UsageError(
            f"SOURCE_DATE_EPOCH must be an integer Unix time within the date range, got {raw!r}"
        ) from None
    return started.strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class Report:
    """Seed-stamped aggregation of check results."""

    version: str
    seed: int
    started: str
    summary: dict
    results: tuple[CheckResult, ...]

    @property
    def failed(self) -> bool:
        """True when any identity check failed; evidence outcomes never count."""
        return self.summary["fail"] > 0

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "seed": self.seed,
            "started": self.started,
            "summary": self.summary,
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        """The text of json.dumps(self.to_dict(), indent=2) + "\\n"."""
        out: list[str] = []
        _render(self.to_dict(), "", out)
        out.append("\n")
        return "".join(out)

    def to_text(self) -> str:
        lines = [f"qdet-lab report (seed={self.seed}, version={self.version})"]
        for r in self.results:
            lines.append(f"{r.status.upper()} check={r.check} n={r.n} trial={r.trial}")
            if r.status not in (PASS, EVIDENCE_PASS):
                if r.detail is not None:
                    lines.append(f"    where: {r.detail}")
                if r.lhs is not None:
                    lines.append(f"    lhs: {r.lhs}")
                if r.rhs is not None:
                    lines.append(f"    rhs: {r.rhs}")
                lines.append(f"    point: {json.dumps(r.point)}")
        s = self.summary
        lines.append(
            "summary: pass={pass} fail={fail} evidence_pass={evidence_pass} "
            "evidence_fail={evidence_fail} skipped={skipped}".format(**s)
        )
        return "\n".join(lines) + "\n"


def run_suite(
    check_ids: list[str],
    n_min: int | None = None,
    n_max: int | None = None,
    trials: int = 5,
    seed: int = 42,
) -> Report:
    """Run the cross product of checks x sizes x trials, deterministically.

    Sizes default to each check's own range; an explicit window is clamped
    to what the check supports.  Results are ordered by (check, n, trial).
    A request that selects no (check, size) pair, or no trials, or a
    malformed SOURCE_DATE_EPOCH raises :class:`UsageError` before anything is
    evaluated.
    """
    started = _timestamp()
    if trials < 1:
        raise UsageError("trials must be >= 1")
    entries = [get_check(cid) for cid in sorted(set(check_ids))]
    plan = [(entry, n) for entry in entries for n in _sizes_for(entry, n_min, n_max)]
    if not plan:
        raise UsageError(
            f"nothing to run: the request selects no (check, size) pair "
            f"(n_min={n_min}, n_max={n_max})"
        )
    results: list[CheckResult] = []
    for entry, n in plan:
        for trial in range(trials):
            try:
                point, comparisons = _sample(entry, seed, trial, n)
            except DegenerateSampleError as exc:
                outcome, described = {"status": SKIPPED, "detail": str(exc)}, {}
            else:
                outcome, described = _outcome(entry, comparisons), point.describe()
            results.append(
                CheckResult(check=entry.id, n=n, trial=trial, seed=seed, point=described, **outcome)
            )
    summary = {"pass": 0, "fail": 0, "evidence_pass": 0, "evidence_fail": 0, "skipped": 0}
    keys = {
        PASS: "pass",
        FAIL: "fail",
        EVIDENCE_PASS: "evidence_pass",
        EVIDENCE_FAIL: "evidence_fail",
        SKIPPED: "skipped",
    }
    for r in results:
        summary[keys[r.status]] += 1
    return Report(
        version=__version__,
        seed=seed,
        started=started,
        summary=summary,
        results=tuple(results),
    )
