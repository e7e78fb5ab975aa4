"""Layer wrappers for the benchmark's traced run.

The wrappers live here, in the benchmark, and wrap each layer's public
functions at run time; the untraced runs import qdet-lab unmodified.

Layers, named after the modules they wrap:

- ``gaussian``: the arithmetic methods of ``GaussianRational``;
- ``qseries``, ``orthopoly``, ``builders``, ``linalg``: the public functions
  of ``qseries.py``, ``orthopoly.py``, ``identities/builders.py`` and
  ``linalg.py`` (plus ``ExactMatrix`` products and transposes);
- ``checks``: the evaluators held in ``REGISTRY``;
- ``points``: the samplers held in ``REGISTRY``;
- ``runner``: one span per timed block, and render spans around
  ``ParamPoint.describe`` and ``Report.to_json``.

A span is recorded where a call crosses from one layer into another, with
name, start, end, parent and result id; every span of one ``(check, n,
trial)`` result shares that id.  A layer's self time is its spans' time
minus their child spans.  Scalar operations are too many for a span each, so
only the outermost operation is timed and counted, and its time is added to
the innermost open span: ``X.scalar_s`` is the part of ``X.self_s`` spent in
scalar operations that X called directly, and ``gaussian.self_s`` is the sum
of them over all layers.  The self times of the other layers add up to the
traced blocks' time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# Per-layer metrics in report order, with units.
LAYER_UNITS = {
    "gaussian.ops": "count",
    "gaussian.mul": "count",
    "gaussian.div": "count",
    "gaussian.real_mul_share": "ratio",
    "gaussian.max_bits": "bits",
    "gaussian.self_s": "s",
    "qseries.calls": "count",
    "qseries.self_s": "s",
    "qseries.scalar_s": "s",
    "orthopoly.calls": "count",
    "orthopoly.self_s": "s",
    "orthopoly.scalar_s": "s",
    "builders.calls": "count",
    "builders.entries": "count",
    "builders.moment_calls": "count",
    "builders.moment_reuse": "ratio",
    "builders.self_s": "s",
    "builders.scalar_s": "s",
    "linalg.calls": "count",
    "linalg.max_order": "count",
    "linalg.max_entry_bits": "bits",
    "linalg.self_s": "s",
    "linalg.scalar_s": "s",
    "checks.self_s": "s",
    "checks.scalar_s": "s",
    "points.attempts": "count",
    "points.accept_share": "ratio",
    "points.self_s": "s",
    "runner.results": "count",
    "runner.comparisons": "count",
    "runner.vacuous_share": "ratio",
    "runner.self_s": "s",
    "runner.render_s": "s",
    "runner.report_bytes": "B",
    "trace.time_ru": "ru",
    "trace.overhead_ru": "ru",
}

SPAN_LAYERS = ("runner", "points", "checks", "builders", "qseries", "orthopoly", "linalg")

_ARITHMETIC = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add", "__neg__": "add",
    "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow", "conjugate": "add",
    "__truediv__": "div", "__rtruediv__": "div", "reciprocal": "div",
}


def bits(x) -> int:
    """Largest numerator or denominator size, in bits, of a QQ(i) scalar."""
    re, im = x.re, x.im
    return max(re.numerator.bit_length(), re.denominator.bit_length(),
               im.numerator.bit_length(), im.denominator.bit_length())


class Span:
    __slots__ = ("id", "name", "layer", "start", "parent", "result", "child", "scalar")

    def __init__(self, sid, name, layer, parent, result):
        self.id, self.name, self.layer, self.parent, self.result = sid, name, layer, parent, result
        self.child = 0.0
        self.scalar = 0.0
        self.start = perf_counter()


class Tracer:
    """Spans and counters of one traced pass; spans stay in memory until written out."""

    def __init__(self):
        self.gq = None
        self.stack: list[Span] = []
        self.spans: list[tuple] = []
        self.self_s = {layer: 0.0 for layer in SPAN_LAYERS}
        self.scalar_s = {layer: 0.0 for layer in SPAN_LAYERS}
        self.self_ru = {layer: 0.0 for layer in SPAN_LAYERS}
        self.calls = Counter()
        self.count = Counter()
        self.max = Counter()
        self.moment_keys: set = set()
        self.render_s = 0.0
        self.results: dict[int, tuple] = {}
        self.result = None
        self.new_result = True
        self.in_op = False
        self._block_start: dict | None = None
        self._undo: list = []

    # -- spans --------------------------------------------------------------

    def _open(self, layer: str, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans) + len(self.stack), name, layer, parent, self.result)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - span.start
        if self.stack:
            self.stack[-1].child += duration
        self.self_s[span.layer] += duration - span.child
        self.scalar_s[span.layer] += span.scalar
        if span.name == "render":
            self.render_s += duration
        self.spans.append((span.id, span.name, span.layer, span.start, end, span.parent, span.result))

    @contextlib.contextmanager
    def block(self, name: str):
        """Root span of one timed block."""
        self._block_start = dict(self.self_s)
        span = self._open("runner", name)
        try:
            yield
        finally:
            self._close(span)

    def block_done(self, ref_s: float, report, text: str) -> None:
        """Convert the last block's layer self times to ru and count its report."""
        for layer, start in self._block_start.items():
            self.self_ru[layer] += (self.self_s[layer] - start) / ref_s
        if report is not None:
            self.count["results"] += len(report.results)
            self.count["report_bytes"] += len(text.encode())

    # -- wrappers -----------------------------------------------------------

    def _layer_wrapper(self, layer, name, fn, hook=None, force=False):
        """Span at the layer boundary; calls inside the same layer pass straight through."""
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            if not force and stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            self.calls[layer] += 1
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if layer == "builders" and hasattr(result, "rows"):
                self.count["entries"] += result.rows * result.cols
            return result

        return wrapper

    def _op_wrapper(self, fn, kind):
        """Times and counts only the outermost scalar operation."""
        stack = self.stack
        count, top = self.count, self.max
        gq = self.gq

        @functools.wraps(fn)
        def op(*args):
            if self.in_op:
                return fn(*args)
            self.in_op = True
            t0 = perf_counter()
            try:
                result = fn(*args)
            finally:
                self.in_op = False
            dt = perf_counter() - t0
            if stack:
                stack[-1].scalar += dt
            count["ops"] += 1
            if kind == "mul":
                count["mul"] += 1
                if not args[0].im and not getattr(args[1], "im", 0):
                    count["real_mul"] += 1
            elif kind == "div":
                count["div"] += 1
            if type(result) is gq:
                b = bits(result)
                if b > top["bits"]:
                    top["bits"] = b
            return result

        return op

    def _entry_wrappers(self, entry):
        check = entry.id

        @functools.wraps(entry.sample)
        def sample(rng):
            if self.new_result:
                self.result = len(self.results) + 1
                self.new_result = False
            self.count["attempts"] += 1
            span = self._open("points", check)
            try:
                return entry.sample(rng)
            finally:
                self._close(span)

        @functools.wraps(entry.evaluate)
        def evaluate(point, n):
            span = self._open("checks", check)
            try:
                comparisons = entry.evaluate(point, n)
            finally:
                self._close(span)
            self.results[self.result] = (check, n, point.trial)
            self.new_result = True
            self.count["comparisons"] += len(comparisons)
            self.count["vacuous"] += sum(1 for _, lhs, rhs in comparisons if not lhs and not rhs)
            return comparisons

        return sample, evaluate

    def _moment_hook(self, args):
        self.count["moment_calls"] += 1
        self.moment_keys.add(args)

    def _linalg_hook(self, args):
        m = args[0]
        if m.rows > self.max["order"]:
            self.max["order"] = m.rows
        b = max((bits(x) for row in m.to_lists() for x in row), default=0)
        if b > self.max["entry_bits"]:
            self.max["entry_bits"] = b

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, name, value) -> None:
        """Replace an attribute (or a dict item) and remember how to put it back."""
        if isinstance(owner, dict):
            original = owner[name]
            owner[name] = value
            self._undo.append(lambda: owner.__setitem__(name, original))
        else:
            original = getattr(owner, name)
            setattr(owner, name, value)
            self._undo.append(lambda: setattr(owner, name, original))

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        from qdetlab import gaussian, linalg, orthopoly, qseries
        from qdetlab.identities import builders, points, registry, runner

        gq = self.gq = gaussian.GaussianRational
        try:
            replacements = {}
            for layer, module in (("qseries", qseries), ("orthopoly", orthopoly),
                                  ("builders", builders), ("linalg", linalg)):
                for name, fn in vars(module).items():
                    if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                        hook = None
                        if fn is builders.moment:
                            hook = self._moment_hook
                        elif layer == "linalg" and name in ("determinant", "pfaffian"):
                            hook = self._linalg_hook
                        replacements[fn] = self._layer_wrapper(layer, name, fn, hook)
            # Checks bind helpers with `from .builders import ...` (some under
            # another name), so rebind every reference in every qdetlab module.
            for modname, module in list(sys.modules.items()):
                if modname == "qdetlab" or modname.startswith("qdetlab."):
                    for name, value in list(vars(module).items()):
                        if inspect.isfunction(value) and value in replacements:
                            self._patch(module, name, replacements[value])
            for name in ("__matmul__", "transpose"):
                self._patch(linalg.ExactMatrix, name, self._layer_wrapper("linalg", name, getattr(linalg.ExactMatrix, name)))
            for name, kind in _ARITHMETIC.items():
                self._patch(gq, name, self._op_wrapper(getattr(gq, name), kind))
            self._patch(points.ParamPoint, "describe", self._layer_wrapper("runner", "render", points.ParamPoint.describe, force=True))
            self._patch(runner.Report, "to_json", self._layer_wrapper("runner", "render", runner.Report.to_json, force=True))
            for cid, entry in list(registry.REGISTRY.items()):
                sample, evaluate = self._entry_wrappers(entry)
                self._patch(registry.REGISTRY, cid, dataclasses.replace(entry, sample=sample, evaluate=evaluate))
            yield self
        finally:
            while self._undo:
                self._undo.pop()()

    # -- results ------------------------------------------------------------

    def metrics(self, traced_ru: float, overhead_ru: float) -> dict:
        c, calls = self.count, self.calls
        mc = c["moment_calls"]
        return {
            "gaussian.ops": c["ops"],
            "gaussian.mul": c["mul"],
            "gaussian.div": c["div"],
            "gaussian.real_mul_share": c["real_mul"] / c["mul"] if c["mul"] else 0.0,
            "gaussian.max_bits": self.max["bits"],
            "gaussian.self_s": sum(self.scalar_s.values()),
            "qseries.calls": calls["qseries"],
            "qseries.self_s": self.self_s["qseries"],
            "qseries.scalar_s": self.scalar_s["qseries"],
            "orthopoly.calls": calls["orthopoly"],
            "orthopoly.self_s": self.self_s["orthopoly"],
            "orthopoly.scalar_s": self.scalar_s["orthopoly"],
            "builders.calls": calls["builders"],
            "builders.entries": c["entries"],
            "builders.moment_calls": mc,
            "builders.moment_reuse": len(self.moment_keys) / mc if mc else 0.0,
            "builders.self_s": self.self_s["builders"],
            "builders.scalar_s": self.scalar_s["builders"],
            "linalg.calls": calls["linalg"],
            "linalg.max_order": self.max["order"],
            "linalg.max_entry_bits": self.max["entry_bits"],
            "linalg.self_s": self.self_s["linalg"],
            "linalg.scalar_s": self.scalar_s["linalg"],
            "checks.self_s": self.self_s["checks"],
            "checks.scalar_s": self.scalar_s["checks"],
            "points.attempts": c["attempts"],
            "points.accept_share": len(self.results) / c["attempts"] if c["attempts"] else 0.0,
            "points.self_s": self.self_s["points"],
            "runner.results": c["results"],
            "runner.comparisons": c["comparisons"],
            "runner.vacuous_share": c["vacuous"] / c["comparisons"] if c["comparisons"] else 0.0,
            "runner.self_s": self.self_s["runner"],
            "runner.render_s": self.render_s,
            "runner.report_bytes": c["report_bytes"],
            "trace.time_ru": traced_ru,
            "trace.overhead_ru": overhead_ru,
        }

    def write_spans(self, path: Path) -> None:
        """Spans as JSON lines: [id, name, layer, start, end, parent, result], then result ids."""
        path.parent.mkdir(exist_ok=True)
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
            for rid, (check, n, trial) in self.results.items():
                f.write(json.dumps({"result": rid, "check": check, "n": n, "trial": trial}) + "\n")
