"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

Checks that an untraced and a traced run produce every metric that
BENCHMARK.json names, with its unit; that the layer self times add up to
the traced time; that the correctness gate trips on a comparison made wrong
here, on an escaped exception, on a missing result and on a reassembled
report that differs from the one-shot report; and that the benchmark exits
non-zero without a result line where no qdet-lab sources exist.  The wrong
comparison is injected by wrapping a registry entry inside this process;
the evaluators themselves are not touched.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run
from layers import LAYER_UNITS, SPAN_LAYERS

# Every layer is crossed: builders, qseries and linalg (hankel), orthopoly
# (thm_main_aw), complex minors (dj_generic) and an evidence check.
SMOKE = (run.Suite(("conjecture_mw3", "dj_generic", "hankel", "thm_main_aw"), 2, 3, 1),)

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        failures.append(what)


def declared(kind: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_metrics(api) -> None:
    record = run.measure(api, "smoke", SMOKE, run.REFERENCE_SEED, 0.01, trace=False)
    expect(record["correct"] and record["failed"] == 0, "smoke run passes the gate")
    expect(record["evidence"].get("evidence-pass", 0) + record["evidence"].get("evidence-fail", 0) == 2,
           "evidence outcomes are counted apart from identity results")
    line = run.result_line(record, False, run.END_TO_END_UNITS)
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    expect(got == declared("end_to_end"), "untraced run reports every end_to_end metric with its unit")
    expect(all(isinstance(m["value"], (int, float)) and m["value"] > 0 for m in line["metrics"].values()),
           "every end_to_end value is a positive number")

    record = run.measure(api, "smoke", SMOKE, run.REFERENCE_SEED, 0.01, trace=True)
    line = run.result_line(record, True, LAYER_UNITS)
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    expect(record["correct"], "traced run gives the same reports as the untraced one")
    expect(got == declared("per_layer"), "traced run reports every per_layer metric with its unit")
    layers = record["layers"]
    for layer in ("qseries", "orthopoly", "builders", "linalg", "points"):
        key = "points.attempts" if layer == "points" else f"{layer}.calls"
        expect(layers[key] > 0, f"traced run crosses the {layer} layer")
    total = sum(record["layer_self_ru"].values())
    expect(abs(total - layers["trace.time_ru"]) <= 0.02 * layers["trace.time_ru"],
           f"layer self times add up to the traced time ({total:.2f} of {layers['trace.time_ru']:.2f} ru)")
    expect(layers["gaussian.self_s"] <= sum(layers[f"{x}.self_s"] for x in SPAN_LAYERS),
           "scalar time is part of the layers' self time")


def with_entry(api, check: str, **fields):
    """Run the smoke workload with one registry entry replaced; restore it after."""
    registry = sys.modules["qdetlab.identities.registry"].REGISTRY
    original = registry[check]
    registry[check] = dataclasses.replace(original, **fields)
    try:
        return run.measure(api, "smoke", SMOKE, run.REFERENCE_SEED, 0.01, trace=False)
    finally:
        registry[check] = original


def check_gate(api) -> None:
    original = api.get_check("hankel").evaluate

    def wrong(point, n):
        return [(label, lhs, rhs + 1) for label, lhs, rhs in original(point, n)]

    record = with_entry(api, "hankel", evaluate=wrong)
    expect(not record["correct"] and record["failed"] > 0, "gate trips on a comparison injected as wrong")

    def broken(point, n):
        raise RuntimeError("injected")

    record = with_entry(api, "hankel", evaluate=broken)
    expect(not record["correct"] and record["failed"] > 0, "gate trips on an escaped exception")

    blocks = run.expand(SMOKE, api)
    runs = run.timed_pass(blocks, run.REFERENCE_SEED, api, [])
    gate = run.Gate()
    run.check_pass(runs, api, gate)
    run.check_reports(SMOKE, runs, run.REFERENCE_SEED, api, gate)
    expect(gate.correct, "untampered blocks reassemble to the one-shot report")

    r = runs[0]
    runs[0] = dataclasses.replace(r, report=dataclasses.replace(r.report, results=r.report.results[:0]))
    gate = run.Gate()
    run.check_pass(runs, api, gate)
    expect(not gate.correct, "gate trips when a block returns fewer results than the registry implies")
    gate = run.Gate()
    run.check_reports(SMOKE, runs, run.REFERENCE_SEED, api, gate)
    expect(not gate.correct, "gate trips when reassembled reports differ from the one-shot report")


def check_bare_directory() -> None:
    """Where only BENCHMARK.json and perfbench/ exist, the benchmark must refuse to run."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "complex_minors", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "correct" not in proc.stdout, "no sources: non-zero exit and no result line")


def main() -> int:
    api = run.load_api()
    if api is None:
        print("no qdet-lab sources under src/", file=sys.stderr)
        return 2
    check_metrics(api)
    check_gate(api)
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
