"""Drift-normalised benchmark for qdet-lab.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload default_suite --seed 42 --seconds 30 --trace 0

The benchmark drives qdet-lab through its public API (``run_suite`` and
``Report``), in one process and one thread.  The unit of timing is one
``(check, n)`` block: ``run_suite`` restricted to that check and size, plus
rendering its JSON report.  Fixed standard-library reference slices run
before and after every block, and each block's time is reported in
reference units (ru): the block's time over the mean slice next to it.  On a
shared two-core machine wall time drifts by a third between runs; the ratio
to neighbouring slices of similar arithmetic does not.

A run makes one full pass over its workload's blocks and then samples the
slowest blocks again for as long as ``--seconds`` allows, then checks every
result against a one-shot ``run_suite`` for the same arguments.  With
``--trace 1`` it then makes one more pass with the layer wrappers of
``perfbench/layers.py`` installed and reports per-layer metrics instead of
end-to-end ones.

Human-readable lines go to standard output, the last line is the JSON
result, and the full record (metrics, raw wall and CPU times, reference
slice quartiles, report sha256, environment stamp) is written under
``.perfbench/`` in the checkout.  Exit codes: 0 correct, 1 correctness gate
failed, 2 usage error or no qdet-lab sources in ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Seed 42 is the one the ROADMAP's figures use; the held-out seed is one no
# change is tuned on, for checking that a claim carries over.
REFERENCE_SEED = 42
HELD_OUT_SEED = 2012

SETUP_LAUNCHES = 15
# setup_s is kept in seconds but drift-normalised like the ru figures: each
# launch that loads the registry follows a bare interpreter launch, and
# setup_s is the median ratio of the two, times this nominal bare launch
# (about what one takes on a shared two-core Xeon VM).  Process start-up
# slows and speeds up with the machine's load; the ratio does not.
NOMINAL_LAUNCH_S = 0.050
# A run whose reference slices spread (quartile distance over median) more
# than the time_ru bound in BENCHMARK.json is flagged: its ru figures are suspect.
REF_SPREAD_LIMIT = 0.20

# Status strings of qdet-lab's report schema.
PASS = "pass"
EVIDENCE_STATUSES = ("evidence-pass", "evidence-fail")
FAILED_STATUSES = ("fail", "skipped-degenerate")


@dataclasses.dataclass(frozen=True)
class Suite:
    """One ``run_suite`` call: checks (None = every registered check), size window, trials."""

    checks: tuple[str, ...] | None
    n_min: int | None
    n_max: int | None
    trials: int


# Why each workload is here is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS: dict[str, tuple[Suite, ...]] = {
    # `qdet-lab run` with default settings: all checks, default sizes, 5 trials.
    "default_suite": (Suite(None, None, None, 5),),
    # Moment kernels above their default sizes: builders and big-operand linalg.
    "kernel_large": (
        Suite(("hankel",), 10, 12, 4),
        Suite(("thm_main_aw", "thm_main_phi"), 9, 11, 4),
        Suite(("c1_pfaffian_square", "pfaffian_moments"), 5, 6, 4),
    ),
    # Desnanot-Jacobi on random complex matrices: linalg, sampler, rendering.
    "complex_minors": (Suite(("dj_generic",), 4, 6, 100),),
}

END_TO_END_UNITS = {
    "time_ru": "ru",
    "result_ru.p50": "ru",
    "result_ru.tail": "ru",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# -- reference slice ----------------------------------------------------------
#
# Fixed and standard-library only: it must never import qdetlab, so that a
# change to the program cannot move it.  It does the kind of work the program
# does (Fraction products, sums and gcds on growing integers, then rendering
# to a string) so that it slows and speeds up with the machine the way the
# blocks do.  Changing it changes every ru figure: never edit it in a PR that
# claims a gain.

_REF_N = 7
_REF_REPEATS = 18
_REF_MATRIX = [
    [Fraction((3 * i + 5 * j) % 11 - 5 or 7, 1 + (i * j + i + 2 * j) % 9) for j in range(_REF_N)]
    for i in range(_REF_N)
]


def _reference_kernel() -> str:
    rows = [list(r) for r in _REF_MATRIX]
    det = Fraction(1)
    for col in range(_REF_N):
        pivot_row = next((r for r in range(col, _REF_N) if rows[r][col]), None)
        if pivot_row is None:
            return "0"
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = rows[col][col]
        det *= pivot
        for r in range(col + 1, _REF_N):
            f = rows[r][col] / pivot
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return str(det)


_REF_VALUE = _reference_kernel()


def reference_slice() -> float:
    """Seconds taken by one fixed reference slice."""
    t0 = time.perf_counter()
    for _ in range(_REF_REPEATS):
        if _reference_kernel() != _REF_VALUE:
            raise RuntimeError("reference slice is not deterministic")
    return time.perf_counter() - t0


def reference_group(block_wall: float) -> list[float]:
    """Slices run after a block: enough to cover a tenth of its time, one to four.

    One short slice is a noisy sample of the machine's speed over a long
    block; a few of them in a row are steadier, and a short block needs one.
    """
    group = [reference_slice()]
    while len(group) < 4 and sum(group) < block_wall / 10:
        group.append(reference_slice())
    return group


# -- workload expansion ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Block:
    suite: int
    check: str
    n: int
    trials: int


def suite_checks(suite: Suite, api) -> list[str]:
    return sorted(suite.checks) if suite.checks is not None else api.check_ids()


def sizes_from_registry(entry, suite: Suite) -> list[int]:
    """The sizes a check runs at, derived from its registry entry."""
    if suite.n_min is None and suite.n_max is None:
        return list(entry.default_sizes)
    lo = max(suite.n_min, entry.min_size)
    hi = suite.n_max if entry.max_size is None else min(suite.n_max, entry.max_size)
    return list(range(lo, hi + 1))


def expand(suites: tuple[Suite, ...], api) -> list[Block]:
    """Blocks in report order: suite, then check id, then size."""
    return [
        Block(k, cid, n, suite.trials)
        for k, suite in enumerate(suites)
        for cid in suite_checks(suite, api)
        for n in sizes_from_registry(api.get_check(cid), suite)
    ]


# -- timed passes ----------------------------------------------------------------


@dataclasses.dataclass
class BlockRun:
    block: Block
    wall_s: float
    ru: float
    report: object | None  # qdet-lab Report, None when the block raised
    text: str
    error: str | None


def run_block(block: Block, seed: int, api):
    """One timed unit: run_suite for (check, n) plus rendering its report."""
    report = api.run_suite([block.check], n_min=block.n, n_max=block.n, trials=block.trials, seed=seed)
    return report, report.to_json()


def timed_pass(blocks: list[Block], seed: int, api, refs: list[list[float]], tracer=None, before=None) -> list[BlockRun]:
    """Run the blocks in order, each between two groups of reference slices.

    ``refs`` holds the slice groups so far; the group after one block is the
    group before the next.  A block's reference time is the mean slice of the
    groups on both sides.  ``before`` is called ahead of each block, outside
    the timed span; the pass stops early at the first block for which it
    returns false.
    """
    if not refs:
        refs.append(reference_group(0.0))
    runs = []
    for block in blocks:
        if before is not None and not before(block):
            break
        report, text, error = None, "", None
        t0 = time.perf_counter()
        try:
            with tracer.block(f"{block.check} n={block.n}") if tracer else contextlib.nullcontext():
                report, text = run_block(block, seed, api)
        except Exception:  # an escaped exception is a failed block, not a crash
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        refs.append(reference_group(wall))
        ref_s = statistics.fmean(refs[-2] + refs[-1])
        ru = wall / ref_s
        if tracer is not None:
            tracer.block_done(ref_s, report, text)
        runs.append(BlockRun(block, wall, ru, report, text, error))
    return runs


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it: (value, percentile, samples)."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


# -- correctness gate --------------------------------------------------------------


@dataclasses.dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    evidence: dict = dataclasses.field(default_factory=dict)
    problems: list = dataclasses.field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def check_pass(runs: list[BlockRun], api, gate: Gate) -> None:
    """Per-result verdicts and the result count derived from the registry."""
    for run in runs:
        b = run.block
        gate.attempted += b.trials
        if run.report is None:
            gate.failed += b.trials
            gate.problems.append(f"{b.check} n={b.n}: exception\n{run.error}")
            continue
        keys = [(r.check, r.n, r.trial) for r in run.report.results]
        if keys != [(b.check, b.n, t) for t in range(b.trials)]:
            gate.problems.append(f"{b.check} n={b.n}: results {keys} do not match the registry")
        identity = api.get_check(b.check).mode == "identity"
        for r in run.report.results:
            if r.status in EVIDENCE_STATUSES:
                gate.evidence[r.status] = gate.evidence.get(r.status, 0) + 1
            elif r.status in FAILED_STATUSES or (identity and r.status != PASS):
                gate.failed += 1
                gate.problems.append(f"{b.check} n={b.n} trial={r.trial}: {r.status} ({r.detail})")


def assemble(runs: list[BlockRun], suite: int):
    """The report of one suite, rebuilt from its blocks with the program's own Report."""
    reports = [r.report for r in runs if r.block.suite == suite]
    summary = {key: sum(rep.summary[key] for rep in reports) for key in reports[0].summary}
    results = tuple(res for rep in reports for res in rep.results)
    return dataclasses.replace(reports[0], summary=summary, results=results)


def check_reports(suites: tuple[Suite, ...], runs: list[BlockRun], seed: int, api, gate: Gate) -> list[str]:
    """Assembled block reports must be byte-identical to one-shot run_suite reports.

    Returns the sha256 of each one-shot report.
    """
    digests = []
    for k, suite in enumerate(suites):
        if any(r.report is None for r in runs if r.block.suite == k):
            digests.append(None)  # a block raised: already counted as failed
            continue
        try:
            oneshot = api.run_suite(
                suite_checks(suite, api), n_min=suite.n_min, n_max=suite.n_max, trials=suite.trials, seed=seed
            ).to_json()
        except Exception:
            gate.problems.append(f"suite {k}: one-shot run raised\n{traceback.format_exc()}")
            digests.append(None)
            continue
        digests.append(hashlib.sha256(oneshot.encode()).hexdigest())
        if assemble(runs, k).to_json() != oneshot:
            gate.problems.append(f"suite {k}: assembled block reports differ from the one-shot report")
    return digests


def check_repeat(texts: dict, again: list[BlockRun], what: str, gate: Gate) -> None:
    """Every repeat of a block must render the report of its first run."""
    for run in again:
        if run.text != texts[run.block]:
            gate.problems.append(f"{run.block.check} n={run.block.n}: {what} report differs from the first pass")


# -- set-up time, memory, environment ------------------------------------------------


def launch_time(code: str) -> float:
    """Wall seconds of a fresh interpreter that runs ``code`` with src/ on its path."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}){code}"], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def setup_time() -> tuple[float, float]:
    """A bare interpreter launch, then one to a loaded check registry: (bare, loaded) wall seconds."""
    return launch_time(""), launch_time("; import qdetlab.identities")


def peak_rss_mb() -> float:
    """Peak resident memory of this process less its file-backed pages, in MiB.

    How much of the interpreter and its shared libraries is resident depends
    on the machine's page cache, not on the program, and moves the peak by
    more than a megabyte from run to run; Linux reports it as RssFile.
    """
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return peak_kib / 1024
    file_kib = next((int(line.split()[1]) for line in status.splitlines() if line.startswith("RssFile:")), 0)
    return (peak_kib - file_kib) / 1024


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int, suites: tuple[Suite, ...], blocks: list[Block]) -> dict:
    sizes: list[dict] = [{} for _ in suites]
    for b in blocks:
        sizes[b.suite].setdefault(b.check, []).append(b.n)
    return {
        "workload": workload,
        "seed": seed,
        "reference_seed": REFERENCE_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "suites": [{"sizes": sz, "trials": s.trials} for sz, s in zip(sizes, suites)],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(),
    }


# -- the run --------------------------------------------------------------------------


def load_api():
    """Import qdet-lab from this checkout's src/, never from an installed copy."""
    if not (SRC / "qdetlab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import qdetlab.identities as api

    if SRC.resolve() not in Path(api.__file__).resolve().parents:
        raise ImportError(f"qdetlab imported from {api.__file__}, not from {SRC}")
    return api


def measure(api, workload: str, suites: tuple[Suite, ...], seed: int, seconds: float, trace: bool) -> dict:
    """Time the workload, gate it, and return the full record."""
    blocks = expand(suites, api)
    gate = Gate()
    refs: list[list[float]] = []
    setup: list[tuple[float, float]] = []

    # The first pass runs every block in report order.  Later passes run the
    # slowest blocks first and stop at the first block that would overrun
    # --seconds, so time left over buys more samples of the blocks that weigh
    # most.  Each block counts with its median over its samples, so one slow
    # block or one mistimed slice does not move the figures.  Reports of later
    # passes are checked against the first and dropped.
    #
    # Set-up launches are spread evenly over --seconds, between blocks, so that
    # their median does not hang on the load of one moment of a shared machine.
    start, cpu_start = time.perf_counter(), time.process_time()
    launches_due = [] if trace else [start + seconds * k / SETUP_LAUNCHES for k in range(SETUP_LAUNCHES)]

    def launch_due(block: Block | None = None) -> bool:
        while launches_due and time.perf_counter() >= launches_due[0]:
            launches_due.pop(0)
            setup.append(setup_time())
        return True

    first = timed_pass(blocks, seed, api, refs, before=launch_due)
    first_wall, first_cpu = time.perf_counter() - start, time.process_time() - cpu_start
    # Read after one full pass: how many later passes fit depends on the
    # machine's speed, and the reports they hold while running would move it.
    peak_mb = peak_rss_mb()
    check_pass(first, api, gate)
    texts = {r.block: r.text for r in first}
    samples = {r.block: [r.ru] for r in first}
    last_wall = {r.block: r.wall_s for r in first}
    order = sorted(blocks, key=last_wall.__getitem__, reverse=True)

    def fits(block: Block) -> bool:
        launch_due()
        return time.perf_counter() - start + last_wall[block] <= seconds

    passes = 1
    while True:
        runs = timed_pass(order, seed, api, refs, before=fits)
        check_pass(runs, api, gate)
        check_repeat(texts, runs, "a later pass", gate)
        for r in runs:
            samples[r.block].append(r.ru)
            last_wall[r.block] = r.wall_s
        if len(runs) < len(order):
            break
        passes += 1
    setup.extend(setup_time() for _ in launches_due)
    digests = check_reports(suites, first, seed, api, gate)

    # A result's time is its block's time over the block's trials: run_suite
    # gives no finer boundary without instrumenting the program.
    robust = [statistics.median(samples[b]) for b in blocks]
    per_result = [ru / b.trials for ru, b in zip(robust, blocks) for _ in range(b.trials)]
    tail_value, tail_pct, tail_n = tail(per_result)
    slices = [t for group in refs for t in group]
    ref_q1, ref_med, ref_q3 = statistics.quantiles(slices, n=4)
    ref_spread = (ref_q3 - ref_q1) / ref_med
    record = {
        "stamp": stamp(workload, seed, suites, blocks),
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failed_share": gate.failed / gate.attempted,
        "evidence": gate.evidence,
        "problems": gate.problems,
        "passes": passes,
        "metrics": {
            "time_ru": sum(robust),
            "result_ru.p50": statistics.median(per_result),
            "result_ru.tail": tail_value,
            "setup_s": NOMINAL_LAUNCH_S * statistics.median(loaded / bare for bare, loaded in setup) if setup else None,
            "peak_rss_mb": peak_mb,
        },
        "tail": {"percentile": tail_pct, "samples": tail_n},
        "raw": {
            "wall_s": first_wall,
            "cpu_s": first_cpu,
            "first_pass_ru": sum(r.ru for r in first),
            "setup_wall_s": [{"bare": bare, "loaded": loaded} for bare, loaded in setup],
        },
        "reference": {
            "slices": len(slices),
            "q1_ms": ref_q1 * 1e3,
            "median_ms": ref_med * 1e3,
            "q3_ms": ref_q3 * 1e3,
            "spread": ref_spread,
            "unsteady": ref_spread > REF_SPREAD_LIMIT,
        },
        "report_sha256": digests,
        "blocks": [
            {"suite": b.suite, "check": b.check, "n": b.n, "trials": b.trials, "ru": samples[b]}
            for b in blocks
        ],
        "reference_slices_ms": [[t * 1e3 for t in group] for group in refs],
    }
    if trace:
        from layers import Tracer

        tracer = Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            traced = timed_pass(blocks, seed, api, refs, tracer)
            traced_wall = time.perf_counter() - t0
        check_repeat(texts, traced, "the traced", gate)
        record["correct"] = gate.correct
        traced_ru = sum(r.ru for r in traced)
        record["layers"] = tracer.metrics(traced_ru, traced_ru - record["metrics"]["time_ru"])
        record["layer_self_ru"] = tracer.self_ru
        record["raw"]["traced_wall_s"] = traced_wall
        record["spans"] = len(tracer.spans)
        tracer.write_spans(OUT / f"{workload}-seed{seed}.spans.jsonl")
    return record


def result_line(record: dict, trace: bool, units: dict) -> dict:
    source = record["layers"] if trace else record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": source[name], "unit": unit} for name, unit in units.items()},
    }


def print_summary(record: dict, trace: bool, units: dict) -> None:
    s = record["stamp"]
    print(f"workload {s['workload']}  seed {s['seed']}  passes {record['passes']}  python {s['python']}  nproc {s['nproc']}  commit {s['git_commit']}")
    source = record["layers"] if trace else record["metrics"]
    for name, unit in units.items():
        print(f"  {name:24} {source[name]:>14.6g} {unit}")
    if not trace:
        t = record["tail"]
        print(f"  {'(tail percentile)':24} {t['percentile']:>14.6g} % of {t['samples']} results")
    print(f"  {'failed_share':24} {record['failed_share']:>14.6g} ratio")
    raw, ref = record["raw"], record["reference"]
    print(f"  wall_s {raw['wall_s']:.3f}  cpu_s {raw['cpu_s']:.3f}  (not gated)")
    print(f"  reference slice median {ref['median_ms']:.3f} ms, quartiles {ref['q1_ms']:.3f}-{ref['q3_ms']:.3f} ms, spread {ref['spread']:.3f}"
          + ("  UNSTEADY" if ref["unsteady"] else ""))
    print(f"  evidence {record['evidence']}  report sha256 {' '.join(map(str, record['report_sha256']))}")
    for problem in record["problems"]:
        print(f"  GATE: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        api = load_api()
    except ImportError as exc:
        print(f"perfbench: cannot import qdet-lab: {exc}", file=sys.stderr)
        return 2
    if api is None:
        print(f"perfbench: no qdet-lab sources under {SRC}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    record = measure(api, args.workload, WORKLOADS[args.workload], args.seed, args.seconds, trace)
    if trace:
        from layers import LAYER_UNITS as units
    else:
        units = END_TO_END_UNITS
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print_summary(record, trace, units)
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps(result_line(record, trace, units)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
