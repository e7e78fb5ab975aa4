"""Command-line front end: flags, formats, exit codes, reproducibility."""

import dataclasses
import json
import subprocess
import sys

import pytest

from qdetlab.cli import main
from qdetlab.identities import REGISTRY, check_ids


def _min_size(check_id):
    return REGISTRY[check_id].min_size


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_every_check(self, capsys):
        code, out, err = run_cli(capsys, "list")
        assert code == 0
        for cid in check_ids():
            assert cid in out

    def test_explain_known(self, capsys):
        code, out, _ = run_cli(capsys, "explain", "hankel")
        assert code == 0
        assert "hankel" in out
        assert "inputs drawn:  a, b, q, r" in out
        code, out, _ = run_cli(capsys, "explain", "thm_rows")
        assert code == 0
        assert "size bounds:   1..12\n" in out

    def test_explain_unknown(self, capsys):
        code, _, err = run_cli(capsys, "explain", "nope")
        assert code == 2
        assert "unknown check id" in err


class TestRun:
    def test_json_report_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--check", "hankel", "--trials", "2", "--seed", "7",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"version", "seed", "started", "summary", "results"}
        assert report["seed"] == 7
        assert report["summary"]["pass"] == len(report["results"]) == 12
        first = report["results"][0]
        assert first["check"] == "hankel"
        assert set(first) >= {"check", "n", "trial", "seed", "status", "point"}

    def test_comma_separated_and_repeated_checks(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--check", "andrews,mehta_wang", "--check", "r_sum",
            "--trials", "1", "--format", "json",
        )
        assert code == 0
        checks = {r["check"] for r in json.loads(out)["results"]}
        assert checks == {"andrews", "mehta_wang", "r_sum"}
        # an empty name between commas is skipped
        code, out, _ = run_cli(capsys, "run", "--check", "hankel,,mehta_wang", "--trials", "1", "--format", "json")
        assert code == 0
        assert {r["check"] for r in json.loads(out)["results"]} == {"hankel", "mehta_wang"}

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--check", "no_such_id")
        assert code == 2
        assert "unknown check id" in err

    @pytest.mark.parametrize(
        "argv", [("run", "--trials", "x"), (), ("run", "--format", "xml")],
        ids=["bad-int", "no-command", "bad-choice"],
    )
    def test_bad_arguments_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: qdet-lab")
        assert "qdet-lab: error: " in err

    def test_bad_size_window_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--check", "hankel", "--n-min", "4", "--n-max", "2"
        )
        assert code == 2

    def test_zero_trials_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--check", "hankel", "--trials", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "window", [("--check", "dj_generic", "--n-min", "7"), ("--check", "hankel", "--n-max", "0")]
    )
    def test_run_that_selects_nothing_is_usage_error(self, capsys, window):
        code, out, err = run_cli(capsys, "run", *window)
        assert code == 2
        assert out == ""
        assert "nothing to run" in err

    def test_evaluator_exception_is_not_usage_error(self, capsys):
        entry = REGISTRY["hankel"]

        def broken(pt, n):
            raise RuntimeError("raised inside an evaluator")

        try:
            REGISTRY["hankel"] = dataclasses.replace(entry, evaluate=broken)
            code, out, err = run_cli(capsys, "run", "--check", "hankel", "--trials", "1")
        finally:
            REGISTRY["hankel"] = entry
        assert code == 3
        assert out == ""
        assert err.startswith("qdet-lab: internal error: RuntimeError: raised inside an evaluator\n")
        assert "Traceback (most recent call last):" in err
        assert "in broken" in err

    def test_check_all_covers_registry(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--check", "all", "--n-min", "1", "--n-max", "1",
            "--trials", "1", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        ran = {r["check"] for r in report["results"]}
        # every check whose size range admits n=1 appears exactly once
        expected = {cid for cid in check_ids()
                    if _min_size(cid) <= 1}
        assert ran == expected
        # without --check every check runs, as with --check all
        code, out_default, _ = run_cli(capsys, "run", "--n-max", "1", "--trials", "1", "--format", "json")
        assert code == 0
        assert out_default == out

    def test_text_and_json_agree_on_counts(self, capsys):
        code, text_out, _ = run_cli(
            capsys, "run", "--check", "r_closed", "--trials", "2", "--seed", "3"
        )
        assert code == 0
        code, json_out, _ = run_cli(
            capsys, "run", "--check", "r_closed", "--trials", "2", "--seed", "3",
            "--format", "json",
        )
        assert code == 0
        summary = json.loads(json_out)["summary"]
        expected = (
            "summary: pass={pass} fail={fail} evidence_pass={evidence_pass} "
            "evidence_fail={evidence_fail} skipped={skipped}".format(**summary)
        )
        assert expected in text_out

    def test_byte_identical_for_identical_argv(self, capsys):
        argv = ("run", "--check", "andrews", "--trials", "2", "--seed", "5",
                "--format", "json")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "run", "--check", "andrews", "--trials", "1",
            "--format", "json", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["summary"]["pass"] == 8

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(
            capsys, "run", "--check", "andrews", "--trials", "1", "--output", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("qdet-lab: error: cannot write the report")
        assert not target.parent.exists()

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QDETLAB_SEED", "99")
        _, out, _ = run_cli(
            capsys, "run", "--check", "andrews", "--trials", "1", "--format", "json"
        )
        assert json.loads(out)["seed"] == 99
        # explicit flag beats the environment
        _, out, _ = run_cli(
            capsys, "run", "--check", "andrews", "--trials", "1", "--seed", "3",
            "--format", "json",
        )
        assert json.loads(out)["seed"] == 3

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QDETLAB_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "run", "--check", "andrews", "--trials", "1")
        assert code == 2

    @pytest.mark.parametrize("stamp", ["abc", str(10**20)])
    def test_malformed_source_date_epoch_is_usage_error(self, capsys, monkeypatch, stamp):
        entry = REGISTRY["andrews"]
        calls = []

        def counting(pt, n):
            calls.append(n)
            return entry.evaluate(pt, n)

        monkeypatch.setitem(REGISTRY, "andrews", dataclasses.replace(entry, evaluate=counting))
        monkeypatch.setenv("SOURCE_DATE_EPOCH", stamp)
        code, out, err = run_cli(capsys, "run", "--check", "andrews", "--trials", "1")
        assert code == 2
        assert out == ""
        assert "SOURCE_DATE_EPOCH" in err
        assert calls == []  # rejected before any evaluation

    def test_evidence_failure_does_not_affect_exit_code(self, capsys):
        import dataclasses

        from qdetlab import ONE, ZERO
        from qdetlab.identities import REGISTRY

        entry = REGISTRY["conjecture_mw3"]
        rigged = dataclasses.replace(
            entry, evaluate=lambda pt, n: [("forced refutation", ONE, ZERO)]
        )
        try:
            REGISTRY["conjecture_mw3"] = rigged
            code, out, _ = run_cli(
                capsys, "run", "--check", "conjecture_mw3", "--trials", "1",
                "--format", "json",
            )
            report = json.loads(out)
            assert report["summary"]["evidence_fail"] > 0
            assert code == 0
        finally:
            REGISTRY["conjecture_mw3"] = entry

    def test_identity_failure_sets_exit_one(self, capsys):
        import dataclasses

        from qdetlab import ONE, ZERO
        from qdetlab.identities import REGISTRY

        entry = REGISTRY["hankel"]
        rigged = dataclasses.replace(
            entry, evaluate=lambda pt, n: [("forced mismatch", ONE, ZERO)]
        )
        try:
            REGISTRY["hankel"] = rigged
            code, out, _ = run_cli(capsys, "run", "--check", "hankel", "--trials", "1")
            assert code == 1
            assert "FAIL check=hankel" in out
            assert "lhs: 1" in out and "rhs: 0" in out
        finally:
            REGISTRY["hankel"] = entry


class TestInstalledEntryPoint:
    def test_module_invocation_round_trip(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "qdetlab.cli", "run", "--check", "andrews",
             "--trials", "1", "--seed", "11", "--format", "json"],
            capture_output=True,
            text=True,
            check=True,
        )
        report = json.loads(result.stdout)
        assert report["seed"] == 11
        assert report["summary"]["fail"] == 0

    def test_usage_error_exit_code_via_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "qdetlab.cli", "run", "--check", "no_such_id"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
