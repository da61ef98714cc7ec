"""Tests for the CI bench-regression gate (check_regression.py)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

from check_regression import check, main  # noqa: E402


def _write(directory: Path, facts: dict) -> None:
    directory.mkdir(exist_ok=True)
    for filename, payload in facts.items():
        (directory / filename).write_text(json.dumps(payload))


@pytest.fixture()
def dirs(tmp_path):
    baseline = tmp_path / "baseline"
    current = tmp_path / "current"
    baseline.mkdir()
    current.mkdir()
    return baseline, current


class TestCheck:
    def test_identical_facts_pass(self, dirs, capsys):
        baseline, current = dirs
        facts = {"BENCH_obs.json": {"noop_overhead": {
            "vs_baseline": {"noop": 1.01, "traced": 1.5}}}}
        _write(baseline, facts)
        _write(current, facts)
        assert check(baseline, current, 0.25) == 0
        assert "0 regressed" in capsys.readouterr().out

    def test_fatter_overhead_regresses(self, dirs, capsys):
        baseline, current = dirs
        _write(baseline, {"BENCH_obs.json": {"noop_overhead": {
            "vs_baseline": {"noop": 1.0}}}})
        _write(current, {"BENCH_obs.json": {"noop_overhead": {
            "vs_baseline": {"noop": 1.4}}}})
        assert check(baseline, current, 0.25) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_shrunken_speedup_regresses(self, dirs, capsys):
        baseline, current = dirs
        _write(baseline, {"BENCH_mutation.json": {"mutation": {
            "batch_commit_speedup": 4.0}}})
        _write(current, {"BENCH_mutation.json": {"mutation": {
            "batch_commit_speedup": 2.0}}})
        assert check(baseline, current, 0.25) == 1

    def test_slowdown_within_threshold_is_ok(self, dirs, capsys):
        baseline, current = dirs
        _write(baseline, {"BENCH_guard.json": {"guard": {
            "checkpoint_overhead": 1.0}}})
        _write(current, {"BENCH_guard.json": {"guard": {
            "checkpoint_overhead": 1.2}}})
        assert check(baseline, current, 0.25) == 0

    def test_new_metric_without_baseline_never_fails(self, dirs, capsys):
        baseline, current = dirs
        _write(current, {"BENCH_obs.json": {"recorder_overhead": {
            "vs_recorder_off": {"recorder_on": 99.0}}}})
        assert check(baseline, current, 0.25) == 0
        assert "new" in capsys.readouterr().out

    def test_missing_current_metric_never_fails(self, dirs, capsys):
        baseline, current = dirs
        _write(baseline, {"BENCH_obs.json": {"recorder_overhead": {
            "vs_recorder_off": {"recorder_on": 1.0}}}})
        assert check(baseline, current, 0.25) == 0
        assert "missing" in capsys.readouterr().out

    def test_malformed_json_is_tolerated(self, dirs, capsys):
        baseline, current = dirs
        (baseline / "BENCH_obs.json").write_text("{nope")
        (current / "BENCH_obs.json").write_text("{nope")
        assert check(baseline, current, 0.25) == 0


class TestMain:
    def test_missing_baseline_dir_is_exit_2(self, tmp_path, capsys):
        code = main(["--baseline-dir", str(tmp_path / "absent"),
                     "--current-dir", str(tmp_path)])
        assert code == 2

    def test_clean_run_through_main(self, dirs, capsys):
        baseline, current = dirs
        facts = {"BENCH_guard.json": {"guard": {"abort_factor": 1.1}}}
        _write(baseline, facts)
        _write(current, facts)
        assert main(["--baseline-dir", str(baseline),
                     "--current-dir", str(current)]) == 0
