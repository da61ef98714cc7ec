"""The harness itself, in ``--quick`` mode (tiny corpora, 2 s, one rep).

Run with ``PYTHONPATH=src python -m pytest benchmarks/serving -q``; it
stays outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                          capture_output=True, text=True, timeout=900)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_quick_report_has_every_declared_metric(tmp_path):
    out = tmp_path / "report.json"
    done = _run("run.py", "--quick", "--out", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    report, spec = json.loads(out.read_text()), _spec()
    assert set(report["workloads"]) == {w["name"] for w in spec["workloads"]}
    assert set(report["machine"]) == {"nproc", "python", "platform"}
    for name, entry in report["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, name
        assert entry["traced"]["correct"], name
        assert len(entry["inputs"]["corpus_sha256"]) == 64
        sections = {"end_to_end": entry["end_to_end"],
                    "per_layer": entry["traced"]["per_layer"]}
        for section, cells in sections.items():
            assert set(cells) == {m["name"] for m in spec[section]}
            for metric in spec[section]:
                cell = cells[metric["name"]]
                assert cell["unit"] == metric["unit"], metric["name"]
                assert math.isfinite(cell["value"]), (name, metric["name"])
        with open(os.path.join(ROOT, entry["traced"]["trace_file"])) as fh:
            assert json.load(fh)["traceEvents"]

    # A report compared with itself has no row that moved.
    same = _run("compare.py", str(out), str(out))
    assert same.returncode == 0, same.stdout + same.stderr
    rows = [line.split() for line in same.stdout.splitlines()
            if not line.startswith("#")]
    assert len(rows) == len(spec["workloads"]) * len(spec["end_to_end"])
    assert {row[-1] for row in rows} <= {"same", "unresolved"}


def test_single_workload_prints_the_contract_line():
    done = _run("run.py", "--quick", "--workload", "ro_selective",
                "--seed", "7", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"]
                                       for m in _spec()["end_to_end"]]
