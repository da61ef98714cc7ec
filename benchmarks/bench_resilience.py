"""Experiment S12 — the cost of fault tolerance.

Two questions about ``repro.exec.resilience``, with the numbers
recorded in ``BENCH_resilience.json`` at the repo root:

1. **Overhead when nothing fails**: the resilient dispatch loop
   (deadline bookkeeping, per-chunk fault lookups, outcome tracking)
   must be close to free next to real query work — the clean-run
   pooled search is compared with and without an armed
   :class:`~repro.exec.resilience.RetryPolicy`.
2. **Recovery cost under injected faults**: one killed worker and one
   transiently flaky chunk, measuring how much wall clock a retry +
   pool respawn adds while results stay bit-identical to serial.

Run ``pytest benchmarks/bench_resilience.py --benchmark-only`` for the
full experiment, or add ``--smoke`` for the tiny CI variant (shape
checks only; no performance assertions).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.reporting import banner, format_table
from repro.bench.runner import measure
from repro.core.filters import SizeAtMost
from repro.core.query import Query
from repro.core.strategies import Strategy
from repro.exec import (FaultPlan, FaultRule, ParallelExecutor,
                        RetryPolicy)
from repro.workloads.inexlike import InexSpec, generate_collection

from .conftest import TERM_A, TERM_B
from .util import report

BENCH_JSON = (Path(__file__).resolve().parent.parent
              / "BENCH_resilience.json")

QUERY = Query.of(TERM_A, TERM_B, predicate=SizeAtMost(12))
FAST = RetryPolicy(backoff_s=0.01, jitter=0.0)


def _record(section: str, payload: dict, registry) -> None:
    """Merge one experiment's facts + metrics into the JSON report."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        except ValueError:
            data = {}
    data[section] = payload
    data.setdefault("metrics", {})[section] = registry.to_json()
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")


def _hit_signature(result):
    return [(hit.document_name, tuple(sorted(hit.fragment.nodes)))
            for hit in result.hits]


def test_resilience_overhead_and_recovery(benchmark, capsys,
                                          bench_metrics, smoke):
    spec = (InexSpec(articles=6, nodes_per_article=200,
                     planted_fraction=1.0, occurrences=4,
                     clustering=0.6, seed=211)
            if smoke else
            InexSpec(articles=12, nodes_per_article=1500,
                     planted_fraction=1.0, occurrences=8,
                     clustering=0.6, seed=211))
    collection = generate_collection(spec)
    documents = {name: collection.document(name)
                 for name in collection.names()}
    repetitions = 1 if smoke else 3
    reference_hits = _hit_signature(
        collection.search(QUERY, strategy=Strategy.PUSHDOWN))

    def timed_pool(label, faults=None, policy=FAST):
        with ParallelExecutor(documents, workers=4, resilience=policy,
                              faults=faults) as pool:
            # Warm the worker indexes off the clock.
            pool.search(QUERY, strategy=Strategy.PUSHDOWN)
            timing = measure(
                label, lambda: pool.search(QUERY, strategy=Strategy.PUSHDOWN,
                                           faults=faults),
                repetitions=repetitions, registry=bench_metrics)
            report_after = pool.last_report
        assert _hit_signature(timing.value) == reference_hits
        return timing, report_after

    def run():
        clean, _ = timed_pool("clean")
        armed, _ = timed_pool(
            "armed", policy=RetryPolicy(timeout_s=60.0, backoff_s=0.01,
                                        jitter=0.0))
        killed, kill_report = timed_pool(
            "kill-worker", faults=FaultPlan(FaultRule.kill(chunk=0)))
        flaky, flaky_report = timed_pool(
            "flaky-chunk",
            faults=FaultPlan(FaultRule.flaky(chunk=0, times=1)))
        return clean, armed, killed, kill_report, flaky, flaky_report

    (clean, armed, killed, kill_report,
     flaky, flaky_report) = benchmark.pedantic(run, rounds=1,
                                               iterations=1)
    overhead = armed.seconds / clean.seconds
    rows = [
        ["clean (default policy)", clean.seconds * 1000, ""],
        ["clean (deadline armed)", armed.seconds * 1000,
         f"{overhead:.2f}x vs clean"],
        ["1 worker killed", killed.seconds * 1000,
         f"{kill_report.respawns} respawn(s)"],
        ["1 flaky chunk", flaky.seconds * 1000,
         f"{flaky_report.retries} retry(ies)"],
    ]
    report(capsys, "\n".join([
        banner(f"S12: fault-tolerance cost "
               f"({spec.articles} docs x {spec.nodes_per_article} "
               f"nodes, 4 workers, pushdown, size<=12)"),
        format_table(["case", "median ms", "note"], rows),
        "",
        "expected shape: the armed deadline is within noise of the "
        "clean run; a killed worker costs one pool respawn + one "
        "chunk re-dispatch; a flaky chunk costs one backoff + retry. "
        "Results are bit-identical to serial in every case."]))
    _record("resilience", {
        "smoke": smoke,
        "articles": spec.articles,
        "nodes_per_article": spec.nodes_per_article,
        "clean_seconds": clean.seconds,
        "armed_seconds": armed.seconds,
        "armed_overhead": overhead,
        "kill_seconds": killed.seconds,
        "kill_respawns": kill_report.respawns,
        "flaky_seconds": flaky.seconds,
        "flaky_retries": flaky_report.retries,
    }, bench_metrics)
    assert kill_report.crashes >= 1 and kill_report.respawns >= 1
    assert flaky_report.retries >= 1
    if not smoke:
        assert overhead < 1.5, (
            f"armed resilience should be near-free on clean runs, got "
            f"{overhead:.2f}x")
