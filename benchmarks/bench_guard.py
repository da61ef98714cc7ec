"""Experiment S13 — the cost of query guard rails.

Two questions about ``repro.guard``, with the numbers recorded in
``BENCH_guard.json`` at the repo root:

1. **Checkpoint overhead on the unguarded path**: the budget
   checkpoints are ``if budget is not None`` guards in the hot loops,
   so running *without* a budget must stay within noise of the
   pre-guard code — and running with a generous budget should cost at
   most a couple of percent (the 2% target from the robustness plan).
2. **Time-to-abort on a pathological query**: a dense dual-keyword
   sibling set whose fixed point is ``2^N`` fragments (the paper's
   Definition 6 blow-up) must be cut off within 1.5x the configured
   deadline instead of running for hours.

Run ``pytest benchmarks/bench_guard.py --benchmark-only`` for the full
experiment, or add ``--smoke`` for the tiny CI variant (shape checks
only; no performance assertions).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.bench.reporting import banner, format_table
from repro.core.filters import SizeAtMost
from repro.core.query import Query
from repro.core.strategies import Strategy, evaluate
from repro.errors import BudgetExceeded
from repro.guard.budget import QueryBudget
from repro.obs.metrics import LATENCY_BUCKETS
from repro.workloads.inexlike import InexSpec, generate_collection
from repro.xmltree.parser import parse

from .conftest import TERM_A, TERM_B
from .util import report

BENCH_JSON = (Path(__file__).resolve().parent.parent
              / "BENCH_guard.json")

QUERY = Query.of(TERM_A, TERM_B, predicate=SizeAtMost(12))


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


def pathological_document(siblings: int):
    """N siblings that each contain both query terms: the fixed point
    holds ``2^N`` fragments, far beyond any useful answer set."""
    parts = "".join(f"<b{i}>{TERM_A} {TERM_B}</b{i}>"
                    for i in range(siblings))
    return parse(f"<a>{parts}</a>")


def test_guard_overhead_and_abort(benchmark, capsys, bench_metrics,
                                  smoke):
    spec = (InexSpec(articles=6, nodes_per_article=200,
                     planted_fraction=1.0, occurrences=4,
                     clustering=0.6, seed=313)
            if smoke else
            InexSpec(articles=12, nodes_per_article=1500,
                     planted_fraction=1.0, occurrences=8,
                     clustering=0.6, seed=313))
    collection = generate_collection(spec)
    repetitions = 1 if smoke else 5
    deadline_s = 0.1 if smoke else 0.3
    siblings = 12 if smoke else 16

    generous = QueryBudget(deadline_s=3600.0, max_join_ops=10**12)

    def run():
        # Warm indexes/caches off the clock.
        collection.search(QUERY, strategy=Strategy.PUSHDOWN)
        # Interleave the two variants so clock drift / cache warmth
        # hits both equally, and take the per-variant best: the min is
        # the robust estimator for an overhead ratio.
        unguarded_times, guarded_times = [], []
        unguarded_result = guarded_result = None
        for _ in range(repetitions):
            started = time.perf_counter()
            unguarded_result = collection.search(
                QUERY, strategy=Strategy.PUSHDOWN)
            unguarded_times.append(time.perf_counter() - started)
            started = time.perf_counter()
            guarded_result = collection.search(
                QUERY, strategy=Strategy.PUSHDOWN,
                budget=generous.fresh_item())
            guarded_times.append(time.perf_counter() - started)
        assert _hit_signature(guarded_result) \
            == _hit_signature(unguarded_result)
        for label, seconds in (("unguarded", min(unguarded_times)),
                               ("guarded", min(guarded_times))):
            bench_metrics.histogram(
                "bench_seconds", "Median bench latency.",
                buckets=LATENCY_BUCKETS,
                labels={"case": label}).observe(seconds)

        # Time-to-abort: the blow-up query dies near its deadline.
        document = pathological_document(siblings)
        started = time.monotonic()
        with pytest.raises(BudgetExceeded) as excinfo:
            evaluate(document, Query.of(TERM_A, TERM_B),
                     strategy=Strategy.BRUTE_FORCE,
                     budget=QueryBudget(deadline_s=deadline_s))
        abort_elapsed = time.monotonic() - started
        return (min(unguarded_times), min(guarded_times),
                abort_elapsed, excinfo.value)

    (unguarded_s, guarded_s, abort_elapsed,
     abort_exc) = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = guarded_s / unguarded_s
    abort_factor = abort_elapsed / deadline_s
    rows = [
        ["unguarded search", unguarded_s * 1000, ""],
        ["generous budget", guarded_s * 1000,
         f"{overhead:.3f}x vs unguarded"],
        [f"2^{siblings} blow-up, {deadline_s:g}s deadline",
         abort_elapsed * 1000,
         f"aborted at {abort_factor:.2f}x the deadline"],
    ]
    report(capsys, "\n".join([
        banner(f"S13: guard-rail cost "
               f"({spec.articles} docs x {spec.nodes_per_article} "
               f"nodes, pushdown, size<=12)"),
        format_table(["case", "median ms", "note"], rows),
        "",
        "expected shape: budget checkpoints are amortised (one clock "
        "read per check_interval join ops), so the guarded run tracks "
        "the unguarded one (<2% target); the pathological query is "
        "cut off within 1.5x its deadline with structured progress "
        "instead of running for 2^N fragments."]))
    _record("guard", {
        "smoke": smoke,
        "articles": spec.articles,
        "nodes_per_article": spec.nodes_per_article,
        "unguarded_seconds": unguarded_s,
        "guarded_seconds": guarded_s,
        "checkpoint_overhead": overhead,
        "abort_deadline_s": deadline_s,
        "abort_elapsed_s": abort_elapsed,
        "abort_factor": abort_factor,
        "abort_reason": abort_exc.reason,
        "abort_join_ops": abort_exc.progress.get("join_ops", 0),
    }, bench_metrics)
    assert abort_exc.reason == "deadline"
    assert abort_factor < 1.5, (
        f"pathological query must abort within 1.5x its deadline, "
        f"took {abort_factor:.2f}x")
    if not smoke:
        # Loose ceiling: single-run medians are noisy, the recorded
        # number is the real deliverable (the 2% target is asserted
        # against the median of `repetitions` runs, with headroom).
        assert overhead < 1.10, (
            f"budget checkpoints should be near-free, got "
            f"{overhead:.3f}x")
