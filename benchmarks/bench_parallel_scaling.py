"""Experiment S11 — parallel collection search.

One claim of the ``repro.exec`` layer is pinned here, with the numbers
recorded in ``BENCH_parallel.json`` at the repo root:

**Scaling**: ``search(..., workers=4)`` over the scalability corpus
is at least 2x faster than the serial path (workers hold warm
per-document state, so only answer node-id tuples cross the process
boundary), while returning bit-identical results.

Run ``pytest benchmarks/bench_parallel_scaling.py --benchmark-only``
for the full experiment, or add ``--smoke`` for the tiny CI variant
(shape checks only; no performance assertions, since a loaded CI box
cannot promise speedups).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.bench.reporting import banner, format_table
from repro.bench.runner import measure
from repro.core.filters import SizeAtMost
from repro.core.query import Query
from repro.core.strategies import Strategy
from repro.exec import ParallelExecutor
from repro.workloads.inexlike import InexSpec, generate_collection

from .conftest import TERM_A, TERM_B
from .util import report

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

WORKER_COUNTS = (2, 4, 8)
QUERY = Query.of(TERM_A, TERM_B, predicate=SizeAtMost(12))


def _record(section: str, payload: dict, registry) -> None:
    """Merge one experiment's facts + metrics into BENCH_parallel.json."""
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


def test_parallel_scaling(benchmark, capsys, bench_metrics, smoke):
    spec = (InexSpec(articles=6, nodes_per_article=200,
                     planted_fraction=1.0, occurrences=4,
                     clustering=0.6, seed=211)
            if smoke else
            InexSpec(articles=16, nodes_per_article=3000,
                     planted_fraction=1.0, occurrences=8,
                     clustering=0.6, seed=211))
    collection = generate_collection(spec)
    repetitions = 1 if smoke else 3

    def run():
        serial = measure(
            "serial",
            lambda: collection.search(QUERY, strategy=Strategy.PUSHDOWN),
            repetitions=repetitions, registry=bench_metrics)
        reference_hits = _hit_signature(serial.value)
        rows = [["serial", serial.seconds * 1000, 1.0,
                 len(serial.value)]]
        speedups = {}
        for workers in WORKER_COUNTS:
            documents = {name: collection.document(name)
                         for name in collection.names()}
            with ParallelExecutor(documents, workers=workers) as pool:
                # Warm the worker indexes off the clock.
                pool.search(QUERY, strategy=Strategy.PUSHDOWN)
                parallel = measure(
                    f"workers={workers}",
                    lambda: pool.search(QUERY, strategy=Strategy.PUSHDOWN),
                    repetitions=repetitions, registry=bench_metrics)
            assert _hit_signature(parallel.value) == reference_hits
            speedup = serial.seconds / parallel.seconds
            speedups[workers] = speedup
            rows.append([f"workers={workers}", parallel.seconds * 1000,
                         speedup, len(parallel.value)])
        return serial, rows, speedups

    serial, rows, speedups = benchmark.pedantic(run, rounds=1,
                                                iterations=1)
    report(capsys, "\n".join([
        banner(f"S11: parallel collection search "
               f"({spec.articles} docs x {spec.nodes_per_article} "
               f"nodes, pushdown, size<=12)"),
        format_table(["case", "median ms", "speedup", "answers"], rows),
        "",
        "expected shape: near-linear speedup until the pool outgrows "
        "the corpus or the physical cores; results are bit-identical "
        "to serial at every width."]))
    _record("parallel_scaling", {
        "smoke": smoke,
        "articles": spec.articles,
        "nodes_per_article": spec.nodes_per_article,
        "serial_seconds": serial.seconds,
        "speedups": {f"workers={w}": s for w, s in speedups.items()},
        "speedup_at_4_workers": speedups[4],
        "answers": len(serial.value),
    }, bench_metrics)
    if not smoke and (os.cpu_count() or 1) >= 4:
        assert speedups[4] >= 2.0, (
            f"expected >=2x speedup at 4 workers, got {speedups[4]:.2f}x")
