"""Experiment S16 — streaming top-k vs full materialization.

The streaming pipeline's promise is that a ranked/limited query does
not pay for the full answer set: the top-k consumer raises its β size
bound adaptively and stops as soon as the k smallest answers are
proven.  On a Zipf-planted document whose answer set blows up into the
thousands, ``stream_top_k(k=10)`` must come in at or below 0.5x the
full-materialization wall time (the ISSUE 9 acceptance bar; in
practice it is orders of magnitude below), and the first streamed
answer must arrive before the materialized path would have returned
at all.  Facts are recorded in ``BENCH_streaming.json`` at the repo
root; ``streaming.topk_vs_full`` is a headline ratio watched by
``check_regression.py``.

Run ``pytest benchmarks/bench_streaming.py --benchmark-only`` for the
full experiment, or add ``--smoke`` for the tiny CI variant (shape
checks only; no performance assertions).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.bench.reporting import banner, format_table
from repro.core.filters import SizeAtMost
from repro.core.query import Query
from repro.core.strategies import Strategy, evaluate
from repro.core.streaming import (fragment_order_key, stream_evaluate,
                                  stream_top_k)
from repro.workloads.inexlike import InexSpec, generate_collection

from .conftest import TERM_A, TERM_B, planted_document
from .util import report

BENCH_JSON = (Path(__file__).resolve().parent.parent
              / "BENCH_streaming.json")

K = 10


def _record(section: str, payload: dict) -> None:
    """Merge one experiment's facts into BENCH_streaming.json."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        except ValueError:
            data = {}
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")


def test_topk_vs_full_materialization(benchmark, capsys, smoke):
    if smoke:
        # Still a real blow-up (hundred-answer scale): tiny corpora
        # make the ratio meaningless because constant per-query
        # overhead dominates both sides.
        doc = planted_document(nodes=1200, occ_a=8, occ_b=8,
                               clustering=0.8, seed=427)
        query = Query.of(TERM_A, TERM_B, predicate=SizeAtMost(10))
    else:
        doc = planted_document(nodes=3000, occ_a=12, occ_b=12,
                               clustering=0.8, seed=427)
        query = Query.of(TERM_A, TERM_B, predicate=SizeAtMost(14))

    def run():
        started = time.perf_counter()
        full = evaluate(doc, query)
        t_full = time.perf_counter() - started
        reference = sorted(full.fragments, key=fragment_order_key)[:K]

        started = time.perf_counter()
        top = stream_top_k(doc, query, K)
        t_topk = time.perf_counter() - started

        started = time.perf_counter()
        stream = stream_evaluate(doc, query)
        first = next(iter(stream), None)
        t_first = time.perf_counter() - started
        stream.close()
        return (len(full.fragments), reference, top, t_full, t_topk,
                t_first, first)

    (answers, reference, top, t_full, t_topk, t_first, first) = \
        benchmark.pedantic(run, rounds=1, iterations=1)

    # Correctness before speed: the early-terminated consumer must
    # return exactly the k smallest answers of the full set.
    assert top == reference
    assert first is not None

    ratio = t_topk / t_full if t_full > 0 else 0.0
    _record("streaming", {
        "answers": answers,
        "k": K,
        "full_ms": round(t_full * 1000, 3),
        "topk_ms": round(t_topk * 1000, 3),
        "time_to_first_result_ms": round(t_first * 1000, 3),
        "topk_vs_full": round(ratio, 6),
        "smoke": smoke,
    })
    report(capsys, "\n".join([
        banner("S16: streaming top-k vs full materialization"),
        format_table(
            ["metric", "value"],
            [["answer set size", answers],
             ["full materialization (ms)", f"{t_full * 1000:.1f}"],
             [f"stream_top_k k={K} (ms)", f"{t_topk * 1000:.1f}"],
             ["time to first result (ms)", f"{t_first * 1000:.1f}"],
             ["top-k / full ratio", f"{ratio:.4f}"]]),
        "",
        "the β ladder stops at the first round holding k answers, so "
        "the blow-up region beyond β is never materialized."]))
    if not smoke:
        assert ratio <= 0.5, (
            f"streaming top-k took {ratio:.2f}x the full "
            f"materialization; the acceptance bar is 0.5x")


def test_collection_stream_first_hit(benchmark, capsys, smoke):
    spec = (InexSpec(articles=4, nodes_per_article=80,
                     planted_fraction=1.0, occurrences=3, seed=29)
            if smoke else
            InexSpec(articles=12, nodes_per_article=400,
                     planted_fraction=1.0, occurrences=6, seed=29))
    collection = generate_collection(spec)
    query = Query.of(TERM_A, TERM_B, predicate=SizeAtMost(8))

    def run():
        started = time.perf_counter()
        full = collection.search(query, strategy=Strategy.PUSHDOWN)
        t_full = time.perf_counter() - started

        started = time.perf_counter()
        hits = iter(collection.search(query, strategy=Strategy.PUSHDOWN,
                                      stream=True, limit=K))
        first = next(hits, None)
        t_first = time.perf_counter() - started
        page = [first] + list(hits) if first is not None else []

        reference = full.hits[:K]
        return t_full, t_first, page, reference, len(full.hits)

    t_full, t_first, page, reference, total = benchmark.pedantic(
        run, rounds=1, iterations=1)

    def sig(hits):
        return [(h.document_name, tuple(sorted(h.fragment.nodes)))
                for h in hits]

    assert sig(page) == sig(reference)
    _record("collection_stream", {
        "total_hits": total,
        "limit": K,
        "full_search_ms": round(t_full * 1000, 3),
        "time_to_first_hit_ms": round(t_first * 1000, 3),
        "smoke": smoke,
    })
    report(capsys, "\n".join([
        banner("S16: collection streaming, time to first hit"),
        format_table(
            ["metric", "value"],
            [["total hits (materialized)", total],
             ["full search (ms)", f"{t_full * 1000:.1f}"],
             ["first streamed hit (ms)", f"{t_first * 1000:.1f}"]]),
        "",
        "limit-bounded streaming returns the identical first page "
        "without scoring or sorting the blow-up tail."]))
