"""Experiment S10 — scalability of the push-down strategy.

The paper's efficiency claims are asymptotic; this bench pins the
constants: wall time and join counts of the default strategy as the
document grows from 1k to 16k nodes with per-term selectivity and
filter held fixed, plus the one-time inverted-index build cost.

Expected shape: scan cost grows linearly with document size (posting
lists are built once), join cost grows with keyword-path depth only —
so end-to-end latency should grow sublinearly in document size for
fixed selectivity.
"""

from __future__ import annotations

import time

from repro.bench.reporting import banner, format_table
from repro.core.filters import SizeAtMost
from repro.core.query import Query
from repro.core.strategies import Strategy, evaluate
from repro.index.inverted import InvertedIndex

from .conftest import TERM_A, TERM_B, planted_document
from .util import report

QUERY = Query.of(TERM_A, TERM_B, predicate=SizeAtMost(6))
SIZES = (1000, 2000, 4000, 8000, 16000)


def test_document_scaling(benchmark, capsys):
    docs = {nodes: planted_document(nodes=nodes, occ_a=6, occ_b=6,
                                    clustering=0.5, seed=211)
            for nodes in SIZES}

    def run():
        rows = []
        for nodes, doc in docs.items():
            started = time.perf_counter()
            index = InvertedIndex(doc)
            index_ms = (time.perf_counter() - started) * 1000

            started = time.perf_counter()
            result = evaluate(doc, QUERY, strategy=Strategy.PUSHDOWN,
                              index=index)
            query_ms = (time.perf_counter() - started) * 1000
            rows.append([nodes, index_ms, query_ms,
                         result.stats["fragment_joins"],
                         len(result.fragments)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(capsys, "\n".join([
        banner("S10: push-down scalability vs document size "
               "(|Fi| = 6, size<=6)"),
        format_table(["nodes", "index build ms", "query ms",
                      "fragment joins", "answers"], rows),
        "",
        "expected shape: build costs grow linearly; query latency is "
        "governed by selectivity and tree depth, not raw size."]))
    # Join work must not explode with document size (selectivity is
    # fixed): allow a generous 4x drift across a 16x size increase.
    assert rows[-1][3] <= rows[0][3] * 4


def test_bench_query_16k(benchmark):
    doc = planted_document(nodes=16000, occ_a=6, occ_b=6,
                           clustering=0.5, seed=211)
    index = InvertedIndex(doc)
    result = benchmark(evaluate, doc, QUERY, Strategy.PUSHDOWN, index)
    assert result is not None


def test_bench_index_build_16k(benchmark):
    doc = planted_document(nodes=16000, occ_a=6, occ_b=6,
                           clustering=0.5, seed=211)
    index = benchmark(InvertedIndex, doc)
    assert index.document_frequency(TERM_A) == 6
