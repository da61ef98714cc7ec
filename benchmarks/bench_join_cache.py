"""Experiment S9 — what the closure memo saves, and what it cannot.

The :class:`~repro.core.algebra.JoinCache` memoises each keyword's
completed fixed point ``F+`` (Theorem 2: ``F1 ⋈* F2 = F1+ ⋈ F2+``, so
``F+`` is the part of a query that repeats) and replays it whole.  This
bench pins the memo's three regimes:

* within one query the two terms' bases differ, so a memo computes
  exactly the joins no memo does;
* a repeated query replays every closure and computes only its final
  join ``F1+ ⋈ F2+``;
* a β ladder (``size<=4, 6, 8, 10``) pushes a different bound into each
  closure, so nothing replays — and the memo costs the ladder nothing.
"""

from __future__ import annotations

import time

from repro.bench.reporting import banner, format_table
from repro.core.algebra import JoinCache
from repro.core.filters import SizeAtMost
from repro.core.query import Query
from repro.core.strategies import Strategy, evaluate

from .conftest import TERM_A, TERM_B, planted_document
from .util import report

QUERY = Query.of(TERM_A, TERM_B, predicate=SizeAtMost(8))


def test_cache_within_one_query(benchmark, capsys):
    doc = planted_document(nodes=900, occ_a=7, occ_b=7,
                           clustering=0.7, seed=191)

    def run():
        rows = []
        for label, cache in (("no memo", None),
                             ("closure memo", JoinCache())):
            started = time.perf_counter()
            result = evaluate(doc, QUERY,
                              strategy=Strategy.SET_REDUCTION,
                              cache=cache)
            elapsed = time.perf_counter() - started
            rows.append([label, result.stats["fragment_joins"],
                         result.stats["join_cache_hits"],
                         elapsed * 1000])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(capsys, "\n".join([
        banner("S9: closure memo, single query"),
        format_table(["configuration", "joins computed",
                      "fixed points replayed", "ms"], rows),
        "",
        "the two terms' bases differ, so no closure repeats within the "
        "query: the memo computes every join no memo does."]))
    assert rows[1][1] == rows[0][1]
    assert rows[1][2] == 0


def test_cache_across_queries(benchmark, capsys):
    doc = planted_document(nodes=900, occ_a=6, occ_b=6,
                           clustering=0.5, seed=193)
    ladder = [Query.of(TERM_A, TERM_B, predicate=SizeAtMost(beta))
              for beta in (4, 6, 8, 10)]

    def session(cache):
        """The ladder once: (ms, joins computed, fixed points replayed)."""
        joins = replays = 0
        started = time.perf_counter()
        for query in ladder:
            result = evaluate(doc, query, strategy=Strategy.PUSHDOWN,
                              cache=cache)
            joins += result.stats["fragment_joins"]
            replays += result.stats["join_cache_hits"]
        return (time.perf_counter() - started) * 1000, joins, replays

    def run():
        shared = JoinCache()
        return [["no memo", *session(None)],
                ["β ladder, shared memo", *session(shared)],
                ["the ladder repeated", *session(shared)]], len(shared)

    rows, entries = benchmark.pedantic(run, rounds=1, iterations=1)
    report(capsys, "\n".join([
        banner("S9: closure memo across a query session"),
        format_table(["session", "ms", "joins computed",
                      "fixed points replayed"], rows),
        f"closures memoised afterwards: {entries}",
        "",
        "each β pushes its own bound into both closures, so the ladder "
        "replays nothing; repeating it replays every closure and "
        "computes only the final joins."]))
    cold, ladder_run, repeated = rows
    assert ladder_run[2:] == [cold[2], 0]
    assert repeated[3] == 2 * len(ladder) and repeated[2] < cold[2]
    assert entries == 2 * len(ladder)


def test_bench_cached_query(benchmark, medium_doc):
    cache = JoinCache()
    evaluate(medium_doc, QUERY, cache=cache)  # warm
    result = benchmark(evaluate, medium_doc, QUERY, Strategy.PUSHDOWN,
                       None, cache)
    assert result.stats["join_cache_hits"] == 2


def test_bench_uncached_query(benchmark, medium_doc):
    result = benchmark(evaluate, medium_doc, QUERY, Strategy.PUSHDOWN)
    assert result is not None
