"""Experiment F8 — Figure 8: the full query evaluation example.

Figure 8 frames the paper's twin objectives over the example tree:
(a) the query {XQuery, optimization}, (b) the fragment of interest
⟨n16,n17,n18⟩ that must be generated, and (c) a potentially irrelevant
fragment (the 9-node root-spanning one) that must be excluded as early
as possible.  This bench verifies both objectives per strategy and
shows *when* the irrelevant fragment is discarded (late for brute
force, never materialised further under push-down).
"""

from __future__ import annotations

from repro.bench.reporting import banner, format_table
from repro.core.filters import SizeAtMost
from repro.core.fragment import Fragment
from repro.core.query import Query
from repro.core.strategies import Strategy, evaluate

from .util import report

QUERY = Query.of("xquery", "optimization", predicate=SizeAtMost(3))


def test_objectives_met_per_strategy(benchmark, figure1, capsys):
    target = Fragment(figure1, [16, 17, 18])
    irrelevant = Fragment(figure1, [0, 1, 14, 16, 17, 18, 79, 80, 81])

    def run():
        rows = []
        # The paper's four §4 strategies (not the join-free default).
        for strategy in (s for s in Strategy
                         if s is not Strategy.ANCHORED):
            result = evaluate(figure1, QUERY, strategy=strategy)
            rows.append((strategy.value,
                         target in result.fragments,
                         irrelevant in result.fragments,
                         result.stats["fragment_joins"],
                         result.stats["fragments_discarded"]))
        return rows

    rows = benchmark(run)
    for _, has_target, has_irrelevant, _, _ in rows:
        assert has_target
        assert not has_irrelevant
    report(capsys, "\n".join([
        banner("F8: objectives — generate (b), exclude (c) early"),
        format_table(
            ["strategy", "target ⟨n16,n17,n18⟩ in answers",
             "irrelevant 9-node fragment in answers",
             "fragment joins", "discarded early"],
            [list(r) for r in rows]),
        "",
        "paper: every strategy meets both objectives; push-down "
        "discards doomed fragments before joining them."]))


def test_bench_objective_query_with_index(benchmark, figure1,
                                          figure1_index):
    result = benchmark(evaluate, figure1, QUERY, Strategy.PUSHDOWN,
                       figure1_index)
    assert len(result.fragments) == 4
