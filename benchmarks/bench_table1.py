"""Experiment T1 — reproduce the paper's Table 1.

Regenerates, for the running example query {XQuery, optimization} over
the Figure 1 document, the full candidate table: the fragment set joined
per row, the fragment it produces, and the irrelevant/duplicate marks.
Then times the end-to-end query under every strategy.

Paper expectation: 11 candidate joins, 7 unique output fragments, rows
with size > 3 marked irrelevant, four duplicates removed; final answers
⟨n16,n17,n18⟩, ⟨n16,n17⟩, ⟨n16,n18⟩, ⟨n17⟩.
"""

from __future__ import annotations

from repro.bench.reporting import banner, format_table
from repro.core.algebra import join_all, nonempty_subsets
from repro.core.filters import SizeAtMost
from repro.core.query import Query, keyword_fragments
from repro.core.strategies import Strategy, evaluate

from .util import report

QUERY = Query.of("xquery", "optimization", predicate=SizeAtMost(3))


def _table1_rows(figure1):
    F1 = sorted(keyword_fragments(figure1, "xquery"),
                key=lambda f: f.root)
    F2 = sorted(keyword_fragments(figure1, "optimization"),
                key=lambda f: f.root)
    unions = []
    seen_unions = set()
    for sub1 in nonempty_subsets(F1):
        for sub2 in nonempty_subsets(F2):
            union = frozenset(set(sub1) | set(sub2))
            if union not in seen_unions:
                seen_unions.add(union)
                unions.append(union)
    rows = []
    seen_outputs = set()
    for union in unions:
        output = join_all(sorted(union, key=lambda f: f.root))
        duplicate = output.nodes in seen_outputs
        seen_outputs.add(output.nodes)
        irrelevant = output.size > 3
        inputs = " ⋈ ".join(f"f{f.root}"
                            for f in sorted(union, key=lambda f: f.root))
        rows.append((inputs, output, irrelevant, duplicate))
    # Unique rows first, duplicates at the bottom — the paper's layout.
    rows.sort(key=lambda r: (r[3], r[2], r[1].size))
    return rows


def test_table1_rows(benchmark, figure1, capsys):
    rows = benchmark(_table1_rows, figure1)
    assert len(rows) == 11
    unique = [r for r in rows if not r[3]]
    assert len(unique) == 7
    survivors = [r for r in unique if not r[2]]
    assert len(survivors) == 4

    lines = [banner("T1: Table 1 — candidate fragment sets and outputs"),
             format_table(
                 ["No.", "fragment set to be joined",
                  "fragment generated after join", "irrelevant",
                  "duplicate"],
                 [[i + 1, inputs, frag.label(), irrelevant, duplicate]
                  for i, (inputs, frag, irrelevant, duplicate)
                  in enumerate(rows)]),
             "",
             "paper: 11 joins, 7 unique, 4 final answers — measured: "
             f"{len(rows)} joins, {len(unique)} unique, "
             f"{len(survivors)} final answers"]
    report(capsys, "\n".join(lines))


def test_final_answer_set(benchmark, figure1, capsys):
    result = benchmark(evaluate, figure1, QUERY)
    expected = {frozenset([16, 17, 18]), frozenset([16, 17]),
                frozenset([16, 18]), frozenset([17])}
    assert {f.nodes for f in result.fragments} == expected
    lines = [banner("T1: final answers for "
                    "Q[size<=3]{xquery, optimization}")]
    lines += [f"  {f.label()}" for f in result.sorted_fragments()]
    report(capsys, "\n".join(lines))


def test_bench_table1_brute_force(benchmark, figure1):
    result = benchmark(lambda: evaluate(figure1, QUERY,
                                        strategy=Strategy.BRUTE_FORCE))
    assert len(result.fragments) == 4


def test_bench_table1_set_reduction(benchmark, figure1):
    result = benchmark(lambda: evaluate(figure1, QUERY,
                                        strategy=Strategy.SET_REDUCTION))
    assert len(result.fragments) == 4


def test_bench_table1_pushdown(benchmark, figure1, capsys):
    result = benchmark(lambda: evaluate(figure1, QUERY,
                                        strategy=Strategy.PUSHDOWN))
    assert len(result.fragments) == 4
    rows = []
    # The paper's four §4 strategies (not the join-free default).
    for strategy in (s for s in Strategy if s is not Strategy.ANCHORED):
        outcome = evaluate(figure1, QUERY, strategy=strategy)
        rows.append([strategy.value, len(outcome.fragments),
                     outcome.stats["fragment_joins"],
                     outcome.stats["predicate_checks"]])
    report(capsys, format_table(
        ["strategy", "answers", "fragment joins", "predicate checks"],
        rows, title="T1: logical work per strategy (same answers)"))
