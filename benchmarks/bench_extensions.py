"""Experiment S7 — extension ablations (beyond the paper's evaluation).

Covers the future-work features the paper sketches and this library
implements:

* adaptive top-k retrieval (anti-monotonicity as an early-termination
  device) vs full evaluation + truncation;
* IR-style ranking over the algebraic answer set (§6's "can be easily
  incorporated");
* overlap presentation policies (§5) and their answer counts;
* collection-level fan-out search.
"""

from __future__ import annotations

import time

from repro.bench.reporting import banner, format_table
from repro.collection.collection import DocumentCollection
from repro.core.filters import SizeAtMost
from repro.core.presentation import OverlapPolicy, arrange
from repro.core.query import Query
from repro.core.strategies import evaluate
from repro.core.streaming import stream_top_k
from repro.index.inverted import InvertedIndex
from repro.ranking.scoring import FragmentScorer
from repro.workloads.corpora import BOOK_XML, THESIS_XML
from repro.workloads.figure1 import build_figure1_document

from .conftest import TERM_A, TERM_B, planted_document
from .util import report


def test_topk_vs_full_evaluation(benchmark, capsys):
    doc = planted_document(nodes=1200, occ_a=7, occ_b=7,
                           clustering=0.4, seed=141)
    query = Query.of(TERM_A, TERM_B)

    def adaptive():
        return stream_top_k(doc, query, k=5)

    top = benchmark(adaptive)

    started = time.perf_counter()
    full = sorted(evaluate(doc, query).fragments,
                  key=lambda f: (f.size, sorted(f.nodes)))[:5]
    full_time = time.perf_counter() - started
    started = time.perf_counter()
    adaptive()
    adaptive_time = time.perf_counter() - started

    assert top == full
    report(capsys, "\n".join([
        banner("S7: adaptive top-k vs evaluate-then-truncate"),
        format_table(
            ["method", "time ms", "answers"],
            [["full evaluation + truncate", full_time * 1000, len(full)],
             ["adaptive β doubling", adaptive_time * 1000, len(top)]]),
        "",
        "expected shape: the adaptive scheme touches only fragments "
        "within the final β and wins when the unfiltered answer set "
        "is much larger than k."]))


def test_ranking_over_answer_set(benchmark, figure1, capsys):
    index = InvertedIndex(figure1)
    query = Query.of("xquery", "optimization", predicate=SizeAtMost(3))
    answers = evaluate(figure1, query).fragments
    scorer = FragmentScorer(index)

    ranked = benchmark(scorer.rank, answers, query.terms)
    rows = [[s.fragment.label(), s.score, s.tf_idf, s.compactness,
             s.proximity] for s in ranked]
    report(capsys, "\n".join([
        banner("S7: IR-style ranking of the Table 1 answers (§6)"),
        format_table(["fragment", "score", "tf-idf", "compactness",
                      "proximity"], rows),
        "",
        "n17 (both terms in one tight node) ranks first; the enlarged "
        "self-contained unit follows — ranking and filtering compose."]))
    assert ranked[0].fragment.size == 1


def test_overlap_policies(benchmark, figure1, capsys):
    query = Query.of("xquery", "optimization", predicate=SizeAtMost(3))
    answers = evaluate(figure1, query).fragments

    def run():
        return {policy: arrange(answers, policy)
                for policy in OverlapPolicy}

    groups = benchmark(run)
    rows = []
    for policy, arranged in groups.items():
        shown = sum(1 for _ in arranged)
        nested = sum(len(g.members) for g in arranged)
        rows.append([policy.value, shown, nested])
    report(capsys, "\n".join([
        banner("S7: overlap presentation policies (§5)"),
        format_table(["policy", "top-level answers",
                      "nested sub-answers"], rows),
        "",
        "paper: overlapping answers can be hidden or presented to show "
        "their structural relationships; both policies implemented."]))
    assert len(groups[OverlapPolicy.HIDE]) == 1
    assert groups[OverlapPolicy.GROUP][0].total == 4


def test_collection_fanout(benchmark, capsys):
    collection = DocumentCollection(name="library")
    collection.add_xml(BOOK_XML, name="book")
    collection.add_xml(THESIS_XML, name="thesis")
    collection.add(build_figure1_document())
    query = Query.of("keyword", "search", predicate=SizeAtMost(5))

    result = benchmark(collection.search, query)
    rows = [[name, len(res.fragments), res.elapsed * 1000]
            for name, res in result.per_document.items()]
    report(capsys, "\n".join([
        banner("S7: collection fan-out search (§7 'very large "
               "collection')"),
        format_table(["document", "answers", "ms"], rows),
        "",
        f"documents skipped by the term-presence check: "
        f"{len(collection) - len(result.per_document)} of "
        f"{len(collection)}"]))
    assert result.matched_documents
