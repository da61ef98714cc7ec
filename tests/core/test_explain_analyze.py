"""EXPLAIN ANALYZE tests: per-operator runtime statistics.

Pins the Section-4 strategy → plan mapping, the equality of analysed
execution with ``evaluate``, nonzero per-operator counters for every
strategy, the zero-denominator guard on the cache-hit ratio, and the
accumulate/merge semantics used by collection-wide analysis.
"""

from __future__ import annotations

import pytest

from repro.core import (FixedPoint, KeywordScan, PlanAnalysis,
                        PowersetJoin, Query, SizeAtMost, Strategy, evaluate,
                        explain, explain_analyze, plan_for, run_plan)
from repro.errors import PlanError, QueryError
from repro.index.inverted import InvertedIndex
from repro.workloads.inexlike import InexSpec, generate_collection

ALL_STRATEGIES = tuple(Strategy)


@pytest.fixture(scope="module")
def corpus():
    return generate_collection(
        InexSpec(articles=6, nodes_per_article=120, seed=11))


@pytest.fixture(scope="module")
def query():
    return Query(("needle", "thread"), SizeAtMost(6))


@pytest.fixture(scope="module")
def matching(corpus, query):
    """(document, index) of a document containing every query term."""
    name = next(n for n in corpus.names()
                if all(corpus.index(n).contains(t) for t in query.terms))
    return corpus.document(name), corpus.index(name)


class TestPlanFor:
    def test_brute_force_is_the_canonical_plan(self, query):
        plan = plan_for(query, Strategy.BRUTE_FORCE)
        assert isinstance(plan.children()[0], PowersetJoin)

    def test_set_reduction_has_bounded_fixed_points(self, query):
        plan = plan_for(query, Strategy.SET_REDUCTION)
        fixed = [n for n in plan.walk() if isinstance(n, FixedPoint)]
        assert fixed and all(n.bounded for n in fixed)
        assert not any(n.predicate for n in fixed)  # no push-down

    def test_semi_naive_has_unbounded_fixed_points(self, query):
        plan = plan_for(query, Strategy.SEMI_NAIVE)
        fixed = [n for n in plan.walk() if isinstance(n, FixedPoint)]
        assert fixed and not any(n.bounded for n in fixed)

    def test_pushdown_prunes_inside_fixed_points(self, query):
        plan = plan_for(query, Strategy.PUSHDOWN)
        fixed = [n for n in plan.walk() if isinstance(n, FixedPoint)]
        assert fixed and all(n.predicate is not None for n in fixed)


class TestExplainAnalyze:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                             ids=lambda s: s.value)
    def test_matches_evaluate_and_counts_work(self, matching, query,
                                              strategy):
        document, index = matching
        reference = evaluate(document, query, strategy=strategy,
                             index=index)
        result, analysis = explain_analyze(document, query,
                                           strategy=strategy,
                                           index=index)
        assert result.fragments == reference.fragments
        assert all(op.calls == 1 for op in analysis.operators)
        total_ops = sum(op.fragment_joins + op.predicate_checks
                        + op.subset_checks
                        for op in analysis.operators)
        assert total_ops > 0
        root = analysis.operators[0]
        assert root.rows == len(result.fragments)
        assert root.total_seconds > 0

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                             ids=lambda s: s.value)
    @pytest.mark.parametrize("indexed", [True, False])
    def test_operator_counters_sum_to_evaluate_stats(self, matching, query,
                                                     strategy, indexed):
        # The analysed plan is the plan evaluate() runs: its operators'
        # counters add up to the query's, for every strategy.
        document, index = matching
        index = index if indexed else None
        reference = evaluate(document, query, strategy=strategy,
                             index=index)
        result, analysis = explain_analyze(document, query,
                                           strategy=strategy, index=index)
        assert result.stats == reference.stats
        for counter in ("fragment_joins", "join_cache_hits",
                        "predicate_checks", "subset_checks",
                        "fragments_discarded", "iterations"):
            assert sum(getattr(op, counter) for op in analysis.operators) \
                == reference.stats[counter], counter
        assert analysis.operators[0].rows == len(reference.fragments)

    def test_operator_counters_are_self_only(self, matching, query):
        document, index = matching
        _, analysis = explain_analyze(document, query,
                                      strategy=Strategy.SET_REDUCTION,
                                      index=index)
        by_label = {}
        for op in analysis.operators:
            by_label.setdefault(op.label.split("[")[0], []).append(op)
        # Scans perform no joins; the root selection performs no joins;
        # fixed points and the pairwise join own theirs.
        for scan in by_label["scan"]:
            assert scan.fragment_joins == 0
        (select,) = by_label["σa"]
        assert select.fragment_joins == 0
        assert select.predicate_checks > 0
        assert any(op.fragment_joins > 0 for op in by_label["fixpoint"])
        assert all(op.iterations > 0 for op in by_label["fixpoint"])

    def test_total_time_covers_self_time(self, matching, query):
        document, index = matching
        _, analysis = explain_analyze(document, query, index=index)
        for op in analysis.operators:
            assert 0.0 <= op.self_seconds <= op.total_seconds + 1e-9

    def test_render_via_explain(self, matching, query):
        document, index = matching
        _, analysis = explain_analyze(document, query, index=index)
        text = explain(analysis.plan, analyze=analysis)
        assert "rows=" in text and "self=" in text and "ms" in text
        # One line per operator, same tree shape as the bare explain.
        assert len(text.splitlines()) \
            == len(explain(analysis.plan).splitlines())

    def test_explain_rejects_foreign_analysis(self, matching, query):
        document, index = matching
        _, analysis = explain_analyze(document, query, index=index)
        other_plan = plan_for(query, Strategy.BRUTE_FORCE)
        with pytest.raises(PlanError):
            explain(other_plan, analyze=analysis)

    def test_rejects_mismatched_plan_and_analysis(self, matching, query):
        document, index = matching
        analysis = PlanAnalysis(plan_for(query, Strategy.PUSHDOWN))
        with pytest.raises(QueryError):
            explain_analyze(document, query, index=index,
                            plan=plan_for(query, Strategy.PUSHDOWN),
                            analysis=analysis)

    def test_to_dicts_shape(self, matching, query):
        document, index = matching
        _, analysis = explain_analyze(document, query, index=index)
        records = analysis.to_dicts()
        assert len(records) == len(analysis.operators)
        assert {"label", "depth", "calls", "rows", "rows_in",
                "self_seconds", "total_seconds"} <= records[0].keys()


class TestCacheHitRatioGuard:
    def test_zero_work_operators_render_without_ratio(self, query):
        # An operator renders only the work it did: an unexecuted plan
        # shows neither joins nor replayed fixed points.
        rendered = PlanAnalysis(plan_for(query, Strategy.PUSHDOWN)).render()
        assert "joins=" not in rendered and "replayed=" not in rendered


class TestAccumulation:
    def test_collection_analysis_counts_documents(self, corpus, query):
        result, analysis = corpus.explain_analyze(query)
        evaluated = len(result.per_document)
        assert evaluated >= 1
        assert all(op.calls == evaluated for op in analysis.operators)
        reference = corpus.search(query)
        assert {n: r.fragments for n, r in result.per_document.items()} \
            == {n: r.fragments for n, r in reference.per_document.items()}

    def test_merge_requires_same_shape(self, query):
        pushdown = PlanAnalysis(plan_for(query, Strategy.PUSHDOWN))
        brute = PlanAnalysis(plan_for(query, Strategy.BRUTE_FORCE))
        with pytest.raises(PlanError):
            pushdown.merge(brute)

    def test_merge_accumulates(self, matching, query):
        document, index = matching
        _, first = explain_analyze(document, query, index=index)
        _, second = explain_analyze(document, query, index=index)
        baseline = [op.rows for op in first.operators]
        first.merge(second)
        assert [op.rows for op in first.operators] \
            == [2 * rows for rows in baseline]
        assert all(op.calls == 2 for op in first.operators)

    def test_run_plan_threads_analysis(self, matching, query):
        document, index = matching
        plan = plan_for(query, Strategy.SET_REDUCTION)
        analysis = PlanAnalysis(plan)
        result = run_plan(document, query, plan, index=index,
                          analysis=analysis)
        assert analysis.operators[0].rows == len(result.fragments)
