"""Unit tests for analysed plan execution (per-operator profile)."""

from __future__ import annotations

from repro.core.cost import CostModel
from repro.core.evaluator import PlanAnalysis, run_plan
from repro.core.filters import SizeAtMost
from repro.core.optimizer import optimize
from repro.core.plan import KeywordScan, PairwiseJoin, Select, explain
from repro.core.query import Query
from repro.core.strategies import evaluate

QUERY = Query.of("xquery", "optimization", predicate=SizeAtMost(3))


def _analyze(document, plan, index=None):
    """Run ``plan`` analysed; returns ``(fragments, analysis)``."""
    analysis = PlanAnalysis(plan)
    result = run_plan(document, QUERY, plan, index=index,
                      analysis=analysis)
    return result.fragments, analysis


class TestProfilePlan:
    def test_result_matches_plain_execution(self, figure1):
        fragments, _ = _analyze(figure1, optimize(QUERY))
        assert fragments == evaluate(figure1, QUERY).fragments

    def test_one_profile_per_operator_preorder(self, figure1):
        plan = optimize(QUERY)
        _, analysis = _analyze(figure1, plan)
        assert [op.label for op in analysis.operators] \
            == [node.label() for node in plan.walk()]
        # Depth is the nesting level: the root, then each child one
        # deeper than the operator that consumes it.
        assert analysis.operators[0].depth == 0
        for op in analysis.operators:
            for child in op.children:
                assert analysis.operators[child].depth == op.depth + 1

    def test_root_profile_covers_everything(self, figure1):
        fragments, analysis = _analyze(figure1, optimize(QUERY))
        root = analysis.operators[0]
        assert root.rows == len(fragments)
        # Root subtree time bounds every child's time.
        assert all(op.total_seconds <= root.total_seconds + 1e-9
                   for op in analysis.operators)

    def test_scan_rows(self, figure1):
        plan = PairwiseJoin(KeywordScan("xquery"),
                            KeywordScan("optimization"))
        _, analysis = _analyze(figure1, plan)
        by_label = {op.label: op for op in analysis.operators}
        assert by_label["scan[keyword=xquery]"].rows == 2
        assert by_label["scan[keyword=optimization]"].rows == 3
        assert by_label["⋈"].fragment_joins > 0

    def test_select_counts_checks(self, figure1):
        plan = Select(SizeAtMost(1), KeywordScan("xquery"))
        _, analysis = _analyze(figure1, plan)
        assert analysis.operators[0].predicate_checks == 2

    def test_render_contains_measurements(self, figure1):
        plan = optimize(QUERY)
        _, analysis = _analyze(figure1, plan)
        rendered = explain(plan, analyze=analysis)
        assert "rows=" in rendered
        assert "joins=" in rendered
        assert "scan[keyword=xquery]" in rendered

    def test_render_with_cost_model(self, figure1, figure1_index):
        _, analysis = _analyze(figure1, optimize(QUERY),
                               index=figure1_index)
        model = CostModel(figure1, index=figure1_index)
        rendered = analysis.render(cost_model=model)
        assert len(rendered.splitlines()) == len(analysis.operators)
        assert all("est.rows=" in line for line in rendered.splitlines())
        assert "est.rows=" not in analysis.render()

    def test_empty_plan_profile(self, figure1):
        fragments, analysis = _analyze(figure1, KeywordScan("zebra"))
        assert fragments == frozenset()
        assert analysis.operators[0].rows == 0


class TestSelfSeconds:
    def test_exclusive_never_exceeds_inclusive(self, figure1):
        _, analysis = _analyze(figure1, optimize(QUERY))
        for op in analysis.operators:
            assert 0.0 <= op.self_seconds <= op.total_seconds + 1e-9

    def test_exclusive_times_sum_to_root_inclusive(self, figure1):
        _, analysis = _analyze(figure1, optimize(QUERY))
        total_self = sum(op.self_seconds for op in analysis.operators)
        assert abs(total_self - analysis.operators[0].total_seconds) < 1e-6

    def test_leaf_exclusive_equals_inclusive(self, figure1):
        plan = PairwiseJoin(KeywordScan("xquery"),
                            KeywordScan("optimization"))
        _, analysis = _analyze(figure1, plan)
        for op in analysis.operators:
            if op.label.startswith("scan"):
                assert op.self_seconds == op.total_seconds > 0.0

    def test_render_shows_self_column(self, figure1):
        _, analysis = _analyze(figure1, optimize(QUERY))
        assert "self=" in analysis.render()
