"""Unit tests for the plan evaluator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.evaluator import PlanEvaluator, run_plan
from repro.core.filters import SizeAtMost
from repro.core.optimizer import OptimizerSettings, optimize
from repro.core.plan import (FixedPoint, KeywordScan, PairwiseJoin,
                             PlanNode, PowersetJoin, Select, initial_plan)
from repro.core.query import Query
from repro.core.strategies import Strategy, evaluate
from repro.errors import PlanError
from repro.index.inverted import InvertedIndex

from ..treegen import documents


class TestOperatorExecution:
    def test_scan(self, figure1):
        evaluator = PlanEvaluator(figure1)
        result = evaluator.execute(KeywordScan("xquery"))
        assert {f.root for f in result} == {17, 18}

    def test_scan_with_index(self, figure1, figure1_index):
        evaluator = PlanEvaluator(figure1, index=figure1_index)
        result = evaluator.execute(KeywordScan("optimization"))
        assert {f.root for f in result} == {16, 17, 81}

    def test_select(self, figure1):
        evaluator = PlanEvaluator(figure1)
        plan = Select(SizeAtMost(1), KeywordScan("xquery"))
        result = evaluator.execute(plan)
        assert len(result) == 2

    def test_pairwise_join(self, figure1):
        evaluator = PlanEvaluator(figure1)
        plan = PairwiseJoin(KeywordScan("xquery"),
                            KeywordScan("optimization"))
        result = evaluator.execute(plan)
        assert frozenset([16, 17, 18]) in {f.nodes for f in result}

    def test_fixed_point_bounded_and_semi_naive_agree(self, figure1):
        evaluator = PlanEvaluator(figure1)
        bounded = evaluator.execute(
            FixedPoint(KeywordScan("optimization"), bounded=True))
        lazy = evaluator.execute(
            FixedPoint(KeywordScan("optimization"), bounded=False))
        assert bounded == lazy

    def test_powerset_join(self, figure1):
        evaluator = PlanEvaluator(figure1)
        plan = PowersetJoin((KeywordScan("xquery"),
                             KeywordScan("optimization")))
        result = evaluator.execute(plan)
        assert len(result) == 7  # Table 1's unique fragments

    def test_powerset_guard(self, figure1):
        evaluator = PlanEvaluator(figure1, max_powerset_operand=1)
        plan = PowersetJoin((KeywordScan("xquery"),
                             KeywordScan("optimization")))
        with pytest.raises(Exception, match="refused"):
            evaluator.execute(plan)

    def test_unknown_node_rejected(self, figure1):
        class Bogus(PlanNode):
            def label(self):
                return "bogus"

        with pytest.raises(PlanError):
            PlanEvaluator(figure1).execute(Bogus())


class TestPlanEquivalence:
    """Optimised plans compute exactly the initial plan's answer."""

    @settings(max_examples=30, deadline=None)
    @given(documents(min_nodes=3, max_nodes=9))
    def test_initial_vs_optimized(self, doc):
        query = Query.of("alpha", "beta", predicate=SizeAtMost(3))
        evaluator = PlanEvaluator(doc)
        reference = evaluator.execute(initial_plan(query))
        optimised = evaluator.execute(optimize(query))
        assert reference == optimised

    @settings(max_examples=30, deadline=None)
    @given(documents(min_nodes=3, max_nodes=9))
    def test_pushdown_toggle_same_result(self, doc):
        query = Query.of("alpha", "beta", predicate=SizeAtMost(3))
        evaluator = PlanEvaluator(doc)
        on = evaluator.execute(optimize(query))
        off = evaluator.execute(
            optimize(query, OptimizerSettings(push_down=False)))
        assert on == off

    def test_plan_matches_strategy_api(self, figure1):
        query = Query.of("xquery", "optimization",
                         predicate=SizeAtMost(3))
        via_plan = PlanEvaluator(figure1).execute(optimize(query))
        via_strategy = evaluate(figure1, query,
                                strategy=Strategy.PUSHDOWN).fragments
        assert via_plan == via_strategy


class TestRunPlan:
    def test_wraps_result(self, figure1):
        query = Query.of("xquery", "optimization",
                         predicate=SizeAtMost(3))
        result = run_plan(figure1, query, optimize(query),
                          strategy_name="optimized")
        assert result.strategy == "optimized"
        assert len(result.fragments) == 4
        assert result.stats["predicate_checks"] > 0

    def test_index_used(self, figure1, figure1_index):
        query = Query.of("xquery", predicate=SizeAtMost(2))
        result = run_plan(figure1, query, optimize(query),
                          index=figure1_index)
        assert result.fragments
