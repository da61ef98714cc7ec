"""Unit tests for plan rewriting (Theorems 2 & 3 as plan transforms)."""

from __future__ import annotations

from repro.core.cost import CostModel
from repro.core.evaluator import PlanEvaluator
from repro.core.filters import HeightAtMost, SizeAtLeast, SizeAtMost
from repro.core.optimizer import (OptimizerSettings, optimize,
                                  push_down_selections, rewrite_powerset)
from repro.core.plan import (FixedPoint, KeywordScan, PairwiseJoin,
                             PowersetJoin, Select, initial_plan)
from repro.core.query import Query
from repro.index.inverted import InvertedIndex


def plan_kinds(plan):
    return [type(n).__name__ for n in plan.walk()]


class TestRewritePowerset:
    def test_binary_rewrite_shape(self):
        plan = initial_plan(Query.of("a", "b"))
        rewritten = rewrite_powerset(plan)
        assert "PowersetJoin" not in plan_kinds(rewritten)
        select = rewritten
        assert isinstance(select, Select)
        join = select.child
        assert isinstance(join, PairwiseJoin)
        assert isinstance(join.left, FixedPoint)
        assert isinstance(join.right, FixedPoint)

    def test_three_way_left_deep(self):
        plan = rewrite_powerset(initial_plan(Query.of("a", "b", "c")))
        join = plan.child
        assert isinstance(join, PairwiseJoin)
        assert isinstance(join.left, PairwiseJoin)
        assert isinstance(join.right, FixedPoint)

    def test_bounded_flag_propagates(self):
        plan = rewrite_powerset(initial_plan(Query.of("a", "b")),
                                bounded=False)
        fps = [n for n in plan.walk() if isinstance(n, FixedPoint)]
        assert fps and all(not fp.bounded for fp in fps)

    def test_idempotent_on_rewritten_plan(self):
        plan = rewrite_powerset(initial_plan(Query.of("a", "b")))
        assert plan_kinds(rewrite_powerset(plan)) == plan_kinds(plan)


class TestPushDown:
    def test_anti_monotonic_selection_reaches_scans(self):
        query = Query.of("a", "b", predicate=SizeAtMost(3))
        plan = push_down_selections(rewrite_powerset(initial_plan(query)))
        # Every scan is now wrapped in a selection.
        scans_selected = [
            n for n in plan.walk()
            if isinstance(n, Select) and isinstance(n.child, KeywordScan)]
        assert len(scans_selected) == 2

    def test_fixed_points_gain_prune_predicate(self):
        query = Query.of("a", "b", predicate=SizeAtMost(3))
        plan = push_down_selections(rewrite_powerset(initial_plan(query)))
        fps = [n for n in plan.walk() if isinstance(n, FixedPoint)]
        assert fps and all(fp.predicate is not None for fp in fps)

    def test_join_reselected(self):
        query = Query.of("a", "b", predicate=SizeAtMost(3))
        plan = push_down_selections(rewrite_powerset(initial_plan(query)))
        # Top: σ(σ(join)) — the outer original plus the pushed copy.
        assert isinstance(plan, Select)
        assert isinstance(plan.child, Select)
        assert isinstance(plan.child.child, PairwiseJoin)

    def test_stacked_selections_both_prune(self, figure1):
        # The second push-down must conjoin with, not overwrite, the
        # pruning an earlier selection left inside each fixed point.
        chain = rewrite_powerset(
            initial_plan(Query.of("xquery", "optimization"))).child
        stacked = Select(SizeAtMost(4), Select(HeightAtMost(2), chain))
        pushed = push_down_selections(stacked)
        fps = [n for n in pushed.walk() if isinstance(n, FixedPoint)]
        assert len(fps) == 2
        for fp in fps:
            assert "size<=4" in fp.label() and "height<=2" in fp.label()
            assert fp.predicate.is_anti_monotonic
        evaluator = PlanEvaluator(figure1)
        assert evaluator.execute(pushed) == evaluator.execute(stacked)

    def test_non_anti_monotonic_untouched(self):
        query = Query.of("a", "b", predicate=SizeAtLeast(3))
        rewritten = rewrite_powerset(initial_plan(query))
        pushed = push_down_selections(rewritten)
        assert plan_kinds(pushed) == plan_kinds(rewritten)

    def test_pushdown_through_powerset(self):
        query = Query.of("a", "b", predicate=SizeAtMost(2))
        plan = push_down_selections(initial_plan(query))
        # Selection pushed into each powerset operand.
        powerset = next(n for n in plan.walk()
                        if isinstance(n, PowersetJoin))
        assert all(isinstance(op, Select) for op in powerset.operands)


class TestOptimize:
    def test_default_settings_produce_pushed_plan(self):
        query = Query.of("a", "b", predicate=SizeAtMost(3))
        plan = optimize(query)
        kinds = plan_kinds(plan)
        assert "PowersetJoin" not in kinds
        assert kinds.count("Select") >= 3

    def test_pushdown_disabled(self):
        query = Query.of("a", "b", predicate=SizeAtMost(3))
        plan = optimize(query, OptimizerSettings(push_down=False))
        assert plan_kinds(plan).count("Select") == 1

    def test_unbounded_fixed_points(self):
        query = Query.of("a", "b")
        plan = optimize(query,
                        OptimizerSettings(bounded_fixed_points=False))
        fps = [n for n in plan.walk() if isinstance(n, FixedPoint)]
        assert all(not fp.bounded for fp in fps)

    def test_cost_model_orders_terms_rarest_first(self, figure1,
                                                  figure1_index):
        model = CostModel(figure1, index=figure1_index)
        # 'xquery' (df=2) is rarer than 'optimization' (df=3).
        plan = optimize(Query.of("optimization", "xquery"),
                        OptimizerSettings(cost_model=model))
        scans = [n for n in plan.walk() if isinstance(n, KeywordScan)]
        assert scans[0].term == "xquery"

    def test_single_term_plan(self):
        plan = optimize(Query.of("a"))
        kinds = plan_kinds(plan)
        assert "PairwiseJoin" not in kinds
        assert "FixedPoint" in kinds
