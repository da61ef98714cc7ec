"""No join for a fragment its filter will reject.

The conjunct split (``σ_P = σ_residual ∘ σ_anti``, Theorem 3 applied to
the anti-monotonic part), the predicate's necessary bound, and the
three-measure lemma the join loops decide that bound with — held
against ``fragment_join`` itself on random trees.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algebra import _iter_pairwise_join
from repro.core.filters import (ContainsKeyword, HeightAtMost, Not,
                                SizeAtLeast, SizeAtMost, TrueFilter,
                                WidthAtMost, necessary_bound,
                                split_anti_monotonic)
from repro.core.fragment import Fragment
from repro.core.plan import FixedPoint, PairwiseJoin, Select, explain
from repro.core.query import Query
from repro.core.stats import OperationStats
from repro.core.strategies import Strategy, evaluate, plan_for
from repro.core.streaming import stream_evaluate
from repro.errors import BudgetExceeded
from repro.guard.budget import QueryBudget
from repro.xmltree.navigation import spanning_nodes

from ..treegen import documents, random_fragment

INF = math.inf


class TestSplit:
    def test_anti_monotonic_predicate_is_its_own_pushable_part(self):
        predicate = SizeAtMost(6) & HeightAtMost(2)
        assert split_anti_monotonic(predicate) == (predicate, None)

    def test_nothing_to_push(self):
        predicate = SizeAtLeast(3) & ContainsKeyword("x")
        assert split_anti_monotonic(predicate) == (None, predicate)

    def test_mixed_conjunction_is_taken_apart(self):
        predicate = (SizeAtMost(6) & SizeAtLeast(3)) \
            & (HeightAtMost(2) & ContainsKeyword("x"))
        pushable, residual = split_anti_monotonic(predicate)
        assert repr(pushable) == "(size<=6 ∧ height<=2)"
        assert pushable.is_anti_monotonic
        assert repr(residual) == "(size>=3 ∧ keyword=x)"

    def test_or_and_not_stay_whole(self):
        disjunction = SizeAtMost(3) | SizeAtLeast(9)
        negation = Not(SizeAtMost(3))
        pushable, residual = split_anti_monotonic(
            disjunction & negation & WidthAtMost(8))
        assert repr(pushable) == "width<=8"
        assert residual.left is disjunction and residual.right is negation


class TestNecessaryBound:
    @pytest.mark.parametrize("predicate, bound", [
        (SizeAtMost(6), (6, INF, INF)),
        (HeightAtMost(2), (INF, 2, INF)),
        (WidthAtMost(9), (INF, INF, 9)),
        (SizeAtMost(6) & SizeAtLeast(3), (6, INF, INF)),
        (SizeAtMost(7) & HeightAtMost(2) & SizeAtMost(5), (5, 2, INF)),
        (SizeAtMost(4) | SizeAtMost(9), (9, INF, INF)),
        ((SizeAtMost(4) | SizeAtMost(9)) & WidthAtMost(3), (9, INF, 3)),
        (SizeAtMost(4) | HeightAtMost(1), None),
        (SizeAtMost(4) | SizeAtLeast(2), None),
        (Not(SizeAtMost(4)), None),
        (TrueFilter(), None),
        (None, None),
    ])
    def test_bound_of(self, predicate, bound):
        assert necessary_bound(predicate) == bound


def _pruned(f1, f2, bound, joined):
    """Whether the pairwise-join loop refuses to join the pair; a pair
    it does join — at the LCA it priced the bound at — is ``joined``."""
    stats = OperationStats()
    out = list(_iter_pairwise_join([f1], [f2], stats=stats, bound=bound))
    assert stats.joins_pruned + len(out) == 1
    assert stats.fragment_joins <= len(out)  # a pruned pair is not joined
    assert out in ([], [joined])
    return not out


class TestThreeMeasureLemma:
    """The bound the loops compute from labels never exceeds the true
    size/height/width of ``f1 ⋈ f2``, and is exact where the lemma
    (docs/theory.md) says so."""

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(documents(min_nodes=2, max_nodes=24),
           st.integers(min_value=0, max_value=2 ** 30),
           st.integers(min_value=0, max_value=2 ** 30))
    def test_bound_against_the_join_itself(self, doc, seed1, seed2):
        f1, f2 = random_fragment(doc, seed1), random_fragment(doc, seed2)
        joined = Fragment(doc, spanning_nodes(doc, f1.nodes | f2.nodes))
        size, height, width = joined.size, joined.height, joined.width

        # Never above the truth: a join within the bound is built.
        assert not _pruned(f1, f2, (size, height, width), joined)
        assert not _pruned(f1, f2, (size, INF, INF), joined)
        assert not _pruned(f1, f2, (INF, height, INF), joined)
        assert not _pruned(f1, f2, (INF, INF, width), joined)

        # Height and width are exact: one less is always refused.
        assert _pruned(f1, f2, (INF, height - 1, INF), joined)
        assert _pruned(f1, f2, (INF, INF, width - 1), joined)

        depth = doc.labels.depth
        top = depth[doc.lca(f1.root, f2.root)]
        climb1, climb2 = depth[f1.root] - top, depth[f2.root] - top
        if climb1 and climb2:
            # Neither root above the other: size is exact too.
            assert size == f1.size + f2.size + climb1 + climb2 - 1
            assert _pruned(f1, f2, (size - 1, INF, INF), joined)
        else:
            # Otherwise it is bounded from below by the lower operand
            # plus its climb, and by the upper operand.
            floor = max(f1.size + climb1, f2.size + climb2)
            assert floor <= size
            assert _pruned(f1, f2, (floor - 1, INF, INF), joined)


MIXED = SizeAtMost(6) & SizeAtLeast(3)

#: Join operations ``search retrieval [size<=5]`` is charged on
#: Figure 1 under PUSHDOWN — pairs considered, joined or not.
NEEDED = 911


class TestPlanShape:
    def test_fixed_points_prune_on_the_anti_monotonic_part(self):
        plan = plan_for(Query(("a", "b"), MIXED))
        assert explain(plan).splitlines() == [
            "σ[size>=3]",
            "  σa[size<=6]",
            "    σa[size<=6]",
            "      ⋈",
            "        fixpoint[semi-naive, prune=size<=6]",
            "          σa[size<=6]",
            "            scan[keyword=a]",
            "        fixpoint[semi-naive, prune=size<=6]",
            "          σa[size<=6]",
            "            scan[keyword=b]",
        ]
        fixed_points = [n for n in plan.walk() if isinstance(n, FixedPoint)]
        assert [repr(n.predicate) for n in fixed_points] == ["size<=6"] * 2
        residuals = [n for n in plan.walk() if isinstance(n, Select)
                     and not n.predicate.is_anti_monotonic]
        assert residuals == [plan]            # once, on top
        assert repr(plan.predicate) == "size>=3"

    def test_unpushed_strategies_keep_the_predicate_whole(self):
        for strategy in (Strategy.SET_REDUCTION, Strategy.SEMI_NAIVE,
                         Strategy.BRUTE_FORCE):
            plan = plan_for(Query(("a", "b"), MIXED), strategy)
            assert isinstance(plan, Select) and plan.predicate is MIXED
            assert not any(isinstance(n, Select) for n in
                           list(plan.walk())[1:])

    def test_three_terms_push_through_every_join(self):
        plan = plan_for(Query(("a", "b", "c"), MIXED))
        joins = [n for n in plan.walk() if isinstance(n, PairwiseJoin)]
        assert len(joins) == 2
        assert explain(plan).count("σ[size>=3]") == 1
        assert explain(plan).count("prune=size<=6") == 3

    def test_streamed_extra_predicate_is_split_too(self, figure1):
        query = Query.of("xquery", "optimization")
        stream = stream_evaluate(figure1, query, Strategy.SET_REDUCTION,
                                 extra_predicate=MIXED)
        lines = [op.run.label for op in stream.operators]
        assert lines.count("σ[size>=3]") == 1
        assert "fixpoint[bounded, prune=size<=6]" in lines
        assert set(stream) == evaluate(
            figure1, Query(query.terms, MIXED)).fragments


class TestEvaluation:
    def test_mixed_filter_prunes_and_answers_as_before(self, figure1):
        query = Query.of("xquery", "optimization", predicate=MIXED)
        pushed = evaluate(figure1, query, strategy=Strategy.PUSHDOWN)
        whole = evaluate(figure1, query, strategy=Strategy.SEMI_NAIVE)
        assert pushed.fragments == whole.fragments
        assert pushed.stats["joins_pruned"] > 0
        assert pushed.stats["fragment_joins"] < whole.stats["fragment_joins"]

    def test_budget_charges_every_pair_considered(self, figure1):
        """A pruned pair still costs one operation, so ``max_join_ops``
        trips exactly where it did before pairs were pruned: 911 is
        what this query needed at the parent commit."""
        query = Query.of("search", "retrieval", predicate=SizeAtMost(5))
        unbudgeted = evaluate(figure1, query)
        assert unbudgeted.stats["joins_pruned"] > 0
        enough = evaluate(figure1, query,
                          budget=QueryBudget(max_join_ops=NEEDED))
        assert enough.fragments == unbudgeted.fragments
        with pytest.raises(BudgetExceeded) as aborted:
            evaluate(figure1, query,
                     budget=QueryBudget(max_join_ops=NEEDED - 1))
        assert aborted.value.reason == "join-ops"

