"""Unit tests for adaptive top-k retrieval."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.filters import SizeAtMost, TagsWithin
from repro.core.query import Query
from repro.core.strategies import evaluate
from repro.core.streaming import stream_top_k

from ..treegen import documents


class TestTopKUnit:
    def test_k_smallest_on_figure1(self, figure1):
        query = Query.of("xquery", "optimization")
        top2 = stream_top_k(figure1, query, k=2)
        assert [sorted(f.nodes) for f in top2] == [[17], [16, 17]]

    def test_k_larger_than_answer_set(self, figure1):
        query = Query.of("xquery", "optimization",
                         predicate=SizeAtMost(3))
        answers = stream_top_k(figure1, query, k=50)
        assert len(answers) == 4  # Table 1's full filtered answer set

    def test_k_one(self, figure1):
        query = Query.of("xquery", "optimization")
        assert [sorted(f.nodes)
                for f in stream_top_k(figure1, query, k=1)] == [[17]]

    def test_validation(self, figure1):
        query = Query.of("xquery")
        with pytest.raises(ValueError):
            stream_top_k(figure1, query, k=0)
        with pytest.raises(ValueError):
            stream_top_k(figure1, query, k=1, initial_beta=0)

    def test_no_answers(self, figure1):
        assert stream_top_k(figure1, Query.of("zebra", "xquery"),
                            k=3) == []

    def test_extra_predicate(self, figure1):
        query = Query.of("xquery", "optimization")
        answers = stream_top_k(
            figure1, query, k=5,
            extra_predicate=TagsWithin({"par", "subsubsection"}))
        for fragment in answers:
            assert all(figure1.tag(n) in ("par", "subsubsection")
                       for n in fragment.nodes)

    def test_query_predicate_respected(self, figure1):
        query = Query.of("xquery", "optimization",
                         predicate=SizeAtMost(2))
        answers = stream_top_k(figure1, query, k=10)
        assert all(f.size <= 2 for f in answers)


class TestTopKNewKeywords:
    """strategy/budget/obs thread through to every β round."""

    def test_strategy_override(self, figure1):
        from repro.core.strategies import Strategy
        query = Query.of("xquery", "optimization")
        expected = stream_top_k(figure1, query, k=2)
        for strategy in Strategy:
            assert stream_top_k(figure1, query, k=2,
                                strategy=strategy) == expected

    def test_budget_enforced(self, figure1):
        from repro.errors import BudgetExceeded
        from repro.guard.budget import QueryBudget
        query = Query.of("xquery", "optimization")
        with pytest.raises(BudgetExceeded):
            stream_top_k(figure1, query, k=2,
                         budget=QueryBudget(max_join_ops=1))

    def test_obs_threaded(self, figure1):
        from repro.obs import Observability
        obs = Observability()
        query = Query.of("xquery", "optimization")
        answers = stream_top_k(figure1, query, k=2, obs=obs)
        assert [sorted(f.nodes) for f in answers] == [[17], [16, 17]]
        assert "repro_stream_rounds_total" in obs.metrics


class TestTopKProperties:
    @settings(max_examples=25, deadline=None)
    @given(documents(min_nodes=3, max_nodes=10))
    def test_matches_full_evaluation(self, doc):
        query = Query.of("alpha", "beta")
        for k in (1, 3):
            adaptive = stream_top_k(doc, query, k=k)
            full = sorted(evaluate(doc, query).fragments,
                          key=lambda f: (f.size, sorted(f.nodes)))[:k]
            assert adaptive == full
