"""Tests for the streaming operator pipeline (repro.core.streaming).

The load-bearing property is bit-identity: the set of fragments pulled
from a :class:`FragmentStream` must equal the materialized
``evaluate(...)`` answer set for every strategy, and the streaming
top-k consumer must return exactly the ``k`` smallest answers in the
canonical order.  The tie-break keys themselves are pinned here so a
future "equivalent" sort cannot silently reorder results.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.filters import (ExcludesKeyword, SizeAtMost, TagsWithin,
                                TrueFilter)
from repro.core.fragment import Fragment
from repro.core.query import Query
from repro.core.strategies import Strategy, evaluate
from repro.core.streaming import (FragmentStream, TopKHeap,
                                  fragment_order_key, hit_order_key,
                                  ranked_order_key, stream_evaluate,
                                  stream_top_k)
from repro.errors import BudgetExceeded
from repro.guard.budget import QueryBudget
from repro.obs import FlightRecorder, Observability
from repro.obs.recorder import RETAIN_BUDGET

from ..treegen import documents, make_document

ALL_STRATEGIES = list(Strategy)

QUERIES = [
    Query.of("xquery", "optimization"),
    Query.of("xquery", "optimization", predicate=SizeAtMost(3)),
    Query.of("xquery"),
    Query.of("xquery", "optimization",
             predicate=ExcludesKeyword("semistructured")),
    Query.of("zebra", "xquery"),  # conjunctive miss
]


def _materialized(document, query, strategy, extra_predicate=None):
    if extra_predicate is not None:
        query = Query(query.terms, query.predicate & extra_predicate)
    return evaluate(document, query, strategy=strategy).fragments


class TestStreamMatchesMaterialized:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("query", QUERIES,
                             ids=[q.describe() for q in QUERIES])
    def test_figure1_all_strategies(self, figure1, strategy, query):
        streamed = set(stream_evaluate(figure1, query, strategy))
        assert streamed == set(_materialized(figure1, query, strategy))

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_extra_predicate_tightens(self, figure1, strategy):
        query = Query.of("xquery", "optimization")
        extra = SizeAtMost(2)
        streamed = set(stream_evaluate(figure1, query, strategy,
                                       extra_predicate=extra))
        assert streamed == set(
            _materialized(figure1, query, strategy, extra))

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_non_anti_monotonic_extra(self, figure1, strategy):
        # ExcludesKeyword is not anti-monotonic: it must still be
        # applied exactly (at the selection), never pushed unsoundly.
        query = Query.of("xquery", "optimization")
        extra = ExcludesKeyword("xml") & SizeAtMost(4)
        streamed = set(stream_evaluate(figure1, query, strategy,
                                       extra_predicate=extra))
        assert streamed == set(
            _materialized(figure1, query, strategy, extra))

    @settings(max_examples=25, deadline=None)
    @given(documents())
    def test_random_documents_agree(self, doc):
        query = Query.of("alpha", "beta")
        expected = set(_materialized(doc, query, Strategy.PUSHDOWN))
        for strategy in ALL_STRATEGIES:
            assert set(stream_evaluate(doc, query, strategy)) == expected


class TestFragmentStreamBehaviour:
    def test_incremental_pull_and_close(self, figure1):
        query = Query.of("xquery", "optimization")
        stream = stream_evaluate(figure1, query, Strategy.PUSHDOWN)
        first = next(stream)
        assert isinstance(first, Fragment)
        stream.close()  # stop producers early; must be idempotent
        stream.close()

    def test_operator_counters(self, figure1):
        query = Query.of("xquery", "optimization")
        stream = stream_evaluate(figure1, query, Strategy.PUSHDOWN)
        answers = list(stream)
        counters = stream.operator_counters()
        assert counters, "pipeline should expose operator counters"
        for entry in counters:
            assert {"operator", "rows_in", "rows_out"} <= set(entry)
        assert stream.streamed_rows >= len(answers)
        assert stream.stats.extras["streamed_rows"] == \
            stream.streamed_rows

    def test_stream_rows_metric_published(self, figure1):
        obs = Observability()
        query = Query.of("xquery", "optimization")
        list(stream_evaluate(figure1, query, Strategy.PUSHDOWN,
                             obs=obs))
        assert "repro_stream_rows_total" in obs.metrics

    def test_budget_abort_raises(self, figure1):
        query = Query.of("xquery", "optimization")
        budget = QueryBudget(max_join_ops=1)
        obs = Observability(recorder=FlightRecorder())
        stream = stream_evaluate(figure1, query, Strategy.PUSHDOWN,
                                 budget=budget, obs=obs)
        with pytest.raises(BudgetExceeded):
            list(stream)
        # An aborted stream is recorded like an aborted evaluate():
        # once, as a profile (not a finished query), rows published.
        assert list(stream) == []
        stream.close()
        (profile,) = obs.recorder.profiles
        assert profile.strategy == "stream-pushdown"
        assert profile.outcome == "budget-exceeded"
        assert profile.reason == "join-ops"
        assert profile.retained == RETAIN_BUDGET
        assert profile.checkpoints >= 1
        assert "repro_stream_rows_total" in obs.metrics
        assert "repro_queries_total" not in obs.metrics

    def test_empty_stream_is_clean(self, figure1):
        stream = stream_evaluate(figure1, Query.of("zebra", "xquery"),
                                 Strategy.PUSHDOWN)
        assert list(stream) == []


class TestTopKHeap:
    def test_keeps_k_smallest(self):
        heap = TopKHeap(3)
        for value in [9, 1, 7, 3, 5]:
            heap.offer(value, (value,))
        assert heap.items_sorted() == [1, 3, 5]
        assert heap.bound() == (5,)

    def test_bound_none_until_full(self):
        heap = TopKHeap(2)
        heap.offer("a", (1,))
        assert heap.bound() is None
        assert not heap.full
        heap.offer("b", (2,))
        assert heap.full

    def test_rejects_behind_bound(self):
        heap = TopKHeap(1)
        assert heap.offer("a", (1,))
        assert not heap.offer("b", (2,))
        assert heap.offer("c", (0,))
        assert heap.items_sorted() == ["c"]

    def test_validation(self):
        with pytest.raises(ValueError):
            TopKHeap(0)


class TestStreamTopK:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_matches_sorted_prefix(self, figure1, strategy):
        query = Query.of("xquery", "optimization")
        full = sorted(_materialized(figure1, query, strategy),
                      key=fragment_order_key)
        for k in (1, 2, 5, 50):
            assert stream_top_k(figure1, query, k,
                                strategy=strategy) == full[:k]

    def test_early_exit_metric(self, figure1):
        obs = Observability()
        query = Query.of("xquery", "optimization")
        stream_top_k(figure1, query, 1, obs=obs, initial_beta=1)
        assert "repro_stream_early_exits_total" in obs.metrics

    def test_validation(self, figure1):
        query = Query.of("xquery")
        with pytest.raises(ValueError):
            stream_top_k(figure1, query, 0)
        with pytest.raises(ValueError):
            stream_top_k(figure1, query, 1, initial_beta=0)


class TestCanonicalOrderKeys:
    """Regression pin for the tie-break ordering (one source of truth).

    Answers sort by (size, node ids); collection hits break size ties
    by document name before node ids; ranked hits sort by descending
    score first and reuse the same tie chain.  These exact tuples are
    what the collection, ranked search, server and CLI all rely on.
    """

    def test_fragment_key_shape(self, figure1):
        frag = Fragment(figure1, {3, 1, 2}, validate=False)
        assert fragment_order_key(frag) == (3, (1, 2, 3))

    def test_size_before_node_ids(self, figure1):
        small_late = Fragment(figure1, {9}, validate=False)
        big_early = Fragment(figure1, {1, 2}, validate=False)
        assert fragment_order_key(small_late) < \
            fragment_order_key(big_early)

    def test_hit_key_breaks_ties_by_document(self, figure1):
        frag = Fragment(figure1, {1}, validate=False)
        assert hit_order_key("a.xml", frag) < hit_order_key("b.xml", frag)
        # size still dominates the document name
        bigger = Fragment(figure1, {1, 2}, validate=False)
        assert hit_order_key("z.xml", frag) < \
            hit_order_key("a.xml", bigger)

    def test_ranked_key_score_descending(self, figure1):
        frag = Fragment(figure1, {1}, validate=False)
        assert ranked_order_key("d", 0.9, frag) < \
            ranked_order_key("d", 0.1, frag)

    def test_ranked_key_equal_score_falls_back_to_hit_order(self, figure1):
        frag = Fragment(figure1, {1}, validate=False)
        bigger = Fragment(figure1, {1, 2}, validate=False)
        assert ranked_order_key("d", 0.5, frag) < \
            ranked_order_key("d", 0.5, bigger)
        assert ranked_order_key("a", 0.5, frag) < \
            ranked_order_key("b", 0.5, frag)
