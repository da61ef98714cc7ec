"""Tests for the Observability façade and its engine integration."""

from __future__ import annotations

from repro.core.filters import SizeAtMost
from repro.core.query import Query
from repro.core.strategies import Strategy, evaluate
from repro.obs import (JOIN_CACHE_HITS, NOOP, QUERIES_BY_STRATEGY,
                       QUERIES_TOTAL, QUERY_LATENCY, SLOW_QUERIES,
                       FlightRecorder, MetricsRegistry, NullMetrics,
                       NullTracer, Observability, RecorderConfig,
                       SpanTracer)
from repro.obs.tracer import NULL_SPAN

QUERY = Query.of("xquery", "optimization", predicate=SizeAtMost(3))


class TestFacade:
    def test_defaults_are_live(self):
        obs = Observability()
        assert obs.enabled
        assert isinstance(obs.tracer, SpanTracer)
        assert isinstance(obs.metrics, MetricsRegistry)
        assert obs.recorder is None

    def test_span_delegates_to_tracer(self):
        obs = Observability()
        with obs.span("phase", detail=1):
            pass
        assert obs.tracer.roots[0].name == "phase"
        assert obs.tracer.roots[0].attributes == {"detail": 1}

    def test_record_query_populates_metrics(self):
        obs = Observability()
        obs.record_query(document="d", terms=("a", "b"), filter="true",
                         strategy="pushdown", answers=2, elapsed=0.004,
                         stats={"fragment_joins": 8,
                                "join_cache_hits": 4,
                                "fragments_discarded": 6})
        metrics = obs.metrics
        assert metrics.counter(QUERIES_TOTAL).value == 1
        assert metrics.counter(
            QUERIES_BY_STRATEGY, labels={"strategy": "pushdown"}
        ).value == 1
        assert metrics.counter(JOIN_CACHE_HITS).value == 4
        assert metrics.histogram(QUERY_LATENCY).count == 1
        # the ratio histogram only appears when its denominator is live
        assert "repro_reduction_factor" in metrics

    def test_record_query_feeds_query_log_and_slow_counter(self):
        obs = Observability(
            recorder=FlightRecorder(RecorderConfig(slow_ms=1)))
        record = obs.record_query(
            document="d", terms=("a",), filter="true", strategy="naive",
            answers=0, elapsed=0.5, stats=None)
        assert record is not None and obs.recorder.is_slow(record)
        assert obs.metrics.counter(SLOW_QUERIES).value == 1
        assert obs.recorder.profiles == [record]

    def test_an_abort_is_a_profile_not_a_finished_query(self):
        obs = Observability(recorder=FlightRecorder())
        record = obs.record_query(
            document="d", terms=("a",), filter="true", strategy="naive",
            answers=0, elapsed=0.5, outcome="budget-exceeded",
            reason="deadline")
        assert (record.outcome, record.reason, record.retained) \
            == ("budget-exceeded", "deadline", "budget-exceeded")
        assert obs.metrics.get(QUERIES_TOTAL) is None


class TestNoop:
    def test_singleton_is_disabled_everywhere(self):
        assert not NOOP.enabled
        assert isinstance(NOOP.tracer, NullTracer)
        assert isinstance(NOOP.metrics, NullMetrics)
        assert NOOP.recorder is None

    def test_span_is_the_shared_null_span(self):
        assert NOOP.span("anything", stats=None, attr=1) is NULL_SPAN

    def test_record_query_is_inert(self):
        assert NOOP.record_query(document="d", terms=(), filter="",
                                 strategy="s", answers=0,
                                 elapsed=0.0) is None
        assert len(NOOP.metrics) == 0


class TestEvaluateIntegration:
    def test_span_tree_covers_the_lifecycle(self, figure1, figure1_index):
        obs = Observability()
        result = evaluate(figure1, QUERY, strategy=Strategy.PUSHDOWN,
                          index=figure1_index, obs=obs)
        assert result.fragments
        execute = obs.tracer.roots[0]
        assert execute.name == "execute"
        assert execute.attributes["strategy"] == "pushdown"
        assert execute.attributes["answers"] == len(result.fragments)
        children = [c.name for c in execute.children]
        assert children == ["scan", "strategy:pushdown"]
        # the strategy span accounts for the join work
        assert execute.work.get("fragment_joins", 0) > 0

    def test_metrics_and_log_recorded_per_query(self, figure1,
                                                figure1_index):
        obs = Observability(recorder=FlightRecorder())
        for strategy in (Strategy.PUSHDOWN, Strategy.SET_REDUCTION):
            evaluate(figure1, QUERY, strategy=strategy,
                     index=figure1_index, obs=obs)
        assert obs.metrics.counter(QUERIES_TOTAL).value == 2
        assert obs.metrics.histogram(QUERY_LATENCY).count == 2
        assert len(obs.recorder) == 2
        strategies = {r.strategy for r in obs.recorder.profiles}
        assert strategies == {"pushdown", "set-reduction"}

    def test_noop_default_changes_nothing(self, figure1, figure1_index):
        plain = evaluate(figure1, QUERY, strategy=Strategy.PUSHDOWN,
                         index=figure1_index)
        explicit = evaluate(figure1, QUERY, strategy=Strategy.PUSHDOWN,
                            index=figure1_index, obs=NOOP)
        assert plain.fragments == explicit.fragments
        assert len(NOOP.metrics) == 0
        assert NOOP.tracer.to_dicts() == []
