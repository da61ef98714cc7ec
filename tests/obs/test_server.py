"""Tests for the live metrics endpoint (repro.obs.server)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (NOOP, FlightRecorder, Observability,
                       RecorderConfig)
from repro.obs.server import PROMETHEUS_CONTENT_TYPE, MetricsServer


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


@pytest.fixture()
def obs() -> Observability:
    handle = Observability(
        recorder=FlightRecorder(RecorderConfig(slow_ms=5.0)))
    handle.metrics.counter("repro_queries_total",
                           "Queries evaluated.").inc(1)
    for elapsed in (0.01, 0.001):  # one slow, one fast
        handle.record_query(document="doc", terms=("a",), filter="true",
                            strategy="pushdown", answers=1,
                            elapsed=elapsed)
    return handle


class TestRoutes:
    def test_metrics_serves_prometheus_text(self, obs):
        with MetricsServer(obs) as server:
            status, content_type, body = _get(server.url + "/metrics")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        assert "# TYPE repro_queries_total counter" in body
        assert body == obs.metrics.to_prometheus()

    def test_healthz(self, obs):
        with MetricsServer(obs) as server:
            status, _, body = _get(server.url + "/healthz")
        assert (status, body) == (200, "ok\n")

    def test_varz_reports_uptime_metrics_and_log_counts(self, obs):
        with MetricsServer(obs) as server:
            _, content_type, body = _get(server.url + "/varz")
        assert content_type == "application/json"
        varz = json.loads(body)
        assert varz["uptime_seconds"] >= 0
        names = {m["name"] for m in varz["metrics"]["metrics"]}
        assert "repro_queries_total" in names
        assert "query_log" not in varz  # one ring, one section
        assert varz["flight_recorder"] == {
            "profiles": 2, "ring_size": 512, "recorded": 2, "evicted": 0,
            "slow": 1, "slow_ms": 5.0, "traces": 0, "traces_retained": 0,
            "traces_dropped": 0, "calibration": {}}

    def test_slow_lists_slow_records(self, obs):
        """``/slow`` is exactly the ring's profiles at or over the
        threshold."""
        with MetricsServer(obs) as server:
            _, _, body = _get(server.url + "/slow")
        records = json.loads(body)
        assert records == [p.to_dict()
                           for p in obs.recorder.slow_profiles()]
        assert [r["wall_ms"] for r in records] == [10.0]

    def test_slow_is_empty_without_query_log(self):
        with MetricsServer(Observability()) as server:
            _, _, body = _get(server.url + "/slow")
        assert json.loads(body) == []

    def test_unknown_path_is_404(self, obs):
        with MetricsServer(obs) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/nope")
            excinfo.value.close()
            assert excinfo.value.code == 404

    def test_scrape_reflects_live_updates(self, obs):
        with MetricsServer(obs) as server:
            _, _, before = _get(server.url + "/metrics")
            obs.metrics.counter("repro_queries_total").inc(5)
            _, _, after = _get(server.url + "/metrics")
        assert "repro_queries_total 3" in before
        assert "repro_queries_total 8" in after


class TestLifecycle:
    def test_rejects_noop_handle(self):
        with pytest.raises(ValueError):
            MetricsServer(NOOP)

    def test_port_zero_binds_a_free_port(self, obs):
        server = MetricsServer(obs, port=0).start()
        try:
            assert server.port > 0
            assert server.url.endswith(str(server.port))
        finally:
            server.stop()

    def test_stop_is_idempotent_and_start_restarts(self, obs):
        server = MetricsServer(obs)
        server.start()
        server.stop()
        server.stop()
        assert not server.running
        server.start()
        try:
            assert _get(server.url + "/healthz")[0] == 200
        finally:
            server.stop()

    def test_port_raises_when_stopped(self, obs):
        server = MetricsServer(obs)
        with pytest.raises(RuntimeError):
            server.port


def _get_json(url):
    status, content_type, body = _get(url)
    assert content_type == "application/json"
    return status, json.loads(body)


def _evaluate_profiled(obs, *, strategies=("pushdown",)):
    """Run the Fig. 1 query through evaluate() with a recorder live."""
    from repro.core.filters import SizeAtMost
    from repro.core.query import Query
    from repro.core.strategies import Strategy, evaluate
    from repro.index.inverted import InvertedIndex
    from repro.workloads.figure1 import build_figure1_document

    document = build_figure1_document()
    index = InvertedIndex(document)
    query = Query.of("xquery", "optimization", predicate=SizeAtMost(3))
    for name in strategies:
        evaluate(document, query, strategy=Strategy.parse(name),
                 index=index, obs=obs)


@pytest.fixture()
def profiled_obs() -> Observability:
    from repro.obs import FlightRecorder, RecorderConfig
    handle = Observability(
        recorder=FlightRecorder(RecorderConfig(sample_rate=1.0, seed=3)))
    _evaluate_profiled(handle, strategies=("pushdown", "set-reduction"))
    return handle


class TestProcessStats:
    def test_process_stats_shape(self):
        from repro.obs.server import process_stats
        stats = process_stats()
        assert stats["pid"] > 0
        assert stats["rss_bytes"] is None or stats["rss_bytes"] > 0
        assert isinstance(stats["python"], str)

    def test_varz_has_process_section_and_rss_gauge(self, obs):
        with MetricsServer(obs) as server:
            _, varz = _get_json(server.url + "/varz")
            _, _, prom = _get(server.url + "/metrics")
        assert varz["process"]["pid"] > 0
        if varz["process"]["rss_bytes"] is not None:
            assert "repro_process_rss_bytes" in prom


class TestFlightRecorderRoutes:
    def test_flightrecorder_answers_without_an_explicit_recorder(self):
        """A served handle always has the ring: one built without a
        recorder is given a default one."""
        handle = Observability()
        with MetricsServer(handle) as server:
            _evaluate_profiled(handle)
            _, snap = _get_json(server.url + "/debug/flightrecorder")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/debug/trace/whatever")
        assert snap["counts"]["recorded"] == 1
        assert json.loads(excinfo.value.read())["error"] \
            == "unknown-trace"

    def test_flightrecorder_snapshot(self, profiled_obs):
        with MetricsServer(profiled_obs) as server:
            _, snap = _get_json(server.url + "/debug/flightrecorder")
        assert snap["counts"]["recorded"] == 2
        assert snap["outcomes"] == {"ok": 2}
        assert len(snap["traces"]) == 2
        assert snap["latency"]["samples"] == 2
        assert set(snap["calibration"]) == {"pushdown", "set-reduction"}

    def test_trace_endpoint_serves_chrome_json(self, profiled_obs):
        with MetricsServer(profiled_obs) as server:
            _, snap = _get_json(server.url + "/debug/flightrecorder")
            trace_id = snap["traces"][0]
            _, trace = _get_json(server.url + "/debug/trace/"
                                 + trace_id)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert {e["name"] for e in events} >= {"execute", "scan"}
        # must round-trip as strict JSON for chrome://tracing
        json.loads(json.dumps(trace))

    def test_trace_endpoint_404_on_unknown_id(self, profiled_obs):
        with MetricsServer(profiled_obs) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/debug/trace/q0-000000")
            excinfo.value.close()
            assert excinfo.value.code == 404

    def test_budget_aborted_query_trace_is_exportable(self):
        from repro.core.query import Query
        from repro.core.strategies import Strategy, evaluate
        from repro.errors import BudgetExceeded
        from repro.guard.budget import QueryBudget
        from repro.index.inverted import InvertedIndex
        from repro.obs import FlightRecorder, RecorderConfig
        from repro.workloads.figure1 import build_figure1_document

        handle = Observability(
            recorder=FlightRecorder(RecorderConfig()))
        document = build_figure1_document()
        index = InvertedIndex(document)
        with pytest.raises(BudgetExceeded):
            evaluate(document, Query.of("xquery", "optimization"),
                     strategy=Strategy.SET_REDUCTION, index=index,
                     obs=handle, budget=QueryBudget(max_join_ops=1))
        with MetricsServer(handle) as server:
            _, snap = _get_json(server.url + "/debug/flightrecorder")
            assert snap["outcomes"] == {"budget-exceeded": 1}
            trace_id = snap["traces"][0]
            _, trace = _get_json(server.url + "/debug/trace/"
                                 + trace_id)
        assert trace["traceEvents"]
        json.loads(json.dumps(trace))

    def test_varz_flight_recorder_section(self, profiled_obs):
        with MetricsServer(profiled_obs) as server:
            _, varz = _get_json(server.url + "/varz")
        section = varz["flight_recorder"]
        assert section["profiles"] == section["recorded"] == 2
        assert section["evicted"] == 0
        assert section["traces"] == 2
        assert set(section["calibration"]) == {"pushdown",
                                               "set-reduction"}

    def test_metrics_export_includes_calibration_gauge(self,
                                                       profiled_obs):
        with MetricsServer(profiled_obs) as server:
            _, _, prom = _get(server.url + "/metrics")
        assert "repro_cost_calibration_ratio" in prom
        assert 'strategy="pushdown"' in prom


class TestTimeseriesAndAlertRoutes:
    def test_timeseries_404_without_history(self, obs):
        with MetricsServer(obs) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/timeseries")
            assert err.value.code == 404
            assert json.loads(err.value.read())["error"] == "no-history"

    def test_timeseries_catalog_named_and_windowed(self, obs):
        from repro.obs import MetricsHistory

        history = MetricsHistory(obs.metrics, interval_s=0.01)
        with MetricsServer(obs, history=history) as server:
            # The server owns the sampler: wait for a couple of samples.
            import threading
            settle = threading.Event()
            for _ in range(500):
                if history.stats()["samples"] >= 2:
                    break
                settle.wait(0.01)
            _, catalog = _get_json(server.url + "/timeseries")
            assert catalog["stats"]["samples"] >= 2
            assert any(s["name"] == "repro_queries_total"
                       for s in catalog["series"])
            _, named = _get_json(
                server.url + "/timeseries?name=repro_queries_total"
                             "&window=60")
            assert named["name"] == "repro_queries_total"
            assert named["window_s"] == 60.0
            # The counter never moved after the baseline sample.
            assert named["window"]["samples"] >= 1
            assert named["window"]["sum"] == 0.0
        assert not history.running

    def test_timeseries_400_on_bad_window(self, obs):
        from repro.obs import MetricsHistory

        history = MetricsHistory(obs.metrics, interval_s=60.0)
        with MetricsServer(obs, history=history) as server:
            for window in ("banana", "-5", "0"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _get(server.url + f"/timeseries?window={window}")
                err.value.close()
                assert err.value.code == 400

    def test_alertz_disabled_without_monitor(self, obs):
        with MetricsServer(obs) as server:
            status, doc = _get_json(server.url + "/alertz")
        assert status == 200
        assert doc["enabled"] is False
        assert doc["state"] == "ok"
        assert doc["objectives"] == 0

    def test_alertz_and_healthz_follow_the_monitor(self, obs):
        from repro.obs import MetricsHistory
        from repro.obs.slo import Objective, SLOMonitor

        obs.metrics.gauge("overload", "d").set(9.0)
        history = MetricsHistory(obs.metrics, interval_s=3600.0)
        slo = SLOMonitor(history, [Objective(
            name="load", kind="gauge", metric="overload",
            threshold=1.0, fast_window_s=5.0, slow_window_s=10.0)],
            metrics=obs.metrics)
        with MetricsServer(obs, history=history, slo=slo) as server:
            history.sample_once()
            _, doc = _get_json(server.url + "/alertz")
            assert doc["state"] == "critical"
            assert doc["alerts"][0]["fast_burn"] == pytest.approx(9.0)
            status, _ctype, body = _get(server.url + "/healthz")
            assert (status, body.strip()) == (200, "degraded")

    def test_varz_history_and_slo_sections(self, obs):
        from repro.obs import MetricsHistory
        from repro.obs.slo import Objective, SLOMonitor

        history = MetricsHistory(obs.metrics, interval_s=3600.0)
        slo = SLOMonitor(history, [Objective(
            name="o", kind="gauge", metric="m", threshold=1.0)],
            metrics=obs.metrics)
        with MetricsServer(obs, history=history, slo=slo) as server:
            history.sample_once()
            _, varz = _get_json(server.url + "/varz")
        assert varz["history"]["samples"] == 1
        assert varz["history"]["interval_s"] == 3600.0
        assert varz["slo"]["objectives"] == 1
        assert varz["slo"]["alerts"][0]["name"] == "o"

    def test_mismatched_monitor_history_rejected(self, obs):
        from repro.obs import MetricsHistory, MetricsRegistry
        from repro.obs.slo import Objective, SLOMonitor

        history = MetricsHistory(obs.metrics, interval_s=60.0)
        foreign = MetricsHistory(MetricsRegistry(), interval_s=60.0)
        slo = SLOMonitor(foreign, [Objective(
            name="o", kind="gauge", metric="m", threshold=1.0)])
        with pytest.raises(ValueError):
            MetricsServer(obs, history=history, slo=slo)

    def test_varz_process_reports_rss_kind(self, obs):
        with MetricsServer(obs) as server:
            _, varz = _get_json(server.url + "/varz")
        process = varz["process"]
        assert "rss_kind" in process
        if process["rss_bytes"] is not None:
            assert process["rss_kind"] in ("current", "peak")
        else:
            assert process["rss_kind"] is None

    def test_caller_owned_sampler_stays_running(self, obs):
        from repro.obs import MetricsHistory

        history = MetricsHistory(obs.metrics, interval_s=60.0)
        history.start()
        try:
            with MetricsServer(obs, history=history):
                assert history.running
            # The caller started it, so stop() must leave it alone.
            assert history.running
        finally:
            history.stop()


class TestOneProfilePerQuery:
    def test_each_query_is_one_profile_and_one_count(self):
        """Plain and streamed ``POST /query`` calls over a multi-document
        collection: every call is one request, counted once and
        profiled once, however many documents and β rounds it ran."""
        from repro.workloads.inexlike import InexSpec, generate_collection

        obs = Observability(recorder=FlightRecorder(
            RecorderConfig(slow_ms=None)))
        calls = 6
        with generate_collection(InexSpec(articles=6, nodes_per_article=140,
                                          seed=7)) as corpus, \
                MetricsServer(obs, collection=corpus) as server:
            for call in range(calls):
                body = json.dumps({"query": "needle", "limit": 40,
                                   "stream": call % 2 == 1}).encode()
                request = urllib.request.Request(
                    server.url + "/query", data=body, method="POST",
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request, timeout=30) as reply:
                    assert reply.status == 200
                    reply.read()
        profiles = obs.recorder.profiles
        assert len(profiles) == calls
        assert obs.metrics.get("repro_queries_total").value == calls
        assert [p.strategy for p in profiles] \
            == ["anchored", "stream-anchored"] * (calls // 2)
        assert {p.documents for p in profiles} == {2}
