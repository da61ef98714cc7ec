"""Worker telemetry propagation tests (repro.exec ⇄ repro.obs.delta).

The contract: observability output means the same thing at any worker
count.  Pool workers run with their own handles (a tracer and a
registry, no flight recorder), ship span trees and metric deltas back
in-band, and the parent merges them — so the parent-side counters
equal the serial ones exactly and worker spans carry a ``worker=N``
provenance label.  A search is one request, recorded once by the
parent: the same ``repro_query_*`` and ``repro_cost_*`` series and one
profile whether it ran serially or pooled.

Collections are built fresh per run: the serial path shares one join
cache across queries, so reusing a warm collection would skew the
counter comparison.
"""

from __future__ import annotations

import pytest

from repro.collection.collection import DocumentCollection
from repro.core.query import Query
from repro.core.strategies import Strategy
from repro.obs import (FRAGMENT_JOINS, POOL_CHUNKS, PREDICATE_CHECKS,
                       QUERIES_TOTAL, SLOW_QUERIES, FlightRecorder,
                       Observability, RecorderConfig)
from repro.workloads.inexlike import InexSpec, generate_collection

SPEC = InexSpec(articles=8, nodes_per_article=160, seed=11)
QUERY = Query(("needle", "thread"))


def _fresh_collection() -> DocumentCollection:
    return generate_collection(SPEC)


def _counters(obs: Observability) -> dict[str, float]:
    return {record["name"]: record["value"]
            for record in obs.metrics.to_json()["metrics"]
            if record["kind"] in ("counter", "gauge")
            and not record.get("labels")}


def _span_names(span) -> set[str]:
    names = {span.name}
    for child in span.children:
        names |= _span_names(child)
    return names


class TestCounterDeterminism:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_parent_counters_equal_serial(self, workers):
        serial_obs = Observability()
        with _fresh_collection() as collection:
            serial = collection.search(QUERY, strategy=Strategy.PUSHDOWN,
                                       obs=serial_obs)
        parallel_obs = Observability()
        with _fresh_collection() as collection:
            parallel = collection.search(QUERY, strategy=Strategy.PUSHDOWN,
                                         obs=parallel_obs, workers=workers)
        # Fragments are compared by node signature: the two runs use
        # separately generated (but identical) Document objects.
        def signature(result):
            return {name: {tuple(sorted(f.nodes)) for f in r.fragments}
                    for name, r in result.per_document.items()}

        assert signature(parallel) == signature(serial)
        serial_counts = _counters(serial_obs)
        parallel_counts = _counters(parallel_obs)
        for name in (QUERIES_TOTAL, FRAGMENT_JOINS, PREDICATE_CHECKS):
            assert parallel_counts[name] == serial_counts[name], name
        assert parallel_counts[QUERIES_TOTAL] > 0
        assert parallel_counts[FRAGMENT_JOINS] > 0

    def test_strategy_counters_survive_the_pool(self):
        obs = Observability()
        with _fresh_collection() as collection:
            collection.search(QUERY, strategy=Strategy.SET_REDUCTION,
                              obs=obs, workers=2)
        labelled = {(r["name"], r["labels"].get("strategy"))
                    for r in obs.metrics.to_json()["metrics"]
                    if r.get("labels", {}).get("strategy")}
        assert ("repro_queries_by_strategy_total",
                Strategy.SET_REDUCTION.value) in labelled


class TestProvenance:
    def test_worker_spans_graft_under_the_parallel_span(self):
        obs = Observability()
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=obs, workers=2)
        (root,) = obs.tracer.roots
        assert root.name == "collection-search"
        (pooled,) = root.children
        assert pooled.name == "parallel-search"
        executes = [span for span, _ in pooled.walk()
                    if span.name == "execute"]
        assert executes  # rehydrated worker spans
        assert all("document" in span.attributes for span in executes)

    def test_worker_attribute_on_adopted_spans(self):
        obs = Observability()
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=obs, workers=2)

        def walk(span):
            yield span
            for child in span.children:
                yield from walk(child)

        workers = {span.attributes["worker"]
                   for root in obs.tracer.roots
                   for span in walk(root)
                   if "worker" in span.attributes}
        assert workers  # at least one worker shipped spans
        assert all(w.isdigit() for w in workers)

    def test_pool_metrics_recorded(self):
        obs = Observability()
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=obs, workers=2)
        counts = _counters(obs)
        assert counts.get(POOL_CHUNKS, 0) > 0


class TestSlowQueryRederivation:
    def test_parent_threshold_marks_worker_records(self):
        # The parent records the pooled request under its own
        # threshold; at 0 ms its one profile is slow, counted once.
        obs = Observability(recorder=FlightRecorder(
            RecorderConfig(slow_ms=0.0)))
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=obs, workers=2)
        records = obs.recorder.profiles
        assert records
        assert obs.recorder.slow_profiles() == records
        assert _counters(obs)[SLOW_QUERIES] == len(records)

    def test_serial_and_pooled_hold_the_same_ring_and_slow_count(self):
        handles = []
        for workers in (None, 2):
            obs = Observability(recorder=FlightRecorder(
                RecorderConfig(slow_ms=0.0)))
            with _fresh_collection() as collection:
                collection.search(QUERY, obs=obs, workers=workers)
            handles.append(obs)
        serial, pooled = handles
        assert len(pooled.recorder) == len(serial.recorder) > 0
        assert pooled.recorder.recorded == serial.recorder.recorded
        assert _counters(pooled)[SLOW_QUERIES] \
            == _counters(serial)[SLOW_QUERIES] == len(serial.recorder)


class TestRecorderAcrossWorkers:
    """Flight-recorder profiles and histograms across the delta merge."""

    def _profiled_obs(self) -> Observability:
        from repro.obs import FlightRecorder, RecorderConfig
        return Observability(recorder=FlightRecorder(
            RecorderConfig(slow_ms=None, sample_rate=1.0, seed=5)))

    def _histogram_export(self, obs, name):
        for record in obs.metrics.to_json()["metrics"]:
            if record["name"] == name:
                return record
        return None

    def test_histograms_merge_without_double_counting(self):
        from repro.obs import QUERY_FRAGMENTS, QUERY_LATENCY

        serial_obs = self._profiled_obs()
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=serial_obs)
        parallel_obs = self._profiled_obs()
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=parallel_obs, workers=2)

        for name in (QUERY_LATENCY, QUERY_FRAGMENTS):
            serial = self._histogram_export(serial_obs, name)
            parallel = self._histogram_export(parallel_obs, name)
            assert serial is not None and parallel is not None
            # one sample per request, counted exactly once
            assert parallel["count"] == serial["count"]
            assert parallel["buckets"] == serial["buckets"]
            assert sum(parallel["counts"]) == parallel["count"]
        # result-size samples are integers: the histograms must agree
        # exactly
        assert self._histogram_export(parallel_obs, QUERY_FRAGMENTS) \
            == self._histogram_export(serial_obs, QUERY_FRAGMENTS)

    def test_prometheus_buckets_and_inf_after_merge(self):
        obs = self._profiled_obs()
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=obs, workers=2)
        prom = obs.metrics.to_prometheus()
        assert 'repro_query_latency_seconds_bucket{le="+Inf"}' in prom
        # cumulative export: the +Inf bucket equals the sample count
        count_line = [l for l in prom.splitlines()
                      if l.startswith("repro_query_latency_seconds_"
                                      "count")][0]
        inf_line = [l for l in prom.splitlines()
                    if l.startswith("repro_query_latency_seconds_"
                                    "bucket") and '+Inf' in l][0]
        assert count_line.split()[-1] == inf_line.split()[-1]

    def test_worker_profiles_carry_provenance_and_traces(self):
        """Workers ship no profiles: the pooled request's one profile,
        recorded by the parent, carries their provenance in its trace."""
        obs = self._profiled_obs()
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=obs, workers=2)
        (profile,) = obs.recorder.profiles
        assert profile.trace_id
        events = obs.recorder.chrome_trace(profile.trace_id)["traceEvents"]
        assert events[0]["name"] == "collection-search"
        executes = [e for e in events if e["name"] == "execute"]
        assert executes
        assert all(e["args"]["worker"].isdigit() for e in executes)

    def test_parent_ring_matches_serial_profile_count(self):
        serial_obs = self._profiled_obs()
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=serial_obs)
        parallel_obs = self._profiled_obs()
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=parallel_obs, workers=2)
        assert len(parallel_obs.recorder.profiles) \
            == len(serial_obs.recorder.profiles)

    def test_calibration_ratio_matches_serial(self):
        serial_obs = self._profiled_obs()
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=serial_obs)
        parallel_obs = self._profiled_obs()
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=parallel_obs, workers=2)
        serial = serial_obs.publish_calibration()
        parallel = parallel_obs.publish_calibration()
        assert set(parallel) == set(serial)
        for strategy, ratio in serial.items():
            assert parallel[strategy] == pytest.approx(ratio, rel=1e-6)

        # Both runs expose the same repro_query_* and repro_cost_*
        # series, with equal counts and cost totals.
        def series(obs):
            return {(record["name"], tuple(sorted(record["labels"].items())))
                    : record for record in obs.metrics.to_json()["metrics"]
                    if record["name"].startswith(("repro_query",
                                                  "repro_cost_"))}

        serial, parallel = series(serial_obs), series(parallel_obs)
        assert set(parallel) == set(serial)
        assert any(name.startswith("repro_cost_") for name, _ in serial)
        for key, record in serial.items():
            if record["kind"] == "histogram":
                assert parallel[key]["count"] == record["count"]
            else:
                assert parallel[key]["value"] \
                    == pytest.approx(record["value"])

    @pytest.mark.parametrize("workers", (None, 2))
    def test_dropped_traces_are_counted_where_they_drop(self, workers):
        """Every trace evicted past ``max_traces`` moves
        ``repro_recorder_traces_dropped_total``, pooled or not: the
        parent's store is the only one."""
        from repro.obs import TRACES_DROPPED

        obs = Observability(recorder=FlightRecorder(RecorderConfig(
            slow_ms=None, sample_rate=1.0, max_traces=2, seed=5)))
        with _fresh_collection() as collection:
            for _ in range(4):
                collection.search(Query(("needle",)), obs=obs,
                                  workers=workers)
        recorder = obs.recorder
        assert len(recorder.trace_ids()) == 2
        assert recorder.traces_dropped == recorder.recorded - 2 > 0
        assert obs.metrics.get(TRACES_DROPPED).value \
            == recorder.traces_dropped
