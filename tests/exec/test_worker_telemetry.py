"""Worker telemetry propagation tests (repro.exec ⇄ repro.obs.delta).

The contract: observability output means the same thing at any worker
count.  Pool workers run with their own handles, ship span trees,
metric deltas and query profiles back in-band, and the parent merges
them — so the parent-side counters equal the serial ones exactly, and
spans/profiles carry a ``worker=N`` provenance label.

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
            serial = collection.search(QUERY, obs=serial_obs)
        parallel_obs = Observability()
        with _fresh_collection() as collection:
            parallel = collection.search(QUERY, obs=parallel_obs,
                                         workers=workers)
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
    def test_query_records_carry_worker_labels(self):
        obs = Observability(recorder=FlightRecorder())
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=obs, workers=2)
        records = obs.recorder.profiles
        assert records
        assert all(record.worker is not None for record in records)
        assert all(record.worker.isdigit() for record in records)

    def test_worker_spans_graft_under_the_parallel_span(self):
        obs = Observability()
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=obs, workers=2)
        names = set()
        for root in obs.tracer.roots:
            names |= _span_names(root)
        assert "parallel-search" in names
        assert "execute" in names  # rehydrated worker span

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
        # Workers record under the parent's RecorderConfig; with a 0 ms
        # threshold every merged profile is slow, and counted once.
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
            # one sample per evaluated document, counted exactly once
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
        obs = self._profiled_obs()
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=obs, workers=2)
        profiles = obs.recorder.profiles
        assert profiles
        assert all(p.worker is not None for p in profiles)
        retained = [p for p in profiles if p.trace_id]
        assert retained
        doc = obs.recorder.chrome_trace(retained[0].trace_id)
        assert any(e["name"] == "execute" for e in doc["traceEvents"])

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

    def test_a_chunk_larger_than_the_ring_loses_no_profile(self):
        """A worker's ring is drained after every chunk and has no
        bound of its own: with ``chunk_size`` over ``ring_size`` the
        parent still sees (and counts) every evaluation, and does the
        only evicting."""
        from repro.exec import ParallelExecutor
        from repro.obs import FlightRecorder, RecorderConfig

        def handle():
            return Observability(recorder=FlightRecorder(
                RecorderConfig(ring_size=1, slow_ms=None)))

        serial_obs, pooled_obs = handle(), handle()
        with _fresh_collection() as collection:
            collection.search(QUERY, obs=serial_obs)
            documents = {name: collection.document(name)
                         for name in collection.names()}
        with ParallelExecutor(documents=documents, workers=2,
                              chunk_size=len(documents)) as executor:
            executor.search(QUERY, obs=pooled_obs)
        serial, pooled = serial_obs.recorder, pooled_obs.recorder
        assert serial.recorded > serial.config.ring_size
        assert (pooled.recorded, pooled.evicted, len(pooled)) \
            == (serial.recorded, serial.evicted, len(serial))

    @pytest.mark.parametrize("workers", (None, 2))
    def test_dropped_traces_are_counted_where_they_drop(self, workers):
        """Every trace evicted past ``max_traces`` moves
        ``repro_recorder_traces_dropped_total``, also when the parent
        ingests pooled workers' traces: workers bound no trace store,
        so the parent's is the one that drops."""
        from repro.obs import TRACES_DROPPED

        obs = Observability(recorder=FlightRecorder(RecorderConfig(
            slow_ms=None, sample_rate=1.0, max_traces=2, seed=5)))
        with _fresh_collection() as collection:
            collection.search(Query(("needle",)), obs=obs, workers=workers)
        recorder = obs.recorder
        assert len(recorder.trace_ids()) == 2
        assert recorder.traces_dropped == recorder.recorded - 2 > 0
        assert obs.metrics.get(TRACES_DROPPED).value \
            == recorder.traces_dropped
