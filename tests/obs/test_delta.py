"""Tests for the cross-process telemetry delta format (repro.obs.delta).

Worker processes ship metric increments and span trees back to the
parent as an :class:`ObsDelta`; these tests pin the diff → ship →
merge semantics the parallel executor relies on.
"""

from __future__ import annotations

import pytest

from repro.obs import (DELTAS_MERGED, FRAGMENT_JOINS, MetricsRegistry,
                       Observability, ObsDelta, capture_delta, merge_delta)


def _counter_value(registry, name):
    for record in registry.to_json()["metrics"]:
        if record["name"] == name and not record.get("labels"):
            return record.get("value")
    return None


class TestRegistryDiff:
    def test_diff_against_empty_baseline_is_full_state(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(3)
        delta = registry.diff(None)
        assert [(m["name"], m["value"]) for m in delta["metrics"]] \
            == [("c_total", 3)]

    def test_unchanged_instruments_are_omitted(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(3)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        baseline = registry.to_json()
        assert registry.diff(baseline) == {"metrics": []}
        registry.counter("c_total").inc(2)
        delta = registry.diff(baseline)
        assert [(m["name"], m["value"]) for m in delta["metrics"]] \
            == [("c_total", 2)]

    def test_gauges_are_differenced_like_counters(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(10)
        baseline = registry.to_json()
        registry.gauge("g").set(14)
        delta = registry.diff(baseline)
        assert delta["metrics"][0]["value"] == 4

    def test_histogram_delta_is_elementwise(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 10.0))
        histogram.observe(0.5)
        baseline = registry.to_json()
        histogram.observe(5.0)
        histogram.observe(50.0)
        (record,) = registry.diff(baseline)["metrics"]
        assert record["counts"] == [0, 1, 1]
        assert record["count"] == 2
        assert record["sum"] == pytest.approx(55.0)


class TestRegistryMerge:
    def test_merge_restores_diff(self):
        source = MetricsRegistry()
        source.counter("c_total").inc(3)
        source.gauge("g").set(7)
        source.histogram("h", buckets=(1.0,)).observe(0.5)
        target = MetricsRegistry()
        target.counter("c_total").inc(1)
        target.merge(source.diff(None))
        assert _counter_value(target, "c_total") == 4
        assert target.gauge("g").value == 7
        assert target.histogram("h", buckets=(1.0,)).count == 1

    def test_merge_is_associative_across_workers(self):
        deltas = []
        for increments in (2, 5):
            worker = MetricsRegistry()
            worker.counter("c_total").inc(increments)
            deltas.append(worker.diff(None))
        target = MetricsRegistry()
        for delta in deltas:
            target.merge(delta)
        assert _counter_value(target, "c_total") == 7

    def test_merge_rejects_kind_mismatch(self):
        target = MetricsRegistry()
        target.counter("m")
        worker = MetricsRegistry()
        worker.gauge("m").set(1)
        with pytest.raises(ValueError):
            target.merge(worker.diff(None))

    def test_merge_rejects_bucket_mismatch(self):
        target = MetricsRegistry()
        target.histogram("h", buckets=(1.0, 2.0)).observe(0.1)
        worker = MetricsRegistry()
        worker.histogram("h", buckets=(5.0,)).observe(0.1)
        with pytest.raises(ValueError):
            target.merge(worker.diff(None))


class TestCaptureAndMergeDelta:
    def _worker_obs(self):
        # A pool worker's handle: a tracer and a registry, no recorder.
        obs = Observability()
        with obs.span("execute", strategy="pushdown"):
            pass
        obs.metrics.counter(FRAGMENT_JOINS).inc(5)
        return obs

    def test_capture_drains_worker_state(self):
        obs = self._worker_obs()
        delta, baseline = capture_delta(obs, None)
        assert bool(delta)
        assert delta.metrics["metrics"] and delta.spans
        assert not obs.tracer.roots
        assert not hasattr(delta, "profiles")
        # A second capture against the new baseline is empty.
        empty, _ = capture_delta(obs, baseline)
        assert not bool(empty)

    def test_capture_walks_the_registry_once(self, monkeypatch):
        # The snapshot capture_delta takes is both the state it
        # subtracts and the baseline it returns: one to_json(), no
        # diff(), and the same answer diff() would have given.
        obs = self._worker_obs()
        _, baseline = capture_delta(obs, None)
        obs.metrics.counter("c_total").inc(2)
        obs.metrics.histogram("h", buckets=(1.0,)).observe(0.5)
        expected = obs.metrics.diff(baseline)
        snapshot = obs.metrics.to_json()
        walks = []
        to_json = obs.metrics.to_json

        def counted():
            walks.append(1)
            return to_json()

        def no_diff(baseline=None):
            raise AssertionError("capture_delta called diff()")

        monkeypatch.setattr(obs.metrics, "to_json", counted)
        monkeypatch.setattr(obs.metrics, "diff", no_diff)
        delta, new_baseline = capture_delta(obs, baseline)
        assert walks == [1]
        assert new_baseline == snapshot
        assert delta.metrics == expected

    def test_merge_stamps_worker_label_on_spans_and_records(self):
        # The label goes on the spans; the metric records merge onto
        # the parent's series.
        delta, _ = capture_delta(self._worker_obs(), None)
        parent = Observability()
        merge_delta(parent, delta, worker="3")
        (root,) = parent.tracer.roots
        assert root.attributes.get("worker") == "3"
        assert _counter_value(parent.metrics, DELTAS_MERGED) == 1
        assert _counter_value(parent.metrics, FRAGMENT_JOINS) == 5

    def test_metric_increments_merge_unlabelled(self):
        # Parent totals must equal serial totals: worker labels go on
        # spans only, never on the metric series.
        delta, _ = capture_delta(self._worker_obs(), None)
        parent = Observability()
        merge_delta(parent, delta, worker="1")
        for record in parent.metrics.to_json()["metrics"]:
            assert "worker" not in (record.get("labels") or {})

    def test_merge_none_delta_is_noop(self):
        parent = Observability()
        merge_delta(parent, None, worker="0")
        assert parent.metrics.to_json()["metrics"] == []

    def test_delta_roundtrips_as_plain_data(self):
        # The pool pickles deltas; the dataclass must survive
        # dict-shaped reconstruction.
        delta, _ = capture_delta(self._worker_obs(), None)
        clone = ObsDelta(metrics=delta.metrics, spans=delta.spans)
        parent = Observability()
        merge_delta(parent, clone, worker="2")
        assert _counter_value(parent.metrics, FRAGMENT_JOINS) == 5
        assert len(parent.tracer.roots) == 1
