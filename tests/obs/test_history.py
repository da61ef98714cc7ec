"""Tests for the metrics time-series store (``repro.obs.history``).

Histogram quantiles first — a window's quantile must be exactly what
its summed bucket counts say — then the sampler: counter deltas and
rates, gauge last-values, histogram bucket movement, ring bounds,
restart detection, the one subtraction it shares with
``MetricsRegistry.diff``, and the windowed readers that back
``/timeseries``.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (HISTORY_SAMPLES, HISTORY_SERIES, LATENCY_BUCKETS,
                       MetricsHistory, MetricsRegistry)


def _reference_quantile(bounds, counts, q):
    """The ``q``-quantile the buckets say: each bucket's mass at its
    midpoint (the ``+Inf`` tail at the last finite bound), linear on
    cumulative count between adjacent non-empty buckets."""
    values = [(low + high) / 2.0
              for low, high in zip((0.0,) + tuple(bounds), bounds)]
    masses = [(value, count) for value, count
              in zip(values + [bounds[-1]], counts) if count]
    if not masses:
        return None
    target = q * sum(count for _, count in masses)
    previous, below = masses[0][0], 0
    for value, count in masses:
        if below + count >= target:
            return previous + (value - previous) * (target - below) / count
        previous, below = value, below + count
    return previous


def _add_interval(registry, bounds, counts, name="lat"):
    """Add one interval's bucket counts to histogram ``name``."""
    registry.merge({"metrics": [{
        "name": name, "kind": "histogram", "buckets": list(bounds),
        "counts": list(counts), "sum": 0.0, "count": sum(counts)}]})


class _Clock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds
        return self.now


@pytest.fixture()
def clocked():
    registry = MetricsRegistry()
    clock = _Clock()
    history = MetricsHistory(registry, interval_s=5.0, capacity=8,
                             clock=clock)
    return registry, history, clock


#: Bucket layouts the quantile property draws from.
_LAYOUTS = (LATENCY_BUCKETS, (1.0, 2.0), (0.01, 0.05, 0.1, 0.5, 1.0))


@st.composite
def _intervals(draw):
    """A bucket layout and 1–8 intervals of bucket deltas, mixing empty,
    sparse (1–3) and busy (100–400) buckets."""
    bounds = draw(st.sampled_from(_LAYOUTS))
    count = st.one_of(st.just(0), st.integers(1, 3), st.integers(100, 400))
    row = st.lists(count, min_size=len(bounds) + 1,
                   max_size=len(bounds) + 1)
    return bounds, draw(st.lists(row, min_size=1, max_size=8))


class TestBucketQuantiles:
    def test_one_interval_p999_reads_the_buckets(self, clocked):
        # 400 observations in (1, 2.5] ms, one in (10, 25] ms, one past
        # the last bound: p99.9 interpolates between the 17.5 ms
        # midpoint and the 10 s tail.
        registry, history, clock = clocked
        hist = registry.histogram("lat", "d", buckets=LATENCY_BUCKETS)
        history.sample_once()
        for _ in range(400):
            hist.observe(0.002)
        hist.observe(0.02)
        hist.observe(20.0)
        clock.tick(5)
        history.sample_once()
        expected = 0.0175 + (10.0 - 0.0175) * (0.999 * 402 - 401)
        assert history.quantile("lat", 0.999) == pytest.approx(
            expected, rel=1e-12)
        assert round(history.quantile("lat", 0.999), 3) == 5.987

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(_intervals(), st.integers(1, 8),
           st.sampled_from((0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0)))
    def test_window_quantile_equals_reference(self, case, window, q):
        bounds, intervals = case
        registry = MetricsRegistry()
        clock = _Clock()
        history = MetricsHistory(registry, interval_s=5.0, clock=clock)
        _add_interval(registry, bounds, [0] * (len(bounds) + 1))
        history.sample_once()
        for counts in intervals:
            _add_interval(registry, bounds, counts)
            clock.tick(5)
            history.sample_once()
        summed = [sum(column) for column in zip(*intervals[-window:])]
        expected = _reference_quantile(bounds, summed, q)
        got = history.quantile("lat", q, window_s=5.0 * window)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_first_bucket_holds_p25_over_many_intervals(self):
        bounds = (0.01, 0.05, 0.1, 0.5, 1.0)
        registry = MetricsRegistry()
        clock = _Clock()
        history = MetricsHistory(registry, interval_s=5.0, capacity=512,
                                 clock=clock)
        _add_interval(registry, bounds, [0] * 6)
        history.sample_once()
        for _ in range(500):  # 500 intervals of identical deltas
            _add_interval(registry, bounds, (10, 5, 3, 1, 0, 1))
            clock.tick(5)
            history.sample_once()
        assert history.window("lat")["count"] == 500 * 20
        # Half the mass is in the first bucket: p25 below its bound.
        assert history.quantile("lat", 0.25) <= 0.01
        assert history.quantile("lat", 0.25) == pytest.approx(
            _reference_quantile(bounds, (5000, 2500, 1500, 500, 0, 500),
                                0.25), rel=1e-12)

    def test_tail_reads_the_last_finite_bound(self, clocked):
        registry, history, clock = clocked
        _add_interval(registry, (1.0, 2.0), (0, 0, 0))
        history.sample_once()
        _add_interval(registry, (1.0, 2.0), (0, 0, 5))
        clock.tick(5)
        history.sample_once()
        assert history.quantile("lat", 0.99) == 2.0

    def test_single_bucket_reads_its_midpoint(self, clocked):
        registry, history, clock = clocked
        hist = registry.histogram("lat", "d", buckets=(5.0, 9.0))
        history.sample_once()
        for _ in range(1000):
            hist.observe(7.0)
        clock.tick(5)
        history.sample_once()
        for q in (0.0, 0.5, 1.0):
            assert history.quantile("lat", q) == 7.0

    def test_empty_interval_reads_none(self, clocked):
        registry, history, clock = clocked
        registry.histogram("lat", "d", buckets=(1.0,))
        history.sample_once()
        clock.tick(5)
        history.sample_once()
        assert history.quantile("lat", 0.5) is None
        doc = history.window("lat")
        assert doc["count"] == 0
        assert doc["quantiles"] == {"p50": None, "p95": None, "p99": None}
        (series,) = history.series("lat")
        assert series["points"][-1][1:] == [0, None, None, None]

    def test_quantile_must_be_a_fraction(self, clocked):
        registry, history, clock = clocked
        _add_interval(registry, (1.0,), (0, 0))
        history.sample_once()
        _add_interval(registry, (1.0,), (3, 0))
        clock.tick(5)
        history.sample_once()
        with pytest.raises(ValueError):
            history.window("lat", quantiles=(1.5,))


class TestMetricsHistorySampling:
    def test_first_sample_is_baseline_for_counters(self, clocked):
        registry, history, clock = clocked
        registry.counter("c_total", "d").inc(10)
        history.sample_once()
        # Counters need movement: no points yet.
        assert history.delta("c_total") == 0.0
        clock.tick(5)
        registry.counter("c_total", "d").inc(3)
        history.sample_once()
        assert history.delta("c_total") == 3.0

    def test_counter_rate_and_windowing(self, clocked):
        registry, history, clock = clocked
        counter = registry.counter("qps_total", "d")
        history.sample_once()
        for _ in range(4):
            clock.tick(5)
            counter.inc(10)
            history.sample_once()
        doc = history.window("qps_total", window_s=10.0)
        assert doc["samples"] == 2
        assert doc["sum"] == 20.0
        assert doc["rate"] == pytest.approx(2.0)
        assert history.delta("qps_total") == 40.0

    def test_counter_reset_detected(self, clocked):
        registry, history, clock = clocked
        registry.counter("r_total", "d").inc(100)
        history.sample_once()
        clock.tick(5)
        registry.counter("r_total", "d").inc(1)
        history.sample_once()
        # Simulate a restart: replace the registry contents.
        fresh = MetricsRegistry()
        fresh.counter("r_total", "d").inc(4)
        history.registry = fresh
        clock.tick(5)
        history.sample_once()
        # 101 -> 4 went backwards; the new value is the delta.
        assert history.delta("r_total") == 1.0 + 4.0

    def test_gauge_last_min_max(self, clocked):
        registry, history, clock = clocked
        gauge = registry.gauge("level", "d")
        for value in (3.0, 9.0, 5.0):
            gauge.set(value)
            history.sample_once()
            clock.tick(5)
        doc = history.window("level")
        assert doc["last"] == 5.0
        assert doc["min"] == 3.0
        assert doc["max"] == 9.0
        assert history.last("level") == 5.0
        assert history.last("level", window_s=60.0) == 9.0

    def test_histogram_folds_to_window_quantiles(self, clocked):
        registry, history, clock = clocked
        hist = registry.histogram("lat", "d",
                                  buckets=(0.01, 0.1, 1.0))
        history.sample_once()
        for _ in range(3):
            clock.tick(5)
            for _ in range(90):
                hist.observe(0.005)
            for _ in range(10):
                hist.observe(0.5)
            history.sample_once()
        doc = history.window("lat")
        assert doc["count"] == 300
        assert doc["quantiles"]["p50"] <= 0.01
        assert 0.1 <= doc["quantiles"]["p99"] <= 1.0
        assert history.quantile("lat", 0.5) <= 0.01
        # Sum/mean come from the histogram's exact sum.
        assert doc["mean"] == pytest.approx((90 * 0.005 + 10 * 0.5)
                                            / 100)

    def test_sampler_movement_equals_registry_diff(self, clocked):
        # One subtraction: the sampler's per-interval movement is what
        # MetricsRegistry.diff reports between the same two snapshots;
        # an idle instrument is a zero point here, absent from diff.
        registry, history, clock = clocked
        bounds = (0.01, 0.1, 1.0)
        counter = registry.counter("moved_total", "d")
        hist = registry.histogram("moved", "d", buckets=bounds)
        registry.counter("idle_total", "d")
        registry.histogram("idle", "d", buckets=bounds)
        counter.inc(4)
        hist.observe(0.5)
        history.sample_once()
        before = registry.to_json()
        counter.inc(3)
        for value in (0.005, 0.05, 0.05, 7.0):
            hist.observe(value)
        moved = {m["name"]: m for m in registry.diff(before)["metrics"]}
        clock.tick(5)
        history.sample_once()
        assert set(moved) == {"moved_total", "moved"}
        (series,) = history.series("moved_total")
        assert series["points"][-1][1] == moved["moved_total"]["value"]
        qs = (0.1, 0.5, 0.9, 1.0)
        doc = history.window("moved", window_s=5.0, quantiles=qs)
        assert doc["count"] == moved["moved"]["count"]
        assert doc["sum"] == pytest.approx(moved["moved"]["sum"])
        assert list(doc["quantiles"].values()) == pytest.approx([
            _reference_quantile(bounds, moved["moved"]["counts"], q)
            for q in qs], rel=1e-12)
        (idle,) = history.series("idle_total")
        assert idle["points"][-1][1] == 0
        assert history.window("idle", window_s=5.0)["count"] == 0

    def test_ring_capacity_bounds_memory(self, clocked):
        registry, history, clock = clocked
        counter = registry.counter("ring_total", "d")
        for _ in range(30):
            counter.inc()
            history.sample_once()
            clock.tick(5)
        series = history.series("ring_total")[0]
        assert series["samples"] == 8  # capacity=8
        # The ring holds the newest points.
        assert series["points"][-1][0] == pytest.approx(
            clock.now - 5)

    def test_labelled_series_are_distinct_and_aggregated(self, clocked):
        registry, history, clock = clocked
        history.sample_once()
        clock.tick(5)
        registry.counter("lab_total", "d", labels={"k": "a"}).inc(2)
        registry.counter("lab_total", "d", labels={"k": "b"}).inc(5)
        history.sample_once()
        assert history.delta("lab_total", labels={"k": "a"}) == 2.0
        assert history.delta("lab_total", labels={"k": "b"}) == 5.0
        assert history.delta("lab_total") == 7.0  # both label sets

    def test_max_series_drops_and_counts(self):
        registry = MetricsRegistry()
        clock = _Clock()
        history = MetricsHistory(registry, interval_s=5.0, capacity=4,
                                 max_series=3, clock=clock)
        for i in range(6):
            registry.gauge(f"g{i}", "d").set(i)
        history.sample_once()
        stats = history.stats()
        assert stats["series"] == 3
        assert stats["series_dropped"] >= 3

    def test_missing_series_reads_return_none(self, clocked):
        _registry, history, _clock = clocked
        assert history.window("nope") is None
        assert history.quantile("nope", 0.99) is None
        assert history.delta("nope") is None
        assert history.last("nope") is None
        assert history.series("nope") == []

    def test_sampler_self_reports(self, clocked):
        registry, history, clock = clocked
        history.sample_once()
        clock.tick(5)
        history.sample_once()
        assert registry.get(HISTORY_SAMPLES).value == 2
        assert registry.get(HISTORY_SERIES).value >= 1

    def test_listener_runs_after_fold(self, clocked):
        _registry, history, clock = clocked
        seen = []
        history.add_listener(lambda h, now: seen.append(now))
        history.sample_once()
        clock.tick(5)
        history.sample_once()
        assert seen == [1000.0, 1005.0]

    def test_timeseries_doc_catalog_and_named(self, clocked):
        registry, history, clock = clocked
        registry.gauge("g", "d").set(1)
        history.sample_once()
        catalog = history.timeseries_doc()
        assert {"stats", "series"} <= set(catalog)
        assert any(s["name"] == "g" for s in catalog["series"])
        named = history.timeseries_doc("g", window_s=60.0)
        assert named["name"] == "g"
        assert named["window"]["last"] == 1

    def test_constructor_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            MetricsHistory(registry, interval_s=0)
        with pytest.raises(ValueError):
            MetricsHistory(registry, capacity=1)
        with pytest.raises(ValueError):
            MetricsHistory(registry, max_series=0)


class TestSamplerThread:
    def test_start_stop_and_context_manager(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "d").inc()
        history = MetricsHistory(registry, interval_s=0.01)
        with history as running:
            assert running is history
            assert history.running
            assert history._thread.daemon
            deadline = threading.Event()
            for _ in range(200):
                if history.stats()["samples"] >= 3:
                    break
                deadline.wait(0.01)
        assert not history.running
        assert history.stats()["samples"] >= 3
        # Idempotent stop, restartable start.
        history.stop()
        history.start()
        assert history.running
        history.stop()

    def test_sampler_survives_registry_errors(self):
        registry = MetricsRegistry()
        history = MetricsHistory(registry, interval_s=0.01)

        class Boom:
            def to_json(self):
                raise RuntimeError("boom")

        history.registry = Boom()
        history.start()
        try:
            done = threading.Event()
            for _ in range(200):
                if history._sample_errors >= 2:
                    break
                done.wait(0.01)
        finally:
            history.stop()
        assert history._sample_errors >= 2
        assert history.stats()["sample_errors"] >= 2
