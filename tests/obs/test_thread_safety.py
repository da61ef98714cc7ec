"""Concurrency tests for the observability layer.

The documented model is single-writer / many exporting readers: one
thread records queries while HTTP server threads render ``/metrics``,
``/varz`` and ``/slow`` snapshots.  These tests go further and hammer
the registry and query log from many *writer* threads at once — the
get-or-create, diff, merge and snapshot paths must never corrupt state
or raise ``RuntimeError: dictionary changed size during iteration``.

The final test is the acceptance bar for the resilience PR: hundreds
of searches interleaved from several threads against a *live*
:class:`~repro.obs.server.MetricsServer` under tight polling, with no
exceptions anywhere and the query counter exactly equal to the number
of searches issued.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.request

import pytest

from repro.core.query import Query
from repro.obs import (QUERIES_TOTAL, FlightRecorder, MetricsRegistry,
                       Observability, RecorderConfig)
from repro.obs.server import MetricsServer
from repro.workloads.inexlike import InexSpec, generate_collection

pytestmark = pytest.mark.timeout(120)


def _run_threads(workers):
    """Start all *workers*, join them, and re-raise the first error."""
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - test harness
                errors.append(exc)
        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestMetricsRegistryThreadSafety:
    def test_concurrent_get_or_create_and_inc(self):
        registry = MetricsRegistry()
        rounds, nthreads = 200, 8

        def writer(tid):
            def run():
                for i in range(rounds):
                    registry.counter("hammer_total", "d").inc()
                    registry.counter("labelled_total", "d",
                                     labels={"t": str(tid % 4)}).inc()
                    registry.gauge("level", "d").set(i)
                    registry.histogram("lat_seconds", "d").observe(0.001)
            return run

        def exporter():
            for _ in range(rounds):
                registry.to_prometheus()
                registry.to_json()
                registry.summary()
                len(registry)

        _run_threads([writer(t) for t in range(nthreads)]
                     + [exporter, exporter])
        assert registry.counter("hammer_total", "d").value \
            == rounds * nthreads
        total = sum(registry.counter("labelled_total", "d",
                                     labels={"t": str(k)}).value
                    for k in range(4))
        assert total == rounds * nthreads

    def test_concurrent_diff_and_merge(self):
        base = MetricsRegistry()
        rounds = 100

        def writer():
            for _ in range(rounds):
                base.counter("w_total", "d").inc()

        def merger():
            for i in range(rounds):
                other = MetricsRegistry()
                other.counter("m_total", "d").inc(2)
                other.gauge("m_gauge", "d").set(i)
                base.merge(other.to_json())

        def differ():
            snap = base.to_json()
            for _ in range(rounds):
                base.diff(snap)
                base.diff()

        _run_threads([writer, merger, differ])
        assert base.counter("w_total", "d").value == rounds
        assert base.counter("m_total", "d").value == 2 * rounds

    def test_get_probe_does_not_create(self):
        registry = MetricsRegistry()
        assert registry.get("never_created") is None
        registry.counter("exists_total", "d").inc()
        assert registry.get("exists_total").value == 1
        assert registry.get("exists_total", labels={"x": "1"}) is None
        assert len(registry) == 1


class TestQueryLogThreadSafety:
    def test_concurrent_record_and_snapshot(self):
        lines = []
        log = FlightRecorder(
            RecorderConfig(ring_size=10_000, slow_ms=0.0),
            sink=lines.append)
        rounds, nthreads = 200, 6

        def writer(tid):
            def run():
                for i in range(rounds):
                    log.observe(document=f"doc-{tid}", terms=("a",),
                                filter="true", strategy="pushdown",
                                answers=i, elapsed=0.001)
            return run

        def reader():
            for _ in range(rounds):
                log.profiles
                log.slow_profiles()
                len(log)
                log.snapshot()

        _run_threads([writer(t) for t in range(nthreads)]
                     + [reader, reader])
        assert len(log) == log.recorded == rounds * nthreads
        assert len(lines) == rounds * nthreads
        assert len({p.query_id for p in log.profiles}) == len(log)

class TestPerThreadRequestState:
    """Concurrent searches sharing one handle keep their span trees and
    their spans' shard apart."""

    def test_concurrent_searches_leave_one_tree_per_search(self):
        corpus = generate_collection(
            InexSpec(articles=4, nodes_per_article=100, seed=13))
        obs = Observability()
        query = Query(("needle", "thread"))
        probe = Observability()
        corpus.search(query, obs=probe)
        (expected,) = probe.tracer.roots
        searches, seen = 25, {}

        def searcher(tid):
            def run():
                for _ in range(searches):
                    corpus.search(query, obs=obs)
                seen[tid] = (obs.tracer.current(), list(obs.tracer.roots))
            return run

        _run_threads([searcher(t) for t in range(4)])
        for current, roots in seen.values():
            assert current is None  # no span left open
            assert len(roots) == searches
            for root in roots:
                # one collection-search tree, nothing nested from
                # another thread's search
                assert [span.name for span, _ in root.walk()] \
                    == [span.name for span, _ in expected.walk()]

    def test_profiles_carry_their_own_shard(self, tmp_path):
        """A profile's trace, recorded on one thread, names the shard of
        each of its own documents on their ``execute`` spans, never
        those of a search running on another; each search is one
        profile over its 8 documents."""
        from repro.collection.collection import DocumentCollection
        from repro.storage.shards import build_index
        from repro.xmltree.parser import parse

        def article(name):
            return parse("<a><p>needle thread</p><p>needle</p>"
                         "<p>thread</p></a>", name=name)

        memory = DocumentCollection()
        for i in range(8):
            memory.add(article(f"mem-{i}"))
        build_index({f"idx-{i}": article(f"idx-{i}") for i in range(8)},
                    tmp_path / "idx", shards=4)
        sharded = DocumentCollection.open_index(tmp_path / "idx")
        obs = Observability(recorder=FlightRecorder(RecorderConfig(
            ring_size=10_000, max_traces=10_000, slow_ms=None,
            sample_rate=1.0)))
        query = Query(("needle", "thread"))

        def searcher(collection):
            def run():
                for _ in range(40):
                    collection.search(query, obs=obs)
                obs.tracer.clear()
            return run

        try:
            _run_threads([searcher(memory), searcher(sharded)] * 2)
            profiles = obs.recorder.profiles
            assert len(profiles) == 4 * 40
            assert {p.documents for p in profiles} == {8}
            source = sharded._source
            shards = set()
            for profile in profiles:
                events = obs.recorder.chrome_trace(
                    profile.trace_id)["traceEvents"]
                executes = [e["args"] for e in events
                            if e["name"] == "execute"]
                assert len(executes) == 8
                for args in executes:
                    expected = (None if args["document"].startswith("mem-")
                                else source.shard_of(args["document"]))
                    assert args["shard"] == expected
                    shards.add(args["shard"])
            assert shards - {None}
        finally:
            sharded.close()

    def test_profile_cpu_is_the_runs_own(self):
        """A request's ``cpu_ms`` is its own thread's CPU: two threads
        of interleaved searches never charge each other's, so the
        profiles sum to no more than the CPU the process spent."""
        corpus = generate_collection(InexSpec(
            articles=4, nodes_per_article=100, seed=13, planted_fraction=1.0))
        obs = Observability(recorder=FlightRecorder(
            RecorderConfig(ring_size=10_000, slow_ms=None)))
        query = Query(("needle", "thread"))
        start = threading.Barrier(2)

        def searcher():
            start.wait()
            for _ in range(30):
                corpus.search(query, obs=obs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads' runs
        try:
            started = time.process_time()
            _run_threads([searcher, searcher])
            process_ms = (time.process_time() - started) * 1000.0
        finally:
            sys.setswitchinterval(interval)
        profiles = obs.recorder.profiles
        assert len(profiles) == 2 * 30
        assert sum(p.cpu_ms for p in profiles) <= process_ms


class TestLiveServerUnderLoad:
    def test_interleaved_searches_with_tight_polling(self):
        corpus = generate_collection(
            InexSpec(articles=4, nodes_per_article=100, seed=13))
        obs = Observability(recorder=FlightRecorder(
            RecorderConfig(ring_size=10_000, slow_ms=0.0)))
        queries = [Query(("needle", "thread")), Query(("needle",)),
                   Query(("thread",))]
        searches_per_thread, nthreads = 50, 4  # 200 searches total

        # Derive the exact expected QUERIES_TOTAL from one serial pass
        # per query.
        evals_per_query = []
        for q in queries:
            probe = Observability()
            corpus.search(q, obs=probe)
            evals_per_query.append(probe.metrics.counter(
                QUERIES_TOTAL, "Queries evaluated.").value)
        expected_evals = sum(
            evals_per_query[(tid + i) % len(queries)]
            for tid in range(nthreads)
            for i in range(searches_per_thread))

        with MetricsServer(obs) as server:
            stop = threading.Event()

            def searcher(tid):
                def run():
                    for i in range(searches_per_thread):
                        corpus.search(queries[(tid + i) % len(queries)],
                                      obs=obs)
                return run

            def poller(path):
                def run():
                    while not stop.is_set():
                        with urllib.request.urlopen(
                                f"{server.url}{path}",
                                timeout=5) as reply:
                            assert reply.status == 200
                            reply.read()
                return run

            workers = [searcher(t) for t in range(nthreads)]
            pollers = [threading.Thread(target=poller(p))
                       for p in ("/metrics", "/slow", "/varz",
                                 "/healthz")]
            for t in pollers:
                t.start()
            try:
                _run_threads(workers)
            finally:
                stop.set()
                for t in pollers:
                    t.join(timeout=10)

            assert obs.metrics.counter(
                QUERIES_TOTAL,
                "Queries evaluated.").value == expected_evals
            assert len(obs.recorder) == expected_evals
            with urllib.request.urlopen(f"{server.url}/varz",
                                        timeout=5) as reply:
                varz = json.load(reply)
            assert varz["flight_recorder"]["profiles"] \
                == varz["flight_recorder"]["slow"] == expected_evals
            metrics = {m["name"]: m
                       for m in varz["metrics"]["metrics"]}
            assert metrics[QUERIES_TOTAL]["value"] == expected_evals


class TestLiveSamplerUnderLoad:
    def test_timeseries_and_alertz_polling_during_searches(self):
        """Searches, a hot sampler, SLO evaluation and tight
        ``/timeseries`` + ``/varz`` + ``/alertz`` polling all run at
        once: no exceptions, no torn snapshots, and afterwards the
        history's windowed totals agree with the registry counter.
        """
        from repro.obs import MetricsHistory
        from repro.obs.slo import Objective, SLOMonitor

        corpus = generate_collection(
            InexSpec(articles=4, nodes_per_article=100, seed=13))
        obs = Observability()
        history = MetricsHistory(obs.metrics, interval_s=0.02,
                                 capacity=512)
        slo = SLOMonitor(history, [Objective(
            name="errors", kind="ratio",
            metric="repro_guard_budget_exceeded_total",
            total_metric=QUERIES_TOTAL, threshold=0.5,
            fast_window_s=0.2, slow_window_s=1.0)],
            metrics=obs.metrics)
        queries = [Query(("needle", "thread")), Query(("needle",)),
                   Query(("thread",))]
        searches_per_thread, nthreads = 40, 4

        with MetricsServer(obs, history=history, slo=slo) as server:
            assert history.running   # the server owns the sampler
            # Let the baseline sample land before any counters move,
            # so every search shows up in the ring's lifetime delta.
            settle = threading.Event()
            for _ in range(500):
                if history.stats()["samples"] >= 1:
                    break
                settle.wait(0.01)
            assert history.stats()["samples"] >= 1
            stop = threading.Event()

            def searcher(tid):
                def run():
                    for i in range(searches_per_thread):
                        corpus.search(queries[(tid + i) % len(queries)],
                                      obs=obs)
                return run

            def poller(path, check):
                def run():
                    while not stop.is_set():
                        with urllib.request.urlopen(
                                f"{server.url}{path}",
                                timeout=5) as reply:
                            assert reply.status == 200
                            check(json.loads(reply.read()))
                return run

            def check_timeseries(doc):
                assert "series" in doc
                for series in doc["series"]:
                    # The catalog summarises points as a count; the
                    # named doc carries the actual ring.
                    points = series["points"]
                    if isinstance(points, int):
                        assert points >= 0
                        continue
                    # Timestamps within one ring are monotonic.
                    assert all(a[0] <= b[0] for a, b
                               in zip(points, points[1:]))

            def check_alertz(doc):
                assert doc["enabled"] is True
                assert doc["state"] in ("ok", "warning", "critical")

            def check_varz(doc):
                assert doc["history"]["samples"] >= 0
                assert doc["slo"]["objectives"] == 1

            pollers = [
                threading.Thread(target=poller("/timeseries",
                                               check_timeseries)),
                threading.Thread(target=poller(
                    f"/timeseries?name={QUERIES_TOTAL}&window=1",
                    check_timeseries)),
                threading.Thread(target=poller("/alertz", check_alertz)),
                threading.Thread(target=poller("/varz", check_varz)),
            ]
            for t in pollers:
                t.start()
            try:
                _run_threads([searcher(t) for t in range(nthreads)])
                # One settling interval so the sampler folds the tail.
                deadline = threading.Event()
                total = obs.metrics.counter(QUERIES_TOTAL,
                                            "Queries evaluated.").value
                for _ in range(200):
                    if history.delta(QUERIES_TOTAL) == total:
                        break
                    deadline.wait(0.02)
            finally:
                stop.set()
                for t in pollers:
                    t.join(timeout=10)

            # The ring's lifetime delta equals the counter: no sample
            # was torn or double-folded under concurrency.
            assert history.delta(QUERIES_TOTAL) == total
            assert history.stats()["sample_errors"] == 0
            assert slo.state_of("errors").evaluations > 0
        assert not history.running   # stop() returned the sampler
