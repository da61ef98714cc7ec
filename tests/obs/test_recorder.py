"""Tests for the query flight recorder (repro.obs.recorder)."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.core.filters import SizeAtMost
from repro.core.query import Query
from repro.core.strategies import Strategy, evaluate
from repro.errors import BudgetExceeded
from repro.guard.budget import QueryBudget
from repro.index.inverted import InvertedIndex
from repro.obs import (COST_ACTUAL, COST_CALIBRATION, COST_PREDICTED,
                       PROFILES_RECORDED, QUERY_LATENCY, TRACES_DROPPED,
                       TRACES_RETAINED, FlightRecorder, Observability,
                       QueryProfile, RecorderConfig)
from repro.obs.recorder import (RETAIN_BUDGET, RETAIN_HEAD, RETAIN_SLOW,
                                load_dump, span_to_events)
from repro.obs.tracer import SpanTracer

ALL_STRATEGIES = ("brute-force", "set-reduction", "pushdown",
                  "semi-naive")


def _observe(recorder, *, elapsed=0.001, outcome="ok",
             strategy="pushdown", predicted=None, answers=2, span=None,
             stats=None):
    """One query through ``recorder`` — or, given an
    :class:`Observability`, through its ``record_query``, which also
    counts the profile's series."""
    record = (recorder.record_query if isinstance(recorder, Observability)
              else recorder.observe)
    return record(
        document="doc", terms=("a", "b"), filter="true",
        strategy=strategy, answers=answers, elapsed=elapsed,
        stats=stats or {"fragment_joins": 4, "join_cache_hits": 1},
        outcome=outcome, predicted_cost=predicted, span=span)


def _closed_span(name="execute"):
    tracer = SpanTracer()
    with tracer.span(name):
        with tracer.span("scan"):
            pass
    return tracer.roots[-1]


class TestConfig:
    def test_defaults(self):
        config = RecorderConfig()
        assert config.ring_size == 512
        assert config.sample_rate == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"ring_size": 0}, {"max_traces": -1},
        {"sample_rate": -0.1}, {"sample_rate": 1.5}, {"slow_ms": -1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RecorderConfig(**kwargs)

    def test_round_trips_through_dict(self):
        config = RecorderConfig(ring_size=7, max_traces=3, slow_ms=None,
                                sample_rate=0.5, seed=11)
        assert RecorderConfig.from_dict(config.to_dict()) == config


class TestRing:
    def test_ring_bounds_and_counts_evictions(self):
        recorder = FlightRecorder(RecorderConfig(ring_size=3,
                                                 slow_ms=None))
        obs = Observability(recorder=recorder)
        for _ in range(5):
            _observe(obs)
        assert len(recorder) == 3
        assert recorder.recorded == 5
        assert recorder.evicted == 2
        assert obs.metrics.get(PROFILES_RECORDED).value == 5

    def test_query_ids_are_unique_and_ordered(self):
        recorder = FlightRecorder(RecorderConfig(slow_ms=None))
        ids = [_observe(recorder).query_id for _ in range(3)]
        assert len(set(ids)) == 3
        assert ids == sorted(ids)

    def test_latency_percentiles(self):
        recorder = FlightRecorder(RecorderConfig(slow_ms=None))
        for ms in (1, 2, 3, 4, 100):
            _observe(recorder, elapsed=ms / 1000.0)
        latency = recorder.latency_percentiles()
        assert latency["samples"] == 5
        assert latency["p50_ms"] == pytest.approx(3.0, rel=0.01)
        assert latency["p99_ms"] == pytest.approx(100.0, rel=0.01)


class TestTailSampling:
    def test_budget_exceeded_always_retained(self):
        recorder = FlightRecorder(RecorderConfig(slow_ms=None))
        profile = _observe(recorder, outcome="budget-exceeded",
                           span=_closed_span())
        assert profile.retained == RETAIN_BUDGET
        assert profile.trace_id in recorder.trace_ids()

    def test_slow_query_retained(self):
        recorder = FlightRecorder(RecorderConfig(slow_ms=10.0))
        fast = _observe(recorder, elapsed=0.001,
                        span=_closed_span())
        slow = _observe(recorder, elapsed=0.05,
                        span=_closed_span())
        assert fast.retained is None and fast.trace_id is None
        assert slow.retained == RETAIN_SLOW

    def test_head_sampling_is_seeded(self):
        def retained_flags(seed):
            recorder = FlightRecorder(RecorderConfig(
                slow_ms=None, sample_rate=0.5, seed=seed))
            return [_observe(recorder, span=_closed_span()).retained
                    for _ in range(20)]

        first, second = retained_flags(42), retained_flags(42)
        assert first == second
        assert RETAIN_HEAD in first and None in first

    def test_zero_rate_drops_ordinary_traces(self):
        recorder = FlightRecorder(RecorderConfig(slow_ms=None,
                                                 sample_rate=0.0))
        for _ in range(10):
            profile = _observe(recorder, span=_closed_span())
            assert profile.retained is None
        assert recorder.trace_ids() == []

    def test_trace_store_bounded_by_max_traces(self):
        recorder = FlightRecorder(RecorderConfig(
            slow_ms=None, sample_rate=1.0, max_traces=2, seed=1))
        obs = Observability(recorder=recorder)
        for _ in range(5):
            _observe(obs, span=_closed_span())
        assert len(recorder.trace_ids()) == 2
        assert recorder.traces_retained == 5
        assert recorder.traces_dropped == 3
        # record_query counts both sides from the recorder's state
        assert obs.metrics.get(TRACES_RETAINED).value == 5
        assert obs.metrics.get(TRACES_DROPPED).value == 3


class TestChromeExport:
    def test_span_to_events_shapes(self):
        events = span_to_events(_closed_span(), pid=7)
        assert [e["name"] for e in events] == ["execute", "scan"]
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 7
            assert event["dur"] >= 0
            assert event["ts"] >= 0

    def test_chrome_trace_document_is_valid_json(self):
        recorder = FlightRecorder(RecorderConfig(slow_ms=0.0))
        profile = _observe(recorder, span=_closed_span())
        doc = recorder.chrome_trace(profile.trace_id)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["metadata"]["trace_id"] == profile.trace_id
        json.loads(json.dumps(doc))

    def test_chrome_trace_missing_id(self):
        recorder = FlightRecorder()
        assert recorder.chrome_trace("nope") is None


class TestCalibration:
    def test_cost_ratio_per_profile(self):
        profile = QueryProfile(ts=0.0, query_id="q", document="d",
                               terms=("a",), filter="true",
                               strategy="pushdown", answers=1,
                               wall_ms=1.0, cpu_ms=1.0,
                               predicted_cost=10.0, actual_cost=15.0)
        assert profile.cost_ratio == pytest.approx(1.5)

    def test_publish_calibration_sets_gauges(self):
        obs = Observability(
            recorder=FlightRecorder(RecorderConfig(slow_ms=None)))
        metrics = obs.metrics
        _observe(obs, predicted=10.0, answers=2,
                 stats={"fragment_joins": 10})
        ratios = obs.publish_calibration()
        # measured cost = answers + joins = 12, predicted = 10
        assert ratios["pushdown"] == pytest.approx(1.2)
        gauge = metrics.get(COST_CALIBRATION,
                            labels={"strategy": "pushdown"})
        assert gauge.value == pytest.approx(1.2)
        assert metrics.get(COST_PREDICTED,
                           labels={"strategy": "pushdown"}).value == 10.0
        assert metrics.get(COST_ACTUAL,
                           labels={"strategy": "pushdown"}).value == 12.0

    def test_all_four_strategies_produce_calibration_samples(self):
        from repro.workloads.figure1 import build_figure1_document
        document = build_figure1_document()
        index = InvertedIndex(document)
        query = Query.of("xquery", "optimization",
                         predicate=SizeAtMost(3))
        obs = Observability(
            recorder=FlightRecorder(RecorderConfig(slow_ms=None)))
        for name in ALL_STRATEGIES:
            evaluate(document, query, strategy=Strategy.parse(name),
                     index=index, obs=obs)
        ratios = obs.publish_calibration()
        assert set(ratios) == set(ALL_STRATEGIES)
        assert all(r > 0 for r in ratios.values())
        prom = obs.metrics.to_prometheus()
        for name in ALL_STRATEGIES:
            assert (f'repro_cost_calibration_ratio{{strategy="{name}"}}'
                    in prom)

    def test_prediction_follows_the_document_not_its_id(self, tmp_path):
        """A shard index's LRU evicts and rebuilds trees, so an ``id()``
        can come back as a different document: every profile is costed
        against the document and plan it was evaluated with."""
        from repro.core.cost import CostModel
        from repro.core.strategies import _physical_plan
        from repro.storage.shards import ShardIndex, build_index
        from repro.xmltree.parser import parse

        def article(name, repeats):
            body = "".join(f"<p>alpha {i}</p><p>beta {i}</p>"
                           for i in range(repeats))
            return parse(f"<a>{body}</a>", name=name)

        build_index({"sparse": article("sparse", 1),
                     "dense": article("dense", 6)}, tmp_path / "idx",
                    shards=1)
        query = Query.of("alpha", "beta", predicate=SizeAtMost(4))
        obs = Observability(
            recorder=FlightRecorder(RecorderConfig(slow_ms=None)))
        expected = []
        with ShardIndex.attach(tmp_path / "idx", cache_limit=1) as source:
            for name in ("sparse", "dense") * 4:
                index = source.inverted_index(name)
                evaluate(index.document, query, index=index, obs=obs)
                plan = _physical_plan(query, Strategy.PUSHDOWN, index)
                expected.append(CostModel(index.document, index=index)
                                .estimate(plan).cost)
        assert len(set(expected)) == 2
        assert [p.predicted_cost for p in obs.recorder.profiles] \
            == expected

    def test_run_plan_lands_a_profile_carrying_its_plan(self):
        """Every entry point is one run, and a run records the label of
        the plan it ran — for a stream, the strategy's plan under the
        consumer's ``extra_predicate``."""
        from repro.core.evaluator import run_plan
        from repro.core.filters import SizeAtLeast
        from repro.core.strategies import (_physical_plan,
                                           explain_analyze, plan_for)
        from repro.core.streaming import stream_evaluate
        from repro.workloads.figure1 import build_figure1_document
        document = build_figure1_document()
        index = InvertedIndex(document)
        query = Query.of("xquery", "optimization",
                         predicate=SizeAtMost(3))
        plan = plan_for(query)
        extra = SizeAtLeast(2)  # not anti-monotonic: selected on top
        streamed = _physical_plan(query, Strategy.PUSHDOWN, index, extra)
        assert streamed.label() == "σ[size>=2]" != plan.label()
        obs = Observability(recorder=FlightRecorder())
        run_plan(document, query, plan, index=index, obs=obs)
        evaluate(document, query, index=index, obs=obs)
        explain_analyze(document, query, index=index, obs=obs,
                        strategy=Strategy.SET_REDUCTION)
        list(stream_evaluate(document, query, index=index, obs=obs,
                             extra_predicate=extra))
        profiles = obs.recorder.profiles
        assert [(p.strategy, p.plan) for p in profiles] == [
            ("plan", plan.label()), ("pushdown", plan.label()),
            ("set-reduction", plan.label()),
            ("stream-pushdown", streamed.label())]
        assert profiles[0].to_dict()["plan"] == plan.label()
        # One kind of record: each carries CPU and the §5 prediction.
        assert all(p.predicted_cost and p.cpu_ms >= 0 for p in profiles)


class TestBudgetAbort:
    def test_aborted_query_yields_retained_profile(self):
        from repro.workloads.figure1 import build_figure1_document
        document = build_figure1_document()
        index = InvertedIndex(document)
        obs = Observability(
            recorder=FlightRecorder(RecorderConfig()))
        with pytest.raises(BudgetExceeded):
            evaluate(document, Query.of("xquery", "optimization"),
                     strategy=Strategy.SET_REDUCTION, index=index,
                     obs=obs, budget=QueryBudget(max_join_ops=1))
        (profile,) = obs.recorder.profiles
        assert profile.outcome == "budget-exceeded"
        assert profile.reason == "join-ops"
        assert profile.retained == RETAIN_BUDGET
        assert profile.checkpoints >= 1
        doc = obs.recorder.chrome_trace(profile.trace_id)
        assert any(e["name"] == "execute" for e in doc["traceEvents"])


class TestDumpAndLoad:
    def test_jsonl_round_trip(self, tmp_path):
        recorder = FlightRecorder(RecorderConfig(slow_ms=0.0))
        _observe(recorder, predicted=8.0,
                 span=_closed_span())
        _observe(recorder, outcome="error")
        path = tmp_path / "dump.jsonl"
        lines = recorder.dump(path)
        assert lines == 2 + len(recorder.trace_ids())
        profiles, traces = load_dump(path)
        assert [p.outcome for p in profiles] == ["ok", "error"]
        assert profiles[0].predicted_cost == 8.0
        assert set(traces) == set(recorder.trace_ids())

    def test_load_dump_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        good = json.dumps({"type": "profile", "query_id": "q1",
                           "strategy": "pushdown", "wall_ms": 1.0})
        path.write_text(f"not json\n{good}\n{{\"type\": \"junk\"}}\n",
                        encoding="utf-8")
        profiles, traces = load_dump(path)
        assert [p.query_id for p in profiles] == ["q1"]
        assert traces == {}

    def test_dump_hook_writes_on_signal(self, tmp_path):
        script = textwrap.dedent("""
            import os, signal, sys, time
            from repro.obs import FlightRecorder, RecorderConfig
            recorder = FlightRecorder(RecorderConfig(slow_ms=None))
            recorder.observe(document="d", terms=("a",), filter="true",
                             strategy="pushdown", answers=1,
                             elapsed=0.001)
            recorder.install_dump_hook(sys.argv[1])
            print("armed", flush=True)
            time.sleep(30)
        """)
        dump = tmp_path / "abort.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"),) if p]
            + [os.path.join(os.path.dirname(__file__), os.pardir,
                            os.pardir, "src")])
        proc = subprocess.Popen([sys.executable, "-c", script,
                                 str(dump)], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            assert proc.stdout.readline().strip() == "armed"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        profiles, _ = load_dump(dump)
        assert len(profiles) == 1

    def test_uninstall_disarms_the_hook(self, tmp_path):
        recorder = FlightRecorder(RecorderConfig(slow_ms=None))
        _observe(recorder)
        path = tmp_path / "never.jsonl"
        uninstall = recorder.install_dump_hook(path, signals=())
        uninstall()
        uninstall()  # idempotent
        assert not path.exists()


class TestIngest:
    def test_snapshot_counts(self):
        recorder = FlightRecorder(RecorderConfig(ring_size=2,
                                                 slow_ms=None))
        for _ in range(3):
            _observe(recorder)
        snap = recorder.snapshot()
        assert snap["counts"] == {
            "recorded": 3, "evicted": 1, "in_ring": 2,
            "traces_retained": 0, "traces_dropped": 0,
            "traces_in_store": 0}
        assert snap["outcomes"] == {"ok": 2}
        assert len(snap["profiles"]) == 2


class TestDumpHookRegistry:
    """Regressions for the process-wide dump-hook ledger: hooks must
    be idempotent per recorder, re-registration-safe, and must fully
    restore signal dispositions when the last hook is removed."""

    def test_reinstall_replaces_the_previous_path(self, tmp_path):
        from repro.obs.recorder import _DUMP_HOOKS

        recorder = FlightRecorder(RecorderConfig(slow_ms=None))
        _observe(recorder)
        stale = tmp_path / "stale.jsonl"
        fresh = tmp_path / "fresh.jsonl"
        uninstall_stale = recorder.install_dump_hook(stale, signals=())
        uninstall = recorder.install_dump_hook(fresh, signals=())
        try:
            _DUMP_HOOKS._dump_all()
            # The re-registered path wins; the stale one never fires.
            assert fresh.exists()
            assert not stale.exists()
        finally:
            uninstall()
            uninstall_stale()  # stale token: must be a quiet no-op
        profiles, _ = load_dump(fresh)
        assert len(profiles) == 1

    def test_each_recorder_dumps_at_most_once(self, tmp_path):
        from repro.obs.recorder import _DUMP_HOOKS

        recorder = FlightRecorder(RecorderConfig(slow_ms=None))
        _observe(recorder)
        path = tmp_path / "once.jsonl"
        uninstall = recorder.install_dump_hook(path, signals=())
        try:
            _DUMP_HOOKS._dump_all()
            first = path.read_bytes()
            _observe(recorder)
            _DUMP_HOOKS._dump_all()  # second trigger: already dumped
            assert path.read_bytes() == first
        finally:
            uninstall()

    def test_two_recorders_both_dump(self, tmp_path):
        from repro.obs.recorder import _DUMP_HOOKS

        paths = []
        uninstalls = []
        try:
            for name in ("a", "b"):
                recorder = FlightRecorder(RecorderConfig(slow_ms=None))
                _observe(recorder)
                path = tmp_path / f"{name}.jsonl"
                paths.append(path)
                uninstalls.append(
                    recorder.install_dump_hook(path, signals=()))
            _DUMP_HOOKS._dump_all()
            for path in paths:
                profiles, _ = load_dump(path)
                assert len(profiles) == 1
        finally:
            for uninstall in uninstalls:
                uninstall()

    def test_signal_disposition_restored_after_last_uninstall(
            self, tmp_path):
        import signal as signal_module

        from repro.obs.recorder import _DUMP_HOOKS

        signum = signal_module.SIGUSR1
        before = signal_module.getsignal(signum)
        recorder = FlightRecorder(RecorderConfig(slow_ms=None))
        first = recorder.install_dump_hook(tmp_path / "a.jsonl",
                                           signals=(signum,))
        installed = signal_module.getsignal(signum)
        assert installed == _DUMP_HOOKS._on_signal
        # A second recorder on the same signal: one dispatcher, ever.
        other = FlightRecorder(RecorderConfig(slow_ms=None))
        second = other.install_dump_hook(tmp_path / "b.jsonl",
                                         signals=(signum,))
        assert signal_module.getsignal(signum) == installed
        first()
        # One hook still registered: the dispatcher stays armed.
        assert signal_module.getsignal(signum) == installed
        second()
        # Last hook gone: the original disposition is back.
        assert signal_module.getsignal(signum) == before
        # A later install re-arms from scratch.
        third = other.install_dump_hook(tmp_path / "c.jsonl",
                                        signals=(signum,))
        assert signal_module.getsignal(signum) == _DUMP_HOOKS._on_signal
        third()
        assert signal_module.getsignal(signum) == before
