"""The query log is the flight recorder's ring: record fields, the slow
threshold, the JSONL sink and ring eviction, on the one per-query
record (`QueryProfile`)."""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.obs import FlightRecorder, QueryProfile, RecorderConfig
from repro.obs.recorder import load_dump


def _log(sink=None, clock=time.time, **config) -> FlightRecorder:
    config.setdefault("slow_ms", None)
    return FlightRecorder(RecorderConfig(**config), sink=sink, clock=clock)


def _record(log, *, elapsed=0.002, **overrides):
    fields = dict(document="figure1", terms=("xquery", "optimization"),
                  filter="size<=3", strategy="pushdown", answers=4,
                  elapsed=elapsed, stats={"fragment_joins": 7})
    fields.update(overrides)
    return log.observe(**fields)


class TestRecordFields:
    def test_record_carries_the_query(self):
        log = _log(clock=lambda: 1234.5)
        record = _record(log, plan="Project(Join)")
        assert record == QueryProfile(
            ts=1234.5, query_id=record.query_id, document="figure1",
            terms=("xquery", "optimization"), filter="size<=3",
            strategy="pushdown", answers=4, wall_ms=2.0, cpu_ms=0.0,
            join_ops=7, stats={"fragment_joins": 7},
            plan="Project(Join)")
        assert not log.is_slow(record)

    def test_to_dict_rounds_and_omits_absent_plan(self):
        log = _log(clock=lambda: 1.0)
        payload = _record(log, elapsed=0.00123456).to_dict()
        assert payload["wall_ms"] == 1.2346
        assert "plan" not in payload

    def test_to_json_parses_back(self):
        log = _log(clock=lambda: 1.0)
        record = _record(log, plan="Project(Join)")
        parsed = json.loads(record.to_json())
        assert parsed["type"] == "profile"
        assert parsed["terms"] == ["xquery", "optimization"]
        assert parsed["stats"] == {"fragment_joins": 7}
        assert QueryProfile.from_dict(parsed) == record


class TestSlowThreshold:
    def test_threshold_is_inclusive(self):
        log = _log(slow_ms=50)
        assert not log.is_slow(_record(log, elapsed=0.049))
        assert log.is_slow(_record(log, elapsed=0.050))
        assert log.is_slow(_record(log, elapsed=0.051))
        assert [p.wall_ms for p in log.slow_profiles()] == [50.0, 51.0]

    def test_no_threshold_means_nothing_is_slow(self):
        log = _log()
        assert not log.is_slow(_record(log, elapsed=10.0))
        assert log.slow_profiles() == []

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            RecorderConfig(slow_ms=-1)


class TestSinks:
    def test_file_like_sink_gets_jsonl(self, tmp_path):
        sink = io.StringIO()
        log = _log(sink=sink, clock=lambda: 1234.5)
        _record(log)
        _record(log, strategy="brute-force")
        lines = sink.getvalue().splitlines()
        assert [json.loads(l)["strategy"] for l in lines] \
            == ["pushdown", "brute-force"]
        # The sink's lines are the dump format: load_dump reads them.
        path = tmp_path / "queries.jsonl"
        path.write_text(sink.getvalue(), encoding="utf-8")
        profiles, traces = load_dump(path)
        assert profiles == log.profiles and traces == {}

    def test_callable_sink_gets_bare_lines(self):
        seen = []
        log = _log(sink=seen.append)
        _record(log)
        assert len(seen) == 1
        assert not seen[0].endswith("\n")
        assert json.loads(seen[0])["document"] == "figure1"

    def test_no_sink_keeps_records_in_memory_only(self):
        log = _log()
        _record(log)
        assert len(log.profiles) == 1

class TestRing:
    def test_ring_drops_oldest(self):
        log = _log(ring_size=3)
        for answers in range(5):
            _record(log, answers=answers)
        assert [r.answers for r in log.profiles] == [2, 3, 4]
        assert len(log) == 3

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            RecorderConfig(ring_size=0)


class TestEvictionAccounting:
    def test_evicted_counter_and_max_records(self):
        log = _log(ring_size=3)
        assert log.evicted == 0
        for answers in range(5):
            _record(log, answers=answers)
        assert log.evicted == 2
        assert log.recorded == 5
        assert len(log) == 3

    def test_no_eviction_below_capacity(self):
        log = _log(ring_size=10)
        _record(log)
        _record(log)
        assert log.evicted == 0
