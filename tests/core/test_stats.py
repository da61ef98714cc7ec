"""Unit tests for OperationStats."""

from __future__ import annotations

from repro.core.stats import OperationStats


class TestOperationStats:
    def test_defaults_zero(self):
        stats = OperationStats()
        assert stats.fragment_joins == 0
        assert stats.as_dict()["iterations"] == 0

    def test_reset(self):
        stats = OperationStats(fragment_joins=3, predicate_checks=1)
        stats.extras["custom"] = 9
        stats.reset()
        assert stats.fragment_joins == 0
        assert stats.extras == {}

    def test_merge(self):
        a = OperationStats(fragment_joins=1, iterations=2)
        b = OperationStats(fragment_joins=4, subset_checks=3)
        b.extras["x"] = 1
        a.merge(b)
        assert a.fragment_joins == 5
        assert a.iterations == 2
        assert a.subset_checks == 3
        assert a.extras["x"] == 1

    def test_merge_extras_accumulate(self):
        a = OperationStats()
        a.extras["x"] = 1
        b = OperationStats()
        b.extras["x"] = 2
        a.merge(b)
        assert a.extras["x"] == 3

    def test_as_dict_includes_extras(self):
        stats = OperationStats()
        stats.extras["rounds"] = 7
        assert stats.as_dict()["rounds"] == 7


class TestSnapshotDelta:
    def test_snapshot_is_independent(self):
        stats = OperationStats(fragment_joins=2)
        stats.extras["rounds"] = 1
        frozen = stats.snapshot()
        stats.fragment_joins += 5
        stats.extras["rounds"] += 3
        assert frozen.fragment_joins == 2
        assert frozen.extras == {"rounds": 1}

    def test_delta_reports_work_since_snapshot(self):
        stats = OperationStats(fragment_joins=10, predicate_checks=4)
        frozen = stats.snapshot()
        stats.fragment_joins += 3
        stats.subset_checks += 7
        diff = stats.delta(frozen)
        assert diff.fragment_joins == 3
        assert diff.subset_checks == 7
        assert diff.predicate_checks == 0

    def test_delta_extras_differenced_and_zero_dropped(self):
        stats = OperationStats()
        stats.extras["rounds"] = 2
        stats.extras["steady"] = 5
        frozen = stats.snapshot()
        stats.extras["rounds"] = 6
        stats.extras["fresh"] = 1
        diff = stats.delta(frozen)
        assert diff.extras == {"rounds": 4, "fresh": 1}

    def test_delta_of_unchanged_stats_is_all_zero(self):
        stats = OperationStats(fragment_joins=9, iterations=2)
        diff = stats.delta(stats.snapshot())
        assert all(value == 0 for value in diff.as_dict().values())

    def test_snapshot_then_merge_roundtrip(self):
        stats = OperationStats(fragment_joins=1)
        frozen = stats.snapshot()
        stats.fragment_joins += 4
        rebuilt = frozen.snapshot()
        rebuilt.merge(stats.delta(frozen))
        assert rebuilt.as_dict() == stats.as_dict()
