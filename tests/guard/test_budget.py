"""Tests for repro.guard.budget: limits, checkpoints, determinism."""

from __future__ import annotations

import pickle

import pytest

from repro.core.query import Query
from repro.core.strategies import Strategy, evaluate
from repro.errors import BudgetExceeded, ReproError
from repro.guard.budget import QueryBudget, effective_budget
from repro.obs import (GUARD_BUDGET_EXCEEDED, QUERIES_TOTAL,
                       FlightRecorder, Observability)
from repro.xmltree.parser import parse


def pathological_document(siblings: int = 12):
    """N siblings that all match both terms: the fixed point has
    2**N fragments (the paper's Definition 6 blow-up), so a tight
    budget must abort long before completion."""
    parts = "".join(f"<b{i}>red pear</b{i}>" for i in range(siblings))
    return parse(f"<a>{parts}</a>")


@pytest.fixture()
def small_doc():
    return parse("<a><b>red pear</b><c>red</c><d>pear tree</d></a>")


class TestQueryBudgetUnit:
    def test_join_ops_limit_raises_with_progress(self):
        budget = QueryBudget(max_join_ops=10)
        budget.start()
        with pytest.raises(BudgetExceeded) as excinfo:
            for _ in range(100):
                budget.tick()
        exc = excinfo.value
        assert exc.reason == "join-ops"
        assert exc.progress["join_ops"] == 11
        assert isinstance(exc, ReproError)

    def test_deadline_checked_amortised(self):
        budget = QueryBudget(deadline_s=1.0, check_interval=4)
        budget.start()
        budget._deadline_at = budget.started_at  # expire immediately
        # The first (interval - 1) ticks never read the clock.
        for _ in range(3):
            budget.tick()
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.tick()
        assert excinfo.value.reason == "deadline"

    def test_poll_checks_deadline_without_charging_work(self):
        budget = QueryBudget(deadline_s=60.0, max_join_ops=5,
                             check_interval=1)
        budget.start()
        for _ in range(50):
            budget.poll()
        assert budget.join_ops == 0

    def test_live_fragment_and_candidate_limits(self):
        budget = QueryBudget(max_live_fragments=3, max_candidates=4)
        budget.start()
        budget.admit_live(3)
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.admit_live(4)
        assert excinfo.value.reason == "live-fragments"
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.admit_candidates(5)
        assert excinfo.value.reason == "candidates"

    def test_fresh_item_clones_limits_but_keeps_deadline(self):
        budget = QueryBudget(deadline_s=60.0, max_join_ops=10)
        budget.start()
        for _ in range(10):
            budget.tick()
        child = budget.fresh_item()
        assert child.join_ops == 0
        assert child.max_join_ops == 10
        # The deadline is absolute: the child inherits the parent's.
        assert child._deadline_at == budget._deadline_at
        child.tick(10)
        with pytest.raises(BudgetExceeded):
            child.tick()

    def test_start_is_idempotent(self):
        budget = QueryBudget(deadline_s=60.0)
        budget.start()
        first = budget.started_at
        budget.start()
        assert budget.started_at == first

    def test_effective_budget_combines_and_tightens(self):
        assert effective_budget(None, None) is None
        only_ms = effective_budget(None, 50.0)
        assert only_ms.deadline_s == pytest.approx(0.05)
        loose = QueryBudget(deadline_s=10.0, max_join_ops=7)
        combined = effective_budget(loose, 50.0)
        assert combined.deadline_s == pytest.approx(0.05)
        assert combined.max_join_ops == 7
        # deadline_ms can only tighten, never loosen.
        tight = QueryBudget(deadline_s=0.01)
        kept = effective_budget(tight, 60_000.0)
        assert kept.deadline_s == pytest.approx(0.01)

    def test_budget_exceeded_pickles(self):
        budget = QueryBudget(max_join_ops=1)
        budget.start()
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.tick(5)
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert clone.reason == "join-ops"
        assert clone.progress == excinfo.value.progress
        assert clone.to_dict()["error"] == "budget-exceeded"


class TestGuardedEvaluation:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_generous_budget_is_bit_identical(self, small_doc, strategy):
        query = Query.of("red", "pear")
        unguarded = evaluate(small_doc, query, strategy=strategy)
        guarded = evaluate(small_doc, query, strategy=strategy,
                           budget=QueryBudget(deadline_s=300.0,
                                              max_join_ops=10**9))
        assert guarded.fragments == unguarded.fragments
        assert guarded.stats == unguarded.stats

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_join_ops_budget_aborts_blowup(self, strategy):
        document = pathological_document()
        with pytest.raises(BudgetExceeded) as excinfo:
            evaluate(document, Query.of("red", "pear"),
                     strategy=strategy,
                     budget=QueryBudget(max_join_ops=500))
        assert excinfo.value.reason in ("join-ops", "candidates",
                                        "live-fragments")

    @pytest.mark.timeout(30)
    def test_deadline_aborts_within_factor(self):
        import time
        document = pathological_document()
        deadline_s = 0.2
        started = time.monotonic()
        with pytest.raises(BudgetExceeded) as excinfo:
            evaluate(document, Query.of("red", "pear"),
                     strategy=Strategy.BRUTE_FORCE,
                     budget=QueryBudget(deadline_s=deadline_s))
        elapsed = time.monotonic() - started
        assert excinfo.value.reason == "deadline"
        # The acceptance criterion: abort within 1.5x the deadline.
        assert elapsed < deadline_s * 1.5

    def test_live_fragments_budget_aborts_blowup(self):
        document = pathological_document()
        with pytest.raises(BudgetExceeded):
            evaluate(document, Query.of("red", "pear"),
                     strategy=Strategy.SET_REDUCTION,
                     budget=QueryBudget(max_live_fragments=200))


class TestAbortDeterminism:
    """An aborted query must leave telemetry consistent: one
    ``budget-exceeded`` profile with its trace, no half-counted
    metrics — and re-running with a generous budget must match the
    unguarded run exactly."""

    def test_aborted_query_is_recorded_as_budget_exceeded(self, small_doc):
        document = pathological_document()
        obs = Observability(recorder=FlightRecorder())
        with pytest.raises(BudgetExceeded):
            evaluate(document, Query.of("red", "pear"),
                     strategy=Strategy.BRUTE_FORCE, obs=obs,
                     budget=QueryBudget(max_join_ops=100))
        (profile,) = obs.recorder.profiles
        assert (profile.outcome, profile.reason, profile.answers) \
            == ("budget-exceeded", "join-ops", 0)
        assert obs.recorder.chrome_trace(profile.trace_id)["traceEvents"]
        assert obs.metrics.get(QUERIES_TOTAL) is None

    def test_rerun_after_abort_matches_unguarded(self, small_doc):
        query = Query.of("red", "pear")
        document = pathological_document(siblings=6)
        obs = Observability(recorder=FlightRecorder())
        with pytest.raises(BudgetExceeded):
            evaluate(document, query, strategy=Strategy.BRUTE_FORCE,
                     obs=obs, budget=QueryBudget(max_join_ops=50))
        baseline = evaluate(document, query,
                            strategy=Strategy.BRUTE_FORCE)
        rerun = evaluate(document, query, strategy=Strategy.BRUTE_FORCE,
                         obs=obs,
                         budget=QueryBudget(max_join_ops=10**9))
        assert rerun.fragments == baseline.fragments
        assert rerun.stats == baseline.stats
        # Two profiles, one finished query: the successful re-run.
        aborted, finished = obs.recorder.profiles
        assert aborted.outcome == "budget-exceeded"
        assert finished.answers == len(baseline.fragments)
        assert obs.metrics.counter(QUERIES_TOTAL).value == 1


class TestCollectionAccounting:
    def test_collection_counts_budget_exceeded_once(self):
        from repro.collection.collection import DocumentCollection

        parts = "".join(f"<b{i}>red pear</b{i}>" for i in range(12))
        collection = DocumentCollection("c")
        collection.add_xml(f"<a>{parts}</a>", name="patho")
        obs = Observability()
        with pytest.raises(BudgetExceeded):
            collection.search(Query.of("red", "pear"),
                              strategy=Strategy.BRUTE_FORCE, obs=obs,
                              budget=QueryBudget(max_join_ops=500))
        counter = obs.metrics.get(GUARD_BUDGET_EXCEEDED)
        assert counter is not None and counter.value == 1
