"""Fault-tolerance tests for the parallel executor.

The resilience contract: whatever faults hit the pool — crashed
workers, hung chunks, transiently failing chunks — the caller gets the
exact serial result, or (only with ``fallback="never"``) a clean
:class:`~repro.errors.ExecutionError`.  Faults are injected through
:mod:`repro.exec.faults`, which is deterministic per (chunk, attempt).

Every pooled test carries a hard ``timeout`` marker (see
``tests/conftest.py``): a regression that wedges the pool should fail
loudly, not hang CI.
"""

from __future__ import annotations

import pytest

from repro.core.query import Query
from repro.errors import ExecutionError
from repro.exec import (BatchRunner, FaultPlan, FaultRule,
                        ParallelExecutor, RetryPolicy)
from repro.exec.faults import (FLAKY_CHUNK, HANG_WORKER, KILL_WORKER,
                               apply_fault)
from repro.obs import (CHUNK_FALLBACKS, CHUNK_RETRIES, CHUNK_TIMEOUTS,
                       EXEC_DEGRADED, POOL_RESPAWNS, WORKER_CRASHES,
                       Observability)
from repro.workloads.inexlike import InexSpec, generate_collection

pytestmark = pytest.mark.timeout(120)

FAST = dict(backoff_s=0.01, jitter=0.0)


@pytest.fixture(scope="module")
def corpus():
    return generate_collection(
        InexSpec(articles=6, nodes_per_article=140, seed=7))


@pytest.fixture(scope="module")
def documents(corpus):
    return {name: corpus.document(name) for name in corpus.names()}


@pytest.fixture(scope="module")
def queries():
    return [Query(("needle", "thread")), Query(("needle",))]


@pytest.fixture(scope="module")
def serial(corpus, queries):
    return [corpus.search(q) for q in queries]


def _sig(result):
    return [(hit.document_name, tuple(sorted(hit.fragment.nodes)))
            for hit in result.hits]


def _assert_identical(results, serial):
    assert [_sig(r) for r in results] == [_sig(r) for r in serial]
    for got, expected in zip(results, serial):
        assert list(got.per_document) == list(expected.per_document)
        for name, want in expected.per_document.items():
            assert got.per_document[name].fragments == want.fragments


class TestKilledWorker:
    def test_pool_respawns_and_results_match(self, documents, queries,
                                             serial):
        obs = Observability()
        with ParallelExecutor(
                documents, workers=2, obs=obs,
                resilience=RetryPolicy(**FAST),
                faults=FaultPlan(FaultRule.kill(chunk=0))) as ex:
            results = ex.run(queries)
        _assert_identical(results, serial)
        report = ex.last_report
        assert report.crashes >= 1
        assert report.respawns >= 1
        assert report.retries >= 1
        assert not report.degraded
        assert obs.metrics.get(POOL_RESPAWNS).value >= 1
        assert obs.metrics.get(WORKER_CRASHES).value >= 1
        assert obs.metrics.get(EXEC_DEGRADED).value == 0

    def test_repeated_kills_fall_back_serially(self, documents, queries,
                                               serial):
        # Chunk 0 dies on every attempt: exhaust retries, then the
        # parent evaluates it in-process — results still identical.
        with ParallelExecutor(
                documents, workers=2,
                resilience=RetryPolicy(max_retries=1, **FAST),
                faults=FaultPlan(
                    FaultRule.kill(chunk=0, times=99))) as ex:
            results = ex.run(queries)
        _assert_identical(results, serial)
        assert ex.degraded
        assert ex.last_report.fallback_chunks == 1
        assert ex.last_report.fallback_items > 0


class TestHungWorker:
    def test_deadline_times_out_hung_chunk(self, documents, queries,
                                           serial):
        obs = Observability()
        with ParallelExecutor(
                documents, workers=2, obs=obs,
                resilience=RetryPolicy(timeout_s=0.75, **FAST),
                faults=FaultPlan(
                    FaultRule.hang(chunk=0, hang_s=30))) as ex:
            results = ex.run(queries)
        _assert_identical(results, serial)
        report = ex.last_report
        assert report.timeouts == 1
        assert report.respawns >= 1  # hung worker is terminated
        assert not report.degraded
        assert obs.metrics.get(CHUNK_TIMEOUTS).value == 1

    def test_short_hang_within_deadline_succeeds(self, documents,
                                                 queries, serial):
        with ParallelExecutor(
                documents, workers=2,
                resilience=RetryPolicy(timeout_s=30.0, **FAST),
                faults=FaultPlan(
                    FaultRule.hang(chunk=0, hang_s=0.1))) as ex:
            results = ex.run(queries)
        _assert_identical(results, serial)
        assert ex.last_report.clean


class TestFlakyChunk:
    def test_retry_recovers_transient_failure(self, documents, queries,
                                              serial):
        obs = Observability()
        with ParallelExecutor(
                documents, workers=2, obs=obs,
                resilience=RetryPolicy(max_retries=2, **FAST),
                faults=FaultPlan(
                    FaultRule.flaky(chunk=0, times=2))) as ex:
            results = ex.run(queries)
        _assert_identical(results, serial)
        report = ex.last_report
        assert report.retries == 2
        assert report.crashes == 0 and report.timeouts == 0
        assert not report.degraded
        assert obs.metrics.get(CHUNK_RETRIES).value == 2

    def test_every_chunk_degrades_to_serial(self, documents, queries,
                                            serial):
        # chunk=None matches every chunk, times=99 beats any retry
        # budget: the whole run degrades and must still be identical.
        obs = Observability()
        with ParallelExecutor(
                documents, workers=2, obs=obs,
                resilience=RetryPolicy(max_retries=1, **FAST),
                faults=FaultPlan(
                    FaultRule.flaky(chunk=None, times=99))) as ex:
            results = ex.run(queries)
            _assert_identical(results, serial)
            assert ex.degraded
            assert ex.last_report.fallback_chunks > 0
            assert obs.metrics.get(EXEC_DEGRADED).value == 1
            assert (obs.metrics.get(CHUNK_FALLBACKS).value
                    == ex.last_report.fallback_chunks)
            # A clean follow-up run on the same pool resets the gauge.
            again = ex.run(queries, faults=FaultPlan())
            _assert_identical(again, serial)
            assert not ex.degraded
            assert obs.metrics.get(EXEC_DEGRADED).value == 0

    def test_fallback_never_raises(self, documents, queries):
        with ParallelExecutor(
                documents, workers=2,
                resilience=RetryPolicy(max_retries=1, fallback="never",
                                       **FAST),
                faults=FaultPlan(
                    FaultRule.flaky(chunk=0, times=99))) as ex:
            with pytest.raises(ExecutionError, match="fallback is "
                                                     "disabled"):
                ex.run(queries)


class TestCrashAttribution:
    def test_a_crash_is_charged_to_the_chunk_that_crashed(self, documents):
        """Chunk 0 only sleeps, inside any deadline, while chunk 1's
        worker dies: the crash is charged to chunk 1 alone, never to
        the chunk that happened to be collected first, so nothing
        exhausts its retries or degrades."""
        plan = FaultPlan(FaultRule.hang(chunk=0, hang_s=0.5),
                         FaultRule.kill(chunk=1))
        for _ in range(10):
            with ParallelExecutor(documents, workers=2,
                                  resilience=RetryPolicy(**FAST),
                                  faults=plan) as ex:
                ex.search(Query(("needle",)))
            report = ex.last_report
            assert report.crashes >= 1
            assert report.failures
            assert all(failure.startswith("chunk 1 ")
                       for failure in report.failures), report.failures
            assert report.fallback_chunks == 0
            assert not report.degraded


class TestDeterminismUnderFaults:
    def test_degraded_results_are_bit_identical(self, corpus):
        # The acceptance bar: kill + hang + flaky in one run, results
        # indistinguishable from serial, repeated for stability.  The
        # query has 6 candidate documents, so 6 one-item chunks, and
        # every rule fires.
        query = Query(("article",))
        serial = corpus.search(query)
        plan = FaultPlan(FaultRule.kill(chunk=1),
                         FaultRule.hang(chunk=2, hang_s=30),
                         FaultRule.flaky(chunk=3, times=1))
        for _ in range(2):
            obs = Observability()
            results = corpus.search(
                query, workers=2, obs=obs,
                resilience=RetryPolicy(timeout_s=1.0, **FAST),
                faults=plan)
            assert _sig(results) == _sig(serial)
            assert len(results.per_document) == 6
            assert obs.metrics.get(WORKER_CRASHES).value >= 1
            assert obs.metrics.get(CHUNK_TIMEOUTS).value == 1
            assert obs.metrics.get(CHUNK_RETRIES).value == 3
            assert obs.metrics.get(CHUNK_FALLBACKS).value == 0

    def test_ranked_search_with_faults(self, corpus, queries):
        expected = corpus.ranked_search(queries[1], limit=8)
        assert len(expected) == 8
        obs = Observability()
        got = corpus.ranked_search(
            queries[1], limit=8, workers=2, obs=obs,
            resilience=RetryPolicy(**FAST),
            faults=FaultPlan(FaultRule.kill(chunk=0)))
        assert ([(n, s.fragment.nodes, s.score) for n, s in got]
                == [(n, s.fragment.nodes, s.score) for n, s in expected])
        assert obs.metrics.get(WORKER_CRASHES).value >= 1

    @pytest.mark.parametrize("kind", ("memory", "mutable"))
    @pytest.mark.parametrize("limit", (1, 5))
    def test_streamed_top_k_with_a_retried_wave(self, documents, queries,
                                                tmp_path, kind, limit):
        """Each pooled β round is one pooled search: a killed first
        chunk is retried in a second wave of the same round, and the
        stream still equals the serial prefix."""
        from repro.collection.collection import DocumentCollection
        from repro.collection.mutable import MutableDocumentCollection

        if kind == "memory":
            collection = DocumentCollection()
            for name, document in documents.items():
                collection.add(document, name)
        else:
            collection = MutableDocumentCollection.create(
                tmp_path / "live.idx", documents, shards=3)
        obs = Observability()
        with collection:
            want = [(hit.document_name, hit.fragment.nodes)
                    for hit in collection.search(queries[1]).hits[:limit]]
            got = [(hit.document_name, hit.fragment.nodes)
                   for hit in collection.search(
                       queries[1], stream=True, limit=limit, workers=2,
                       obs=obs, resilience=RetryPolicy(**FAST),
                       faults=FaultPlan(FaultRule.kill(chunk=0)))]
        assert len(got) == limit and got == want
        assert obs.metrics.get(WORKER_CRASHES).value >= 1


class TestBatchRunnerResilience:
    def test_batch_with_faults_matches_serial(self, corpus):
        queries = [Query(("needle", "thread")), Query(("needle",)),
                   Query(("thread",))]
        expected = [corpus.search(q) for q in queries]
        with BatchRunner(corpus, workers=2,
                         resilience=RetryPolicy(**FAST),
                         faults=FaultPlan(
                             FaultRule.kill(chunk=0))) as runner:
            results = runner.run(queries)
        for got, want in zip(results, expected):
            assert _sig(got) == _sig(want)
        assert runner.last_report is not None
        assert runner.last_report.crashes >= 1

    def test_last_report_none_before_first_run(self, corpus):
        runner = BatchRunner(corpus, workers=2)
        assert runner.last_report is None
        runner.shutdown()


class TestPolicyAndPlanValidation:
    def test_retry_policy_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(fallback="retry-forever")

    def test_delay_grows_and_jitters(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_multiplier=2.0,
                             jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)

    def test_fault_rule_matching(self):
        rule = FaultRule.flaky(chunk=2, times=2)
        assert rule.matches(2, 0) and rule.matches(2, 1)
        assert not rule.matches(2, 2)  # budget spent
        assert not rule.matches(1, 0)  # other chunk
        any_chunk = FaultRule.kill(chunk=None)
        assert any_chunk.matches(0, 0) and any_chunk.matches(7, 0)

    def test_plan_directives_are_picklable_dicts(self):
        import pickle
        plan = FaultPlan(FaultRule.hang(chunk=0, hang_s=5.0))
        directive = plan.for_chunk(0, 0)
        assert directive["kind"] == HANG_WORKER
        assert directive["hang_s"] == 5.0
        assert pickle.loads(pickle.dumps(directive)) == directive
        assert plan.for_chunk(1, 0) is None

    def test_apply_fault_noop_on_none(self):
        apply_fault(None)  # must be safe in the common no-fault path

    def test_fault_kinds_exported(self):
        assert {KILL_WORKER, HANG_WORKER, FLAKY_CHUNK} == {
            "kill-worker", "hang-worker", "flaky-chunk"}
