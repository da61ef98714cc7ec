"""Determinism and behaviour tests for ``repro.exec``.

The parallel executor's contract is exact equality with the serial
path: same per-document results, same hit order, same ranked order —
for every strategy and worker count.  These tests pin that
contract on a small synthetic collection; ranked order, top-k streams
and the index-backed sources are swept by ``tests/test_source_parity.py``.
"""

from __future__ import annotations

import pytest

from repro.collection.collection import DocumentCollection
from repro.core.query import Query
from repro.core.strategies import Strategy
from repro.errors import DocumentError, QueryError
from repro.exec import BatchRunner, ParallelExecutor
from repro.obs import DOCUMENTS_SKIPPED, Observability
from repro.workloads.inexlike import InexSpec, generate_collection

WORKER_COUNTS = (1, 2, 4)
STRATEGIES = (Strategy.BRUTE_FORCE, Strategy.SET_REDUCTION,
              Strategy.PUSHDOWN)


@pytest.fixture(scope="module")
def corpus() -> DocumentCollection:
    return generate_collection(
        InexSpec(articles=8, nodes_per_article=160, seed=11))


@pytest.fixture(scope="module")
def query() -> Query:
    return Query(("needle", "thread"))


def _hit_signature(result):
    return [(hit.document_name, tuple(sorted(hit.fragment.nodes)))
            for hit in result.hits]


class TestDeterminism:
    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: s.value)
    def test_parallel_search_equals_serial(self, corpus, query, strategy):
        serial = corpus.search(query, strategy=strategy)
        for workers in WORKER_COUNTS:
            parallel = corpus.search(query, strategy=strategy,
                                     workers=workers)
            assert list(parallel.per_document) == list(serial.per_document)
            for name, expected in serial.per_document.items():
                got = parallel.per_document[name]
                assert got.fragments == expected.fragments
                assert got.strategy == expected.strategy
            assert _hit_signature(parallel) == _hit_signature(serial)

    def test_document_subset_preserves_order(self, corpus, query):
        subset = corpus.names()[::2][::-1]  # reversed half: caller order
        serial = corpus.search(query, documents=subset)
        parallel = corpus.search(query, documents=subset, workers=2)
        assert list(parallel.per_document) == list(serial.per_document)
        assert _hit_signature(parallel) == _hit_signature(serial)


class TestParallelExecutor:
    def test_standalone_executor(self, corpus, query):
        documents = {name: corpus.document(name)
                     for name in corpus.names()}
        serial = corpus.search(query)
        with ParallelExecutor(documents, workers=2) as executor:
            result = executor.search(query)
            assert _hit_signature(result) == _hit_signature(serial)
            # Second query on the same pool reuses warm worker state.
            again = executor.search(query)
            assert _hit_signature(again) == _hit_signature(serial)

    def test_early_exit_skips_documents(self, corpus):
        query = Query(("needle", "no-such-term-anywhere"))
        obs = Observability()
        documents = {name: corpus.document(name)
                     for name in corpus.names()}
        with ParallelExecutor(documents, workers=2, obs=obs) as executor:
            result = executor.search(query)
        assert len(result) == 0
        assert not result.per_document
        skipped = obs.metrics.counter(
            DOCUMENTS_SKIPPED,
            "Documents skipped by the index early exit.").value
        assert skipped == len(corpus)

    def test_rejects_bad_arguments(self, corpus, query):
        documents = {name: corpus.document(name)
                     for name in corpus.names()}
        with pytest.raises(DocumentError):
            ParallelExecutor({})
        with pytest.raises(QueryError):
            ParallelExecutor(documents, workers=0)
        with ParallelExecutor(documents, workers=2) as executor:
            with pytest.raises(DocumentError, match="unknown document"):
                executor.search(query, documents=["no-such-doc"])

    def test_collection_invalidates_pool_on_add(self, query):
        collection = generate_collection(
            InexSpec(articles=4, nodes_per_article=120, seed=23))
        first = collection.search(query, workers=2)
        executor = collection._executor
        assert executor is not None
        extra = generate_collection(
            InexSpec(articles=1, nodes_per_article=120, seed=29))
        name = extra.names()[0]
        collection.add(extra.document(name), name="late-arrival")
        assert collection._executor is None  # pool snapshot invalidated
        second = collection.search(query, workers=2)
        assert collection._executor is not executor
        assert "late-arrival" in collection.names()
        assert len(second) >= len(first)


class TestBatchRunner:
    def test_batch_matches_per_query_serial(self, corpus):
        queries = [Query(("needle", "thread")), Query(("needle",)),
                   Query(("thread",)), Query(("needle", "zzz-missing"))]
        serial = [corpus.search(q) for q in queries]
        with BatchRunner(corpus, workers=2) as runner:
            batch = runner.run(queries)
        assert len(batch) == len(serial)
        for got, expected in zip(batch, serial):
            assert _hit_signature(got) == _hit_signature(expected)

    def test_serial_mode(self, corpus, query):
        runner = BatchRunner(corpus)  # workers=None: no pool
        results = runner.run([query, query])
        expected = corpus.search(query)
        for result in results:
            assert _hit_signature(result) == _hit_signature(expected)
        assert runner._executor is None

    def test_empty_batch(self, corpus):
        with BatchRunner(corpus, workers=2) as runner:
            assert runner.run([]) == []

    def test_batch_counter(self, corpus, query):
        from repro.obs import BATCH_QUERIES
        obs = Observability()
        runner = BatchRunner(corpus, obs=obs)
        runner.run([query, query, query])
        assert obs.metrics.counter(
            BATCH_QUERIES,
            "Queries evaluated through BatchRunner.").value == 3
