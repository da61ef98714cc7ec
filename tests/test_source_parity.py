"""One parity fixture: every corpus source × every way of running it.

Definition 8's answers are a property of the tree, not of where the
tree is stored or which process evaluates it.  So::

    {in-memory, shard index (cache_limit=2),
     mutable index @ one epoch (delta document + replacement + tombstone)}
  × {serial, workers=2 under fork, workers=2 under spawn}
  × {search, search(stream=True, limit=k), ranked_search,
     explain_analyze}

must all equal the in-memory, serial, reference-kernel answer.  The
three storage kinds hold the same visible corpus; ``spawn`` is the one
start method under which the pool's attach recipe really is pickled.
``explain_analyze`` has no pooled form, so its row is serial-only.
"""

from __future__ import annotations

import pytest

from repro.collection import DocumentCollection
from repro.collection.mutable import MutableDocumentCollection
from repro.core.query import Query
from repro.core.strategies import Strategy
from repro.exec import (BatchRunner, FaultPlan, FaultRule, ParallelExecutor,
                        RetryPolicy, parallel)
from repro.guard import AdmissionPolicy
from repro.storage.shards import ShardIndex, build_index
from repro.workloads.inexlike import InexSpec, generate_collection

KINDS = ("memory", "sharded", "mutable")
MODES = ("serial", "fork", "spawn")
QUERIES = (Query.of("needle", "thread"), Query.of("needle"),
           Query.of("needle", "nosuchterm"))
TOP_K = 5


@pytest.fixture(scope="module")
def documents():
    corpus = generate_collection(InexSpec(articles=8, seed=11))
    return {name: corpus.document(name) for name in sorted(corpus.names())}


@pytest.fixture(scope="module")
def reference(documents):
    """The oracle side: in memory, serial, reference kernel."""
    collection = DocumentCollection("reference")
    for name, document in documents.items():
        collection.add(document, name)
    return collection


def _open(kind, documents, root):
    """A collection of ``kind`` whose visible corpus is ``documents``."""
    if kind == "memory":
        collection = DocumentCollection("memory")
        for name, document in documents.items():
            collection.add(document, name)
        return collection
    if kind == "sharded":
        build_index(documents, root / "corpus.idx", shards=3)
        return DocumentCollection.open_index(root / "corpus.idx",
                                             cache_limit=2)
    # Mutable: the base generation holds five right documents, one
    # under the wrong content and one that must not be seen; the delta
    # then replaces, adds and tombstones its way to the same corpus.
    names = list(documents)
    stale, doomed = names[1], "zz-doomed"
    base = {name: documents[name] for name in names[:6]}
    base[stale] = documents[names[7]]
    base[doomed] = documents[names[0]]
    collection = MutableDocumentCollection.create(
        root / "live.idx", base, shards=3, cache_limit=2)
    collection.add(documents[stale], stale, commit=False)   # replace
    for name in names[6:]:
        collection.add(documents[name], name, commit=False)  # delta
    collection.remove(doomed, commit=False)                  # tombstone
    collection.commit()
    return collection


@pytest.fixture(scope="module",
                params=[(kind, mode) for kind in KINDS for mode in MODES],
                ids=lambda p: f"{p[0]}-{p[1]}")
def subject(request, documents, tmp_path_factory):
    """``(collection, workers)`` for one storage kind × run mode."""
    kind, mode = request.param
    collection = _open(kind, documents, tmp_path_factory.mktemp(kind))
    with pytest.MonkeyPatch.context() as patch:
        if mode != "serial":
            # Collections build their pools with the default start
            # method; pin it for as long as this subject lives.
            patch.setattr(parallel, "default_start_method", lambda: mode)
        yield collection, (None if mode == "serial" else 2)
    collection.close()


def materialized(collection) -> int:
    """Documents the collection's index handle has decoded so far."""
    if hasattr(collection, "index_handle"):
        return collection.index_handle.stats()["documents_materialized"]
    if hasattr(collection, "mutable"):
        stats = collection.mutable.stats()
        return (stats["base"]["documents_materialized"]
                + stats["delta"]["materialized"])
    return 0


def hit_key(hits):
    return [(hit.document_name, tuple(sorted(hit.fragment.nodes)))
            for hit in hits]


def ranked_key(ranked):
    return [(name, tuple(sorted(scored.fragment.nodes)), scored.score)
            for name, scored in ranked]


@pytest.mark.timeout(300)
class TestSourceParity:
    def test_same_corpus(self, subject, reference):
        collection, _ = subject
        assert sorted(collection.names()) == reference.names()
        assert len(collection) == len(reference)
        assert collection.total_nodes == reference.total_nodes
        assert collection.vocabulary() == reference.vocabulary()
        for term in ("needle", "thread", "nosuchterm"):
            assert (collection.document_frequency(term)
                    == reference.document_frequency(term))

    @pytest.mark.parametrize("strategy", list(Strategy),
                             ids=lambda s: s.value)
    def test_search(self, subject, reference, strategy):
        collection, workers = subject
        for query in QUERIES:
            expected = reference.search(query, strategy=strategy)
            for kernel in (None, "bitset"):
                actual = collection.search(query, strategy=strategy,
                                           workers=workers, kernel=kernel)
                assert (sorted(actual.per_document)
                        == sorted(expected.per_document))
                assert hit_key(actual.hits) == hit_key(expected.hits)

    def test_streamed_top_k(self, subject, reference):
        collection, workers = subject
        for query in QUERIES:
            expected = hit_key(reference.search(query).hits)[:TOP_K]
            stream = collection.search(query, stream=True, limit=TOP_K,
                                       workers=workers)
            assert hit_key(stream) == expected
            assert hit_key(collection.search(
                query, limit=TOP_K, workers=workers)) == expected

    def test_ranked_search(self, subject, reference):
        collection, workers = subject
        for query in QUERIES:
            expected = ranked_key(reference.ranked_search(query, limit=7))
            for stream in (False, True):
                assert ranked_key(collection.ranked_search(
                    query, limit=7, workers=workers,
                    stream=stream)) == expected

    def test_explain_analyze_result(self, subject, reference):
        collection, workers = subject
        if workers is not None:
            pytest.skip("explain_analyze has no pooled form")
        for query in QUERIES:
            expected, expected_analysis = reference.explain_analyze(query)
            actual, analysis = collection.explain_analyze(query)
            assert hit_key(actual.hits) == hit_key(expected.hits)
            assert ([(op.label, op.calls, op.rows)
                     for op in analysis.operators]
                    == [(op.label, op.calls, op.rows)
                        for op in expected_analysis.operators])

    def test_reads_stay_under_the_cache_bound(self, subject):
        """Whatever ran above, an index-backed source kept at most
        ``cache_limit`` documents, and a mutable one leaked no pin."""
        collection, _ = subject
        if hasattr(collection, "index_handle"):
            assert collection.index_handle.stats()[
                "documents_cached"] <= 2
        if hasattr(collection, "mutable"):
            assert collection.mutable.pinned_epochs() == {}
            assert collection.mutable.stats()["base"][
                "documents_cached"] <= 2

    def test_screen_costs_by_name(self, subject, reference):
        """Admission prices every source alike, one document at a time.

        Regression: an index-backed ``screen()`` used to materialise
        each target twice and look indexes up by ``id(document)``; with
        ``cache_limit < len(collection)`` the second copy missed the
        map and the cost fell back to index-less estimates.
        """
        collection, _ = subject
        query = Query.of("needle", "thread")
        unbounded = reference.screen(AdmissionPolicy(max_cost=1e30), query,
                                     Strategy.SET_REDUCTION)
        for max_cost in (1e30, unbounded.requested_cost / 2, 1.0):
            policy = AdmissionPolicy(max_cost=max_cost)
            before = materialized(collection)
            decision = collection.screen(policy, query,
                                         Strategy.SET_REDUCTION)
            assert decision == reference.screen(policy, query,
                                                Strategy.SET_REDUCTION)
            assert materialized(collection) - before <= len(collection)

    def test_batch_runner_pools_over_the_source(self, subject, reference):
        """``BatchRunner`` ships the source's attach recipe, not a
        materialised corpus: a batch that matches nothing decodes
        nothing, and answers equal per-query ``search``."""
        collection, workers = subject
        if workers is None:
            pytest.skip("serial batches are collection.search")
        with BatchRunner(collection, workers=workers) as runner:
            before = materialized(collection)
            assert [len(r) for r in runner.run(
                [Query.of("nosuchterm")] * 2)] == [0, 0]
            assert materialized(collection) == before
            batch = runner.run(list(QUERIES))
        for query, result in zip(QUERIES, batch):
            assert hit_key(result.hits) == hit_key(
                reference.search(query).hits)
        assert runner.last_report.clean


@pytest.mark.timeout(120)
def test_degraded_fallback_reads_under_the_cache_bound(
        documents, reference, tmp_path):
    """Every chunk forced onto the parent's serial fallback: answers
    still match, and the parent's handle keeps ``cache_limit`` trees —
    it used to pin every index it touched in a side table."""
    build_index(documents, tmp_path / "corpus.idx", shards=3)
    with ShardIndex.attach(tmp_path / "corpus.idx",
                           cache_limit=2) as handle:
        with ParallelExecutor(
                index_path=handle, workers=2,
                resilience=RetryPolicy(max_retries=0, backoff_s=0.01,
                                       jitter=0.0),
                faults=FaultPlan(FaultRule.flaky(chunk=None, times=99))
                ) as executor:
            for query in QUERIES:
                assert hit_key(executor.search(query).hits) == hit_key(
                    reference.search(query).hits)
            assert executor.degraded
            assert executor.last_report.fallback_items == len(documents)
        assert handle.stats()["documents_cached"] <= 2
