"""One parity fixture: every corpus source × every way of running it.

Definition 8's answers are a property of the tree, not of where the
tree is stored or which process evaluates it.  So::

    {in-memory, shard index (cache_limit=2),
     mutable index @ one epoch (delta document + replacement + tombstone)}
  × {serial, workers=2 under fork, workers=2 under spawn}
  × {search, search(stream=True, limit=k), ranked_search,
     explain_analyze}

must all equal the in-memory, serial answer.  The three storage kinds
hold the same visible corpus; ``spawn`` is the one start method under
which the pool's attach recipe really is pickled.  ``explain_analyze``
has no pooled form, so its row is serial-only.

The keyword screen has the same shape one level down: every source's
``candidates(terms)`` must equal the per-document ``contains`` loop it
replaced (``TestCandidates``), and an index-backed search must reach
its answer without that loop (``test_index_searches_never_probe``).
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collection import DocumentCollection
from repro.collection.mutable import MutableDocumentCollection
from repro.core.query import Query
from repro.core.strategies import Strategy
from repro.exec import (BatchRunner, FaultPlan, FaultRule, ParallelExecutor,
                        RetryPolicy, parallel)
from repro.guard import AdmissionPolicy
from repro.obs import MUTATION_WORKER_REATTACH, Observability
from repro.storage.shards import ShardIndex, build_index, shard_of
from repro.storage.mutation import MutableIndex
from repro.workloads.inexlike import InexSpec, generate_collection

from .treegen import KEYWORD_ALPHABET, documents as random_documents
from .treegen import make_document

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
    """The oracle side: in memory, serial."""
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
            actual = collection.search(query, strategy=strategy,
                                       workers=workers)
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

    def test_commit_between_searches(self, subject, reference, documents):
        """A commit lands between two searches of a mutable collection:
        the writer's next view carries every document the commit left
        alone, each pool worker re-attaches the epoch its next chunk
        names, and the answers follow the corpus both ways.  Last in
        the class:
        it leaves the visible corpus as it found it, two epochs on."""
        collection, workers = subject
        if not hasattr(collection, "mutable"):
            pytest.skip("only a mutable collection commits")
        names = list(documents)
        changed_name, other = names[6], documents[names[0]]
        changed = DocumentCollection("changed")
        for name, document in documents.items():
            changed.add(other if name == changed_name else document, name)
        obs = Observability()
        generation = collection.mutable.generation
        for query in QUERIES:       # every worker holds the old epoch
            collection.search(query, workers=workers, obs=obs)
        for content, expected in ((other, changed),
                                  (documents[changed_name], reference)):
            collection.add(content, changed_name)           # commits
            for query in QUERIES:
                actual = collection.search(query, workers=workers, obs=obs)
                assert hit_key(actual.hits) == hit_key(
                    expected.search(query).hits)
                assert hit_key(collection.search(
                    query, stream=True, limit=TOP_K, workers=workers,
                    obs=obs)) == hit_key(expected.search(query).hits)[:TOP_K]
            delta = collection.mutable.stats()["delta"]
            assert delta["carried"] == delta["documents"] - 1
            assert delta["materialized"] <= 1
        assert collection.mutable.generation == generation
        assert collection.mutable.pinned_epochs() == {}
        reattached = sum(
            record["value"] for record in obs.metrics.to_json()["metrics"]
            if record["name"] == MUTATION_WORKER_REATTACH)
        assert (reattached >= 1) == (workers is not None)


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
                expected = reference.search(query)
                assert hit_key(executor.search(query).hits) == hit_key(
                    expected.hits)
                # Only documents that pass the parent's keyword screen
                # are items, and every one of them fell back.
                assert executor.last_report.fallback_items == len(
                    expected.per_document)
                assert executor.degraded == bool(expected.per_document)
        assert handle.stats()["documents_cached"] <= 2


# ----------------------------------------------------------------------
# candidates(terms): one answer from every source
# ----------------------------------------------------------------------

def probe_loop(source, terms):
    """The screen as it was before ``candidates``: one probe per
    document and term."""
    return [name for name in source.names()
            if all(source.contains(name, term) for term in terms)]


@pytest.fixture(scope="module", params=KINDS)
def source(request, documents, tmp_path_factory):
    """The corpus source of one storage kind (a mutable collection's
    is its current epoch's snapshot)."""
    collection = _open(request.param, documents,
                       tmp_path_factory.mktemp(f"source-{request.param}"))
    if request.param == "mutable":
        with collection.mutable.snapshot() as snapshot:
            yield snapshot
    else:
        yield collection._source
    collection.close()


def _term_sets(documents, reference):
    """Present, absent, single, repeated and three-term queries, plus a
    term whose documents all live in one of the index's three shards."""
    holders = {term: reference._source.candidates((term,))
               for term in reference.vocabulary()}
    lone = min(term for term, names in holders.items()
               if len({shard_of(name, 3) for name in names}) == 1)
    everywhere = sorted(term for term, names in holders.items()
                        if len(names) == len(documents))[:3]
    assert len(everywhere) == 3
    return [("needle",), ("needle", "thread"), ("thread", "needle"),
            ("needle", "needle"), ("nosuchterm",),
            ("needle", "nosuchterm"), (lone,), (lone, "needle"),
            tuple(everywhere), (*everywhere[:2], "needle"), ()]


class TestCandidates:
    def test_equals_the_probe_loop(self, source, documents, reference):
        for terms in _term_sets(documents, reference):
            expected = probe_loop(source, terms)
            assert source.candidates(terms) == expected
            assert expected == probe_loop(reference._source, terms)
        # An iterator of terms is read once, like any other iterable.
        assert source.candidates(iter(("needle", "thread"))) \
            == probe_loop(source, ("needle", "thread"))

    def test_degraded_index_drops_the_failed_shard(self, documents,
                                                   tmp_path):
        build_index(documents, tmp_path / "corpus.idx", shards=3)
        with open(tmp_path / "corpus.idx" / "shard-0001.bin",
                  "r+b") as handle:
            handle.truncate(32)
        with ShardIndex.attach(tmp_path / "corpus.idx",
                               on_error="skip") as index:
            lost = [name for name in documents
                    if index.shard_of(name) == 1]
            assert lost and sorted(index.failed_shards) == [1]
            for terms in (("needle",), ("needle", "thread"), ()):
                found = index.candidates(terms)
                assert found == probe_loop(index, terms)
                assert not set(found) & set(lost)

    def test_documents_subset(self, subject, reference):
        """``documents=`` narrows the screen, in the caller's order."""
        collection, workers = subject
        subset = sorted(reference.names(), reverse=True)[::2]
        for query in QUERIES:
            expected = reference.search(query, documents=subset)
            actual = collection.search(query, documents=subset,
                                       workers=workers)
            assert list(actual.per_document) == list(expected.per_document)
            assert hit_key(actual.hits) == hit_key(expected.hits)
            assert hit_key(collection.search(
                query, documents=subset, workers=workers, limit=TOP_K)
            ) == hit_key(expected.hits)[:TOP_K]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trees=st.lists(random_documents(max_nodes=8), min_size=1,
                      max_size=7),
       shards=st.integers(min_value=1, max_value=3))
def test_candidates_property(trees, shards):
    """Random treegen corpora: memory, shard index and a snapshot with
    a delta half and a tombstone all screen like the probe loop."""
    corpus = {f"doc-{i}": tree for i, tree in enumerate(trees)}
    names = sorted(corpus)
    term_sets = [()] + [tuple(w for b, w in enumerate(KEYWORD_ALPHABET)
                              if mask & (1 << b)) for mask in range(1, 8)]
    memory = DocumentCollection("memory")
    for name in names:
        memory.add(corpus[name], name)
    with tempfile.TemporaryDirectory() as root:
        build_index(corpus, Path(root) / "corpus.idx", shards=shards)
        base = {name: corpus[name] for name in names[:len(names) // 2]}
        base["doomed"] = trees[0]
        with ShardIndex.attach(Path(root) / "corpus.idx") as index, \
                MutableIndex.create(Path(root) / "live.idx", base,
                                    shards=shards) as mutable:
            for name in names[len(names) // 2:]:
                mutable.add(corpus[name], name, commit=False)
            mutable.remove("doomed", commit=False)
            mutable.commit()
            with mutable.snapshot() as snapshot:
                assert snapshot.names() == names
                for terms in term_sets:
                    expected = probe_loop(memory._source, terms)
                    assert memory._source.candidates(terms) == expected
                    assert index.candidates(terms) == expected
                    assert snapshot.candidates(terms) == expected


class CountingIndex(ShardIndex):
    """Counts the public lookups, the shape the serving benchmark's
    traced index has."""

    probes = 0

    def contains(self, name, term):
        type(self).probes += 1
        return super().contains(name, term)


def test_index_searches_never_probe(tmp_path):
    """A two-term search of every flavour over a 200-document index
    asks the term directory once, probes no document and decodes only
    the documents that match."""
    rng = random.Random(18)
    corpus = {
        f"doc-{i:03d}": make_document(
            [rng.randrange(64) for _ in range(5)],
            [rng.choice((0,) * 20 + (1, 2, 3, 4)) for _ in range(6)],
            name=f"doc-{i:03d}")
        for i in range(200)}
    build_index(corpus, tmp_path / "corpus.idx", shards=4)
    query = Query.of("alpha", "beta")
    with CountingIndex.attach(tmp_path / "corpus.idx") as index:
        matching = probe_loop(index, query.terms)
        assert 0 < len(matching) < 100
        CountingIndex.probes = 0
        collection = DocumentCollection.open_index(index)
        result = collection.search(query)
        assert list(result.per_document) == matching
        assert hit_key(collection.search(query, stream=True, limit=TOP_K)
                       ) == hit_key(result.hits)[:TOP_K]
        assert len(collection.ranked_search(query, limit=TOP_K)) == TOP_K
        analyzed, _ = collection.explain_analyze(query)
        assert list(analyzed.per_document) == matching
        assert CountingIndex.probes == 0
        assert index.stats()["documents_materialized"] == len(matching)


def test_document_frequency_reads_the_directory(documents, reference,
                                                tmp_path):
    """``document_frequency`` is ``len(candidates((term,)))``: no
    per-document probe on an index, and on a mutable index the stale
    base copy of a replaced document and a tombstoned one never count."""
    build_index(documents, tmp_path / "corpus.idx", shards=3)
    vocabulary = sorted(reference.vocabulary()) + ["nosuchterm"]
    with CountingIndex.attach(tmp_path / "corpus.idx") as index:
        collection = DocumentCollection.open_index(index)
        CountingIndex.probes = 0
        for term in vocabulary:
            assert (collection.document_frequency(term.upper())
                    == reference.document_frequency(term))
        assert CountingIndex.probes == 0
        assert index.stats()["documents_materialized"] == 0
    mutable = _open("mutable", documents, tmp_path)
    try:
        for term in vocabulary:
            assert (mutable.document_frequency(term)
                    == reference.document_frequency(term))
        assert mutable.mutable.pinned_epochs() == {}
    finally:
        mutable.close()
