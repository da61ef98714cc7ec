"""The join memo follows document identity, not document objects.

What a server's memory may depend on is its cache budgets — the
document LRU and the memo's ``max_entries`` — never the number of
requests served.  That needs three things to hold across layers:

* the memo owns no :class:`Document` (an evicted tree is freed even
  while its memoised closures live on);
* a shard index hands every materialisation of one name the same
  identity token, so those closures *hit* when the document comes back;
* a token is still never shared by two different trees.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.collection import DocumentCollection
from repro.collection.mutable import MutableDocumentCollection
from repro.core.algebra import JoinCache
from repro.core.filters import SizeAtMost
from repro.core.query import Query
from repro.core.strategies import Strategy, evaluate
from repro.storage.shards import ShardIndex, build_index
from repro.workloads.inexlike import InexSpec, generate_collection
from repro.xmltree.document import Document
from repro.xmltree.parser import parse
from repro.xmltree.serializer import document_to_xml

CACHE_LIMIT = 4


@pytest.fixture(scope="module")
def corpus():
    """5 x CACHE_LIMIT small articles, both planted terms in each —
    every search evaluates (and so evicts) the whole corpus."""
    collection = generate_collection(InexSpec(
        articles=5 * CACHE_LIMIT, nodes_per_article=60,
        planted_fraction=1.0, seed=23))
    return {name: collection.document(name)
            for name in collection.names()}


@pytest.fixture(scope="module")
def index_dir(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("memo") / "corpus.idx"
    build_index(corpus, path, shards=3)
    return str(path)


def _live_documents() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Document)


def _closure(doc, cache):
    """One fixed point of ``doc`` through ``cache``: a one-term query
    over the planted term, whose plan is that closure alone."""
    return evaluate(doc, Query.of("needle", predicate=SizeAtMost(5)),
                    cache=cache)


class TestOwnership:
    def test_evicted_document_dies_and_its_joins_hit_again(self,
                                                           index_dir):
        with ShardIndex.attach(index_dir, cache_limit=1) as index:
            name, other = index.names()[:2]
            cache = JoinCache()
            doc = index.document(name)
            token = doc.token
            expected = _closure(doc, cache)
            assert expected.stats["fragment_joins"] > 0
            assert (len(cache), cache.misses) == (1, 1)
            ref = weakref.ref(doc)
            del doc, expected

            index.document(other)            # evicts ``name``
            gc.collect()
            assert ref() is None             # ... and the memo let it go
            assert len(cache) == 1

            again = index.document(name)
            assert again.token == token
            hit = _closure(again, cache)
            assert (hit.stats["join_cache_hits"],
                    hit.stats["fragment_joins"]) == (1, 0)
            assert hit.fragments == _closure(again, None).fragments
            assert all(f.document is again for f in hit.fragments)
            del again, hit


class TestGrowth:
    QUERIES = [Query.of("needle", "thread", predicate=SizeAtMost(4)),
               Query.of("needle", "thread", predicate=SizeAtMost(6)),
               Query.of("thread", "needle", predicate=SizeAtMost(5)),
               Query.of("needle", predicate=SizeAtMost(3))]

    def _search(self, collection, i: int) -> None:
        query = self.QUERIES[(i // 2) % len(self.QUERIES)]
        if i % 2:
            for _ in collection.search(query, strategy=Strategy.PUSHDOWN,
                                       stream=True, limit=10):
                pass
        else:
            collection.search(query, strategy=Strategy.PUSHDOWN)

    def test_memory_follows_budgets_not_request_count(self, index_dir):
        before = _live_documents()
        collection = DocumentCollection.open_index(
            index_dir, cache_limit=CACHE_LIMIT)
        try:
            first_pass = 2 * len(self.QUERIES)
            for i in range(first_pass):
                self._search(collection, i)
            memo = len(collection._cache)
            assert memo > 0
            misses = collection._cache.misses
            for i in range(first_pass, 300):
                self._search(collection, i)
            stats = collection.index_handle.stats()
            assert stats["documents_materialized"] > 100 * CACHE_LIMIT
            assert len(collection._cache) == memo
            assert collection._cache.misses == misses
            assert _live_documents() - before <= CACHE_LIMIT + 2
        finally:
            collection.close()

    def test_sizing_a_stream_materialises_nothing(self, index_dir):
        collection = DocumentCollection.open_index(index_dir)
        try:
            nothing = Query.of("needle", "nosuchterm")
            assert list(collection.search(nothing, stream=True)) == []
            names = collection.names()
            assert collection.total_nodes == sum(
                collection.node_count(name) for name in names)
            stats = collection.index_handle.stats()
            assert stats["documents_materialized"] == 0
            assert collection.node_count(names[0]) == \
                len(collection.document(names[0]))
        finally:
            collection.close()


class TestIdentityScope:
    def test_no_two_trees_share_a_token(self, corpus, index_dir,
                                        tmp_path):
        name = sorted(corpus)[0]
        live = [corpus[name]]
        with ShardIndex.attach(index_dir) as one, \
                ShardIndex.attach(index_dir) as two:
            live += [one.document(name), two.document(name)]
            assert one.document(name) is live[1]
            live.append(pickle.loads(pickle.dumps(live[1])))
            live.append(parse(document_to_xml(corpus[name]), name=name))

            mutable = MutableDocumentCollection.create(
                tmp_path / "mutable.idx", {name: corpus[name]}, shards=1)
            try:
                base = mutable.document(name)
                mutable.add(corpus[sorted(corpus)[1]], "extra")
                first = mutable.document("extra")
                # A commit leaves the base generation attached: same
                # handle, same bytes, same token.
                assert mutable.document(name).token == base.token
                mutable.add(corpus[sorted(corpus)[2]], "extra")
                replaced = mutable.document("extra")
                assert replaced is not first
                live += [base, first, replaced]
                tokens = [doc.token for doc in live]
                assert len(set(tokens)) == len(tokens)
            finally:
                mutable.close()
            del live

    def test_commit_keeps_the_token_of_an_unchanged_delta_document(
            self, corpus, tmp_path):
        """Same WAL record, same tree: a closure memoised before a
        commit is replayed after it.  A replace — even with identical
        content — is a new record and draws a new token."""
        names = sorted(corpus)
        mutable = MutableDocumentCollection.create(tmp_path / "m.idx")
        try:
            mutable.add(corpus[names[0]], "kept", commit=False)
            mutable.add(corpus[names[1]], "changed")
            kept, changed = (mutable.document("kept"),
                             mutable.document("changed"))
            cache = JoinCache()
            _closure(kept, cache)

            mutable.add(corpus[names[2]], "changed")        # commits
            mutable.add(corpus[names[3]], "new")            # and again
            assert mutable.document("kept") is kept
            assert mutable.document("changed").token != changed.token
            run = _closure(mutable.document("kept"), cache)
            assert (run.stats["join_cache_hits"],
                    run.stats["fragment_joins"]) == (1, 0)

            mutable.add(corpus[names[0]], "kept")           # same content
            assert mutable.document("kept").token != kept.token
        finally:
            mutable.close()


class TestMemoCounters:
    def test_hits_and_misses_match_the_recorded_run(self, index_dir):
        """A non-evicting corpus bypasses everything identity does, so
        the lifetime counters are exactly the closure lookups this query
        list makes.  The memo holds whole fixed points only, and
        ``hits`` / ``misses`` count closure lookups (they counted pair
        lookups before the pair memo was removed: 29 849 / 2 511).

        Every document's ``needle`` and ``thread`` bases are the same
        five planted nodes.  A search asks each document for one
        closure per term: 2 x 6 two-term searches + 2 one-term ones =
        14 per strategy, 42 over the three strategies, 840 over the 20
        documents.  They name 10 distinct (base, mode, predicate) keys
        per document:

        * push-down: the four query predicates, and the four again
          conjoined with the first β round's ``size<=4``;
        * semi-naive: the unpruned closure (a β round's size window is
          part of its query, and a strategy without push-down selects
          it on top, like the caller's filter);
        * set reduction: the bounded closure, unpruned.

        Each key misses once per document — 10 x 20 = 200 misses — and
        the other 640 lookups replay it."""
        collection = DocumentCollection.open_index(index_dir)
        try:
            for strategy in (Strategy.PUSHDOWN, Strategy.SEMI_NAIVE,
                             Strategy.SET_REDUCTION):
                for query in TestGrowth.QUERIES:
                    collection.search(query, strategy=strategy)
                    list(collection.search(query, strategy=strategy,
                                           stream=True, limit=10))
            cache = collection._cache
            assert (cache.hits, cache.misses) == (640, 200)
            assert len(cache) == 200
        finally:
            collection.close()
