"""The join memo's closure entries: a fixed point ``F+`` replayed whole.

A closure depends only on the document, the base's node sets, the mode
and the pruning predicate's *value*, so the memo may hand a warm run
the node sets a cold run produced.  What must hold:

* a replay answers exactly what the computation does, through every
  strategy and every way a plan is driven;
* only a closure that ran to completion is stored, and a predicate is
  keyed by value — never by a caller-chosen name;
* a replay is still held to the live-fragment ceiling;
* a document's token decides what hits: a replaced document misses, an
  unchanged one hits across a commit;
* handler threads share one memo without a lock, under eviction.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import DocumentCollection
from repro.collection.mutable import MutableDocumentCollection
from repro.core.algebra import JoinCache
from repro.core.filters import (And, HeightAtMost, Not, Or,
                                PredicateFilter, SizeAtLeast, SizeAtMost,
                                TagsWithin, TrueFilter, WidthAtMost,
                                _value_key)
from repro.core.query import Query
from repro.core.strategies import Strategy, evaluate
from repro.core.streaming import (hit_order_key, stream_evaluate,
                                  stream_top_k)
from repro.errors import BudgetExceeded
from repro.guard.budget import QueryBudget
from repro.storage.shards import build_index
from repro.workloads.inexlike import InexSpec, generate_collection
from repro.xmltree.builder import DocumentBuilder

from ..treegen import documents

QUERY = Query.of("xquery", "optimization", predicate=SizeAtMost(3))

FILTERS = [TrueFilter(), SizeAtMost(2), SizeAtMost(4), HeightAtMost(1),
           SizeAtMost(3) & WidthAtMost(4), SizeAtMost(2) | SizeAtMost(5),
           SizeAtLeast(2), SizeAtMost(5) & SizeAtLeast(2)]


def _replays(result) -> int:
    return result.stats["join_cache_hits"]


def _hits(hits) -> list[tuple]:
    return [(hit.document_name, hit.fragment.nodes) for hit in hits]


class TestReplayEqualsComputation:
    @pytest.mark.parametrize("strategy", [Strategy.SET_REDUCTION,
                                          Strategy.SEMI_NAIVE,
                                          Strategy.PUSHDOWN])
    def test_second_run_replays_both_closures(self, figure1, strategy):
        cache = JoinCache()
        cold = evaluate(figure1, QUERY, strategy=strategy, cache=cache)
        warm = evaluate(figure1, QUERY, strategy=strategy, cache=cache)
        assert (_replays(cold), _replays(warm)) == (0, 2)
        assert warm.stats["iterations"] == 0
        assert warm.fragments == cold.fragments == evaluate(
            figure1, QUERY, strategy=strategy).fragments

    def test_no_memo_no_lookup(self, figure1):
        for _ in range(2):
            assert _replays(evaluate(figure1, QUERY)) == 0

    def test_a_one_fragment_base_is_not_memoised(self, figure1):
        cache = JoinCache()
        query = Query.of("xquery", "optimization", "semistructured")
        for _ in range(2):
            run = evaluate(figure1, query, strategy=Strategy.SEMI_NAIVE,
                           cache=cache)
        assert len(figure1.nodes_with_keyword("semistructured")) == 1
        assert _replays(run) == 2  # the two-fragment bases only

    def test_explain_analyze_shows_the_replay(self, figure1):
        from repro.core.strategies import explain_analyze
        cache = JoinCache()
        evaluate(figure1, QUERY, cache=cache)
        _, analysis = explain_analyze(figure1, QUERY, cache=cache)
        assert "replayed=1" in analysis.render()

    @settings(max_examples=60, deadline=None)
    @given(documents(min_nodes=2, max_nodes=10),
           st.sampled_from([("alpha", "beta"), ("alpha",),
                            ("gamma", "alpha", "beta")]),
           st.sampled_from(FILTERS), st.sampled_from(list(Strategy)))
    def test_every_path_replays_the_computed_answer(self, doc, terms,
                                                    predicate, strategy):
        query = Query(terms, predicate)
        reference = evaluate(doc, query, strategy=strategy).fragments

        cache = JoinCache()
        for _ in range(2):
            assert evaluate(doc, query, strategy=strategy,
                            cache=cache).fragments == reference
        cache = JoinCache()
        for _ in range(2):
            assert frozenset(stream_evaluate(
                doc, query, strategy, cache=cache)) == reference

        top = stream_top_k(doc, query, 3, strategy=strategy)
        cache = JoinCache()
        for _ in range(2):
            assert stream_top_k(doc, query, 3, strategy=strategy,
                                cache=cache) == top

        expected = sorted(((doc.name, f) for f in reference),
                          key=lambda hit: hit_order_key(*hit))
        collection = DocumentCollection()
        collection.add(doc)
        for _ in range(2):
            assert _hits(collection.search(
                query, strategy=strategy, stream=True)) == \
                [(name, f.nodes) for name, f in expected]

    @settings(max_examples=25, deadline=None)
    @given(documents(min_nodes=2, max_nodes=10),
           documents(min_nodes=2, max_nodes=10),
           st.sampled_from(list(Strategy)))
    def test_one_memo_across_filters_and_documents(self, doc, other,
                                                   strategy):
        """Tight bounds first: a closure replayed under another
        predicate, or for another tree, would lose answers."""
        cache = JoinCache()
        for predicate in FILTERS:
            query = Query(("alpha", "beta"), predicate)
            for target in (doc, other):
                assert evaluate(target, query, strategy=strategy,
                                cache=cache).fragments == \
                    evaluate(target, query, strategy=strategy).fragments


class TestPredicateKey:
    def test_built_in_filters_key_by_value(self):
        assert _value_key(SizeAtMost(3)) == _value_key(SizeAtMost(3))
        assert _value_key(SizeAtMost(3)) != _value_key(SizeAtMost(4))
        assert _value_key(SizeAtMost(3)) != _value_key(HeightAtMost(3))
        assert _value_key(SizeAtMost(2) & WidthAtMost(3)) == \
            _value_key(And(SizeAtMost(2), WidthAtMost(3)))
        assert _value_key(SizeAtMost(2) & WidthAtMost(3)) != \
            _value_key(Or(SizeAtMost(2), WidthAtMost(3)))
        assert _value_key(TagsWithin(["b", "a"])) == \
            _value_key(TagsWithin(["a", "b"]))

    def test_a_named_callable_has_no_value_key(self):
        named = PredicateFilter(lambda f: True, "p", anti_monotonic=True)
        assert _value_key(named) is None
        assert _value_key(SizeAtMost(3) & named) is None
        assert _value_key(Not(named)) is None

        class Mine(SizeAtMost):
            pass

        assert _value_key(Mine(3)) is None

    def test_same_name_different_callables_never_share(self, figure1):
        tight = PredicateFilter(lambda f: f.size <= 2, "small",
                                anti_monotonic=True)
        loose = PredicateFilter(lambda f: f.size <= 5, "small",
                                anti_monotonic=True)
        cache = JoinCache()
        for predicate in (tight, loose, tight, loose):
            query = Query(QUERY.terms, predicate)
            run = evaluate(figure1, query, cache=cache)
            assert _replays(run) == 0
            assert run.fragments == evaluate(figure1, query).fragments
        assert evaluate(figure1, Query(QUERY.terms, tight)).fragments != \
            evaluate(figure1, Query(QUERY.terms, loose)).fragments


class TestOnlyCompleteClosuresAreStored:
    def test_an_abandoned_closure_is_not_stored(self, figure1):
        cache = JoinCache()
        stream = stream_evaluate(figure1, QUERY, Strategy.SEMI_NAIVE,
                                 cache=cache)
        next(stream)  # the left closure is drained, the right one is not
        stream.close()
        runs = [evaluate(figure1, QUERY, strategy=Strategy.SEMI_NAIVE,
                         cache=cache) for _ in range(2)]
        assert [_replays(run) for run in runs] == [1, 2]

    def test_an_aborted_closure_is_not_stored(self, figure1):
        cache = JoinCache()
        with pytest.raises(BudgetExceeded) as aborted:
            evaluate(figure1, QUERY, strategy=Strategy.SEMI_NAIVE,
                     cache=cache, budget=QueryBudget(max_join_ops=1))
        assert aborted.value.reason == "join-ops"
        runs = [evaluate(figure1, QUERY, strategy=Strategy.SEMI_NAIVE,
                         cache=cache) for _ in range(2)]
        assert [_replays(run) for run in runs] == [0, 2]

    def test_a_replay_is_held_to_the_live_ceiling(self, figure1):
        query = Query.of("optimization")  # the fixed point is the plan
        closure = evaluate(figure1, query).fragments
        cache = JoinCache()
        evaluate(figure1, query, cache=cache)
        tight = len(closure) - 1
        for memo in (None, cache):
            with pytest.raises(BudgetExceeded) as aborted:
                evaluate(figure1, query, cache=memo,
                         budget=QueryBudget(max_live_fragments=tight))
            assert aborted.value.reason == "live-fragments"
        replay = evaluate(figure1, query, cache=cache, budget=QueryBudget(
            max_live_fragments=len(closure), max_join_ops=0))
        assert _replays(replay) == 1  # and charged no join operation
        assert replay.fragments == closure


@pytest.fixture(scope="module")
def corpus():
    collection = generate_collection(InexSpec(
        articles=12, nodes_per_article=60, planted_fraction=1.0, seed=23))
    return {name: collection.document(name)
            for name in collection.names()}


class TestTokens:
    # One term: a planted node carries both terms, so a two-term query
    # would replay its second closure from its first within one run.
    QUERY = Query.of("needle", predicate=SizeAtMost(5))

    def _replays(self, mutable) -> dict:
        result = mutable.search(self.QUERY, strategy=Strategy.PUSHDOWN)
        return {name: run.stats["join_cache_hits"]
                for name, run in result.per_document.items()}

    def test_two_trees_with_one_base_never_share(self):
        """Nodes 1 and 2 carry the term in both trees: siblings under
        the root in one, parent and child in the other."""
        trees = []
        for chain in (False, True):
            builder = DocumentBuilder(name="tree")
            first = builder.add_child(builder.add_root("r"), "x")
            builder.add_child(first if chain else 0, "y")
            builder.add_keywords(1, ["alpha"])
            builder.add_keywords(2, ["alpha"])
            trees.append(builder.build())
        cache, query = JoinCache(), Query.of("alpha")
        closures = [evaluate(tree, query, cache=cache).fragments
                    for tree in trees]
        assert [sorted(f.nodes) for f in closures[1]] != \
            [sorted(f.nodes) for f in closures[0]]
        assert closures == [evaluate(tree, query).fragments
                            for tree in trees]

    def test_replace_misses_and_an_unchanged_delta_document_hits(
            self, corpus, tmp_path):
        names = sorted(corpus)
        mutable = MutableDocumentCollection.create(tmp_path / "m.idx")
        try:
            mutable.add(corpus[names[0]], "kept", commit=False)
            mutable.add(corpus[names[1]], "changed")
            assert self._replays(mutable) == {"kept": 0, "changed": 0}
            assert self._replays(mutable) == {"kept": 1, "changed": 1}
            mutable.add(corpus[names[2]], "changed")        # commits
            assert self._replays(mutable) == {"kept": 1, "changed": 0}
            assert self._replays(mutable) == {"kept": 1, "changed": 1}
        finally:
            mutable.close()


class TestSharedUnderEviction:
    QUERIES = [Query.of("needle", "thread", predicate=SizeAtMost(4)),
               Query.of("thread", "needle", predicate=SizeAtMost(6)),
               Query.of("needle", predicate=SizeAtMost(3))]
    THREADS, SEARCHES, LIMIT = 4, 40, 10

    @pytest.mark.timeout(120)
    def test_threads_over_one_evicting_memo_agree_with_no_memo(
            self, corpus, tmp_path):
        """Documents (``cache_limit=1``), pairs and closures are all
        evicted under concurrent reads of one 32-entry memo."""
        expected = {}
        for query in self.QUERIES:
            hits = sorted(((name, fragment) for name, doc in corpus.items()
                           for fragment in evaluate(doc, query).fragments),
                          key=lambda hit: hit_order_key(*hit))
            expected[query] = [(name, f.nodes) for name, f in hits]
        path = tmp_path / "corpus.idx"
        build_index(corpus, path, shards=3)
        collection = DocumentCollection.open_index(path, cache_limit=1)
        collection._cache = JoinCache(max_entries=32)
        failures: list = []

        def worker(offset: int) -> None:
            try:
                for i in range(self.SEARCHES):
                    query = self.QUERIES[(i + offset) % len(self.QUERIES)]
                    if i % 2:
                        got = _hits(collection.search(
                            query, strategy=Strategy.PUSHDOWN, stream=True,
                            limit=self.LIMIT))
                        want = expected[query][:self.LIMIT]
                    else:
                        got = _hits(collection.search(
                            query, strategy=Strategy.PUSHDOWN).hits)
                        want = expected[query]
                    if got != want:
                        failures.append((offset, i, query.describe()))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-table-operation
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=100)
        finally:
            sys.setswitchinterval(interval)
            collection.close()
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(collection._cache) <= 32


class TestSharedUnderCommits:
    QUERIES = TestSharedUnderEviction.QUERIES
    THREADS, SEARCHES, LIMIT, MEMO = 4, 30, 10, 8

    @pytest.mark.timeout(120)
    def test_searches_agree_with_no_memo_while_a_writer_commits(
            self, corpus, tmp_path):
        """Four threads search one mutable index (``cache_limit=1``,
        an 8-entry memo) while a fifth re-adds documents unchanged and
        commits.  Each re-add is a new WAL record under a fresh token,
        so its closures miss and are recomputed while the old ones age
        out: the answers never change, and the memo never holds more
        than its bound."""
        expected = {}
        for query in self.QUERIES:
            hits = sorted(((name, fragment) for name, doc in corpus.items()
                           for fragment in evaluate(doc, query).fragments),
                          key=lambda hit: hit_order_key(*hit))
            expected[query] = [(name, f.nodes) for name, f in hits]
        mutable = MutableDocumentCollection.create(
            tmp_path / "live.idx", corpus, shards=3, cache_limit=1)
        memo = mutable._cache = JoinCache(max_entries=self.MEMO)
        failures: list = []
        sizes: list[int] = []
        searching = threading.Event()
        commits = [0]

        def search(offset: int) -> None:
            try:
                for i in range(self.SEARCHES):
                    query = self.QUERIES[(i + offset) % len(self.QUERIES)]
                    if i % 2:
                        got = _hits(mutable.search(
                            query, strategy=Strategy.PUSHDOWN, stream=True,
                            limit=self.LIMIT))
                        want = expected[query][:self.LIMIT]
                    else:
                        got = _hits(mutable.search(
                            query, strategy=Strategy.PUSHDOWN).hits)
                        want = expected[query]
                    sizes.append(len(memo))
                    if got != want:
                        failures.append((offset, i, query.describe()))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        def write() -> None:
            names = sorted(corpus)
            try:
                while searching.is_set():
                    name = names[commits[0] % len(names)]
                    mutable.add(corpus[name], name)          # commits
                    commits[0] += 1
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        readers = [threading.Thread(target=search, args=(n,))
                   for n in range(self.THREADS)]
        writer = threading.Thread(target=write)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-table-operation
        searching.set()
        try:
            writer.start()
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=100)
        finally:
            searching.clear()
            writer.join(timeout=100)
            sys.setswitchinterval(interval)
            mutable.close()
        assert not any(t.is_alive() for t in readers + [writer])
        assert failures == []
        assert commits[0] > 0
        assert len(sizes) == self.THREADS * self.SEARCHES
        assert max(sizes) <= self.MEMO and len(memo) <= self.MEMO
