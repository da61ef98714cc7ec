"""Unit and property tests for the fragment algebra (paper §2.2).

The paper's algebraic laws are tested property-based over random
documents:

* fragment join: idempotent, commutative, associative, absorptive;
* pairwise join: commutative, associative, monotone, distributes over
  union;
* powerset join: matches its subset-enumeration definition and contains
  the pairwise join.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.algebra import (JoinCache, fragment_join, join_all,
                                multiway_powerset_join, nonempty_subsets,
                                pairwise_join, powerset_join)
from repro.core.filters import SizeAtMost
from repro.core.fragment import Fragment
from repro.core.query import Query
from repro.core.stats import OperationStats
from repro.core.strategies import evaluate
from repro.errors import CrossDocumentError, FragmentError
from repro.xmltree.builder import DocumentBuilder

from ..treegen import document_and_fragments, document_and_nodesets


class TestFragmentJoinUnit:
    def test_documented_figure3_join(self, figure3):
        joined = fragment_join(figure3.fragment("n4", "n5"),
                               figure3.fragment("n7", "n9"))
        assert figure3.labels_of(joined) == \
            {"n3", "n4", "n5", "n6", "n7", "n9"}

    def test_join_of_node_with_itself(self, tiny_doc):
        frag = Fragment(tiny_doc, [2])
        assert fragment_join(frag, frag) == frag

    def test_join_parent_child_absorbs(self, tiny_doc):
        parent = Fragment(tiny_doc, [1, 2])
        child = Fragment(tiny_doc, [2])
        assert fragment_join(parent, child) == parent
        assert fragment_join(child, parent) == parent

    def test_join_of_siblings(self, tiny_doc):
        joined = fragment_join(Fragment(tiny_doc, [2]),
                               Fragment(tiny_doc, [3]))
        assert joined.nodes == frozenset([1, 2, 3])

    def test_join_across_branches(self, tiny_doc):
        joined = fragment_join(Fragment(tiny_doc, [2]),
                               Fragment(tiny_doc, [5]))
        assert joined.nodes == frozenset([0, 1, 2, 4, 5])

    def test_cross_document_rejected(self, tiny_doc, chain_doc):
        with pytest.raises(CrossDocumentError):
            fragment_join(Fragment(tiny_doc, [0]),
                          Fragment(chain_doc, [0]))

    def test_stats_counted(self, tiny_doc):
        stats = OperationStats()
        fragment_join(Fragment(tiny_doc, [2]), Fragment(tiny_doc, [3]),
                      stats=stats)
        assert stats.fragment_joins == 1

    def test_absorption_not_counted_as_join(self, tiny_doc):
        stats = OperationStats()
        parent = Fragment(tiny_doc, [1, 2])
        fragment_join(parent, Fragment(tiny_doc, [2]), stats=stats)
        assert stats.fragment_joins == 0


def _memoised(doc, term, memo, **options):
    """One single-term query (its plan is one fixed point) through
    ``memo``: the run's result."""
    return evaluate(doc, Query.of(term, **options), cache=memo)


class TestJoinCache:
    """The memo holds completed fixed points.  In ``tiny_doc`` each of
    ``red`` (nodes 2, 5), ``pear`` (3, 5) and ``colours`` (1, 4) has a
    two-fragment base, so each query is one memoisable closure."""

    def test_cache_hit_returns_same_result(self, tiny_doc):
        memo = JoinCache()
        first = _memoised(tiny_doc, "red", memo)
        second = _memoised(tiny_doc, "red", memo)
        assert first.fragments == second.fragments
        assert first.stats["fragment_joins"] > 0
        assert first.stats["join_cache_hits"] == 0
        assert (second.stats["fragment_joins"],
                second.stats["join_cache_hits"]) == (0, 1)

    def test_cache_is_commutative(self, tiny_doc):
        # F1+ ⋈ F2+ = F2+ ⋈ F1+, and a closure's key is its base, not
        # the side of the join it sits on: swapping the terms replays.
        memo = JoinCache()
        forward = evaluate(tiny_doc, Query.of("red", "pear"), cache=memo)
        backward = evaluate(tiny_doc, Query.of("pear", "red"), cache=memo)
        assert forward.fragments == backward.fragments
        assert (forward.stats["join_cache_hits"],
                backward.stats["join_cache_hits"]) == (0, 2)
        assert len(memo) == 2

    def test_key_is_order_free(self, tiny_doc):
        # The key is the base alone: a closure computed as one side of
        # a join replays wherever a later plan asks for it.
        memo = JoinCache()
        evaluate(tiny_doc, Query.of("red", "pear"), cache=memo)
        assert [_memoised(tiny_doc, term, memo).stats["join_cache_hits"]
                for term in ("pear", "red")] == [1, 1]
        assert (len(memo), memo.hits, memo.misses) == (2, 2, 2)

    def test_eviction_bounds_size(self, tiny_doc):
        memo = JoinCache(max_entries=1)
        _memoised(tiny_doc, "red", memo)
        _memoised(tiny_doc, "pear", memo)
        assert len(memo) == 1

    def test_clear(self, tiny_doc):
        memo = JoinCache()
        _memoised(tiny_doc, "red", memo)
        memo.clear()
        assert len(memo) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            JoinCache(max_entries=0)

    def test_cache_is_document_scoped(self, tiny_doc):
        # Regression: a memo shared across documents must never hand a
        # closure of one document back for the other, even when the
        # bases' node-id sets coincide (``red`` on nodes 2 and 5 here
        # too, but on a chain).
        builder = DocumentBuilder(name="chain")
        node = builder.add_root("a", "")
        for word in ("", "red", "", "", "red"):
            node = builder.add_child(node, "b", word)
        chain = builder.build()
        memo = JoinCache()
        for doc in (tiny_doc, chain):
            run = _memoised(doc, "red", memo)
            assert run.stats["join_cache_hits"] == 0
            assert run.fragments == evaluate(doc, Query.of("red")).fragments
            assert all(f.document is doc for f in run.fragments)

    def test_keys_on_token_not_id(self):
        # Regression for the id() staleness hole: after a document is
        # garbage collected, a new document may reuse its memory address
        # — id()-based keys would then replay the dead document's
        # closures.  Tokens are monotonic and never reused: a miss.
        import gc
        from repro.workloads.figure1 import build_figure1_document

        memo = JoinCache()
        doc = build_figure1_document()
        _memoised(doc, "xquery", memo)
        assert memo.misses == 1
        del doc
        gc.collect()
        fresh = build_figure1_document()
        run = _memoised(fresh, "xquery", memo)
        assert run.stats["join_cache_hits"] == 0
        assert all(f.document is fresh for f in run.fragments)

    def test_memo_holds_node_sets_and_rebinds_to_live_operand(
            self, tiny_doc):
        # The memo owns no document: an entry is the closure's node
        # sets in emission order, and a replay is bound to the document
        # of the base it was asked with.
        memo = JoinCache()
        computed = _memoised(tiny_doc, "red", memo).fragments
        (entry,) = memo._table.values()
        assert all(type(nodes) is frozenset for nodes in entry)
        assert set(entry) == {f.nodes for f in computed}
        replayed = _memoised(tiny_doc, "red", memo).fragments
        assert replayed == computed
        assert all(f.document is tiny_doc for f in replayed)

    def test_threads_share_a_cache_without_a_lock(self):
        """Pins the contract, not a reproduction: ``closure`` is a
        lookup followed by ``move_to_end``, and a ``put_closure`` on
        another thread may evict the key in between.  Asserts what must
        hold — no exception, right answers — under the most hostile
        schedule we can ask for."""
        import sys
        import threading

        # Six leaves; w<i> tags leaves i and i+1, so every term's base
        # holds two fragments and every query is one closure.
        b = DocumentBuilder(name="star")
        root = b.add_root("r", "root")
        for i in range(6):
            b.add_child(root, "leaf", f"w{i} w{(i + 5) % 6}")
        doc = b.build()
        queries = [Query.of(f"w{i}", predicate=SizeAtMost(size))
                   for i in range(6) for size in (3, 7)]
        expected = [evaluate(doc, query).fragments for query in queries]
        memo = JoinCache(max_entries=4)
        errors: list = []

        def worker(offset: int) -> None:
            try:
                for i in range(300):
                    k = (i * 5 + offset) % len(queries)
                    got = evaluate(doc, queries[k], cache=memo).fragments
                    if got != expected[k] \
                            or any(f.document is not doc for f in got):
                        errors.append((k, got))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t * 3,))
                       for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert memo.hits and memo.misses
        assert len(memo) <= 4

    def test_stores_never_overfill_the_table(self):
        """Four threads store while a fifth reads ``len``: no reading
        may exceed ``max_entries``.  An insert-then-evict store let the
        sampler see up to 12 of 8 on CPython 3.10."""
        import sys
        import threading

        memo = JoinCache(max_entries=8)
        seen: list[int] = []
        done = threading.Event()

        def store(offset: int) -> None:
            for i in range(20000):
                memo.put_closure((offset, i), ())

        def sample() -> None:
            while not done.is_set():
                seen.append(len(memo))

        writers = [threading.Thread(target=store, args=(n,))
                   for n in range(4)]
        sampler = threading.Thread(target=sample)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sampler.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
        finally:
            done.set()
            sampler.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + [sampler])
        assert seen and max(seen) <= 8 and len(memo) == 8

    def test_lru_hit_refreshes_recency(self, tiny_doc):
        # FIFO would evict the oldest entry regardless of use; true LRU
        # keeps a re-used entry alive and evicts the cold one.
        memo = JoinCache(max_entries=2)
        _memoised(tiny_doc, "red", memo)
        _memoised(tiny_doc, "pear", memo)
        assert _memoised(tiny_doc, "red", memo).stats[
            "join_cache_hits"] == 1              # refresh: pear is coldest
        _memoised(tiny_doc, "colours", memo)     # evicts pear
        assert [_memoised(tiny_doc, term, memo).stats["join_cache_hits"]
                for term in ("red", "colours", "pear")] == [1, 1, 0]

    def test_hit_miss_counters_and_metrics_export(self, tiny_doc):
        from repro.obs import (JOIN_CACHE_MEMO_ENTRIES,
                               JOIN_CACHE_MEMO_HITS,
                               JOIN_CACHE_MEMO_MISSES, MetricsRegistry)

        memo = JoinCache()
        for _ in range(3):
            _memoised(tiny_doc, "red", memo)
        assert memo.misses == 1
        assert memo.hits == 2
        memo.clear()
        assert (memo.hits, memo.misses) == (2, 1)  # counters survive
        _memoised(tiny_doc, "red", memo)
        registry = MetricsRegistry()
        memo.export_metrics(registry)
        assert registry.gauge(JOIN_CACHE_MEMO_HITS).value == 2
        assert registry.gauge(JOIN_CACHE_MEMO_MISSES).value == 2
        assert registry.gauge(JOIN_CACHE_MEMO_ENTRIES).value == 1


class TestJoinAll:
    def test_empty_rejected(self):
        with pytest.raises(FragmentError):
            join_all([])

    def test_single(self, tiny_doc):
        frag = Fragment(tiny_doc, [2])
        assert join_all([frag]) == frag

    def test_order_irrelevant(self, tiny_doc):
        frags = [Fragment(tiny_doc, [2]), Fragment(tiny_doc, [3]),
                 Fragment(tiny_doc, [5])]
        assert join_all(frags) == join_all(reversed(frags))


class TestFragmentJoinLaws:
    @given(document_and_fragments(max_fragments=1))
    def test_idempotency(self, doc_and_frags):
        _, (f,) = doc_and_frags
        assert fragment_join(f, f) == f

    @given(document_and_fragments(max_fragments=2))
    def test_commutativity(self, doc_and_frags):
        _, frags = doc_and_frags
        f1, f2 = frags[0], frags[-1]
        assert fragment_join(f1, f2) == fragment_join(f2, f1)

    @settings(max_examples=60)
    @given(document_and_fragments(max_fragments=3))
    def test_associativity(self, doc_and_frags):
        _, frags = doc_and_frags
        f1, f2, f3 = (frags * 3)[:3]
        left = fragment_join(fragment_join(f1, f2), f3)
        right = fragment_join(f1, fragment_join(f2, f3))
        assert left == right

    @given(document_and_fragments(max_fragments=2))
    def test_absorption(self, doc_and_frags):
        doc, frags = doc_and_frags
        f1 = frags[0]
        # Lemma 1: f ⊆ f ⋈ f' for any f'.
        f2 = frags[-1]
        joined = fragment_join(f1, f2)
        assert f1 <= joined
        assert f2 <= joined
        # Absorption proper: joining with a sub-fragment is identity.
        assert fragment_join(joined, f1) == joined

    @given(document_and_fragments(max_fragments=2))
    def test_result_is_minimal(self, doc_and_frags):
        doc, frags = doc_and_frags
        f1, f2 = frags[0], frags[-1]
        joined = fragment_join(f1, f2)
        union = f1.nodes | f2.nodes
        # Minimality (Def. 4, condition 3): no strictly smaller
        # connected superset of the operands exists.
        from repro.xmltree.navigation import is_connected
        for node in joined.nodes - union:
            assert not is_connected(doc, joined.nodes - {node})


class TestPairwiseJoinUnit:
    def test_paper_example(self, figure3):
        set1 = figure3.fragment_set([["n4", "n5"], ["n2"]])
        set2 = figure3.fragment_set([["n7", "n9"], ["n8"]])
        result = pairwise_join(set1, set2)
        # 2 x 2 pairs, possibly deduplicated.
        assert 1 <= len(result) <= 4
        joined = fragment_join(figure3.fragment("n4", "n5"),
                               figure3.fragment("n7", "n9"))
        assert joined in result

    def test_empty_operand_gives_empty(self, tiny_doc):
        frags = frozenset([Fragment(tiny_doc, [2])])
        assert pairwise_join(frags, frozenset()) == frozenset()
        assert pairwise_join(frozenset(), frags) == frozenset()

    def test_deduplicates(self, tiny_doc):
        # Both pairs join to the same fragment.
        set1 = frozenset([Fragment(tiny_doc, [2]), Fragment(tiny_doc, [3])])
        set2 = frozenset([Fragment(tiny_doc, [1, 2, 3])])
        assert len(pairwise_join(set1, set2)) == 1


class TestPairwiseJoinLaws:
    @given(document_and_nodesets(max_sets=2))
    def test_commutativity(self, doc_and_sets):
        _, (s1, s2) = doc_and_sets
        assert pairwise_join(s1, s2) == pairwise_join(s2, s1)

    @settings(max_examples=50)
    @given(document_and_nodesets(max_sets=3, max_set_size=3))
    def test_associativity(self, doc_and_sets):
        _, sets = doc_and_sets
        s1, s2, s3 = sets
        left = pairwise_join(pairwise_join(s1, s2), s3)
        right = pairwise_join(s1, pairwise_join(s2, s3))
        assert left == right

    @given(document_and_nodesets(max_sets=1))
    def test_monotonicity(self, doc_and_sets):
        _, (s1,) = doc_and_sets
        assert pairwise_join(s1, s1) >= s1

    @settings(max_examples=50)
    @given(document_and_nodesets(max_sets=3, max_set_size=3))
    def test_distributes_over_union(self, doc_and_sets):
        _, (s1, s2, s3) = doc_and_sets
        left = pairwise_join(s1, s2 | s3)
        right = pairwise_join(s1, s2) | pairwise_join(s1, s3)
        assert left == right

    def test_no_idempotency_counterexample(self, tiny_doc):
        # The paper notes F ⋈ F ≠ F in general: siblings generate their
        # parent fragment.
        frags = frozenset([Fragment(tiny_doc, [2]), Fragment(tiny_doc, [3])])
        assert pairwise_join(frags, frags) != frags


class TestNonemptySubsets:
    def test_counts(self):
        assert len(list(nonempty_subsets([1, 2, 3]))) == 7
        assert list(nonempty_subsets([]))  == []

    def test_subsets_unique(self):
        subsets = list(nonempty_subsets("abc"))
        assert len(subsets) == len(set(subsets))


class TestPowersetJoin:
    def test_definition_by_enumeration(self, figure3):
        set1 = figure3.fragment_set([["n4", "n5"], ["n2"]])
        set2 = figure3.fragment_set([["n7", "n9"], ["n8"]])
        result = powerset_join(set1, set2)
        expected = set()
        for sub1 in nonempty_subsets(sorted(set1, key=lambda f: f.root)):
            for sub2 in nonempty_subsets(sorted(set2,
                                                key=lambda f: f.root)):
                expected.add(join_all(list(sub1) + list(sub2)))
        assert result == frozenset(expected)

    def test_contains_pairwise_join(self, figure3):
        set1 = figure3.fragment_set([["n4"], ["n5"]])
        set2 = figure3.fragment_set([["n8"], ["n2"]])
        assert pairwise_join(set1, set2) <= powerset_join(set1, set2)

    def test_produces_more_than_pairwise(self, figure3):
        # Figure 3 (c) vs (d): powerset join yields extra fragments.
        set1 = figure3.fragment_set([["n4", "n5"], ["n2"]])
        set2 = figure3.fragment_set([["n7", "n9"], ["n8"]])
        assert len(powerset_join(set1, set2)) >= \
            len(pairwise_join(set1, set2))

    def test_operand_size_guard(self, tiny_doc):
        frags = frozenset(Fragment(tiny_doc, [i]) for i in range(6))
        with pytest.raises(FragmentError, match="refused"):
            powerset_join(frags, frags, max_operand_size=5)

    def test_guard_can_be_disabled(self, tiny_doc):
        frags = frozenset(Fragment(tiny_doc, [i]) for i in range(3))
        result = powerset_join(frags, frags, max_operand_size=None)
        assert result


class TestMultiwayPowersetJoin:
    def test_binary_case_matches_powerset_join(self, figure3):
        set1 = figure3.fragment_set([["n4"], ["n2"]])
        set2 = figure3.fragment_set([["n8"], ["n9"]])
        assert multiway_powerset_join([set1, set2]) == \
            powerset_join(set1, set2)

    def test_single_operand_is_fixed_point_like(self, tiny_doc):
        frags = frozenset([Fragment(tiny_doc, [2]), Fragment(tiny_doc, [3])])
        result = multiway_powerset_join([frags])
        # {⋈F' | F' ⊆ F, F' ≠ ∅} — the fixed point of F.
        from repro.core.reduce import fixed_point
        assert result == fixed_point(frags)

    def test_three_way(self, tiny_doc):
        sets = [frozenset([Fragment(tiny_doc, [i])]) for i in (2, 3, 5)]
        result = multiway_powerset_join(sets)
        assert result == frozenset(
            [Fragment(tiny_doc, [0, 1, 2, 3, 4, 5])])

    def test_no_operands_rejected(self):
        with pytest.raises(FragmentError):
            multiway_powerset_join([])

    def test_guard(self, tiny_doc):
        frags = frozenset(Fragment(tiny_doc, [i]) for i in range(6))
        with pytest.raises(FragmentError, match="refused"):
            multiway_powerset_join([frags], max_operand_size=5)

    @settings(max_examples=40)
    @given(document_and_nodesets(max_sets=2, max_set_size=3))
    def test_theorem2_equivalence(self, doc_and_sets):
        """Theorem 2: F1 ⋈* F2 = F1+ ⋈ F2+."""
        from repro.core.reduce import fixed_point
        _, (s1, s2) = doc_and_sets
        direct = powerset_join(s1, s2)
        via_fixed_points = pairwise_join(fixed_point(s1), fixed_point(s2))
        assert direct == via_fixed_points
