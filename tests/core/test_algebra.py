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
from repro.core.fragment import Fragment
from repro.core.stats import OperationStats
from repro.errors import CrossDocumentError, FragmentError

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


class TestJoinCache:
    def test_cache_hit_returns_same_result(self, tiny_doc):
        cache = JoinCache()
        stats = OperationStats()
        f1, f2 = Fragment(tiny_doc, [2]), Fragment(tiny_doc, [5])
        first = fragment_join(f1, f2, stats=stats, cache=cache)
        second = fragment_join(f1, f2, stats=stats, cache=cache)
        assert first == second
        assert stats.fragment_joins == 1
        assert stats.join_cache_hits == 1

    def test_cache_is_commutative(self, tiny_doc):
        cache = JoinCache()
        stats = OperationStats()
        f1, f2 = Fragment(tiny_doc, [2]), Fragment(tiny_doc, [5])
        fragment_join(f1, f2, stats=stats, cache=cache)
        fragment_join(f2, f1, stats=stats, cache=cache)
        assert stats.fragment_joins == 1

    def test_eviction_bounds_size(self, tiny_doc):
        cache = JoinCache(max_entries=1)
        fragment_join(Fragment(tiny_doc, [2]), Fragment(tiny_doc, [3]),
                      cache=cache)
        fragment_join(Fragment(tiny_doc, [2]), Fragment(tiny_doc, [5]),
                      cache=cache)
        assert len(cache) == 1

    def test_clear(self, tiny_doc):
        cache = JoinCache()
        fragment_join(Fragment(tiny_doc, [2]), Fragment(tiny_doc, [3]),
                      cache=cache)
        cache.clear()
        assert len(cache) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            JoinCache(max_entries=0)

    def test_cache_is_document_scoped(self, tiny_doc, chain_doc):
        # Regression: a cache shared across documents must never hand a
        # fragment of one document back for the other, even when the
        # operand node-id sets coincide.
        cache = JoinCache()
        tiny_join = fragment_join(Fragment(tiny_doc, [1]),
                                  Fragment(tiny_doc, [2]),
                                  cache=cache)
        chain_join = fragment_join(Fragment(chain_doc, [1]),
                                   Fragment(chain_doc, [2]),
                                   cache=cache)
        assert tiny_join.document is tiny_doc
        assert chain_join.document is chain_doc

    def test_keys_on_token_not_id(self, tiny_doc):
        # Regression for the id() staleness hole: after a document is
        # garbage collected, a new document may reuse its memory address
        # — id()-based keys would then serve the dead document's joins.
        # Tokens are monotonic and never reused, so the cache misses.
        import gc
        from repro.workloads.figure1 import build_figure1_document

        cache = JoinCache()
        doc = build_figure1_document()
        fragment_join(Fragment(doc, [1]), Fragment(doc, [2]), cache=cache)
        assert cache.misses == 1
        del doc
        gc.collect()
        fresh = build_figure1_document()
        stats = OperationStats()
        joined = fragment_join(Fragment(fresh, [1]), Fragment(fresh, [2]),
                               stats=stats, cache=cache)
        assert stats.join_cache_hits == 0
        assert joined.document is fresh

    def test_memo_holds_node_sets_and_rebinds_to_live_operand(
            self, tiny_doc):
        # The memo owns no document: what it stores is the joined node
        # set, and a hit is bound to the operand it was asked with.
        cache = JoinCache()
        f1, f2 = Fragment(tiny_doc, [2]), Fragment(tiny_doc, [5])
        joined = fragment_join(f1, f2, cache=cache)
        assert list(cache._table.values()) == [joined.nodes]
        hit = cache.get(f1, f2)
        assert hit == joined and hit.document is tiny_doc

    def test_key_is_order_free(self, tiny_doc):
        cache = JoinCache()
        f1, f2 = Fragment(tiny_doc, [2]), Fragment(tiny_doc, [5])
        cache.put(f1, f2, fragment_join(f1, f2))
        assert cache.get(f1, f2) == cache.get(f2, f1) \
            == fragment_join(f1, f2)
        assert (len(cache), cache.hits, cache.misses) == (1, 2, 0)

    def test_equal_hashes_never_cross_answers(self, tiny_doc):
        # The key orders the operand sets by their cached hashes but is
        # made of the sets themselves: with every hash forced equal, a
        # pair may be stored under both orders, never mistaken for
        # another pair.
        cache = JoinCache()
        frags = [Fragment(tiny_doc, [n]) for n in (2, 3, 5)]
        for frag in frags:
            frag._hash = 7
        f2, f3, f5 = frags
        cache.put(f2, f3, fragment_join(f2, f3))
        assert cache.get(f2, f5) is None
        assert cache.get(f5, f3) is None
        for a, b in ((f2, f3), (f3, f2), (f2, f5), (f5, f2)):
            assert fragment_join(a, b, cache=cache).nodes == \
                fragment_join(a, b).nodes
        assert len(cache) <= 4

    def test_threads_share_a_cache_without_a_lock(self):
        """Pins the contract, not a reproduction: ``get`` is a lookup
        followed by ``move_to_end``, and a ``put`` on another thread may
        evict the key in between.  The unguarded version could not be
        made to fail in 80 000 four-thread lookups on CPython 3.11, so
        this only asserts what must hold — no exception, right answers —
        under the most hostile schedule we can ask for."""
        import sys
        import threading
        from itertools import combinations
        from repro.xmltree.builder import DocumentBuilder

        b = DocumentBuilder(name="star")
        root = b.add_root("r", "root")
        leaves = [b.add_child(root, "leaf", f"w{i}") for i in range(6)]
        doc = b.build()
        pairs = [(Fragment(doc, [x]), Fragment(doc, [y]))
                 for x, y in combinations(leaves, 2)][:12]
        expected = [fragment_join(f1, f2).nodes for f1, f2 in pairs]
        cache = JoinCache(max_entries=8)
        errors: list = []

        def worker(offset: int) -> None:
            try:
                for i in range(2000):
                    k = (i * 5 + offset) % len(pairs)
                    got = fragment_join(*pairs[k], cache=cache)
                    if got.nodes != expected[k] or got.document is not doc:
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
        assert len(cache) <= 8 + len(threads)

    def test_lru_hit_refreshes_recency(self, tiny_doc):
        # FIFO would evict the oldest entry regardless of use; true LRU
        # keeps a re-used entry alive and evicts the cold one.
        cache = JoinCache(max_entries=2)
        a = (Fragment(tiny_doc, [2]), Fragment(tiny_doc, [3]))
        b = (Fragment(tiny_doc, [2]), Fragment(tiny_doc, [5]))
        c = (Fragment(tiny_doc, [3]), Fragment(tiny_doc, [5]))
        fragment_join(*a, cache=cache)
        fragment_join(*b, cache=cache)
        assert cache.get(*a) is not None   # refresh a: b is now coldest
        fragment_join(*c, cache=cache)     # evicts b
        assert cache.get(*a) is not None
        assert cache.get(*b) is None
        assert cache.get(*c) is not None

    def test_hit_miss_counters_and_metrics_export(self, tiny_doc):
        from repro.obs import (JOIN_CACHE_MEMO_ENTRIES,
                               JOIN_CACHE_MEMO_HITS,
                               JOIN_CACHE_MEMO_MISSES, MetricsRegistry)

        cache = JoinCache()
        f1, f2 = Fragment(tiny_doc, [2]), Fragment(tiny_doc, [5])
        fragment_join(f1, f2, cache=cache)
        fragment_join(f1, f2, cache=cache)
        fragment_join(f1, f2, cache=cache)
        assert cache.misses == 1
        assert cache.hits == 2
        cache.clear()
        assert (cache.hits, cache.misses) == (2, 1)  # counters survive
        fragment_join(f1, f2, cache=cache)
        registry = MetricsRegistry()
        cache.export_metrics(registry)
        assert registry.gauge(JOIN_CACHE_MEMO_HITS,
                              "Lifetime JoinCache memo hits.").value == 2
        assert registry.gauge(JOIN_CACHE_MEMO_MISSES,
                              "Lifetime JoinCache memo misses.").value == 2
        assert registry.gauge(JOIN_CACHE_MEMO_ENTRIES,
                              "Joins the JoinCache memo holds.").value == 1


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
