"""Property and unit tests for the one fragment join.

``fragment_join`` (Definition 4) climbs from the operands' two roots to
their LCA.  The reference it is held to is the closure the baselines
use, :func:`repro.xmltree.navigation.spanning_nodes`, which climbs from
*every* node of the union: on every input the two must produce
**identical** node sets.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.collection.collection import DocumentCollection
from repro.core.algebra import (JoinCache, fragment_join, join_all,
                                pairwise_join)
from repro.core.filters import SizeAtMost
from repro.core.fragment import Fragment
from repro.core.query import Query
from repro.core.strategies import Strategy, evaluate
from repro.errors import CrossDocumentError
from repro.xmltree.builder import DocumentBuilder
from repro.xmltree.labeling import climb_lca
from repro.xmltree.navigation import spanning_nodes

from ..treegen import (KEYWORD_ALPHABET, documents, make_document,
                       random_fragment)


def closure(doc, *fragments):
    """The reference join: the closure of the operands' union."""
    return spanning_nodes(doc, frozenset().union(*(f.nodes
                                                   for f in fragments)))


@st.composite
def document_and_node_sets(draw, max_nodes: int = 14):
    """A document plus a non-empty random node-id set."""
    doc = draw(documents(min_nodes=1, max_nodes=max_nodes))
    size = draw(st.integers(min_value=1, max_value=min(6, doc.size)))
    ids = draw(st.lists(st.integers(min_value=0, max_value=doc.size - 1),
                        min_size=size, max_size=size, unique=True))
    return doc, ids


class TestSpanningAgreement:
    """Folding the join over single nodes spans them as the reference
    closure does — whatever order the fold takes them in."""

    @given(document_and_node_sets())
    def test_spanning_matches_reference(self, doc_and_ids):
        doc, ids = doc_and_ids
        singles = [Fragment.from_node(doc, n) for n in ids]
        expected = spanning_nodes(doc, ids)
        assert join_all(singles).nodes == expected
        assert join_all(reversed(singles)).nodes == expected

    @given(document_and_node_sets(), document_and_node_sets())
    def test_spanning_of_union(self, first, second):
        doc, ids1 = first
        _, ids2raw = second
        ids2 = [n % doc.size for n in ids2raw]
        f1 = join_all(Fragment.from_node(doc, n) for n in ids1)
        f2 = join_all(Fragment.from_node(doc, n) for n in ids2)
        assert (fragment_join(f1, f2).nodes
                == spanning_nodes(doc, list(ids1) + ids2))


class TestJoinAgreement:
    @settings(max_examples=300)
    @given(documents(min_nodes=2, max_nodes=24),
           st.integers(min_value=0, max_value=2 ** 30),
           st.integers(min_value=0, max_value=2 ** 30))
    def test_fragment_join_matches_reference(self, doc, seed1, seed2):
        f1 = random_fragment(doc, seed1)
        f2 = random_fragment(doc, seed2)
        expected = closure(doc, f1, f2)
        assert fragment_join(f1, f2).nodes == expected
        assert fragment_join(f2, f1).nodes == expected

    @given(documents(min_nodes=2, max_nodes=12),
           st.lists(st.integers(min_value=0, max_value=2 ** 30),
                    min_size=2, max_size=4))
    def test_pairwise_join_matches_reference(self, doc, seeds):
        frags = [random_fragment(doc, s) for s in seeds]
        left, right = frags[: len(frags) // 2], frags[len(frags) // 2:]
        assert pairwise_join(left, right) == {
            Fragment(doc, closure(doc, f1, f2))
            for f1 in left for f2 in right}

    @given(documents(min_nodes=2, max_nodes=16))
    def test_climbed_lca_matches_document(self, doc):
        """The climb the join, the bound and ``Document.lca`` use finds
        the LCA the document's interval labels define, and its depth:
        an ancestor-or-self of both nodes that no child of it covers."""
        depth = doc.labels.depth
        for u in range(doc.size):
            for v in range(doc.size):
                a, top = climb_lca(doc.parents, u, v, depth[u], depth[v])
                assert top == depth[a]
                assert doc.is_ancestor_or_self(a, u)
                assert doc.is_ancestor_or_self(a, v)
                assert not any(doc.is_ancestor_or_self(c, u)
                               and doc.is_ancestor_or_self(c, v)
                               for c in doc.children(a))

    @settings(deadline=None, max_examples=30)
    @given(documents(min_nodes=2, max_nodes=12))
    def test_evaluate_matches_reference(self, doc):
        """``kernel=`` outlives the kernels on two entry points, for
        ``benchmarks/serving``: accepted, and changes nothing."""
        query = Query(KEYWORD_ALPHABET[:2])
        collection = DocumentCollection("one")
        collection.add(doc, "doc")
        for strategy in (Strategy.BRUTE_FORCE, Strategy.SET_REDUCTION,
                         Strategy.PUSHDOWN):
            plain = evaluate(doc, query, strategy=strategy)
            assert evaluate(doc, query, strategy=strategy,
                            kernel="bitset").fragments == plain.fragments
            searched = collection.search(query, strategy=strategy,
                                         kernel="reference")
            assert [hit.fragment for hit in searched.hits] \
                == [hit.fragment for hit in collection.search(
                    query, strategy=strategy).hits]
            assert {hit.fragment for hit in searched.hits} \
                == plain.fragments


def deep_document(depth: int = 200):
    """A ``depth``-deep chain with one side leaf hung off its middle;
    returns ``(document, chain leaf, side leaf, fork)``."""
    builder = DocumentBuilder(name="deep")
    node = builder.add_root("top", "")
    middle = None
    for level in range(1, depth + 1):
        node = builder.add_child(node, "link", "")
        if level == depth // 2:
            middle = node
    builder.add_child(middle, "side", "")
    doc = builder.build()
    by_depth = doc.labels.depth
    leaf = max(range(doc.size), key=by_depth.__getitem__)
    side = next(n for n in range(doc.size) if doc.tag(n) == "side")
    return doc, leaf, side, doc.parent(side)


class TestNamedCases:
    def join(self, doc, nodes1, nodes2):
        f1, f2 = Fragment(doc, nodes1), Fragment(doc, nodes2)
        joined = fragment_join(f1, f2)
        assert joined.nodes == closure(doc, f1, f2)
        assert joined == fragment_join(f2, f1)
        return sorted(joined.nodes)

    def test_root_above_root(self, tiny_doc):
        assert self.join(tiny_doc, [1, 2], [3]) == [1, 2, 3]
        assert self.join(tiny_doc, [0], [5]) == [0, 4, 5]
        assert self.join(tiny_doc, [0, 1], [5]) == [0, 1, 4, 5]

    def test_equal_roots(self, tiny_doc):
        assert self.join(tiny_doc, [1, 2], [1, 3]) == [1, 2, 3]
        assert self.join(tiny_doc, [0, 1], [0, 4, 5]) == [0, 1, 4, 5]

    def test_sibling_roots(self, tiny_doc):
        assert self.join(tiny_doc, [2], [3]) == [1, 2, 3]
        assert self.join(tiny_doc, [1, 3], [4, 5]) == [0, 1, 3, 4, 5]
        assert self.join(tiny_doc, [2], [5]) == [0, 1, 2, 4, 5]

    def test_absorbed_operand_is_returned_as_is(self, tiny_doc):
        whole, part = Fragment(tiny_doc, [0, 1, 2]), Fragment(tiny_doc, [1])
        assert fragment_join(whole, part) is whole
        assert fragment_join(part, whole) is whole

    def test_deep_chain(self):
        doc, leaf, side, fork = deep_document(200)
        assert doc.depth(leaf) == 200 and doc.depth(fork) == 100
        # Leaf against the root: the whole chain, not the side leaf.
        assert self.join(doc, [leaf], [0]) == sorted(
            set(range(doc.size)) - {side})
        # Leaf against the side leaf: both climbs stop at the fork.
        joined = self.join(doc, [leaf], [side])
        assert joined[0] == fork and len(joined) == 100 + 1 + 1

    def test_single_node_document(self):
        builder = DocumentBuilder(name="lonely")
        builder.add_root("only", "")
        only = Fragment.whole_document(builder.build())
        assert fragment_join(only, only) is only

    def test_cross_document_operands_rejected(self, tiny_doc, chain_doc):
        with pytest.raises(CrossDocumentError):
            fragment_join(Fragment(tiny_doc, [1]), Fragment(chain_doc, [1]))


def join_from_threads(threads: int = 8, rounds: int = 300) -> None:
    """``threads`` threads join random pairs of one shared document,
    and evaluate its fixed points through one shared four-entry memo;
    every join must be the serial reference closure and every answer
    the serial one.  The join keeps no state of its own, and the memo
    is evicting under it all the way."""
    rng = random.Random(5)
    doc = make_document([rng.randrange(64) for _ in range(59)],
                        [rng.choice((0, 0, 0, 0, 1, 2, 4, 7))
                         for _ in range(60)])
    pairs = [(random_fragment(doc, seed), random_fragment(doc, seed + 1))
             for seed in range(0, 80, 2)]
    expected = [closure(doc, f1, f2) for f1, f2 in pairs]
    queries = [Query.of(term, predicate=SizeAtMost(size))
               for term in KEYWORD_ALPHABET for size in (2, 3)]
    answers = [evaluate(doc, query).fragments for query in queries]
    cache = JoinCache(max_entries=4)
    wrong: list = []

    def work(seed: int) -> None:
        picks = random.Random(seed)
        try:
            for _ in range(rounds):
                i = picks.randrange(len(pairs))
                if fragment_join(*pairs[i]).nodes != expected[i]:
                    wrong.append(i)
                q = picks.randrange(len(queries))
                if evaluate(doc, queries[q], cache=cache).fragments \
                        != answers[q]:
                    wrong.append(queries[q].describe())
        except Exception as exc:  # a thread's failure must fail the test
            wrong.append(repr(exc))

    workers = [threading.Thread(target=work, args=(seed,))
               for seed in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not wrong
    assert cache.hits and cache.misses and len(cache) <= 4


class TestSharedAcrossThreads:
    def test_threads_share_a_document_and_a_memo(self):
        """Run :func:`join_from_threads` in an interpreter of its own
        under ``-X dev``."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        source = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-c",
             "from tests.core.test_kernel import join_from_threads; "
             "join_from_threads()"],
            cwd=root, env={**os.environ, "PYTHONPATH": source},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert not done.stderr
