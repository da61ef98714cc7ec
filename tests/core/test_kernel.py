"""Property and unit tests for the interval-bitset join kernel.

The kernel (:class:`repro.xmltree.intervals.IntervalKernel`) is an
integer-arithmetic fast path for the spanning closure.  These tests
cross-check it against the frozenset reference implementation on
randomized trees: every closure, join and strategy evaluation must be
**identical** between the two paths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algebra import (KERNEL_BITSET, KERNEL_NAMES,
                                KERNEL_REFERENCE, fragment_join,
                                pairwise_join, resolve_kernel)
from repro.core.fragment import Fragment
from repro.core.query import Query
from repro.core.strategies import Strategy, evaluate
from repro.errors import QueryError
from repro.xmltree.intervals import IntervalKernel
from repro.xmltree.navigation import spanning_nodes

from ..treegen import KEYWORD_ALPHABET, documents, random_fragment


@st.composite
def document_and_node_sets(draw, max_nodes: int = 14):
    """A document plus a non-empty random node-id set."""
    doc = draw(documents(min_nodes=1, max_nodes=max_nodes))
    size = draw(st.integers(min_value=1, max_value=min(6, doc.size)))
    ids = draw(st.lists(st.integers(min_value=0, max_value=doc.size - 1),
                        min_size=size, max_size=size, unique=True))
    return doc, ids


class TestSpanningAgreement:
    @given(document_and_node_sets())
    def test_spanning_matches_reference(self, doc_and_ids):
        doc, ids = doc_and_ids
        kernel = doc.interval_kernel()
        assert kernel.spanning(ids) == spanning_nodes(doc, ids)

    @given(document_and_node_sets())
    def test_epoch_reuse_is_clean(self, doc_and_ids):
        # Consecutive closures share the stamp scratch array; a stale
        # epoch must never leak nodes between calls.
        doc, ids = doc_and_ids
        kernel = doc.interval_kernel()
        expected = spanning_nodes(doc, ids)
        for _ in range(3):
            assert kernel.spanning(ids) == expected

    @given(document_and_node_sets(), document_and_node_sets())
    def test_spanning_of_union(self, first, second):
        doc, ids1 = first
        _, ids2raw = second
        ids2 = [n % doc.size for n in ids2raw]
        kernel = doc.interval_kernel()
        assert (kernel.spanning_of_union(ids1, ids2)
                == spanning_nodes(doc, list(ids1) + ids2))


class TestJoinAgreement:
    @given(documents(min_nodes=2, max_nodes=16),
           st.integers(min_value=0, max_value=2 ** 30),
           st.integers(min_value=0, max_value=2 ** 30))
    def test_fragment_join_matches_reference(self, doc, seed1, seed2):
        f1 = random_fragment(doc, seed1)
        f2 = random_fragment(doc, seed2)
        reference = fragment_join(f1, f2)
        fast = fragment_join(f1, f2, kernel=doc.interval_kernel())
        assert fast == reference

    @given(documents(min_nodes=2, max_nodes=12),
           st.lists(st.integers(min_value=0, max_value=2 ** 30),
                    min_size=2, max_size=4))
    def test_pairwise_join_matches_reference(self, doc, seeds):
        frags = [random_fragment(doc, s) for s in seeds]
        left, right = frags[: len(frags) // 2], frags[len(frags) // 2:]
        reference = pairwise_join(left, right)
        fast = pairwise_join(left, right, kernel=doc.interval_kernel())
        assert fast == reference

    @settings(deadline=None, max_examples=30)
    @given(documents(min_nodes=2, max_nodes=12))
    def test_evaluate_matches_reference(self, doc):
        query = Query(KEYWORD_ALPHABET[:2])
        for strategy in (Strategy.BRUTE_FORCE, Strategy.SET_REDUCTION,
                         Strategy.PUSHDOWN):
            reference = evaluate(doc, query, strategy=strategy)
            fast = evaluate(doc, query, strategy=strategy,
                            kernel=KERNEL_BITSET)
            assert fast.fragments == reference.fragments


class TestStructuralMeasures:
    @given(documents(min_nodes=2, max_nodes=16))
    def test_ancestor_check_matches_document(self, doc):
        kernel = doc.interval_kernel()
        for u in range(doc.size):
            for v in range(doc.size):
                assert (kernel.is_ancestor_or_self(u, v)
                        == doc.is_ancestor_or_self(u, v))


class TestKernelSelection:
    def test_resolve_names(self, tiny_doc):
        assert resolve_kernel(None, tiny_doc) is None
        assert resolve_kernel(KERNEL_REFERENCE, tiny_doc) is None
        kernel = resolve_kernel(KERNEL_BITSET, tiny_doc)
        assert isinstance(kernel, IntervalKernel)
        # The kernel is cached per document.
        assert resolve_kernel(KERNEL_BITSET, tiny_doc) is kernel
        assert resolve_kernel(kernel, tiny_doc) is kernel

    def test_unknown_name_rejected(self, tiny_doc):
        with pytest.raises(QueryError, match="unknown join kernel"):
            resolve_kernel("turbo", tiny_doc)

    def test_cross_document_kernel_rejected(self, tiny_doc, chain_doc):
        kernel = tiny_doc.interval_kernel()
        with pytest.raises(QueryError, match="different document"):
            resolve_kernel(kernel, chain_doc)

    def test_kernel_names_constant(self):
        assert KERNEL_NAMES == (KERNEL_REFERENCE, KERNEL_BITSET)

    def test_empty_spanning_rejected(self, tiny_doc):
        with pytest.raises(ValueError):
            tiny_doc.interval_kernel().spanning([])
