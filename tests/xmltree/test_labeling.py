"""Unit tests for structural tree labelling."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.errors import DocumentError
from repro.xmltree.labeling import compute_labels

from ..treegen import documents


def labels_of(parents, children):
    return compute_labels(parents, children)


class TestComputeLabelsBasic:
    def test_single_node(self):
        labels = labels_of([None], [[]])
        assert labels.depth == [0]
        assert labels.size == [1]

    def test_chain(self):
        # 0 -> 1 -> 2
        labels = labels_of([None, 0, 1], [[1], [2], []])
        assert labels.depth == [0, 1, 2]
        assert labels.size == [3, 2, 1]

    def test_binary(self):
        # 0 -> 1, 2
        labels = labels_of([None, 0, 0], [[1, 2], [], []])
        assert labels.depth == [0, 1, 1]
        assert labels.size == [3, 1, 1]

    def test_child_order_respected(self):
        # 0 -> 2 then 1: document order puts node 2 first, so ids are
        # not preorder ranks, and the tree is refused.
        with pytest.raises(DocumentError, match="preorder"):
            labels_of([None, 0, 0], [[2, 1], [], []])

    def test_size_counts_whole_subtree(self):
        # 0 -> 1 -> {2, 3}, 0 -> 4
        labels = labels_of([None, 0, 1, 1, 0], [[1, 4], [2, 3], [], [], []])
        assert labels.size[0] == 5
        assert labels.size[1] == 3
        assert labels.size[4] == 1


class TestComputeLabelsErrors:
    def test_empty_rejected(self):
        with pytest.raises(DocumentError, match="at least one node"):
            labels_of([], [])

    def test_no_root_rejected(self):
        with pytest.raises(DocumentError, match="exactly one root"):
            labels_of([1, 0], [[1], [0]])

    def test_two_roots_rejected(self):
        with pytest.raises(DocumentError, match="exactly one root"):
            labels_of([None, None], [[], []])

    def test_unreachable_node_rejected(self):
        # Node 2 claims parent 1 but 1 never lists it as a child.
        with pytest.raises(DocumentError, match="unreachable"):
            labels_of([None, 0, 1], [[1], [], []])

    def test_shared_child_rejected(self):
        # Node 2 appears as child of both 0 and 1.
        with pytest.raises(DocumentError, match="reached twice"):
            labels_of([None, 0, 0], [[1, 2], [2], []])


class TestIntervalEncoding:
    def test_ancestor_or_self_reflexive(self):
        labels = labels_of([None, 0, 1], [[1], [2], []])
        for node in range(3):
            assert labels.is_ancestor_or_self(node, node)

    def test_proper_ancestor_irreflexive(self):
        labels = labels_of([None, 0, 1], [[1], [2], []])
        for node in range(3):
            assert not labels.is_proper_ancestor(node, node)

    def test_ancestor_chain(self):
        labels = labels_of([None, 0, 1], [[1], [2], []])
        assert labels.is_proper_ancestor(0, 2)
        assert labels.is_proper_ancestor(1, 2)
        assert not labels.is_proper_ancestor(2, 0)

    def test_siblings_not_ancestors(self):
        labels = labels_of([None, 0, 0], [[1, 2], [], []])
        assert not labels.is_ancestor_or_self(1, 2)
        assert not labels.is_ancestor_or_self(2, 1)


class TestLabelProperties:
    @given(documents(max_nodes=20))
    def test_preorder_ids_are_identity(self, doc):
        # Documents normalise ids to preorder ranks: a depth-first walk
        # of the child lists meets the nodes in id order.
        order, stack = [], [doc.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(doc.children(node)))
        assert order == list(range(doc.size))

    @given(documents(max_nodes=20))
    def test_sizes_sum_along_children(self, doc):
        for node in doc.node_ids():
            kids = doc.children(node)
            assert doc.subtree_size(node) == 1 + sum(
                doc.subtree_size(c) for c in kids)

    @given(documents(max_nodes=20))
    def test_interval_matches_parent_walk(self, doc):
        for v in doc.node_ids():
            ancestors = set(doc.ancestors(v)) | {v}
            for u in doc.node_ids():
                assert doc.is_ancestor_or_self(u, v) == (u in ancestors)

    @given(documents(max_nodes=20))
    def test_post_is_a_permutation(self, doc):
        # The postorder rank the relational backend derives.
        labels = doc.labels
        post = [n + labels.size[n] - 1 - labels.depth[n]
                for n in doc.node_ids()]
        assert sorted(post) == list(range(doc.size))
        for u in doc.node_ids():
            for v in doc.descendants(u):
                assert post[v] < post[u]

    @given(documents(max_nodes=20))
    def test_depth_is_parent_depth_plus_one(self, doc):
        for node in doc.node_ids():
            parent = doc.parent(node)
            if parent is None:
                assert doc.depth(node) == 0
            else:
                assert doc.depth(node) == doc.depth(parent) + 1
