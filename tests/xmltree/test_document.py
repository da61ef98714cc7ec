"""Unit tests for the Document model."""

from __future__ import annotations

import itertools
import pickle

import pytest
from hypothesis import given

from repro.errors import DocumentError
from repro.xmltree.document import Document

from ..treegen import documents


class TestConstruction:
    def test_arrays_must_align(self):
        with pytest.raises(DocumentError, match="inconsistent lengths"):
            Document(["a"], [""], [None], [[]], [])

    def test_ids_must_be_preorder(self):
        # Node 1 is the root here, so ids are not preorder ranks.
        with pytest.raises(DocumentError, match="preorder"):
            Document(["a", "b"], ["", ""], [1, None], [[], [0]],
                     [frozenset(), frozenset()])

    def test_minimal_document(self):
        doc = Document(["a"], ["x"], [None], [[]], [frozenset(["x"])])
        assert doc.size == 1
        assert doc.root == 0
        assert doc.max_depth == 0


class TestAccessors:
    def test_structure(self, tiny_doc):
        assert tiny_doc.size == 6
        assert len(tiny_doc) == 6
        assert tiny_doc.parent(0) is None
        assert tiny_doc.parent(2) == 1
        assert tiny_doc.children(0) == (1, 4)
        assert tiny_doc.children(1) == (2, 3)
        assert tiny_doc.is_leaf(2)
        assert not tiny_doc.is_leaf(1)

    def test_tags_and_text(self, tiny_doc):
        assert tiny_doc.tag(0) == "article"
        assert tiny_doc.tag(2) == "par"
        assert tiny_doc.text(2) == "red apple"

    def test_keywords_include_text_and_tags(self, tiny_doc):
        assert "red" in tiny_doc.keywords(2)
        assert "apple" in tiny_doc.keywords(2)
        assert "par" in tiny_doc.keywords(2)  # tag names count (paper §2.1)

    def test_depth(self, tiny_doc):
        assert tiny_doc.depth(0) == 0
        assert tiny_doc.depth(1) == 1
        assert tiny_doc.depth(5) == 2
        assert tiny_doc.max_depth == 2

    def test_descendants_are_contiguous(self, tiny_doc):
        assert list(tiny_doc.descendants(1)) == [2, 3]
        assert list(tiny_doc.descendants(0)) == [1, 2, 3, 4, 5]
        assert list(tiny_doc.descendants(5)) == []

    def test_subtree_includes_self(self, tiny_doc):
        assert list(tiny_doc.subtree(4)) == [4, 5]

    def test_ancestors(self, tiny_doc):
        assert list(tiny_doc.ancestors(5)) == [4, 0]
        assert list(tiny_doc.ancestors(0)) == []

    def test_node_ids_and_nodes(self, tiny_doc):
        assert list(tiny_doc.node_ids()) == list(range(6))
        views = list(tiny_doc.nodes())
        assert [v.id for v in views] == list(range(6))

    def test_repr_mentions_name_and_size(self, tiny_doc):
        assert "tiny" in repr(tiny_doc)
        assert "6" in repr(tiny_doc)


class TestLca:
    def test_lca_siblings(self, tiny_doc):
        assert tiny_doc.lca(2, 3) == 1
        assert tiny_doc.lca(2, 5) == 0

    def test_lca_with_ancestor(self, tiny_doc):
        assert tiny_doc.lca(1, 3) == 1
        assert tiny_doc.lca(0, 5) == 0

    def test_lca_self(self, tiny_doc):
        assert tiny_doc.lca(3, 3) == 3

    def test_lca_of_set(self, tiny_doc):
        assert tiny_doc.lca_of([2, 3]) == 1
        assert tiny_doc.lca_of([2, 3, 5]) == 0
        assert tiny_doc.lca_of([4]) == 4

    def test_lca_of_empty_rejected(self, tiny_doc):
        with pytest.raises(ValueError):
            tiny_doc.lca_of([])

    @given(documents(max_nodes=15))
    def test_lca_of_set_equals_fold(self, doc):
        import itertools
        ids = list(doc.node_ids())
        for combo in itertools.combinations(ids[: min(len(ids), 6)], 3):
            folded = doc.lca(doc.lca(combo[0], combo[1]), combo[2])
            assert doc.lca_of(combo) == folded


def naive_lca(doc, u, v):
    """Reference LCA via ancestor sets: shares no code with the climb
    that ``Document.lca``, ``fragment_join`` and ``spanning_nodes``
    use."""
    ancestors_u = {u} | set(doc.ancestors(u))
    current = v
    while current not in ancestors_u:
        current = doc.parent(current)
    return current


class TestLcaReference:
    """``Document.lca`` held against the ancestor-set reference."""

    def test_chain(self, chain_doc):
        assert chain_doc.lca(4, 2) == 2
        assert chain_doc.lca(0, 4) == 0
        assert chain_doc.lca(3, 3) == 3

    def test_tiny(self, tiny_doc):
        for u, v, expected in ((2, 3, 1), (3, 5, 0), (1, 2, 1)):
            assert tiny_doc.lca(u, v) == expected == naive_lca(
                tiny_doc, u, v)

    def test_matches_expected(self, tiny_doc):
        for u, v, expected in ((2, 3, 1), (2, 5, 0), (0, 3, 0)):
            assert tiny_doc.lca(u, v) == expected == naive_lca(
                tiny_doc, u, v)

    def test_single_node_document(self):
        from repro.xmltree.builder import DocumentBuilder
        b = DocumentBuilder()
        b.add_root("a")
        assert b.build().lca(0, 0) == 0

    @given(documents(max_nodes=20))
    def test_matches_naive(self, doc):
        for u, v in itertools.product(range(doc.size), repeat=2):
            assert doc.lca(u, v) == naive_lca(doc, u, v)

    @given(documents(max_nodes=20))
    def test_symmetry(self, doc):
        for u, v in itertools.combinations(range(doc.size), 2):
            assert doc.lca(u, v) == doc.lca(v, u)
        for u in range(doc.size):
            assert doc.lca(u, u) == u

    @given(documents(max_nodes=20))
    def test_lca_is_common_ancestor_and_lowest(self, doc):
        for u, v in itertools.combinations(range(doc.size), 2):
            lca = doc.lca(u, v)
            assert doc.is_ancestor_or_self(lca, u)
            assert doc.is_ancestor_or_self(lca, v)
            # No child of the LCA covers both.
            for child in doc.children(lca):
                assert not (doc.is_ancestor_or_self(child, u)
                            and doc.is_ancestor_or_self(child, v))


class TestKeywordAccess:
    def test_nodes_with_keyword(self, tiny_doc):
        assert tiny_doc.nodes_with_keyword("red") == [2, 5]
        assert tiny_doc.nodes_with_keyword("pear") == [3, 5]
        assert tiny_doc.nodes_with_keyword("nothere") == []

    def test_vocabulary_contains_all_words(self, tiny_doc):
        vocab = tiny_doc.vocabulary()
        assert {"red", "apple", "green", "pear"} <= vocab

    @given(documents(max_nodes=12))
    def test_vocabulary_is_union_of_node_keywords(self, doc):
        union = set()
        for nid in doc.node_ids():
            union |= doc.keywords(nid)
        assert doc.vocabulary() == frozenset(union)


def _read_everything(doc):
    return [(doc.tag(n), doc.text(n), dict(doc.attributes(n)),
             doc.keywords(n), doc.children(n), doc.parent(n), doc.depth(n),
             doc.subtree_size(n), doc.is_leaf(n))
            for n in doc.node_ids()]


class TestFromStructure:
    """A storage backend's document: structure now, content on read."""

    @staticmethod
    def lazy(doc, calls):
        content = {
            "_tags": [doc.tag(n) for n in doc.node_ids()],
            "_texts": [doc.text(n) for n in doc.node_ids()],
            "_attrs": [dict(doc.attributes(n)) for n in doc.node_ids()],
            "_keywords": [doc.keywords(n) for n in doc.node_ids()]}

        def decode(slot):
            calls.append(slot)
            return list(content[slot])

        return Document.from_structure(list(doc.parents), doc.labels,
                                       decode, doc.name)

    def test_structure_reads_no_content(self, tiny_doc):
        calls = []
        doc = self.lazy(tiny_doc, calls)
        assert (doc.size, doc.max_depth) == (6, 2)
        assert list(doc.ancestors(5)) == [4, 0]
        assert list(doc.descendants(1)) == [2, 3]
        assert doc.is_proper_ancestor(0, 5)
        # Children are derived from the parents, not decoded.
        assert doc.children(0) == (1, 4) and doc.is_leaf(2)
        assert calls == []

    def test_each_slot_decodes_once_and_equals_eager(self, tiny_doc):
        calls = []
        doc = self.lazy(tiny_doc, calls)
        for _ in range(2):
            assert _read_everything(doc) == _read_everything(tiny_doc)
        assert doc.vocabulary() == tiny_doc.vocabulary()
        assert sorted(calls) == ["_attrs", "_keywords", "_tags", "_texts"]

    def test_pickling_decodes_first(self, tiny_doc):
        calls = []
        clone = pickle.loads(pickle.dumps(self.lazy(tiny_doc, calls)))
        assert sorted(calls) == ["_attrs", "_keywords", "_tags", "_texts"]
        assert _read_everything(clone) == _read_everything(tiny_doc)

    def test_only_structure_is_set_until_read(self, tiny_doc):
        """Parsed and builder-made documents fill every slot at
        construction, so their accessors never take the decode path."""
        slots = ("_tags", "_texts", "_attrs", "_children", "_keywords")
        lazy = self.lazy(tiny_doc, [])
        assert not any(hasattr(lazy, slot) for slot in slots)
        assert all(hasattr(tiny_doc, slot) for slot in slots)
        _read_everything(lazy)
        assert all(hasattr(lazy, slot) for slot in slots)
