"""Unit tests for the inverted keyword index."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.index.inverted import InvertedIndex
from repro.storage.shards.format import PostingsMap, encode_postings

from ..treegen import documents


class TestPostings:
    def test_postings_sorted_and_complete(self, tiny_doc):
        index = InvertedIndex(tiny_doc)
        assert index.postings("red") == [2, 5]
        assert index.postings("pear") == [3, 5]

    def test_absent_keyword_empty(self, tiny_doc):
        index = InvertedIndex(tiny_doc)
        assert index.postings("zebra") == []
        assert not index.contains("zebra")

    def test_postings_are_copies(self, tiny_doc):
        index = InvertedIndex(tiny_doc)
        plist = index.postings("red")
        plist.append(999)
        assert index.postings("red") == [2, 5]

    def test_document_frequency(self, tiny_doc):
        index = InvertedIndex(tiny_doc)
        assert index.document_frequency("red") == 2
        assert index.document_frequency("apple") == 1
        assert index.document_frequency("none") == 0

    def test_selectivity(self, tiny_doc):
        index = InvertedIndex(tiny_doc)
        assert index.selectivity("red") == 2 / 6

    def test_figure1_posting_lists(self, figure1_index):
        assert figure1_index.postings("xquery") == [17, 18]
        assert figure1_index.postings("optimization") == [16, 17, 81]


class TestVocabulary:
    def test_vocabulary_matches_document(self, tiny_doc):
        index = InvertedIndex(tiny_doc)
        assert index.vocabulary() == tiny_doc.vocabulary()

    def test_len_is_term_count(self, tiny_doc):
        index = InvertedIndex(tiny_doc)
        assert len(index) == len(index.vocabulary())

    def test_repr(self, tiny_doc):
        assert "tiny" in repr(InvertedIndex(tiny_doc))


class TestRarestFirst:
    def test_orders_by_frequency(self, tiny_doc):
        index = InvertedIndex(tiny_doc)
        assert index.rarest_first(["red", "apple"]) == ["apple", "red"]

    def test_unknown_terms_first(self, tiny_doc):
        index = InvertedIndex(tiny_doc)
        assert index.rarest_first(["red", "zzz"]) == ["zzz", "red"]


class TestAgainstLinearScan:
    @given(documents(max_nodes=15))
    def test_postings_equal_scan(self, doc):
        index = InvertedIndex(doc)
        for word in doc.vocabulary():
            assert index.postings(word) == doc.nodes_with_keyword(word)

    @given(documents(max_nodes=15))
    def test_postings_sorted(self, doc):
        index = InvertedIndex(doc)
        for word in index.vocabulary():
            plist = index.postings(word)
            assert plist == sorted(plist)


class TestOverEncodedPostings:
    """``from_postings`` over a :class:`PostingsMap`, as the shard
    reader builds it: one term's list decoded per lookup."""

    @given(documents(max_nodes=15))
    def test_equals_scanned_index(self, doc):
        scanned = InvertedIndex(doc)
        encoded = encode_postings({word: scanned.postings(word)
                                   for word in scanned.vocabulary()})
        index = InvertedIndex.from_postings(doc, PostingsMap(encoded))
        probes = sorted(scanned.vocabulary()) + ["zebra"]
        for word in probes:
            assert index.postings(word) == scanned.postings(word)
            assert (index.document_frequency(word)
                    == scanned.document_frequency(word))
            assert index.contains(word) == scanned.contains(word)
        assert index.rarest_first(probes) == scanned.rarest_first(probes)
        assert index.vocabulary() == scanned.vocabulary()
        assert len(index) == len(scanned)

    def test_lookups_are_memoised_misses_too(self):
        mapping = PostingsMap(encode_postings({"red": [2, 5],
                                               "pear": [3, 5]}))
        assert mapping.get("red") is mapping.get("red") == [2, 5]
        assert mapping.get("zebra") is None
        assert "zebra" not in mapping and "pear" in mapping
        with pytest.raises(KeyError):
            mapping["zebra"]
        assert (len(mapping), list(mapping)) == (2, ["pear", "red"])
        assert dict(mapping) == {"pear": [3, 5], "red": [2, 5]}
