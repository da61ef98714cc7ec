"""Inverted keyword index: keyword -> sorted node-id posting list.

The paper's keyword selection ``σ_{keyword=k}(nodes(D))`` (Definition 3)
needs, for each query term, the set of nodes whose ``keywords(n)``
contains the term.  A linear scan works but is O(|D|) per term; this
index precomputes posting lists once in O(total keywords) and answers
each term in O(1).

Posting lists are sorted by node id (= preorder rank), which is also
what the SLCA/ELCA baselines require.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..xmltree.document import Document

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Keyword → posting-list index over one document."""

    __slots__ = ("_document", "_postings")

    def __init__(self, document: "Document") -> None:
        self._document = document
        postings: dict[str, list[int]] = {}
        for nid in document.node_ids():
            for word in document.keywords(nid):
                postings.setdefault(word, []).append(nid)
        # Node ids are visited in increasing order, so lists are sorted.
        self._postings = postings

    @classmethod
    def from_postings(cls, document: "Document",
                      postings: Mapping[str, list[int]]) -> "InvertedIndex":
        """Adopt pre-built posting lists without rescanning the document.

        Used by :mod:`repro.storage.shards`, which persists the postings
        section at build time and hands over a
        :class:`~repro.storage.shards.format.PostingsMap` that decodes
        a term's list on its first lookup.  Lists must already be sorted
        by node id (the shard writer guarantees this); they are adopted
        as-is, so callers must hand over ownership.
        """
        self = object.__new__(cls)
        self._document = document
        self._postings = postings
        return self

    @property
    def document(self) -> "Document":
        """The indexed document."""
        return self._document

    def postings(self, keyword: str) -> list[int]:
        """Sorted node ids containing ``keyword`` (empty if absent)."""
        return list(self._postings.get(keyword, ()))

    def document_frequency(self, keyword: str) -> int:
        """Number of nodes whose keyword set contains ``keyword``."""
        return len(self._postings.get(keyword, ()))

    def contains(self, keyword: str) -> bool:
        """Whether any node contains ``keyword``."""
        return keyword in self._postings

    def vocabulary(self) -> frozenset[str]:
        """Every indexed keyword."""
        return frozenset(self._postings)

    def selectivity(self, keyword: str) -> float:
        """Fraction of document nodes matching ``keyword`` (0.0 - 1.0)."""
        return self.document_frequency(keyword) / self._document.size

    def rarest_first(self, keywords: Iterable[str]) -> list[str]:
        """Order query terms by ascending document frequency.

        Joining the smallest fragment sets first keeps the intermediate
        results of multi-keyword evaluation small; the planner uses this
        ordering.
        """
        return sorted(keywords, key=self.document_frequency)

    def __len__(self) -> int:
        return len(self._postings)

    def __repr__(self) -> str:
        return (f"InvertedIndex(document={self._document.name!r}, "
                f"terms={len(self._postings)})")
