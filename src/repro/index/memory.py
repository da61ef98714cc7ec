"""The corpus source: where a collection's trees and term probes live.

Definition 8 needs two things from a document — its tree and
``σ_{keyword=k}(nodes(D))`` — and nothing about where the document is
stored.  Every reader above storage
(:class:`~repro.collection.DocumentCollection`, the pool in
:mod:`repro.exec.parallel`) goes through one duck-typed
surface: ``names()``, ``name in source``, ``len(source)``,
``document(name)``, ``inverted_index(name)`` (whose ``.document`` is
the same tree), ``candidates(terms)`` (the names, in ``names()`` order,
of the documents containing every term — the collection-scale
``σ_{keyword=k}``), ``contains(name, term)``, ``node_count(name)``,
``shard_of(name)``, ``degraded``, ``stats()`` and ``close()``.

Three implementations, each caching under its own bound ("The corpus
source" in docs/storage.md has the table): :class:`MemorySource` here,
the only one with ``add``; :class:`~repro.storage.shards.ShardIndex`,
an LRU of ``cache_limit`` materialised documents over ``mmap``-ed
shards; and :class:`~repro.storage.mutation.Snapshot`, that LRU under
one epoch's committed delta.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..xmltree.document import Document
from .inverted import InvertedIndex

__all__ = ["MemorySource"]


class MemorySource:
    """A dict of parsed documents with lazily built inverted indexes."""

    degraded = False

    def __init__(self,
                 documents: Optional[Mapping[str, Document]] = None) -> None:
        #: ``{name: Document}`` in insertion order (a private copy).
        self.documents: dict[str, Document] = dict(documents or {})
        self._indexes: dict[str, InvertedIndex] = {}

    def add(self, name: str, document: Document) -> None:
        # One atomic insert: readers that listed names() before it keep
        # a stable view, lookups by name never see a half-built entry.
        self.documents[name] = document

    def names(self) -> list[str]:
        return list(self.documents)

    def __contains__(self, name: object) -> bool:
        return name in self.documents

    def __len__(self) -> int:
        return len(self.documents)

    def document(self, name: str) -> Document:
        return self.documents[name]

    def inverted_index(self, name: str) -> InvertedIndex:
        index = self._indexes.get(name)
        if index is None:
            # Built outside any lock (it walks the whole document);
            # setdefault is atomic, so concurrent builders agree on one
            # winner.
            index = self._indexes.setdefault(
                name, InvertedIndex(self.documents[name]))
        return index

    def contains(self, name: str, term: str) -> bool:
        return self.inverted_index(name).contains(term)

    def candidates(self, terms) -> list[str]:
        """Names, in :meth:`names` order, of the documents containing
        every term — here one probe per document and term."""
        terms = tuple(terms)
        contains = self.contains
        # names() is a snapshot: ``add`` may grow the table meanwhile.
        return [name for name in self.names()
                if all(contains(name, term) for term in terms)]

    def node_count(self, name: str) -> int:
        return len(self.documents[name])

    def shard_of(self, name: str) -> Optional[int]:
        """``None``: in-memory documents live in no shard."""
        return None

    def stats(self) -> dict:
        return {"documents": len(self.documents),
                "indexes_built": len(self._indexes)}

    def close(self) -> None:
        """Nothing to release; present so every source closes alike."""
