"""A read-only :class:`DocumentCollection` over a persistent shard index.

``ShardedDocumentCollection`` serves the whole collection search API —
``search`` / ``ranked_search`` / ``explain_analyze`` / guard rails —
without holding the corpus in memory.  Documents live in ``mmap``-ed
shard files (:mod:`repro.storage.shards`); the collection:

* probes query terms against the *mapped* postings section, so the
  index early exit never decodes a non-matching document;
* materialises matching documents lazily, into a bounded LRU;
* routes ``workers=`` searches through a scatter-gather
  :class:`~repro.storage.shards.ShardRouter` (per-shard circuit
  breakers, skip-and-degrade on corrupt shards);
* stays bit-identical to an in-memory collection over the same
  documents, on every evaluation strategy.

Open one with :meth:`DocumentCollection.open_index`.  The collection is
read-only: :meth:`add` raises, because the on-disk index is immutable
once built (rebuild with ``repro-search index build`` to change it).
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Optional, Union

from ..errors import DocumentError
from ..index.inverted import InvertedIndex
from ..obs import NOOP, Observability
from ..storage.shards.reader import ShardIndex
from ..xmltree.document import Document
from .collection import DocumentCollection

__all__ = ["ShardedDocumentCollection"]


class _IndexDocuments(Mapping):
    """Mapping facade over a :class:`ShardIndex`: name -> Document.

    Lookups materialise lazily through the index's LRU; iteration
    yields only servable names (healthy shards), in sorted order.
    """

    __slots__ = ("_index",)

    def __init__(self, index: ShardIndex) -> None:
        self._index = index

    def __getitem__(self, name: str) -> Document:
        return self._index.document(name)

    def __iter__(self):
        return iter(self._index.names())

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, name: object) -> bool:
        return name in self._index


class ShardedDocumentCollection(DocumentCollection):
    """A collection whose corpus is a ``mmap``-attached shard index.

    Parameters
    ----------
    path:
        Index directory (from :func:`repro.storage.shards.build_index`)
        or an already-attached :class:`ShardIndex`.  Paths are attached
        with ``on_error="skip"``: a partially corrupt index serves the
        healthy shards and reports the rest (see :meth:`shard_stats`).
    cache_limit:
        Maximum materialised documents kept per attached handle.
    workers-path tuning (``start_method``, ``shared_memory``,
    ``resilience``, ``breaker_failures``, ``breaker_reset_s``) is
    forwarded to the :class:`~repro.storage.shards.ShardRouter` built
    lazily on the first ``workers=`` search.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]", ShardIndex],
                 name: Optional[str] = None, *,
                 cache_limit: Optional[int] = 64,
                 obs: Optional[Observability] = None,
                 start_method: Optional[str] = None,
                 shared_memory: Optional[bool] = None,
                 resilience=None,
                 breaker_failures: int = 3,
                 breaker_reset_s: float = 30.0) -> None:
        if isinstance(path, ShardIndex):
            self.index_handle = path
            self._owns_index = False
        else:
            self.index_handle = ShardIndex.attach(
                path, on_error="skip", cache_limit=cache_limit,
                obs=obs if obs is not None else NOOP)
            self._owns_index = True
        super().__init__(name=name if name is not None else
                         os.path.basename(os.path.normpath(
                             self.index_handle.path)) or "index")
        self._documents = _IndexDocuments(self.index_handle)
        self._router_options = {
            "start_method": start_method,
            "shared_memory": shared_memory,
            "resilience": resilience,
            "breaker_failures": breaker_failures,
            "breaker_reset_s": breaker_reset_s,
        }

    # ------------------------------------------------------------------
    # Population (disabled: the on-disk index is immutable)
    # ------------------------------------------------------------------

    def add(self, document: Document,
            name: Optional[str] = None) -> str:
        raise DocumentError(
            "a sharded collection is read-only; rebuild the index "
            "('repro-search index build') to change the corpus")

    # ------------------------------------------------------------------
    # Introspection over the mapped index (no materialisation)
    # ------------------------------------------------------------------

    def index(self, name: str) -> InvertedIndex:
        """The document's inverted index, adopted from mapped postings."""
        return self.index_handle.inverted_index(name)

    def has_terms(self, name: str, terms: Iterable[str]) -> bool:
        """Early-exit probe straight against the mapped postings blob."""
        return all(self.index_handle.contains(name, term)
                   for term in terms)

    def _shard_of(self, name: str) -> Optional[int]:
        return self.index_handle.shard_of(name)

    def node_count(self, name: str) -> int:
        """Node count of a document, read from its shard header."""
        return self.index_handle.node_count(name)

    def document_frequency(self, term: str) -> int:
        needle = term.casefold()
        return sum(1 for name in self.index_handle.names()
                   if self.index_handle.contains(name, needle))

    # ------------------------------------------------------------------
    # Parallel path: route through the shard router
    # ------------------------------------------------------------------

    def _parallel_executor(self, workers: int):
        """A (cached) :class:`ShardRouter` instead of a plain executor.

        The router shares this collection's attached index handle, so
        parent-side serial fallbacks reuse the same mapped bytes and
        document LRU.
        """
        from ..storage.shards.router import ShardRouter
        with self._lock:
            if self._executor is None \
                    or self._executor_workers != workers:
                self._shutdown_executor()
                self._executor = ShardRouter(self.index_handle,
                                             workers=workers,
                                             **self._router_options)
                self._executor_workers = workers
            return self._executor

    @property
    def router(self):
        """The live :class:`ShardRouter`, or ``None`` before the first
        ``workers=`` search."""
        return self._executor

    # ------------------------------------------------------------------
    # Health / lifecycle
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True when shards failed to attach or routing is degraded."""
        if self.index_handle.degraded:
            return True
        return bool(self._executor is not None
                    and self._executor.degraded)

    def shard_stats(self) -> dict:
        """JSON-ready shard health snapshot (served under ``/varz``)."""
        if self._executor is not None:
            return self._executor.stats()
        return {"index": self.index_handle.stats(), "breakers": {},
                "history": {}, "last_run": None,
                "degraded": self.index_handle.degraded}

    def close(self) -> None:
        """Shut the router down and detach owned shard handles."""
        super().close()
        if self._owns_index:
            self.index_handle.close()

    def __repr__(self) -> str:
        return (f"ShardedDocumentCollection(name={self.name!r}, "
                f"path={self.index_handle.path!r}, "
                f"documents={len(self)}, "
                f"shards={self.index_handle.shards})")
