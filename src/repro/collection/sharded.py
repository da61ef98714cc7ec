"""A read-only :class:`DocumentCollection` over a persistent shard index.

``ShardedDocumentCollection`` serves the whole collection search API —
``search`` / ``ranked_search`` / ``explain_analyze`` / guard rails —
without holding the corpus in memory.  Documents live in ``mmap``-ed
shard files (:mod:`repro.storage.shards`); the collection:

* screens a query's terms against the shards' *mapped* term
  directories, so the index early exit touches no document at all;
* materialises matching documents lazily, into a bounded LRU;
* routes ``workers=`` searches through a scatter-gather
  :class:`~repro.storage.shards.ShardRouter` (per-shard circuit
  breakers, skip-and-degrade on corrupt shards);
* stays bit-identical to an in-memory collection over the same
  documents, on every evaluation strategy.

Open one with :meth:`DocumentCollection.open_index`.  The collection is
read-only: :meth:`add` raises, because the on-disk index is immutable
once built (rebuild with ``repro-search index build`` to change it).
Everything name-addressed — documents, indexes, term probes, node
counts, shard numbers — is the base class reading its source, which
here is the attached :class:`~repro.storage.shards.ShardIndex`.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from ..obs import NOOP, Observability
from ..storage.shards.reader import ShardIndex
from .collection import DocumentCollection

__all__ = ["ShardedDocumentCollection"]


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
    workers-path tuning (``start_method``, ``resilience``,
    ``breaker_failures``, ``breaker_reset_s``) is
    forwarded to the :class:`~repro.storage.shards.ShardRouter` built
    lazily on the first ``workers=`` search.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]", ShardIndex],
                 name: Optional[str] = None, *,
                 cache_limit: Optional[int] = 64,
                 obs: Optional[Observability] = None,
                 start_method: Optional[str] = None,
                 resilience=None,
                 breaker_failures: int = 3,
                 breaker_reset_s: float = 30.0) -> None:
        attached = isinstance(path, ShardIndex)
        self.index_handle = path if attached else ShardIndex.attach(
            path, on_error="skip", cache_limit=cache_limit,
            obs=obs if obs is not None else NOOP)
        super().__init__(name=name if name is not None else
                         os.path.basename(os.path.normpath(
                             self.index_handle.path)) or "index",
                         source=self.index_handle)
        self._owns_source = not attached
        self._router_options = {
            "start_method": start_method,
            "resilience": resilience,
            "breaker_failures": breaker_failures,
            "breaker_reset_s": breaker_reset_s,
        }

    # ------------------------------------------------------------------
    # Parallel path: route through the shard router
    # ------------------------------------------------------------------

    def _new_executor(self, workers: Optional[int], **options):
        """A :class:`ShardRouter` instead of a plain executor.

        The router shares this collection's attached index handle, so
        parent-side serial fallbacks reuse the same mapped bytes and
        document LRU.
        """
        from ..storage.shards.router import ShardRouter
        return ShardRouter(self.index_handle, workers=workers,
                           **{**self._router_options, **options})

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

    def __repr__(self) -> str:
        return (f"ShardedDocumentCollection(name={self.name!r}, "
                f"path={self.index_handle.path!r}, "
                f"documents={len(self)}, "
                f"shards={self.index_handle.shards})")
