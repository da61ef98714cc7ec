"""A writable :class:`DocumentCollection` over a crash-safe mutable index.

``MutableDocumentCollection`` pairs the collection search API with
:class:`repro.storage.mutation.MutableIndex`: documents can be added,
replaced and removed while searches run, every write is WAL-durable
before it is visible, and every search runs against one epoch-pinned
:class:`~repro.storage.mutation.Snapshot` — a query started before a
commit never sees half of it.

* ``add`` / ``remove`` append to the WAL and (by default) commit a new
  epoch; ``commit=False`` batches, :meth:`commit` publishes.
* every read — ``search`` / ``ranked_search`` / ``explain_analyze`` /
  ``screen`` and each introspection call — pins the current epoch (or
  an explicit ``epoch=``) for its whole run and reads that snapshot as
  its corpus source; streaming iterators keep the pin until drained,
  closed or dropped.
* ``workers=`` searches reuse one pooled executor across commits:
  workers re-attach the chunk's epoch on demand instead of the pool
  being rebuilt per write (contrast the in-memory collection, whose
  ``add`` must invalidate the pool).

Open one with :meth:`DocumentCollection.open_mutable`, or create a new
index with :meth:`MutableDocumentCollection.create`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial
from types import SimpleNamespace
from typing import Optional, Union

from ..obs import NOOP, Observability
from ..storage.mutation import MutableIndex, Snapshot
from ..xmltree.document import Document
from .collection import DocumentCollection

__all__ = ["MutableDocumentCollection"]


class _SnapshotCollection(DocumentCollection):
    """One call's consistent view: a collection whose source is one
    epoch's :class:`Snapshot`.

    Shares the parent's :class:`~repro.core.algebra.JoinCache`, its
    per-epoch scorer cache and its pool.  Memoised closures are
    addressed by document token: a base document keeps its token for as
    long as its generation is attached, and a delta document for as
    long as its WAL record stands (each epoch's view carries the tree
    the last one built), so their closures survive epoch changes; a
    replaced document is a new record under a fresh token, and its
    predecessor's closures own no document and age out of the LRU.
    """

    def __init__(self, parent: "MutableDocumentCollection",
                 snapshot: Snapshot) -> None:
        super().__init__(name=parent.name, source=snapshot)
        self._parent = parent
        self._cache, self._lock = parent._cache, parent._lock
        # Scorers are corpus-derived, so the parent caches them per
        # epoch: a commit moves the epoch and the next view starts an
        # empty table, without racing searches still on the old one
        # (they keep the table they took).
        with parent._lock:
            if parent._scorer_epoch != snapshot.epoch:
                parent._scorer_epoch = snapshot.epoch
                parent._scorers = {}
            self._scorers = parent._scorers

    def _parallel_executor(self, workers: int):
        return self._bound(self._parent._parallel_executor(workers))

    def _bound(self, executor):
        """The parent's long-lived pool with this view's snapshot bound
        into every run — per search, so concurrent searches on
        different epochs share the pool."""
        return SimpleNamespace(
            search=partial(executor.search, snapshot=self._source),
            run=partial(executor.run, snapshot=self._source))


class MutableDocumentCollection(DocumentCollection):
    """A searchable collection whose corpus mutates crash-safely.

    Parameters
    ----------
    path:
        Directory of an existing mutable index (from :meth:`create` or
        ``repro-search index ingest``), or an already-open
        :class:`MutableIndex` handle (not closed by :meth:`close`).
    faults:
        Optional :class:`~repro.exec.faults.CrashPlan` forwarded to the
        storage layer (crash-point testing).
    """

    def __init__(self,
                 path: Union[str, "os.PathLike[str]", MutableIndex],
                 name: Optional[str] = None, *,
                 obs: Optional[Observability] = None,
                 faults=None,
                 cache_limit: Optional[int] = 64) -> None:
        opened = isinstance(path, MutableIndex)
        self.mutable = path if opened else MutableIndex.open(
            path, faults=faults, obs=obs if obs is not None else NOOP,
            cache_limit=cache_limit)
        # The source is the live index; nothing reads it directly —
        # every read goes through :meth:`_view`, whose source is one
        # pinned epoch of it.
        super().__init__(name=name if name is not None else
                         os.path.basename(os.path.normpath(
                             self.mutable.path)) or "mutable",
                         source=self.mutable)
        self._owns_source = not opened
        self._scorer_epoch: Optional[int] = None  # epoch of _scorers

    @classmethod
    def create(cls, path, documents=None, *, shards: int = 4,
               name: Optional[str] = None,
               obs: Optional[Observability] = None,
               faults=None,
               cache_limit: Optional[int] = 64
               ) -> "MutableDocumentCollection":
        """Create a new mutable index at ``path`` and open it.

        ``documents`` (``{name: Document}``, optional) seeds the base
        generation through the ordinary shard builder.
        """
        handle = MutableIndex.create(
            path, documents, shards=shards, faults=faults,
            obs=obs if obs is not None else NOOP,
            cache_limit=cache_limit)
        collection = cls(handle, name=name, obs=obs)
        collection._owns_source = True
        return collection

    # ------------------------------------------------------------------
    # Population (durable: WAL append + epoch commit)
    # ------------------------------------------------------------------

    def add(self, document: Document, name: Optional[str] = None, *,
            commit: bool = True) -> str:
        """Add or replace a document (upsert), durably.

        With ``commit=True`` (default) the write is fsynced and
        published as a new epoch before returning; ``commit=False``
        appends to the WAL only — invisible to searches until
        :meth:`commit`, and rolled back (not replayed) if the process
        dies first: recovery exposes exactly the last committed epoch.
        """
        return self.mutable.add(document, name, commit=commit)

    def remove(self, name: str, *, commit: bool = True) -> None:
        """Remove a document durably (tombstone in the delta segment)."""
        self.mutable.remove(name, commit=commit)

    def commit(self) -> int:
        """Publish pending writes as one new epoch; returns the epoch."""
        return self.mutable.commit()

    def compact(self) -> int:
        """Fold the delta segment into a new base generation."""
        return self.mutable.compact()

    @property
    def epoch(self) -> int:
        """The last committed epoch (what a new search will pin)."""
        return self.mutable.epoch

    # ------------------------------------------------------------------
    # Reads: pin an epoch, delegate to a consistent view
    # ------------------------------------------------------------------

    @contextmanager
    def _view(self, epoch: Optional[int] = None):
        """Pin ``epoch`` (default: the latest committed) for the length
        of the block and yield the collection view bound to it.

        The inherited introspection methods each run inside one such
        block, so they pin the current epoch briefly.
        """
        with self.mutable.snapshot(epoch) as snapshot:
            yield _SnapshotCollection(self, snapshot)

    def _new_executor(self, workers: Optional[int], **options):
        """The long-lived mutable-mode pool — survives commits.

        Workers ship only the index *path*; each chunk carries its
        snapshot's epoch and workers re-attach when it moves, so
        ``add`` never has to invalidate this executor.
        """
        from ..exec.parallel import ParallelExecutor
        return ParallelExecutor(mutable_index=self.mutable.path,
                                workers=workers, **options)

    def _stream(self, query, args, epoch, options):
        with self._view(epoch) as view:
            hits = view.search(query, *args, **options)
            yield  # primer, consumed by search()
            yield from hits

    def search(self, query, *args, epoch: Optional[int] = None,
               **options):
        """Evaluate ``query`` against one epoch-pinned snapshot.

        Accepts every :meth:`DocumentCollection.search` option, plus
        ``epoch=`` to read a historical (still-pinned) epoch.  With
        ``stream=True`` the returned iterator holds the epoch pin until
        it is drained, closed or dropped.
        """
        if not options.get("stream"):
            with self._view(epoch) as view:
                return view.search(query, *args, **options)
        # Advance the generator to its primer so it has *started* by
        # the time the caller holds it: closing or dropping an
        # unstarted generator skips its ``with`` and would leak the pin
        # (and block epoch GC) forever.  Admission and option errors
        # raise from here, as on the materialised path.
        stream = self._stream(query, args, epoch, options)
        next(stream)
        return stream

    def ranked_search(self, query, *args,
                      epoch: Optional[int] = None, **options):
        with self._view(epoch) as view:
            return view.ranked_search(query, *args, **options)

    def explain_analyze(self, query, *args,
                        epoch: Optional[int] = None, **options):
        with self._view(epoch) as view:
            return view.explain_analyze(query, *args, **options)

    def screen(self, policy, query, *args,
               epoch: Optional[int] = None, **options):
        with self._view(epoch) as view:
            return view.screen(policy, query, *args, **options)

    # ------------------------------------------------------------------
    # Health / lifecycle
    # ------------------------------------------------------------------

    def shard_stats(self) -> dict:
        """JSON-ready index snapshot (served under ``/varz``)."""
        return self.mutable.stats()

    def __repr__(self) -> str:
        return (f"MutableDocumentCollection(name={self.name!r}, "
                f"path={self.mutable.path!r}, epoch={self.epoch}, "
                f"documents={len(self)})")
