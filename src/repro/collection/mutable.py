"""A writable :class:`DocumentCollection` over a crash-safe mutable index.

``MutableDocumentCollection`` pairs the collection search API with
:class:`repro.storage.mutation.MutableIndex`: documents can be added,
replaced and removed while searches run, every write is WAL-durable
before it is visible, and every search runs against one epoch-pinned
:class:`~repro.storage.mutation.Snapshot` — a query started before a
commit never sees half of it.

* ``add`` / ``remove`` append to the WAL and (by default) commit a new
  epoch; ``commit=False`` batches, :meth:`commit` publishes.
* ``search`` / ``ranked_search`` / ``explain_analyze`` pin the current
  epoch (or an explicit ``epoch=``) for their whole run — streaming
  iterators keep the pin until drained or closed.
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
from typing import Iterable, Iterator, Mapping, Optional, Union

from ..errors import DocumentError, WALError
from ..obs import NOOP, Observability
from ..ranking.scoring import FragmentScorer
from ..storage.mutation import MutableIndex, Snapshot
from ..xmltree.document import Document
from .collection import DocumentCollection

__all__ = ["MutableDocumentCollection"]


class _SnapshotDocuments(Mapping):
    """Mapping facade over a :class:`Snapshot`: name -> Document.

    Lookups materialise lazily (delta segment or mapped shard);
    iteration yields visible names in sorted order.
    """

    __slots__ = ("_snapshot",)

    def __init__(self, snapshot: Snapshot) -> None:
        self._snapshot = snapshot

    def __getitem__(self, name: str) -> Document:
        try:
            return self._snapshot.document(name)
        except WALError:
            raise KeyError(name)

    def __iter__(self):
        return iter(self._snapshot.names())

    def __len__(self) -> int:
        return len(self._snapshot.names())

    def __contains__(self, name: object) -> bool:
        return name in self._snapshot


class _BoundExecutor:
    """A pooled executor with an epoch-pinned snapshot bound in.

    The wrapped :class:`~repro.exec.ParallelExecutor` is the parent
    collection's long-lived pool (mutable-index mode); binding happens
    per search so concurrent searches on different epochs share it.
    ``supports_hints`` marks the streaming early-stop path as safe.
    """

    __slots__ = ("_executor", "_snapshot")

    supports_hints = True

    def __init__(self, executor, snapshot: Snapshot) -> None:
        self._executor = executor
        self._snapshot = snapshot

    def search(self, query, **options):
        return self._executor.search(query, snapshot=self._snapshot,
                                     **options)

    def run(self, queries, **options):
        return self._executor.run(queries, snapshot=self._snapshot,
                                  **options)


class _SnapshotCollection(DocumentCollection):
    """One search's consistent view: a collection bound to one epoch.

    Shares the parent's :class:`~repro.core.algebra.JoinCache` and its
    per-epoch scorer cache; everything name-addressed (documents,
    indexes, term probes) goes through the pinned snapshot.  Join memos
    are addressed by document token: a base document keeps its token for
    as long as its generation is attached, so its memos survive epoch
    changes; a delta document is rebuilt, with a fresh token, by every
    epoch's view, so its memos do not (they own no document and age out
    of the LRU).
    """

    def __init__(self, parent: "MutableDocumentCollection",
                 snapshot: Snapshot) -> None:
        super().__init__(name=parent.name)
        self._parent = parent
        self._snapshot = snapshot
        self._documents = _SnapshotDocuments(snapshot)
        self._cache = parent._cache

    def add(self, document: Document,
            name: Optional[str] = None) -> str:
        raise DocumentError(
            "an epoch-pinned view is read-only; write through the "
            "MutableDocumentCollection")

    def index(self, name: str):
        return self._snapshot.inverted_index(name)

    def has_terms(self, name: str, terms: Iterable[str]) -> bool:
        return all(self._snapshot.contains(name, term)
                   for term in terms)

    def _shard_of(self, name: str) -> Optional[int]:
        return self._snapshot.shard_of(name)

    def node_count(self, name: str) -> int:
        return self._snapshot.node_count(name)

    def document_frequency(self, term: str) -> int:
        needle = term.casefold()
        return sum(1 for name in self._snapshot.names()
                   if self._snapshot.contains(name, needle))

    def scorer(self, name: str) -> FragmentScorer:
        return self._parent._scorer_for(self._snapshot, name)

    def _parallel_executor(self, workers: int):
        return _BoundExecutor(self._parent._pool_executor(workers),
                              self._snapshot)


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
        if isinstance(path, MutableIndex):
            self.mutable = path
            self._owns_handle = False
        else:
            self.mutable = MutableIndex.open(
                path, faults=faults,
                obs=obs if obs is not None else NOOP,
                cache_limit=cache_limit)
            self._owns_handle = True
        super().__init__(name=name if name is not None else
                         os.path.basename(os.path.normpath(
                             self.mutable.path)) or "mutable")
        # Scorers are corpus-derived, so they cache per epoch: a commit
        # naturally invalidates them without racing in-flight searches.
        self._scorer_epoch: Optional[int] = None
        self._epoch_scorers: dict[str, FragmentScorer] = {}

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
        collection._owns_handle = True
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
    # Introspection (each call pins the current epoch briefly)
    # ------------------------------------------------------------------

    @contextmanager
    def _pinned(self, epoch: Optional[int] = None):
        snapshot = self.mutable.snapshot(epoch)
        try:
            yield snapshot
        finally:
            snapshot.close()

    def __len__(self) -> int:
        return len(self.mutable)

    def __contains__(self, name: str) -> bool:
        return name in self.mutable

    def __iter__(self) -> Iterator[str]:
        return iter(self.mutable.names())

    def names(self) -> list[str]:
        return self.mutable.names()

    def document(self, name: str) -> Document:
        with self._pinned() as snapshot:
            try:
                return snapshot.document(name)
            except WALError:
                raise KeyError(name)

    def index(self, name: str):
        with self._pinned() as snapshot:
            return snapshot.inverted_index(name)

    def has_terms(self, name: str, terms: Iterable[str]) -> bool:
        with self._pinned() as snapshot:
            return all(snapshot.contains(name, term) for term in terms)

    def node_count(self, name: str) -> int:
        with self._pinned() as snapshot:
            return snapshot.node_count(name)

    @property
    def total_nodes(self) -> int:
        with self._pinned() as snapshot:
            return sum(snapshot.node_count(name)
                       for name in snapshot.names())

    def document_frequency(self, term: str) -> int:
        needle = term.casefold()
        with self._pinned() as snapshot:
            return sum(1 for name in snapshot.names()
                       if snapshot.contains(name, needle))

    def vocabulary(self) -> frozenset[str]:
        with self._pinned() as snapshot:
            vocab: set[str] = set()
            for name in snapshot.names():
                vocab |= snapshot.inverted_index(name).vocabulary()
            return frozenset(vocab)

    # ------------------------------------------------------------------
    # Search: pin an epoch, delegate to a consistent view
    # ------------------------------------------------------------------

    def _scorer_for(self, snapshot: Snapshot,
                    name: str) -> FragmentScorer:
        """Per-epoch scorer cache shared by concurrent same-epoch
        searches; a commit moves the epoch and drops stale entries."""
        with self._lock:
            if self._scorer_epoch != snapshot.epoch:
                self._scorer_epoch = snapshot.epoch
                self._epoch_scorers = {}
            scorer = self._epoch_scorers.get(name)
        if scorer is None:
            scorer = FragmentScorer(snapshot.inverted_index(name))
            with self._lock:
                if self._scorer_epoch == snapshot.epoch:
                    scorer = self._epoch_scorers.setdefault(name, scorer)
        return scorer

    def _pool_executor(self, workers: int):
        """The long-lived mutable-mode pool — survives commits.

        Workers ship only the index *path*; each chunk carries its
        snapshot's epoch and workers re-attach when it moves, so
        ``add`` never has to invalidate this executor.
        """
        from ..exec.parallel import ParallelExecutor
        with self._lock:
            if self._executor is None \
                    or self._executor_workers != workers:
                self._shutdown_executor()
                self._executor = ParallelExecutor(
                    mutable_index=self.mutable.path, workers=workers)
                self._executor_workers = workers
            return self._executor

    @staticmethod
    def _drain_with_pin(hits, snapshot: Snapshot):
        try:
            yield from hits
        finally:
            snapshot.close()

    def search(self, query, *args, epoch: Optional[int] = None,
               **options):
        """Evaluate ``query`` against one epoch-pinned snapshot.

        Accepts every :meth:`DocumentCollection.search` option, plus
        ``epoch=`` to read a historical (still-pinned) epoch.  With
        ``stream=True`` the returned iterator holds the epoch pin until
        it is drained or closed.
        """
        snapshot = self.mutable.snapshot(epoch)
        view = _SnapshotCollection(self, snapshot)
        try:
            result = view.search(query, *args, **options)
        except BaseException:
            snapshot.close()
            raise
        if options.get("stream"):
            return self._drain_with_pin(result, snapshot)
        snapshot.close()
        return result

    def ranked_search(self, query, *args,
                      epoch: Optional[int] = None, **options):
        with self._pinned(epoch) as snapshot:
            view = _SnapshotCollection(self, snapshot)
            return view.ranked_search(query, *args, **options)

    def explain_analyze(self, query, *args,
                        epoch: Optional[int] = None, **options):
        with self._pinned(epoch) as snapshot:
            view = _SnapshotCollection(self, snapshot)
            return view.explain_analyze(query, *args, **options)

    def screen(self, policy, query, *args,
               epoch: Optional[int] = None, **options):
        with self._pinned(epoch) as snapshot:
            view = _SnapshotCollection(self, snapshot)
            return view.screen(policy, query, *args, **options)

    # ------------------------------------------------------------------
    # Health / lifecycle
    # ------------------------------------------------------------------

    def shard_stats(self) -> dict:
        """JSON-ready index snapshot (served under ``/varz``)."""
        return self.mutable.stats()

    def close(self) -> None:
        """Shut the pool down and (if owned) close the index handle."""
        super().close()
        if self._owns_handle:
            self.mutable.close()

    def __repr__(self) -> str:
        return (f"MutableDocumentCollection(name={self.name!r}, "
                f"path={self.mutable.path!r}, epoch={self.epoch}, "
                f"documents={len(self)})")
