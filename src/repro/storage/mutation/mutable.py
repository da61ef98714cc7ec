"""The mutable index facade: WAL + delta + epochs over shard files.

:class:`MutableIndex` is the single-writer handle on a live index
directory::

    CURRENT               -> "manifest.000007.json"
    manifest.000007.json  epoch manifest (generation, base, WAL prefix)
    gen-0001/             base generation (a normal sharded index)
    wal-000001.log        this generation's write-ahead log

Writes (``add`` / ``replace`` / ``remove``) append a WAL record and
update the in-memory delta; :meth:`commit` makes them durable and
visible by fsyncing the WAL and publishing a new epoch manifest.
Readers take :meth:`snapshot` — an immutable, epoch-pinned view merging
the mmap base with the delta — or, in pool workers,
:func:`attach_snapshot` rebuilds the same view from disk.  The writer
builds each epoch's view from the one before it and keeps the tree,
token and index of every document whose WAL record it shares (see
:mod:`.delta`), so a commit is only as cold as what it changed.
:meth:`compact` folds the delta into a fresh generation directory
(built with the ordinary shard writer, so readers attach it with the
ordinary reader) and starts an empty WAL.

Recovery is the open path itself: :meth:`open` replays exactly the
committed WAL prefix named by the current manifest, truncates anything
past it (torn tails *and* intact-but-uncommitted records — a write
whose commit never published is reported failed, not resurrected), and
the index comes up at precisely the last committed epoch.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

from ...errors import ShardError, WALError
from ...index.inverted import InvertedIndex
from ...obs import (MUTATION_COMMITS, MUTATION_COMPACTIONS,
                    MUTATION_DELTA_DOCUMENTS, MUTATION_EPOCH,
                    MUTATION_EPOCHS_GCED, MUTATION_EPOCHS_PINNED,
                    MUTATION_RECOVERY_SECONDS, MUTATION_WAL_BYTES,
                    MUTATION_WAL_RECORDS, MUTATION_WAL_TAIL_DISCARDED,
                    NOOP)
from ..shards.reader import ShardIndex
from ..shards.writer import build_index, encode_document
from . import epochs as ep
from .delta import DeltaView
from .wal import (OP_ADD, OP_REMOVE, OP_REPLACE, WriteAheadLog,
                  read_records, wal_file_name)

__all__ = ["MutableIndex", "Snapshot", "attach_snapshot", "fsck"]


def _merged_names(base: Optional[ShardIndex], delta: DeltaView) \
        -> list[str]:
    """Sorted names visible through ``delta`` over ``base``: the base's
    minus the tombstoned ones, plus the delta's."""
    names = set(base.names()) if base is not None else set()
    names -= delta.tombstones
    names.update(delta.names())
    return sorted(names)


class Snapshot:
    """An immutable, epoch-consistent view of a mutable index.

    Merges a (shared or owned) base :class:`ShardIndex` with one
    :class:`DeltaView`: delta documents shadow base documents of the
    same name, tombstones hide base documents entirely.  Delta
    documents report shard ``-1`` so executor chunk grouping keeps them
    separate from (and sortable against) real shards.

    Close the snapshot when the query finishes — that releases the
    epoch pin so the writer may garbage-collect the files.  What the
    delta materialised belongs to the view, not to this handle, and
    outlives it.  ``names`` is the merged name list when the caller
    already holds it for this ``(base, delta)`` pair (the writer keeps
    one per epoch); otherwise the first use computes it.
    """

    def __init__(self, path: str, epoch: int, manifest: dict,
                 base: Optional[ShardIndex], delta: DeltaView, *,
                 owns_base: bool = False, on_close=None,
                 names: Optional[list] = None) -> None:
        self.path = path
        self.epoch = epoch
        self.manifest = manifest
        self._base = base
        self._delta = delta
        self._owns_base = owns_base
        self._on_close = on_close
        self._names = names
        self._closed = False

    # -- corpus surface -------------------------------------------------

    def _merged(self) -> list[str]:
        if self._names is None:
            self._names = _merged_names(self._base, self._delta)
        return self._names

    def names(self) -> list[str]:
        return list(self._merged())

    def __contains__(self, name: object) -> bool:
        if name in self._delta:
            return True
        if name in self._delta.tombstones:
            return False
        return self._base is not None and name in self._base

    def __len__(self) -> int:
        return len(self._merged())

    def _base_of(self, name: str) -> ShardIndex:
        """The base index, for a name the delta neither shadows nor
        hides; unknown names raise a structured :class:`WALError`."""
        if name in self._delta.tombstones or self._base is None:
            raise WALError(f"unknown document {name!r} at epoch "
                           f"{self.epoch}", reason="unknown-document",
                           path=self.path)
        return self._base

    def document(self, name: str):
        if name in self._delta:
            return self._delta.document(name)
        return self._base_of(name).document(name)

    def contains(self, name: str, term: str) -> bool:
        if name in self._delta:
            return self._delta.contains(name, term)
        return self._base_of(name).contains(name, term)

    def candidates(self, terms) -> list[str]:
        """Names, in :meth:`names` order, of the documents containing
        every term: the base's answer minus what the delta shadows or
        tombstones, plus the delta documents that pass the probe."""
        delta = self._delta
        terms = tuple(terms)
        found = [name for name in delta.names()
                 if all(delta.contains(name, term) for term in terms)]
        if self._base is not None:
            found.extend(name for name in self._base.candidates(terms)
                         if name not in delta
                         and name not in delta.tombstones)
            found.sort()
        return found

    def inverted_index(self, name: str) -> InvertedIndex:
        if name in self._delta:
            return self._delta.inverted_index(name)
        return self._base_of(name).inverted_index(name)

    def node_count(self, name: str) -> int:
        if name in self._delta:
            return self._delta.node_count(name)
        return self._base_of(name).node_count(name)

    def shard_of(self, name: str) -> int:
        """Shard for chunk grouping; delta documents report ``-1``."""
        if name in self._delta:
            return -1
        return self._base_of(name).shard_of(name)

    @property
    def degraded(self) -> bool:
        return self._base is not None and self._base.degraded

    @property
    def delta(self) -> DeltaView:
        return self._delta

    @property
    def base(self) -> Optional[ShardIndex]:
        return self._base

    def stats(self) -> dict:
        return {"path": self.path, "epoch": self.epoch,
                "generation": self.manifest.get("generation"),
                "documents": len(self),
                "delta": self._delta.stats(),
                "base": (self._base.stats()
                         if self._base is not None else None)}

    # -- lifecycle ------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_base and self._base is not None:
            self._base.close()
        if self._on_close is not None:
            callback, self._on_close = self._on_close, None
            callback()

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Snapshot(epoch={self.epoch}, "
                f"documents={len(self)}, "
                f"delta={len(self._delta)})")


def _attach_base(path: str, manifest: dict, *, obs=NOOP,
                 cache_limit: Optional[int] = 64) \
        -> Optional[ShardIndex]:
    base = manifest.get("base")
    if not base:
        return None
    return ShardIndex.attach(os.path.join(path, base), on_error="skip",
                             cache_limit=cache_limit, obs=obs)


def _committed_view(path: str, manifest: dict, *,
                    tail: bool = False) -> tuple[DeltaView, dict]:
    """Replay the committed WAL prefix named by ``manifest``.

    Returns ``(view, wal_scan)``, ``wal_scan`` being the
    :func:`read_records` result.  The scan stops where the manifest
    does — its ``wal_bytes`` are read, its ``wal_records`` decoded —
    so attaching an old epoch does not pay for the epochs after it;
    ``tail`` (recovery, fsck) scans on to the end of the file to report
    what lies beyond the committed prefix.
    """
    wal_path = os.path.join(path, manifest["wal"])
    committed = int(manifest.get("wal_records", 0))
    try:
        if tail:
            scan = read_records(wal_path)
        else:
            scan = read_records(wal_path, committed,
                                end=manifest.get("wal_bytes"))
    except WALError:
        if committed == 0:
            # An empty WAL that was GC'd or never flushed carries no
            # committed state; treat it as the empty log it stands for.
            scan = {"records": [], "offsets": [], "good_bytes": 0,
                    "torn": False, "torn_reason": None, "file_bytes": 0}
        else:
            raise
    if len(scan["records"]) < committed:
        raise WALError(
            f"epoch {manifest['epoch']} commits {committed} WAL "
            f"records but only {len(scan['records'])} are intact",
            reason="torn", path=wal_path)
    view = DeltaView.from_records(scan["records"][:committed])
    return view, scan


def attach_snapshot(path: str, epoch: Optional[int] = None, *,
                    obs=NOOP, cache_limit: Optional[int] = 64) \
        -> Snapshot:
    """Attach a read-only snapshot of one epoch (pool-worker path).

    Never mutates the directory: the WAL is read, not truncated, and
    the base attaches through the ordinary mmap reader.  The parent
    pins ``epoch`` for the duration of the dispatch, so the files are
    guaranteed to outlive this handle.
    """
    path = os.fspath(path)
    if epoch is None:
        epoch = ep.read_current(path)
        if epoch is None:
            raise WALError(f"no mutable index at {path}",
                           reason="missing", path=path)
    manifest = ep.load_manifest(path, epoch)
    base = _attach_base(path, manifest, obs=obs,
                        cache_limit=cache_limit)
    try:
        view, _ = _committed_view(path, manifest)
    except BaseException:
        if base is not None:
            base.close()
        raise
    return Snapshot(path, epoch, manifest, base, view, owns_base=True)


class MutableIndex:
    """Single-writer, multi-reader handle on a live index directory.

    Construct with :meth:`create` (new directory) or :meth:`open`
    (existing — this *is* crash recovery).  All mutation methods are
    thread-safe; reads should go through :meth:`snapshot` for epoch
    consistency.

    Parameters
    ----------
    faults:
        Optional :class:`~repro.exec.faults.CrashPlan` threaded through
        the WAL and the epoch commit protocol (test-only).
    """

    def __init__(self, path: str, *, faults=None, obs=NOOP,
                 cache_limit: Optional[int] = 64) -> None:
        path = os.fspath(path)
        started = time.perf_counter()
        self.path = path
        self._faults = faults
        self._obs = obs
        self._cache_limit = cache_limit
        self._lock = threading.RLock()
        self._epochs = ep.EpochManager(path, faults=faults)
        epoch = self._epochs.current_epoch
        if epoch is None:
            raise WALError(f"no mutable index at {path} (no CURRENT "
                           f"pointer); use MutableIndex.create",
                           reason="missing", path=path)
        manifest = ep.load_manifest(path, epoch)
        self._manifest = manifest
        self.generation = int(manifest.get("generation", 0))
        self.shards = int(manifest.get("shards", 4))
        self._bases: dict[str, ShardIndex] = {}
        # Attached now, before the WAL opens, so a base generation of
        # another shard format is refused here ("version-skew").
        self._base_handle(manifest)
        view, scan = _committed_view(path, manifest, tail=True)
        committed = int(manifest.get("wal_records", 0))
        committed_bytes = (scan["offsets"][committed - 1]
                           if committed else 0)
        discarded = scan["file_bytes"] - committed_bytes
        wal_path = os.path.join(path, manifest["wal"])
        # Recovery: truncate everything past the committed prefix —
        # torn tails and intact-but-unpublished records alike.
        self._wal = WriteAheadLog(wal_path, records=committed,
                                  start_bytes=committed_bytes,
                                  faults=faults)
        self._live_sections = dict(view._sections)
        self._live_tombstones = set(view.tombstones)
        self._published: dict[int, tuple[dict, DeltaView]] = {
            epoch: (manifest, view)}
        # epoch -> merged name list, built by its first snapshot().
        self._names: dict[int, list[str]] = {}
        self._closed = False
        self.recovery = {
            "epoch": epoch,
            "wal_records_replayed": committed,
            "wal_bytes_discarded": discarded,
            "wal_torn": bool(scan["torn"]),
            "seconds": time.perf_counter() - started,
        }
        metrics = obs.metrics
        metrics.histogram(
            MUTATION_RECOVERY_SECONDS,
            "Wall seconds per mutable-index open/recovery."
        ).observe(self.recovery["seconds"])
        if discarded:
            metrics.counter(
                MUTATION_WAL_TAIL_DISCARDED,
                "WAL bytes discarded at recovery (torn or uncommitted)."
            ).inc(discarded)
        metrics.gauge(
            MUTATION_EPOCH, "Current committed epoch.").set(epoch)
        metrics.gauge(
            MUTATION_DELTA_DOCUMENTS,
            "Documents in the committed delta segment.").set(len(view))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, path, documents=None, *, shards: int = 4,
               faults=None, obs=NOOP,
               cache_limit: Optional[int] = 64) -> "MutableIndex":
        """Initialise a new mutable index directory at ``path``.

        ``documents`` (a ``{name: Document}`` mapping, optional) seeds
        generation 0 through the ordinary shard builder; an empty index
        starts with no base and everything flowing through the WAL.
        """
        path = os.fspath(path)
        os.makedirs(path, exist_ok=True)
        if ep.read_current(path) is not None:
            raise WALError(f"{path} already holds a mutable index",
                           reason="bad-epoch", path=path)
        base = None
        if documents:
            base = ep.generation_dir_name(0)
            build_index(documents, os.path.join(path, base),
                        shards=shards, obs=obs)
        wal_name = wal_file_name(0)
        with open(os.path.join(path, wal_name), "ab") as fh:
            fh.flush()
            os.fsync(fh.fileno())
        manifest = {
            "format": ep.MUTABLE_FORMAT,
            "format_version": ep.MUTABLE_FORMAT_VERSION,
            "epoch": 1,
            "generation": 0,
            "base": base,
            "wal": wal_name,
            "wal_records": 0,
            "wal_bytes": 0,
            "shards": shards,
        }
        ep.EpochManager(path, faults=faults).publish(manifest)
        return cls(path, faults=faults, obs=obs,
                   cache_limit=cache_limit)

    @classmethod
    def open(cls, path, *, faults=None, obs=NOOP,
             cache_limit: Optional[int] = 64) -> "MutableIndex":
        """Open (and recover) an existing mutable index."""
        return cls(path, faults=faults, obs=obs,
                   cache_limit=cache_limit)

    # ------------------------------------------------------------------
    # Live visibility (committed + pending, writer's own view)
    # ------------------------------------------------------------------

    def _visible(self, name: str) -> bool:
        if name in self._live_sections:
            return True
        if name in self._live_tombstones:
            return False
        base = self._base_handle(self._manifest)
        return base is not None and name in base

    def _base_handle(self, manifest: dict) -> Optional[ShardIndex]:
        base = manifest.get("base")
        if not base:
            return None
        handle = self._bases.get(base)
        if handle is None:
            handle = _attach_base(self.path, manifest, obs=self._obs,
                                  cache_limit=self._cache_limit)
            self._bases[base] = handle
        return handle

    @property
    def epoch(self) -> int:
        """The last committed epoch."""
        return int(self._manifest["epoch"])

    @property
    def pending_records(self) -> int:
        """WAL records appended but not yet published by a commit."""
        return self._wal.records - int(self._manifest["wal_records"])

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise WALError("mutable index is closed", reason="closed",
                           path=self.path)

    def add(self, document, name: Optional[str] = None, *,
            commit: bool = True) -> str:
        """Add (or replace) one document; returns its name.

        With ``commit=True`` (default) the write is durable and
        visible on return; ``commit=False`` batches — call
        :meth:`commit` to publish.
        """
        resolved = name if name is not None \
            else getattr(document, "name", None)
        if not resolved:
            raise WALError("document needs a name to be added",
                           reason="bad-op", path=self.path)
        sections = encode_document(document)
        with self._lock:
            self._require_open()
            op = OP_REPLACE if self._visible(resolved) else OP_ADD
            self._append(op, resolved, sections)
            self._live_sections[resolved] = sections
            self._live_tombstones.discard(resolved)
            if commit:
                self.commit()
        return resolved

    def remove(self, name: str, *, commit: bool = True) -> None:
        """Remove one document (WAL tombstone; base is untouched)."""
        with self._lock:
            self._require_open()
            if not self._visible(name):
                raise WALError(f"unknown document {name!r}",
                               reason="unknown-document",
                               path=self.path)
            self._append(OP_REMOVE, name, None)
            self._live_sections.pop(name, None)
            self._live_tombstones.add(name)
            if commit:
                self.commit()

    def _append(self, op: str, name: str, sections) -> None:
        before = self._wal.bytes
        self._wal.append(op, name, sections)
        metrics = self._obs.metrics
        metrics.counter(
            MUTATION_WAL_RECORDS,
            "WAL records appended.").inc()
        metrics.counter(
            MUTATION_WAL_BYTES,
            "WAL bytes appended.").inc(self._wal.bytes - before)

    def commit(self) -> int:
        """Publish pending writes as a new epoch; returns the epoch.

        No-op (returning the current epoch) when nothing is pending.
        The sequence is the commit protocol the crash tests drive:
        WAL fsync → manifest publish → ``CURRENT`` flip.
        """
        with self._lock:
            self._require_open()
            if self.pending_records == 0:
                return self.epoch
            self._wal.sync()
            manifest = dict(self._manifest)
            manifest["epoch"] = self.epoch + 1
            manifest["wal_records"] = self._wal.records
            manifest["wal_bytes"] = self._wal.bytes
            epoch = self._epochs.publish(manifest)
            view = DeltaView(dict(self._live_sections),
                             frozenset(self._live_tombstones),
                             self._wal.records,
                             previous=self._published[self.epoch][1])
            self._manifest = manifest
            self._published[epoch] = (manifest, view)
            self._release_stale()
            self._epochs.collect()
            metrics = self._obs.metrics
            metrics.counter(
                MUTATION_COMMITS, "Epoch commits published.").inc()
            metrics.gauge(
                MUTATION_EPOCH, "Current committed epoch.").set(epoch)
            metrics.gauge(
                MUTATION_DELTA_DOCUMENTS,
                "Documents in the committed delta segment."
            ).set(len(view))
            return epoch

    def compact(self) -> int:
        """Fold the delta into a new base generation; returns the epoch.

        Publishes any pending writes first, then rebuilds every visible
        document into ``gen-<N+1>/`` with the ordinary shard writer,
        starts an empty WAL for the new generation and commits an epoch
        pointing at them.  Old generations linger until no pinned epoch
        references them.
        """
        with self._lock:
            self._require_open()
            self.commit()
            snapshot = self.snapshot()
            try:
                docs = {name: snapshot.document(name)
                        for name in snapshot.names()}
            finally:
                snapshot.close()
            generation = self.generation + 1
            base = None
            if docs:
                base = ep.generation_dir_name(generation)
                build_index(docs, os.path.join(self.path, base),
                            shards=self.shards, obs=self._obs)
            wal_name = wal_file_name(generation)
            with open(os.path.join(self.path, wal_name), "ab") as fh:
                fh.flush()
                os.fsync(fh.fileno())
            manifest = {
                "format": ep.MUTABLE_FORMAT,
                "format_version": ep.MUTABLE_FORMAT_VERSION,
                "epoch": self.epoch + 1,
                "generation": generation,
                "base": base,
                "wal": wal_name,
                "wal_records": 0,
                "wal_bytes": 0,
                "shards": self.shards,
            }
            epoch = self._epochs.publish(manifest)
            old_wal = self._wal
            self._wal = WriteAheadLog(
                os.path.join(self.path, wal_name), records=0,
                faults=self._faults)
            old_wal.close()
            self._manifest = manifest
            self.generation = generation
            self._live_sections = {}
            self._live_tombstones = set()
            view = DeltaView.empty()
            self._published[epoch] = (manifest, view)
            self._release_stale()
            self._epochs.collect()
            metrics = self._obs.metrics
            metrics.counter(
                MUTATION_COMPACTIONS,
                "Delta-into-base compactions completed.").inc()
            metrics.gauge(
                MUTATION_EPOCH, "Current committed epoch.").set(epoch)
            metrics.gauge(
                MUTATION_DELTA_DOCUMENTS,
                "Documents in the committed delta segment.").set(0)
            return epoch

    # ------------------------------------------------------------------
    # Snapshots and pins
    # ------------------------------------------------------------------

    def snapshot(self, epoch: Optional[int] = None) -> Snapshot:
        """An epoch-pinned consistent view (default: latest committed).

        Close it to release the pin.  Raises for epochs that were never
        published by this handle or already garbage-collected.
        """
        with self._lock:
            self._require_open()
            if epoch is None:
                epoch = self.epoch
            entry = self._published.get(epoch)
            if entry is None:
                raise WALError(
                    f"epoch {epoch} is not available (current is "
                    f"{self.epoch})", reason="bad-epoch",
                    path=self.path)
            manifest, view = entry
            base = self._base_handle(manifest)
            names = self._names.get(epoch)
            if names is None:
                names = self._names[epoch] = _merged_names(base, view)
            self._epochs.pin(epoch)
            self._gauge_pins()
            return Snapshot(self.path, epoch, manifest, base, view,
                            owns_base=False, names=names,
                            on_close=lambda: self._unpin(epoch))

    def _unpin(self, epoch: int) -> None:
        if self._epochs.unpin(epoch) == 0 and epoch != self.epoch:
            # The last reader of a superseded epoch left: free its view
            # now, not at the next commit — the trees of documents since
            # replaced or removed go with it (later views carry the rest).
            with self._lock:
                self._release_stale()
        self._gauge_pins()

    def _gauge_pins(self) -> None:
        self._obs.metrics.gauge(
            MUTATION_EPOCHS_PINNED,
            "Distinct epochs currently pinned by readers."
        ).set(len(self._epochs.pinned_epochs()))

    def _release_stale(self) -> None:
        """Drop unpinned stale epochs' views and base handles (under
        ``_lock``); their files are the writer's to delete, at commit."""
        live = self._epochs.live_epochs()
        stale = [e for e in self._published if e not in live]
        for e in stale:
            del self._published[e]
            self._names.pop(e, None)
        if stale:
            self._obs.metrics.counter(
                MUTATION_EPOCHS_GCED,
                "Stale epochs garbage-collected.").inc(len(stale))
        live_bases = {m.get("base") for m, _ in self._published.values()
                      if m.get("base")}
        for base in [b for b in self._bases if b not in live_bases]:
            self._bases.pop(base).close()

    def pinned_epochs(self) -> dict[int, int]:
        return self._epochs.pinned_epochs()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def names(self) -> list[str]:
        """Names visible at the last committed epoch."""
        with self.snapshot() as snapshot:
            return snapshot.names()

    def __contains__(self, name: object) -> bool:
        with self.snapshot() as snapshot:
            return name in snapshot

    def __len__(self) -> int:
        return len(self.names())

    def stats(self) -> dict:
        """Plain-dict snapshot for /varz and the CLI."""
        _, view = self._published[self.epoch]
        base = self._base_handle(self._manifest)
        return {
            "path": self.path,
            "epoch": self.epoch,
            "generation": self.generation,
            "shards": self.shards,
            "documents": len(self.names()),
            "wal": {"file": self._manifest["wal"],
                    "records": self._wal.records,
                    "bytes": self._wal.bytes,
                    "pending_records": self.pending_records},
            "delta": view.stats(),
            "pinned_epochs": {str(e): n for e, n
                              in self._epochs.pinned_epochs().items()},
            "published_epochs": sorted(self._published),
            "recovery": dict(self.recovery),
            "base": base.stats() if base is not None else None,
        }

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the WAL handle and every attached base (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wal.close()
            for handle in self._bases.values():
                handle.close()
            self._bases.clear()
            self._published.clear()
            self._names.clear()

    def __enter__(self) -> "MutableIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"MutableIndex(path={self.path!r}, epoch={self.epoch}, "
                f"generation={self.generation}, "
                f"pending={self.pending_records})")


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------

def fsck(path, *, repair: bool = False, obs=NOOP) -> dict:
    """Verify (and optionally repair) a mutable index directory.

    Checks, in order: the ``CURRENT`` pointer, the current epoch
    manifest, the WAL's committed prefix (CRCs, torn tail, records
    beyond the commit), the base generation (attach + full checksum
    sweep), and orphaned files from crashed commits or skipped GC.

    With ``repair=True`` the safe subset is fixed: torn/uncommitted WAL
    tails are truncated to the committed prefix, orphan manifests,
    generations, WAL files and ``*.tmp`` leftovers are deleted, and a
    missing/corrupt ``CURRENT`` is re-pointed at the highest epoch
    manifest whose content checks out.  Unrepairable damage (missing
    committed records, checksum failures inside the base) is reported
    with ``healthy: false``.

    Returns a JSON-ready report.
    """
    path = os.fspath(path)
    issues: list[dict] = []
    repairs: list[str] = []

    def issue(kind: str, detail: str, fatal: bool = False) -> None:
        issues.append({"kind": kind, "detail": detail, "fatal": fatal})

    try:
        epoch = ep.read_current(path)
    except WALError as exc:
        epoch = None
        issue("bad-current", str(exc), fatal=not repair)
    if epoch is None and not issues:
        issue("no-current", f"{path} has no CURRENT pointer",
              fatal=not repair)

    manifest: Optional[dict] = None
    if epoch is not None:
        try:
            manifest = ep.load_manifest(path, epoch)
        except WALError as exc:
            issue("bad-manifest", str(exc), fatal=not repair)
            epoch = None

    if manifest is None and repair:
        # Adopt the highest epoch whose manifest + WAL prefix verify.
        candidates = sorted(
            (int(m.group(1)) for m in
             (ep._MANIFEST_RE.match(e) for e in os.listdir(path))
             if m is not None), reverse=True)
        for candidate in candidates:
            try:
                trial = ep.load_manifest(path, candidate)
                _committed_view(path, trial)
            except WALError:
                continue
            manifest, epoch = trial, candidate
            tmp = os.path.join(path, ep.CURRENT_NAME + ".tmp")
            with open(tmp, "wb") as fh:
                fh.write((ep.epoch_manifest_name(candidate)
                          + "\n").encode("utf-8"))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, os.path.join(path, ep.CURRENT_NAME))
            repairs.append(f"re-pointed CURRENT at epoch {candidate}")
            break
        else:
            if candidates:
                issue("no-valid-epoch",
                      "no epoch manifest verifies", fatal=True)

    wal_report: Optional[dict] = None
    if manifest is not None:
        committed = int(manifest.get("wal_records", 0))
        wal_path = os.path.join(path, manifest["wal"])
        try:
            _, scan = _committed_view(path, manifest, tail=True)
        except WALError as exc:
            issue("wal", str(exc), fatal=True)
            scan = None
        if scan is not None:
            committed_bytes = (scan["offsets"][committed - 1]
                               if committed else 0)
            excess = scan["file_bytes"] - committed_bytes
            wal_report = {"file": manifest["wal"],
                          "committed_records": committed,
                          "intact_records": len(scan["records"]),
                          "torn": scan["torn"],
                          "torn_reason": scan["torn_reason"],
                          "excess_bytes": excess}
            if excess:
                kind = "wal-torn" if scan["torn"] else "wal-uncommitted"
                issue(kind, f"{excess} bytes past the committed prefix")
                if repair and os.path.exists(wal_path):
                    with open(wal_path, "r+b") as fh:
                        fh.truncate(committed_bytes)
                        fh.flush()
                        os.fsync(fh.fileno())
                    repairs.append(
                        f"truncated {manifest['wal']} to "
                        f"{committed_bytes} bytes")

    base_report: Optional[dict] = None
    if manifest is not None and manifest.get("base"):
        base_dir = os.path.join(path, manifest["base"])
        try:
            handle = ShardIndex.attach(base_dir, on_error="skip",
                                       obs=obs)
        except ShardError as exc:
            issue("base", str(exc), fatal=True)
        else:
            try:
                sweep = handle.verify_all()
                base_report = {
                    "dir": manifest["base"],
                    "shards_attached": len(handle.attached_shards),
                    "shards_failed": {
                        str(s): e.to_dict()
                        for s, e in handle.failed_shards.items()},
                    "documents_verified": sweep["documents"],
                    "checksum_failures": sweep["failures"],
                }
                for shard, exc in handle.failed_shards.items():
                    issue("base-shard", f"shard {shard}: {exc}",
                          fatal=True)
                for failure in sweep["failures"]:
                    issue("base-checksum", failure["message"],
                          fatal=True)
            finally:
                handle.close()

    orphans = {"manifests": [], "generations": [], "wals": [],
               "tmp": []}
    if manifest is not None:
        referenced = {manifest.get("base"), manifest.get("wal")}
        for entry in sorted(os.listdir(path)):
            match = ep._MANIFEST_RE.match(entry)
            if match is not None and int(match.group(1)) != epoch:
                orphans["manifests"].append(entry)
            elif ep._WAL_RE.match(entry) and entry not in referenced:
                orphans["wals"].append(entry)
            elif ep._GENERATION_RE.match(entry) \
                    and entry not in referenced:
                orphans["generations"].append(entry)
            elif entry.endswith(".tmp"):
                orphans["tmp"].append(entry)
        total = sum(len(v) for v in orphans.values())
        if total:
            issue("orphans", f"{total} orphaned files "
                  f"(crashed commit or pending GC)")
            if repair:
                manager = ep.EpochManager(path)
                removed = manager.collect()
                repairs.append(
                    f"swept {removed['manifests']} manifests, "
                    f"{removed['generations']} generations, "
                    f"{removed['wals']} WAL files")

    healthy = manifest is not None \
        and not any(i["fatal"] for i in issues)
    return {"path": path, "healthy": healthy, "epoch": epoch,
            "repaired": bool(repairs), "issues": issues,
            "repairs": repairs, "wal": wal_report, "base": base_report,
            "orphans": orphans}
