"""Attach-side of the sharded index: mmap / shared-memory readers.

:class:`ShardIndex` opens an index directory written by
:func:`repro.storage.shards.writer.build_index` and exposes the corpus
*lazily*:

* **attach** maps every shard file (``mmap``, or
  ``multiprocessing.shared_memory`` when a spec carries segment names
  for the spawn path) and verifies only the manifest, magic, version
  and header checksums — O(shards), independent of corpus size;
* **screen** (:meth:`candidates`) intersects the query terms' document
  lists out of each shard's mapped term directory — the collection
  search's early exit, with no document's section touched;
* **probe** (:meth:`contains`) binary-searches the mapped postings
  section of one document without materialising it;
* **materialise** (:meth:`document`) verifies a document's section
  checksums exactly once, at first touch, and builds it in two
  stages (:func:`build_document`): at first touch the structure
  (``parents``, ``depth``, ``size``, read through
  ``memoryview.cast("q")`` windows onto the map) and a postings view
  that decodes one term per lookup; on first read the content (tags,
  texts, attributes, children, keywords), from copies of its sections.

Every failure raises a structured :class:`~repro.errors.ShardError`
(``reason`` ∈ missing / truncated / bad-magic / version-skew /
checksum / bad-header / bad-manifest / unknown-document) — attach with
``on_error="skip"`` records bad shards in :attr:`failed_shards` and
serves the remaining ones, which is what the
:class:`~repro.storage.shards.router.ShardRouter` builds its
skip-and-degrade behaviour on.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import threading
import time
from collections import OrderedDict
from typing import Optional

from ...errors import ShardError
from ...index.inverted import InvertedIndex
from ...obs import (NOOP, SHARD_ATTACH_FAILURES, SHARD_ATTACH_SECONDS,
                    SHARD_BYTES_MAPPED, SHARD_DOCS_MATERIALIZED,
                    SHARDS_ATTACHED)
from ...xmltree.document import Document
from ...xmltree.labeling import TreeLabels
from . import format as fmt

__all__ = ["ShardIndex", "build_document"]

#: Shared-memory handles whose buffers were still exported (e.g. a
#: caller keeps a materialised Document alive) when their index was
#: closed.  Dropping the handle would make SharedMemory.__del__ raise a
#: spurious BufferError at GC time, so we pin it instead; the OS frees
#: the mapping at process exit regardless.
_PINNED_SEGMENTS: list = []


def build_document(name: str, nodes: int, section_of, *,
                   token: Optional[int] = None):
    """Build a :class:`Document` from encoded sections, structure first.

    ``section_of(section_name)`` returns a bytes-like object holding
    that section's payload (a mapped window for shard files, plain
    bytes for WAL records).  Returns ``(document, postings)``.

    Only the structure is decoded here: ``parents``, ``depth`` and
    ``size`` become lists.  The ``tags``, ``texts``, ``attrs`` and
    ``postings`` sections are *copied*, never kept as views, so the
    caller's buffer may close while the document lives;
    the document decodes each on first read
    (:meth:`Document.from_structure`), and ``postings`` is a
    :class:`~repro.storage.shards.format.PostingsMap` over the copy,
    which decodes one term's list per lookup.  ``token`` is the
    identity token of an earlier build from the same bytes (see
    :meth:`ShardIndex.document`); omitted, the document draws a fresh one.
    """
    parents_q = memoryview(section_of("parents")).cast("q")
    if len(parents_q) != nodes:
        raise ShardError(
            f"document {name!r} structural arrays do not match its "
            f"node count", reason="bad-header")
    parents = [None if p < 0 else p for p in parents_q]
    depth = list(memoryview(section_of("depth")).cast("q"))
    size = list(memoryview(section_of("size")).cast("q"))
    labels = TreeLabels(depth, size)
    encoded = {section: bytes(section_of(section))
               for section in ("tags", "texts", "attrs", "postings")}

    def content(slot: str) -> list:
        if slot == "_keywords":
            per_node: list[list[str]] = [[] for _ in range(nodes)]
            for term, ids in fmt.decode_postings(
                    encoded["postings"]).items():
                for nid in ids:
                    per_node[nid].append(term)
            return [frozenset(k) for k in per_node]
        if slot == "_attrs":
            return json.loads(encoded["attrs"])
        return fmt.decode_strings(encoded[slot.lstrip("_")])

    doc = Document.from_structure(parents, labels, content, name,
                                  token=token)
    return doc, fmt.PostingsMap(encoded["postings"])


class _ShardFile:
    """One mapped shard: buffer, parsed header, per-document entries
    (in header order, so position = directory ordinal) and the parsed
    term directory."""

    __slots__ = ("shard", "path", "mv", "payload", "entries", "names",
                 "directory", "directory_section", "nbytes", "verified",
                 "_mmap", "_shm")

    def __init__(self, shard: int, path: str, mv, payload, entries,
                 directory_section, nbytes: int, mm=None,
                 shm=None) -> None:
        self.shard = shard
        self.path = path
        self.mv = mv
        self.payload = payload
        self.entries = entries
        self.names = list(entries)
        self.directory_section = directory_section  # (off, len, crc32)
        off, length, _ = directory_section
        self.directory = fmt.DirectoryView(payload[off:off + length])
        self.nbytes = nbytes
        self.verified: set = set()
        self._mmap = mm
        self._shm = shm

    def close(self) -> None:
        # Materialised documents may still hold exported views into the
        # buffer; closing then would raise BufferError.  Release what we
        # can and leave the rest to garbage collection.
        self.payload = None
        self.mv = None
        self.directory = None
        try:
            if self._mmap is not None:
                self._mmap.close()
        except BufferError:
            pass
        self._mmap = None
        try:
            if self._shm is not None:
                self._shm.close()
        except BufferError:
            _PINNED_SEGMENTS.append(self._shm)
        self._shm = None


def _load_manifest(path: str) -> dict:
    manifest_path = os.path.join(path, fmt.MANIFEST_NAME)
    try:
        with open(manifest_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ShardError(f"no shard manifest at {manifest_path}: {exc}",
                         reason="missing", path=manifest_path) from exc
    try:
        manifest = json.loads(raw)
    except ValueError as exc:
        raise ShardError(f"shard manifest is not valid JSON: {exc}",
                         reason="bad-manifest", path=manifest_path) from exc
    if not isinstance(manifest, dict) \
            or manifest.get("format") != "repro-shard-index":
        raise ShardError("file is not a repro shard-index manifest",
                         reason="bad-manifest", path=manifest_path)
    version = manifest.get("format_version")
    if version != fmt.FORMAT_VERSION:
        raise ShardError(
            f"index format version {version!r} does not match reader "
            f"version {fmt.FORMAT_VERSION} (rebuild the index)",
            reason="version-skew", path=manifest_path)
    for key in ("shards", "documents", "files"):
        if key not in manifest:
            raise ShardError(f"manifest is missing the {key!r} key",
                             reason="bad-manifest", path=manifest_path)
    return manifest


def _verify_directory(shard: int, path: str, payload, section) -> None:
    off, length, crc = section
    if fmt.crc32(payload[off:off + length]) != crc:
        raise ShardError(
            f"the term directory of shard {shard} fails its checksum",
            reason="checksum", shard=shard, path=path)


def _open_shard(shard: int, path: str, file_entry: dict,
                shm_name: Optional[str]) -> _ShardFile:
    """Map one shard file (or shm segment) and verify its header."""
    mm = None
    shm = None
    if shm_name is not None:
        from multiprocessing import resource_tracker, shared_memory
        try:
            shm = shared_memory.SharedMemory(name=shm_name)
        except OSError as exc:
            raise ShardError(
                f"shard {shard} shared-memory segment {shm_name!r} "
                f"unavailable: {exc}", reason="missing", shard=shard,
                path=path) from exc
        # The creating process owns the segment's lifetime; detach this
        # process's tracker registration so worker exit does not unlink
        # (or warn about) a segment the parent still serves.
        try:  # pragma: no cover - tracker internals vary by platform
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        # Segment sizes are page-rounded by the kernel; trim the view to
        # the manifest's byte count so checks and offsets line up.
        expected = file_entry.get("bytes")
        mv = memoryview(shm.buf)
        if expected is not None and len(mv) >= expected:
            mv = mv[:expected]
        nbytes = len(mv)
    else:
        try:
            size = os.path.getsize(path)
            with open(path, "rb") as fh:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except OSError as exc:
            raise ShardError(f"cannot map shard {shard}: {exc}",
                             reason="missing", shard=shard,
                             path=path) from exc
        mv = memoryview(mm)
        nbytes = size

    try:
        expected = file_entry.get("bytes")
        if expected is not None and nbytes != expected:
            raise ShardError(
                f"shard {shard} is {nbytes} bytes, manifest says "
                f"{expected} (truncated or partially written file)",
                reason="truncated", shard=shard, path=path)
        magic_len = len(fmt.MAGIC)
        if nbytes < magic_len + 4 or bytes(mv[:magic_len]) != fmt.MAGIC:
            raise ShardError(f"shard {shard} lacks the shard magic",
                             reason="bad-magic", shard=shard, path=path)
        (header_len,) = struct.unpack_from("<I", mv, magic_len)
        header_end = magic_len + 4 + header_len
        if header_end > nbytes:
            raise ShardError(
                f"shard {shard} header overruns the file",
                reason="truncated", shard=shard, path=path)
        header_bytes = bytes(mv[magic_len + 4:header_end])
        expected_crc = file_entry.get("header_crc32")
        if expected_crc is not None \
                and fmt.crc32(header_bytes) != expected_crc:
            raise ShardError(
                f"shard {shard} header checksum mismatch",
                reason="checksum", shard=shard, path=path)
        try:
            header = json.loads(header_bytes)
        except ValueError as exc:
            raise ShardError(
                f"shard {shard} header is not valid JSON: {exc}",
                reason="bad-header", shard=shard, path=path) from exc
        version = header.get("format_version")
        if version != fmt.FORMAT_VERSION:
            raise ShardError(
                f"shard {shard} format version {version!r} does not "
                f"match reader version {fmt.FORMAT_VERSION}",
                reason="version-skew", shard=shard, path=path)
        if header.get("shard") != shard:
            raise ShardError(
                f"file claims to be shard {header.get('shard')!r}, "
                f"manifest placed it at shard {shard}",
                reason="bad-header", shard=shard, path=path)
        payload_start = fmt.align8(header_end)
        payload = mv[payload_start:]

        def section_triple(triple, what: str) -> tuple:
            """A header ``[offset, length, crc32]``, bounds-checked."""
            if not isinstance(triple, (list, tuple)) or len(triple) != 3:
                raise ShardError(
                    f"shard {shard} lacks {what}",
                    reason="bad-header", shard=shard, path=path)
            off, length, crc = triple
            if payload_start + off + length > nbytes:
                raise ShardError(
                    f"{what} overruns shard {shard}",
                    reason="truncated", shard=shard, path=path)
            return off, length, crc

        entries = {}
        for doc in header.get("documents", ()):
            sections = {
                section: section_triple(
                    doc.get("sections", {}).get(section),
                    f"section {section!r} of document "
                    f"{doc.get('name')!r}")
                for section in fmt.SECTION_NAMES}
            entries[doc["name"]] = {"nodes": doc["nodes"],
                                    "sections": sections}
        expected_docs = set(file_entry.get("documents", entries))
        if set(entries) != expected_docs:
            raise ShardError(
                f"shard {shard} document list disagrees with the "
                f"manifest", reason="bad-header", shard=shard, path=path)
        directory = section_triple(header.get("directory"),
                                   "the term directory")
        # Every search reads the directory before any document, so it
        # is checked here, where a bad shard can still be skipped.
        _verify_directory(shard, path, payload, directory)
        return _ShardFile(shard, path, mv, payload, entries, directory,
                          nbytes, mm=mm, shm=shm)
    except ShardError:
        # The traceback keeps this frame's locals (and thus any derived
        # views) alive, so closing the buffers may legitimately fail
        # with BufferError; garbage collection finishes the job.
        try:
            mv.release()
            if mm is not None:
                mm.close()
            if shm is not None:
                shm.close()
        except BufferError:
            pass
        raise


class ShardIndex:
    """A read-only handle onto one attached shard index.

    Build with :meth:`attach` (mmap) or :meth:`from_spec` (the
    picklable form shipped to pool workers, optionally carrying
    shared-memory segment names for the spawn path).  One handle per
    process/worker; its handler threads share the document cache, which
    is the only mutable state and is locked.
    """

    def __init__(self, path: str, manifest: dict, files: dict,
                 failed: dict, *, cache_limit: Optional[int],
                 obs=NOOP) -> None:
        self._path = path
        self._manifest = manifest
        self._files = files  # shard -> _ShardFile
        self.failed_shards = failed  # shard -> ShardError
        self._cache_limit = cache_limit
        self._obs = obs
        self._documents: OrderedDict[str, Document] = OrderedDict()
        self._indexes: dict[str, InvertedIndex] = {}
        # name -> identity token of its first materialisation, reused
        # by every later one (see :meth:`document`).
        self._tokens: dict[str, int] = {}
        self._cache_lock = threading.Lock()  # guards the three above
        self._names = [name for name in sorted(manifest["documents"])
                       if manifest["documents"][name] in files]
        self._name_set = frozenset(self._names)
        self._materialized_total = 0
        self._shm_owned: list = []
        self._shm_names: Optional[dict] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def attach(cls, path, *, on_error: str = "raise",
               cache_limit: Optional[int] = None, obs=NOOP,
               _shm_names: Optional[dict] = None) -> "ShardIndex":
        """Map the index at ``path`` and verify manifest + headers.

        ``on_error="raise"`` (default) propagates the first
        :class:`ShardError`; ``"skip"`` keeps going, records bad shards
        in :attr:`failed_shards` and serves the healthy remainder —
        attach only fails outright when the *manifest* itself is bad or
        no shard survives.
        """
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', "
                             f"got {on_error!r}")
        path = os.fspath(path)
        started = time.perf_counter()
        manifest = _load_manifest(path)
        by_shard = {entry["shard"]: entry for entry in manifest["files"]}
        files: dict[int, _ShardFile] = {}
        failed: dict[int, ShardError] = {}
        for shard in range(manifest["shards"]):
            entry = by_shard.get(shard)
            if entry is None:
                error = ShardError(
                    f"manifest lists no file for shard {shard}",
                    reason="bad-manifest", shard=shard, path=path)
            else:
                shard_path = os.path.join(path, entry["file"])
                shm_name = (_shm_names or {}).get(str(shard))
                try:
                    files[shard] = _open_shard(shard, shard_path, entry,
                                               shm_name)
                    continue
                except ShardError as exc:
                    error = exc
            if on_error == "raise":
                for sf in files.values():
                    sf.close()
                raise error
            failed[shard] = error
        if not files:
            raise ShardError(
                f"every shard of {path} failed to attach",
                reason="bad-manifest", path=path)
        index = cls(path, manifest, files, failed,
                    cache_limit=cache_limit, obs=obs)
        metrics = obs.metrics
        metrics.histogram(
            SHARD_ATTACH_SECONDS, "Wall seconds per index attach."
        ).observe(time.perf_counter() - started)
        metrics.gauge(
            SHARDS_ATTACHED, "Shards currently mapped.").set(len(files))
        metrics.gauge(
            SHARD_BYTES_MAPPED, "Bytes of shard files currently mapped."
        ).set(index.bytes_mapped)
        if failed:
            metrics.counter(
                SHARD_ATTACH_FAILURES, "Shards that failed to attach."
            ).inc(len(failed))
        return index

    @classmethod
    def from_spec(cls, spec: dict, obs=NOOP) -> "ShardIndex":
        """Re-attach from the picklable spec of :meth:`attach_spec`."""
        return cls.attach(spec["path"],
                          on_error=spec.get("on_error", "raise"),
                          cache_limit=spec.get("cache_limit"),
                          obs=obs, _shm_names=spec.get("shm"))

    def attach_spec(self, *, shared_memory: bool = False) -> dict:
        """A picklable recipe workers use to attach their own handle.

        With ``shared_memory=True`` the shard bytes are copied once
        into ``multiprocessing.shared_memory`` segments owned by this
        process, and the spec carries the segment names — spawn-started
        workers then attach without re-reading the files.
        """
        spec = {"path": self._path,
                "on_error": "skip" if self.failed_shards else "raise",
                "cache_limit": self._cache_limit}
        if shared_memory:
            spec["shm"] = self._ensure_shared_segments()
        return spec

    def _ensure_shared_segments(self) -> dict:
        if self._shm_names is None:
            from multiprocessing import shared_memory
            names = {}
            for shard, sf in self._files.items():
                shm = shared_memory.SharedMemory(create=True,
                                                 size=sf.nbytes)
                shm.buf[:sf.nbytes] = sf.mv[:sf.nbytes]
                names[str(shard)] = shm.name
                self._shm_owned.append(shm)
            self._shm_names = names
        return dict(self._shm_names)

    # ------------------------------------------------------------------
    # Corpus surface
    # ------------------------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def shards(self) -> int:
        """Total shard count declared by the manifest."""
        return self._manifest["shards"]

    @property
    def attached_shards(self) -> list[int]:
        """Shards this handle successfully mapped, ascending."""
        return sorted(self._files)

    @property
    def degraded(self) -> bool:
        """True when at least one shard failed to attach."""
        return bool(self.failed_shards)

    @property
    def bytes_mapped(self) -> int:
        return sum(sf.nbytes for sf in self._files.values())

    def names(self) -> list[str]:
        """Names of every *servable* document (healthy shards only)."""
        return list(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._name_set

    def __len__(self) -> int:
        return len(self._names)

    def shard_of(self, name: str) -> int:
        """The shard a document lives in (from the manifest)."""
        try:
            return self._manifest["documents"][name]
        except KeyError:
            raise ShardError(f"unknown document {name!r}",
                             reason="unknown-document",
                             path=self._path) from None

    def shard_documents(self, shard: int) -> list[str]:
        """Servable document names in one shard, sorted."""
        return [n for n in self._names
                if self._manifest["documents"][n] == shard]

    def node_count(self, name: str) -> int:
        """Node count of a document, read from the header (no decode)."""
        sf, entry = self._locate(name)
        return entry["nodes"]

    # ------------------------------------------------------------------
    # Probing and materialisation
    # ------------------------------------------------------------------

    def _locate(self, name: str):
        shard = self.shard_of(name)
        sf = self._files.get(shard)
        if sf is None:
            error = self.failed_shards.get(shard)
            raise ShardError(
                f"document {name!r} lives in shard {shard}, which "
                f"failed to attach"
                + (f": {error}" if error is not None else ""),
                reason=(error.reason if error is not None
                        else "missing"),
                shard=shard, path=self._path)
        try:
            return sf, sf.entries[name]
        except KeyError:
            raise ShardError(
                f"manifest places {name!r} in shard {shard} but the "
                f"shard header does not list it",
                reason="bad-header", shard=shard,
                path=sf.path) from None

    def _verify(self, sf: _ShardFile, name: str, entry: dict) -> None:
        """Checksum every section of a document, once per handle."""
        if name in sf.verified:
            return
        for section, (off, length, crc) in entry["sections"].items():
            actual = fmt.crc32(sf.payload[off:off + length])
            if actual != crc:
                raise ShardError(
                    f"section {section!r} of document {name!r} fails "
                    f"its checksum (shard {sf.shard})",
                    reason="checksum", shard=sf.shard, path=sf.path)
        sf.verified.add(name)

    def _section(self, sf: _ShardFile, entry: dict, section: str):
        off, length, _ = entry["sections"][section]
        return sf.payload[off:off + length]

    def candidates(self, terms) -> list[str]:
        """Names, in :meth:`names` order, of the documents containing
        every term.

        Answered per shard from its mapped term directory: bisect each
        term, then intersect the documents' ordinals starting from the
        rarest (shortest encoded) list.  No per-document section is
        read and nothing is cached.
        """
        needles = [term.encode("utf-8") for term in terms]
        if not needles:
            return self.names()
        found: list[str] = []
        for sf in self._files.values():
            lists = [sf.directory.encoded(needle) for needle in needles]
            if None in lists:
                continue
            lists.sort(key=len)
            ordinals = fmt.decode_ordinals(lists[0])
            for encoded in lists[1:]:
                keep = set(fmt.decode_ordinals(encoded))
                ordinals = [o for o in ordinals if o in keep]
            names = sf.names
            found.extend(names[o] for o in ordinals)
        found.sort()
        return found

    def contains(self, name: str, term: str) -> bool:
        """Does ``name`` contain ``term``?  Pure mapped-postings probe."""
        sf, entry = self._locate(name)
        with self._cache_lock:
            index = self._indexes.get(name)
        if index is not None:
            return index.contains(term)
        self._verify(sf, name, entry)
        return term in fmt.PostingsMap(self._section(sf, entry, "postings"))

    def document(self, name: str) -> Document:
        """Materialise (and cache) one document from the mapped bytes.

        Every materialisation of ``name`` by this handle carries the
        same identity token — the handle is one immutable, checksummed
        generation, so the name always decodes to the same tree — which
        lets join memos made before an LRU eviction hit after it.
        """
        return self._cached(name)[0]

    def inverted_index(self, name: str) -> InvertedIndex:
        """The document's inverted index, built from mapped postings."""
        return self._cached(name)[1]

    def _cached(self, name: str) -> tuple[Document, InvertedIndex]:
        """The cached (document, index) pair of ``name``, loading it
        on a miss.  Lookup, load and eviction happen under one lock:
        handler threads share the handle, and an entry evicted between
        another thread's check and its read would be a ``KeyError``."""
        with self._cache_lock:
            doc = self._documents.get(name)
            if doc is not None:
                self._documents.move_to_end(name)
                return doc, self._indexes[name]
            sf, entry = self._locate(name)
            self._verify(sf, name, entry)
            doc, postings = self._materialize(sf, entry, name)
            index = InvertedIndex.from_postings(doc, postings)
            self._documents[name] = doc
            self._indexes[name] = index
            self._tokens[name] = doc.token
            self._materialized_total += 1
            self._obs.metrics.counter(
                SHARD_DOCS_MATERIALIZED,
                "Documents decoded from mapped shards.").inc()
            if self._cache_limit is not None \
                    and len(self._documents) > self._cache_limit:
                evicted, _ = self._documents.popitem(last=False)
                self._indexes.pop(evicted, None)
            return doc, index

    def _materialize(self, sf: _ShardFile, entry: dict, name: str):
        try:
            return build_document(
                name, entry["nodes"],
                lambda section: self._section(sf, entry, section),
                token=self._tokens.get(name))
        except ShardError as exc:
            if exc.shard is None:
                # Re-raise with this shard's context attached.
                raise ShardError(str(exc), reason=exc.reason,
                                 shard=sf.shard, path=sf.path) from None
            raise

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Plain-dict snapshot for /varz and the CLI inspect command."""
        return {
            "path": self._path,
            "format_version": self._manifest["format_version"],
            "shards": self.shards,
            "shards_attached": len(self._files),
            "shards_failed": {str(s): e.to_dict()
                              for s, e in self.failed_shards.items()},
            "documents": len(self._manifest["documents"]),
            "documents_servable": len(self._names),
            "bytes_mapped": self.bytes_mapped,
            "directories": {
                str(shard): {"terms": sf.directory.count,
                             "directory_bytes": sf.directory_section[1]}
                for shard, sf in sorted(self._files.items())},
            "documents_materialized": self._materialized_total,
            "documents_cached": len(self._documents),
            "cache_limit": self._cache_limit,
            "shared_segments": len(self._shm_owned),
        }

    def verify_all(self) -> dict:
        """Checksum every document and term directory of every attached
        shard (slow path).

        Used by ``repro-search index inspect --verify``; returns
        ``{"documents": n, "failures": [ShardError dicts]}``.
        """
        checked = 0
        failures = []
        for sf in self._files.values():
            try:
                _verify_directory(sf.shard, sf.path, sf.payload,
                                  sf.directory_section)
            except ShardError as exc:
                failures.append(exc.to_dict())
            for name, entry in sf.entries.items():
                try:
                    self._verify(sf, name, entry)
                    checked += 1
                except ShardError as exc:
                    failures.append(exc.to_dict())
        return {"documents": checked, "failures": failures}

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Drop caches and release the maps (deterministic, idempotent).

        A materialised :class:`Document` and its postings keep no view
        of the mapped payload: the structure is decoded into lists and
        the undecoded content sections are ``bytes`` copies.  So the
        ``mmap``/shared-memory buffers release here rather than at an
        unpredictable GC point, whatever the caller still holds, and
        content not yet read can still be decoded after close.  A
        second call is a no-op.
        """
        if self._closed:
            return
        self._closed = True
        with self._cache_lock:
            self._documents.clear()
            self._indexes.clear()
        for sf in self._files.values():
            sf.close()
        for shm in self._shm_owned:
            try:
                shm.unlink()
            except OSError:  # pragma: no cover - already unlinked
                pass
            try:
                shm.close()
            except BufferError:  # pragma: no cover - views still out
                _PINNED_SEGMENTS.append(shm)
        self._shm_owned = []
        self._shm_names = None

    def __enter__(self) -> "ShardIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardIndex(path={self._path!r}, "
                f"shards={len(self._files)}/{self.shards}, "
                f"documents={len(self._names)})")
