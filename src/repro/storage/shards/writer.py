"""Shard index builder: documents -> on-disk sharded index.

:func:`build_index` serialises a corpus into the layout described in
:mod:`repro.storage.shards.format`.  The build is fully deterministic:
document names are sorted before assignment, shard membership is a
stable crc32 hash, and all JSON is dumped with sorted keys — building
the same corpus twice yields byte-identical files, which the test
suite asserts and which makes the manifest checksums meaningful across
machines.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import TYPE_CHECKING, Mapping

from ...errors import ShardError
from ...obs import NOOP, SHARD_BUILD_SECONDS, SHARD_BYTES_WRITTEN
from . import format as fmt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...xmltree.document import Document

__all__ = ["build_index", "encode_document"]


def _document_postings(document: "Document") -> dict:
    """keyword -> sorted node ids, scanned once in preorder."""
    postings: dict[str, list[int]] = {}
    for nid in document.node_ids():
        for word in document.keywords(nid):
            postings.setdefault(word, []).append(nid)
    return postings


def encode_document(document: "Document") -> dict:
    """Encode one document's sections; returns ``{section: bytes}``.

    The sections are exactly the shard-file layout of
    :data:`repro.storage.shards.format.SECTION_NAMES`; the write-ahead
    log (:mod:`repro.storage.mutation`) reuses them verbatim so a WAL
    record and a compacted shard hold byte-identical document payloads.
    """
    return _encode(document, _document_postings(document))


def _encode(document: "Document", postings: dict) -> dict:
    n = document.size
    labels = document.labels
    parents = [(-1 if (p := document.parent(i)) is None else p)
               for i in range(n)]
    attrs = [dict(document.attributes(i)) for i in range(n)]
    return {
        "parents": fmt.encode_int64(parents),
        "depth": fmt.encode_int64(labels.depth),
        "size": fmt.encode_int64(labels.size),
        "tags": fmt.encode_strings(document.tag(i) for i in range(n)),
        "texts": fmt.encode_strings(document.text(i) for i in range(n)),
        "attrs": json.dumps(attrs, ensure_ascii=False,
                            separators=(",", ":")).encode("utf-8"),
        "postings": fmt.encode_postings(postings),
    }


def _as_mapping(documents) -> Mapping:
    """Accept a plain mapping or anything with names()/document()."""
    if isinstance(documents, Mapping):
        return documents
    if hasattr(documents, "names") and hasattr(documents, "document"):
        return {name: documents.document(name)
                for name in documents.names()}
    raise TypeError("build_index expects a name->Document mapping or a "
                    "DocumentCollection-like object")


def build_index(documents, path, *, shards: int = 4, obs=NOOP) -> dict:
    """Write a sharded index for ``documents`` under directory ``path``.

    Parameters
    ----------
    documents:
        ``{name: Document}`` mapping or a
        :class:`~repro.collection.collection.DocumentCollection`.
    path:
        Target directory; created if missing.  Existing shard files and
        manifest are overwritten (the build is atomic per file: each is
        written to a ``.tmp`` sibling and renamed into place, manifest
        last, so a crashed build never masquerades as a complete one).
    shards:
        Number of shard files.  More shards than documents is allowed;
        the empty shards are still written so attach cost stays uniform.

    Returns the manifest dict that was written.
    """
    docs = _as_mapping(documents)
    if not docs:
        raise ShardError("cannot build an index over zero documents",
                         reason="empty", path=path)
    if shards < 1:
        raise ShardError(f"shard count must be >= 1, got {shards}",
                         reason="bad-shards", path=path)
    os.makedirs(path, exist_ok=True)
    names = sorted(docs)
    assignment = {name: fmt.shard_of(name, shards) for name in names}

    files = []
    total_nodes = 0
    total_bytes = 0
    started = time.perf_counter()
    with obs.tracer.span("shard-index-build",
                         shards=shards, documents=len(names)):
        for shard in range(shards):
            members = [n for n in names if assignment[n] == shard]
            blob, header = _build_shard(shard, shards, members, docs)
            file_name = fmt.shard_file_name(shard)
            target = os.path.join(path, file_name)
            _atomic_write(target, blob)
            files.append({
                "file": file_name,
                "shard": shard,
                "bytes": len(blob),
                "documents": members,
                "header_crc32": header["crc32"],
                "crc32": fmt.crc32(blob),
            })
            total_nodes += sum(docs[n].size for n in members)
            total_bytes += len(blob)
    obs.metrics.histogram(
        SHARD_BUILD_SECONDS, "Wall seconds per shard-index build."
    ).observe(time.perf_counter() - started)

    manifest = {
        "format": "repro-shard-index",
        "format_version": fmt.FORMAT_VERSION,
        "shards": shards,
        "documents": assignment,
        "total_nodes": total_nodes,
        "total_bytes": total_bytes,
        "files": files,
    }
    _atomic_write(os.path.join(path, fmt.MANIFEST_NAME),
                  fmt.dump_json(manifest) + b"\n")
    obs.metrics.counter(
        SHARD_BYTES_WRITTEN, "Bytes written by shard-index builds."
    ).inc(total_bytes)
    return manifest


def _build_shard(shard: int, shards: int, members, docs):
    """Assemble one shard file; returns ``(bytes, header_info)``."""
    entries = []
    payloads = []  # (aligned_offset, bytes) relative to payload start
    cursor = 0
    directory = defaultdict(list)  # term -> document ordinals
    for ordinal, name in enumerate(members):
        postings = _document_postings(docs[name])
        for term in postings:
            directory[term].append(ordinal)
        sections = _encode(docs[name], postings)
        entry_sections = {}
        for section in fmt.SECTION_NAMES:
            data = sections[section]
            cursor = fmt.align8(cursor)
            entry_sections[section] = [cursor, len(data),
                                       fmt.crc32(data)]
            payloads.append((cursor, data))
            cursor += len(data)
        entries.append({"name": name, "nodes": docs[name].size,
                        "sections": entry_sections})
    data = fmt.encode_directory(directory)
    cursor = fmt.align8(cursor)
    directory_entry = [cursor, len(data), fmt.crc32(data)]
    payloads.append((cursor, data))
    cursor += len(data)

    header = fmt.dump_json({
        "format_version": fmt.FORMAT_VERSION,
        "shard": shard,
        "shards": shards,
        "documents": entries,
        "directory": directory_entry,
    })
    payload_start = fmt.align8(len(fmt.MAGIC) + 4 + len(header))
    out = bytearray(payload_start + cursor)
    out[:len(fmt.MAGIC)] = fmt.MAGIC
    out[len(fmt.MAGIC):len(fmt.MAGIC) + 4] = len(header).to_bytes(
        4, "little")
    out[len(fmt.MAGIC) + 4:len(fmt.MAGIC) + 4 + len(header)] = header
    for offset, data in payloads:
        out[payload_start + offset:payload_start + offset + len(data)] \
            = data
    return bytes(out), {"crc32": fmt.crc32(header)}


def _atomic_write(target: str, data: bytes) -> None:
    tmp = target + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, target)
