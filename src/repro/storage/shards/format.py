"""Binary layout of the persistent sharded index.

One index is a directory::

    index/
      manifest.json     global manifest (version, shard map, checksums)
      shard-0000.bin    one file per shard
      shard-0001.bin
      ...

Documents are partitioned across shards by a *stable* hash of their
name (``zlib.crc32(name) % shards``), so the same corpus always lands
in the same shards regardless of filesystem enumeration order or
Python hash randomisation.

Shard file layout, format version 3 (all integers little-endian)::

    magic      8 bytes   b"RXSHRD01"
    header_len u32       byte length of the JSON header
    header     JSON      {format_version, shard, shards,
                          documents: [...], directory: [off, len, crc32]}
    payload    8-byte aligned binary sections, one block per document,
               then the shard's term directory

Each document entry in the header names its sections with
``[offset, length, crc32]`` triples; offsets are relative to the start
of the payload region (``align8(12 + header_len)``).  Three sections
are flat label arrays — ``parents`` / ``depth`` / ``size`` as int64
arrays (root parent encoded as ``-1``) — which a reader takes as
``memoryview.cast("q")`` windows onto the map with zero copies.  Node
ids are preorder ranks, so no preorder label is stored.
The remaining sections carry the non-structural state: ``tags`` and
``texts`` as offset-table string blobs, ``attrs`` as JSON (object key
order is preserved, round-tripping XML attribute order), and
``postings`` as a bisectable keyword → node-id table (see
:func:`encode_postings`).

After the last document comes the shard's *term directory*, a
bisectable keyword → document-ordinal table (see
:func:`encode_directory`; an ordinal is a document's position in the
header's ``documents`` list), so "which documents contain these
terms?" is answered from one section without touching any document's.

Nothing here imports the tree model; this module is pure bytes in /
bytes out so both the writer and reader build on it.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections.abc import Mapping
from itertools import accumulate
from operator import sub
from typing import Optional

__all__ = [
    "MAGIC", "FORMAT_VERSION", "MANIFEST_NAME", "SECTION_NAMES",
    "shard_file_name", "shard_of", "align8",
    "encode_int64", "encode_strings", "decode_strings",
    "encode_postings", "decode_postings", "PostingsMap",
    "encode_directory", "DirectoryView",
    "decode_ordinals", "dump_json", "crc32",
]

MAGIC = b"RXSHRD01"
FORMAT_VERSION = 3
MANIFEST_NAME = "manifest.json"

#: Section order inside each document's payload block.
SECTION_NAMES = ("parents", "depth", "size",
                 "tags", "texts", "attrs", "postings")

_U32 = struct.Struct("<I")


def shard_file_name(shard: int) -> str:
    """Canonical file name of shard ``shard`` inside the index dir."""
    return f"shard-{shard:04d}.bin"


def shard_of(name: str, shards: int) -> int:
    """Stable shard assignment for a document name.

    crc32 is deterministic across processes and platforms (unlike
    ``hash()`` under PYTHONHASHSEED randomisation), so shard layout is
    reproducible byte-for-byte.
    """
    return zlib.crc32(name.encode("utf-8")) % shards


def align8(offset: int) -> int:
    """Round ``offset`` up to the next 8-byte boundary."""
    return (offset + 7) & ~7


# ----------------------------------------------------------------------
# int64 arrays (the flat label arrays)
# ----------------------------------------------------------------------

def encode_int64(values) -> bytes:
    """Pack a sequence of ints as little-endian int64."""
    return struct.pack(f"<{len(values)}q", *values)


# ----------------------------------------------------------------------
# String tables (tags / texts)
# ----------------------------------------------------------------------

def encode_strings(items) -> bytes:
    """``u32 N, u32 offsets[N+1], utf-8 blob`` — decoded in one pass."""
    blobs = [s.encode("utf-8") for s in items]
    offsets = [0]
    for b in blobs:
        offsets.append(offsets[-1] + len(b))
    n = len(blobs)
    return b"".join([_U32.pack(n),
                     struct.pack(f"<{n + 1}I", *offsets),
                     *blobs])


def decode_strings(buf) -> list:
    """Inverse of :func:`encode_strings` over any bytes-like object."""
    mv = memoryview(buf)
    (n,) = _U32.unpack_from(mv, 0)
    offsets = mv[4:4 + 4 * (n + 1)].cast("I")
    blob_start = 4 + 4 * (n + 1)
    blob = mv[blob_start:]
    return [str(blob[offsets[i]:offsets[i + 1]], "utf-8")
            for i in range(n)]


# ----------------------------------------------------------------------
# Postings (keyword -> sorted node ids), bisectable without decoding
# ----------------------------------------------------------------------
#
#   u32 T              term count
#   u32 total          total posting entries
#   u32 term_offs[T+1] byte offsets into the term blob
#   u32 id_offs[T+1]   entry offsets into the ids array
#   term blob          utf-8 terms, concatenated, sorted bytewise,
#                      zero-padded to a 4-byte boundary
#   u32 ids[total]     concatenated sorted posting lists
#
# Terms are sorted by their utf-8 bytes, which equals code-point order,
# so :class:`PostingsMap` can binary-search the blob directly against an
# encoded query term — answering "does this document contain the term?"
# from the mapped file without materialising anything.

def encode_postings(postings: dict) -> bytes:
    """Serialise ``{term: sorted node ids}`` into the bisectable layout."""
    terms = sorted(postings)
    blobs = [t.encode("utf-8") for t in terms]
    term_offs = [0]
    for b in blobs:
        term_offs.append(term_offs[-1] + len(b))
    id_offs = [0]
    for t in terms:
        id_offs.append(id_offs[-1] + len(postings[t]))
    t = len(terms)
    total = id_offs[-1]
    blob = b"".join(blobs)
    pad = (-len(blob)) % 4
    ids = []
    for term in terms:
        ids.extend(postings[term])
    return b"".join([
        _U32.pack(t), _U32.pack(total),
        struct.pack(f"<{t + 1}I", *term_offs),
        struct.pack(f"<{t + 1}I", *id_offs),
        blob, b"\x00" * pad,
        struct.pack(f"<{total}I", *ids),
    ])


def _find_term(blob, offs, count: int, target: bytes) -> int:
    """Binary-search a sorted utf-8 term blob; the term slot or -1."""
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) // 2
        cand = bytes(blob[offs[mid]:offs[mid + 1]])
        if cand < target:
            lo = mid + 1
        elif cand > target:
            hi = mid
        else:
            return mid
    return -1


class _PostingsView:
    """Parsed offsets of one mapped postings section (no data copies)."""

    __slots__ = ("count", "term_offs", "id_offs", "blob", "ids")

    def __init__(self, buf) -> None:
        mv = memoryview(buf)
        (self.count,) = _U32.unpack_from(mv, 0)
        (total,) = _U32.unpack_from(mv, 4)
        t1 = self.count + 1
        self.term_offs = mv[8:8 + 4 * t1].cast("I")
        self.id_offs = mv[8 + 4 * t1:8 + 8 * t1].cast("I")
        blob_start = 8 + 8 * t1
        blob_len = self.term_offs[self.count]
        self.blob = mv[blob_start:blob_start + blob_len]
        ids_start = blob_start + blob_len + ((-blob_len) % 4)
        self.ids = mv[ids_start:ids_start + 4 * total].cast("I")

    def find(self, term: str) -> int:
        """Binary-search the term blob; return the term slot or -1."""
        return _find_term(self.blob, self.term_offs, self.count,
                          term.encode("utf-8"))


class PostingsMap(Mapping):
    """``{term: sorted node ids}`` over one postings section, decoded a
    term at a time.

    A lookup is one bisect of the term blob, memoised (misses too), so
    a query decodes only its own terms' lists; a membership test of a
    term not yet looked up bisects and decodes nothing, so probing a
    cold mapped section touches only a handful of pages.  Iteration
    decodes every term string, never an id list.  The memo is filled
    by plain dict assignment of complete values: racing threads at
    worst decode a term twice.  A map that outlives the probe must be
    handed bytes, not a view of a mapping that may close.
    """

    __slots__ = ("_view", "_memo")

    def __init__(self, buf) -> None:
        self._view = _PostingsView(buf)
        self._memo: dict = {}

    def get(self, term: str, default=None):
        try:
            ids = self._memo[term]
        except KeyError:
            view = self._view
            slot = view.find(term)
            ids = (None if slot < 0 else
                   list(view.ids[view.id_offs[slot]:view.id_offs[slot + 1]]))
            self._memo[term] = ids
        return default if ids is None else ids

    def __getitem__(self, term: str) -> list:
        ids = self.get(term)
        if ids is None:
            raise KeyError(term)
        return ids

    def __contains__(self, term: object) -> bool:
        # A probe needs the slot, not the list: bisect, decode nothing.
        if term in self._memo:
            return self._memo[term] is not None
        return self._view.find(term) >= 0

    def __iter__(self):
        view = self._view
        offs, blob = view.term_offs, view.blob
        return (str(blob[offs[i]:offs[i + 1]], "utf-8")
                for i in range(view.count))

    def __len__(self) -> int:
        return self._view.count


def decode_postings(buf) -> dict:
    """Full inverse of :func:`encode_postings`."""
    view = _PostingsView(buf)
    offs = view.term_offs
    id_offs = view.id_offs
    blob = view.blob
    ids = view.ids
    out = {}
    for i in range(view.count):
        term = str(blob[offs[i]:offs[i + 1]], "utf-8")
        out[term] = list(ids[id_offs[i]:id_offs[i + 1]])
    return out


# ----------------------------------------------------------------------
# Term directory (keyword -> ascending document ordinals), per shard
# ----------------------------------------------------------------------
#
#   u32 T               term count
#   u32 term_offs[T+1]  byte offsets into the term blob
#   u32 list_offs[T+1]  byte offsets into the ordinal blob
#   term blob           utf-8 terms, concatenated, sorted bytewise,
#                       zero-padded to a 4-byte boundary
#   ordinal blob        per term: its first ordinal, then the gaps to
#                       each next one, as LEB128 varints
#
# Same bisectable term table as the postings; the lists are
# delta-varint because most gaps fit one byte, where a u32 per entry
# would cost 12-14 % of the index.

def _encode_ordinals(ordinals) -> bytes:
    """Ascending ints as first-value-then-gaps LEB128 varints."""
    gaps = [ordinals[0], *map(sub, ordinals[1:], ordinals)]
    if max(gaps) < 0x80:
        return bytes(gaps)
    out = bytearray()
    for gap in gaps:
        while gap >= 0x80:
            out.append((gap & 0x7F) | 0x80)
            gap >>= 7
        out.append(gap)
    return bytes(out)


def decode_ordinals(data: bytes) -> list:
    """Inverse of the directory's delta-varint list encoding."""
    if max(data) < 0x80:  # every gap fits one byte
        return list(accumulate(data))
    out = []
    value = shift = total = 0
    for byte in data:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            continue
        total += value
        out.append(total)
        value = shift = 0
    return out


def encode_directory(directory: dict) -> bytes:
    """Serialise ``{term: ascending document ordinals}``."""
    terms = sorted(directory)
    blobs = [t.encode("utf-8") for t in terms]
    lists = [_encode_ordinals(directory[t]) for t in terms]
    term_offs = list(accumulate(map(len, blobs), initial=0))
    list_offs = list(accumulate(map(len, lists), initial=0))
    t = len(terms)
    return b"".join([
        _U32.pack(t),
        struct.pack(f"<{t + 1}I", *term_offs),
        struct.pack(f"<{t + 1}I", *list_offs),
        *blobs, b"\x00" * ((-term_offs[-1]) % 4),
        *lists,
    ])


class DirectoryView:
    """Parsed offsets of one mapped term directory (no data copies)."""

    __slots__ = ("count", "term_offs", "list_offs", "blob", "lists")

    def __init__(self, buf) -> None:
        mv = memoryview(buf)
        (self.count,) = _U32.unpack_from(mv, 0)
        t1 = self.count + 1
        self.term_offs = mv[4:4 + 4 * t1].cast("I")
        self.list_offs = mv[4 + 4 * t1:4 + 8 * t1].cast("I")
        blob_start = 4 + 8 * t1
        blob_len = self.term_offs[self.count]
        self.blob = mv[blob_start:blob_start + blob_len]
        self.lists = mv[blob_start + blob_len + ((-blob_len) % 4):]

    def encoded(self, target: bytes) -> Optional[bytes]:
        """The still-encoded ordinal list of a utf-8 term, or ``None``.

        One binary search over the mapped term blob; the list's byte
        length orders terms rarest-first without decoding them.
        """
        slot = _find_term(self.blob, self.term_offs, self.count, target)
        if slot < 0:
            return None
        return bytes(self.lists[self.list_offs[slot]:
                                self.list_offs[slot + 1]])


# ----------------------------------------------------------------------
# Headers and manifest
# ----------------------------------------------------------------------

def dump_json(doc: dict) -> bytes:
    """Deterministic JSON bytes (sorted keys, no whitespace drift)."""
    return json.dumps(doc, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":")).encode("utf-8")


def crc32(data) -> int:
    """crc32 of any bytes-like object, as an unsigned int."""
    return zlib.crc32(data) & 0xFFFFFFFF
