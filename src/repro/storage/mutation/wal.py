"""Write-ahead log for live index mutation.

Every mutation of a :class:`~repro.storage.mutation.MutableIndex` is
appended here *before* it is applied anywhere else.  One WAL file is an
append-only sequence of checksummed records::

    record := u32 body_len | u32 crc32(body) | body
    body   := u32 meta_len | meta JSON | section payloads

``meta`` carries ``{seq, op, name, sections}`` where ``sections`` maps
each shard-format section name
(:data:`repro.storage.shards.format.SECTION_NAMES`) to ``[offset,
length]`` pairs relative to the end of the JSON — the payload bytes are
exactly what :func:`repro.storage.shards.writer.encode_document`
produces, so a record folds into a compacted shard file without
re-encoding.  ``remove`` records carry no sections.

Torn tails are first-class: :func:`read_records` stops at the first
record whose length or CRC does not check out and reports the byte
offset of the last *good* record, so recovery can replay the intact
prefix and truncate the garbage (a crashed append or a torn sector can
only ever damage the tail — records are never rewritten in place).
"""

from __future__ import annotations

import os
import struct
from typing import Optional

from ...errors import WALError
from ..shards import format as fmt

__all__ = ["WriteAheadLog", "read_records", "wal_file_name",
           "OP_ADD", "OP_REPLACE", "OP_REMOVE", "WAL_OPS"]

OP_ADD = "add"
OP_REPLACE = "replace"
OP_REMOVE = "remove"
WAL_OPS = frozenset({OP_ADD, OP_REPLACE, OP_REMOVE})

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<II")  # body_len, crc32(body)

#: Refuse to believe a single record is larger than this (a corrupt
#: length field must not trigger a multi-gigabyte read attempt).
MAX_RECORD_BYTES = 1 << 30


def wal_file_name(generation: int) -> str:
    """Canonical WAL file name for one compaction generation."""
    return f"wal-{generation:06d}.log"


def encode_record(seq: int, op: str, name: str,
                  sections: Optional[dict] = None) -> bytes:
    """Serialise one mutation into record bytes (header + body)."""
    if op not in WAL_OPS:
        raise WALError(f"unknown WAL op {op!r}", reason="bad-op")
    layout = {}
    payloads = []
    cursor = 0
    if sections is not None:
        for section in fmt.SECTION_NAMES:
            data = sections[section]
            layout[section] = [cursor, len(data)]
            payloads.append(data)
            cursor += len(data)
    meta = fmt.dump_json({"seq": seq, "op": op, "name": name,
                          "sections": layout})
    body = b"".join([_U32.pack(len(meta)), meta, *payloads])
    return _HEADER.pack(len(body), fmt.crc32(body)) + body


def decode_body(body: bytes) -> tuple[int, str, str, Optional[dict]]:
    """Inverse of :func:`encode_record` for one verified body.

    Returns ``(seq, op, name, sections)`` where ``sections`` maps
    section names to ``bytes`` (``None`` for ``remove`` records).
    """
    import json
    (meta_len,) = _U32.unpack_from(body, 0)
    meta = json.loads(body[4:4 + meta_len])
    payload_start = 4 + meta_len
    layout = meta.get("sections") or {}
    sections: Optional[dict] = None
    if layout:
        sections = {}
        for section, (off, length) in layout.items():
            start = payload_start + off
            sections[section] = bytes(body[start:start + length])
    return meta["seq"], meta["op"], meta["name"], sections


def read_records(path: str, limit_records: Optional[int] = None, *,
                 end: Optional[int] = None) -> dict:
    """Read a WAL file, stopping at the first damaged record.

    Returns ``{"records": [(seq, op, name, sections), ...],
    "offsets": [end_of_record_0, ...], "good_bytes": N, "torn": bool,
    "torn_reason": str | None, "file_bytes": N}`` — ``good_bytes`` is
    the file offset just past the last intact record (the truncation
    point for repair) and ``offsets[i]`` the offset just past record
    ``i`` (so the committed prefix of *k* records ends at
    ``offsets[k-1]``).  ``limit_records`` stops the replay after that
    many records (the committed prefix), leaving the remainder
    unexamined, and ``end`` — that prefix's ``wal_bytes`` — keeps the
    bytes past it from being read at all; ``file_bytes`` is then what
    was read, not the size of the file.
    """
    records = []
    offsets = []
    good = 0
    torn = False
    torn_reason = None
    try:
        with open(path, "rb") as fh:
            data = fh.read(end)
    except FileNotFoundError:
        raise WALError(f"no WAL file at {path}", reason="missing",
                       path=path) from None
    size = len(data)
    offset = 0
    while offset < size:
        if limit_records is not None and len(records) >= limit_records:
            break
        if offset + _HEADER.size > size:
            torn, torn_reason = True, "truncated-header"
            break
        body_len, crc = _HEADER.unpack_from(data, offset)
        if body_len > MAX_RECORD_BYTES:
            torn, torn_reason = True, "bad-length"
            break
        body_end = offset + _HEADER.size + body_len
        if body_end > size:
            torn, torn_reason = True, "truncated-body"
            break
        body = data[offset + _HEADER.size:body_end]
        if fmt.crc32(body) != crc:
            torn, torn_reason = True, "checksum"
            break
        try:
            records.append(decode_body(body))
        except (ValueError, KeyError, struct.error):
            torn, torn_reason = True, "bad-body"
            break
        offset = body_end
        offsets.append(offset)
        good = offset
    return {"records": records, "offsets": offsets, "good_bytes": good,
            "torn": torn, "torn_reason": torn_reason,
            "file_bytes": size}


class WriteAheadLog:
    """Append-side handle on one WAL file (single writer).

    ``faults`` is an optional
    :class:`~repro.exec.faults.CrashPlan` consulted at the
    ``wal-write`` / ``wal-fsync`` commit points (torn writes supported
    at ``wal-write``).
    """

    def __init__(self, path: str, *, records: int = 0,
                 start_bytes: Optional[int] = None,
                 faults=None) -> None:
        self.path = path
        self.records = records
        self._faults = faults
        # Open for append-or-create without ever truncating: "a" mode
        # positions every write at EOF, but we manage the offset with
        # explicit seeks so recovery-time truncation stays exact.
        self._fh = open(path, "ab", buffering=0)
        if start_bytes is not None and self._fh.tell() != start_bytes:
            # A previous crash left a torn tail past the committed
            # prefix: cut it before the next append lands on top.
            self._fh.close()
            with open(path, "r+b") as fh:
                fh.truncate(start_bytes)
                fh.flush()
                os.fsync(fh.fileno())
            self._fh = open(path, "ab", buffering=0)
        self.bytes = self._fh.tell()
        self._synced_bytes = self.bytes

    def _check(self, point: str) -> None:
        if self._faults is not None:
            self._faults.check(point)

    def append(self, op: str, name: str,
               sections: Optional[dict] = None) -> int:
        """Append one record; returns its sequence number (1-based).

        The record is written (unbuffered) but **not** fsynced —
        durability is the commit protocol's job (:meth:`sync`).
        """
        seq = self.records + 1
        data = encode_record(seq, op, name, sections)
        if self._faults is not None:
            self._check("before-wal-write")
            torn = self._faults.torn_write("wal-write", data)
            if torn is not data:
                self._fh.write(torn)
                self.bytes += len(torn)
                self._check("wal-write")
                # An armed torn write always crashes; falling through
                # would mean the plan silently corrupted a live WAL.
                raise AssertionError(
                    "torn wal-write did not crash")  # pragma: no cover
        self._fh.write(data)
        self.bytes += len(data)
        self.records = seq
        self._check("wal-write")
        return seq

    def sync(self) -> None:
        """fsync the appended records (commit point ``wal-fsync``)."""
        self._check("before-wal-fsync")
        os.fsync(self._fh.fileno())
        self._synced_bytes = self.bytes
        self._check("wal-fsync")

    def close(self) -> None:
        try:
            self._fh.close()
        except (OSError, ValueError):  # pragma: no cover
            pass

    def __repr__(self) -> str:
        return (f"WriteAheadLog(path={self.path!r}, "
                f"records={self.records}, bytes={self.bytes})")
