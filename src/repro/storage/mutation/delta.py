"""In-memory delta segment: WAL records made queryable.

A :class:`DeltaView` is the immutable overlay one epoch adds on top of
its base generation: the documents added or replaced since the last
compaction (held as their encoded shard-format sections, materialised
lazily) plus the tombstone set of removed names.  Views are built by
replaying a committed WAL prefix — the writer keeps the live one and
publishes a new view at each epoch commit; pool workers rebuild the
same view from the on-disk WAL, so both sides serve byte-identical
documents.

One rule carries work across epochs: *same WAL record ⇒ same sections
object ⇒ same tree, token and index*.  A view built from its
predecessor (``previous=``) inherits what that one materialised for
every name whose sections dict is the identical object; a replace,
remove or re-add installs a new dict, so a changed document can never
inherit its predecessor's tree.
"""

from __future__ import annotations

from typing import Optional

from ...errors import WALError
from ...index.inverted import InvertedIndex
from ..shards import format as fmt
from ..shards.reader import build_document
from .wal import OP_REMOVE

__all__ = ["DeltaView", "replay"]


def replay(records) -> tuple[dict, frozenset]:
    """Apply WAL records in order; returns ``(sections_by_name,
    tombstones)``.

    ``add`` / ``replace`` install the document's encoded sections and
    clear any tombstone; ``remove`` drops the sections and tombstones
    the name (shadowing the base even if the base still holds it).
    """
    sections_by_name: dict[str, dict] = {}
    tombstones: set[str] = set()
    for seq, op, name, sections in records:
        if op == OP_REMOVE:
            sections_by_name.pop(name, None)
            tombstones.add(name)
        else:
            if sections is None:
                raise WALError(
                    f"WAL record {seq} ({op} {name!r}) carries no "
                    f"sections", reason="corrupt")
            sections_by_name[name] = sections
            tombstones.discard(name)
    return sections_by_name, frozenset(tombstones)


class DeltaView:
    """One epoch's immutable delta overlay.

    Documents materialise lazily through the shard reader's
    :func:`build_document` (structure and a postings view at first
    touch, content at first read), together with their
    :class:`InvertedIndex`, and stay for the life of the view (and of
    every later view that carries them).  The encoded sections are
    plain ``bytes``, which a document's undecoded content shares
    rather than copies.
    """

    __slots__ = ("_sections", "tombstones", "wal_records", "_indexes",
                 "_carried")

    def __init__(self, sections_by_name: dict, tombstones: frozenset,
                 wal_records: int, *,
                 previous: Optional["DeltaView"] = None) -> None:
        self._sections = sections_by_name
        self.tombstones = tombstones
        self.wal_records = wal_records
        # name -> index over the materialised tree (``index.document``).
        self._indexes: dict[str, InvertedIndex] = {}
        if previous is not None:
            # Look names up in the old view's tables, never iterate
            # them: a reader pinned on that epoch may be adding to them.
            for name, sections in sections_by_name.items():
                index = previous._indexes.get(name)
                if index is not None \
                        and previous._sections.get(name) is sections:
                    self._indexes[name] = index
        self._carried = len(self._indexes)

    @classmethod
    def from_records(cls, records) -> "DeltaView":
        sections_by_name, tombstones = replay(records)
        return cls(sections_by_name, tombstones, len(records))

    @classmethod
    def empty(cls) -> "DeltaView":
        return cls({}, frozenset(), 0)

    # -- corpus surface -------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._sections)

    def __contains__(self, name: object) -> bool:
        return name in self._sections

    def __len__(self) -> int:
        return len(self._sections)

    def node_count(self, name: str) -> int:
        return len(self._sections[name]["parents"]) // 8

    def contains(self, name: str, term: str) -> bool:
        """Postings probe: the decoded index when the document is
        materialised, else the encoded blob (no materialise)."""
        index = self._indexes.get(name)
        if index is not None:
            return index.contains(term)
        return term in fmt.PostingsMap(self._sections[name]["postings"])

    def inverted_index(self, name: str) -> InvertedIndex:
        index = self._indexes.get(name)
        if index is not None:
            return index
        try:
            sections = self._sections[name]
        except KeyError:
            raise WALError(f"unknown delta document {name!r}",
                           reason="unknown-document") from None
        doc, postings = build_document(
            name, self.node_count(name),
            lambda section: sections[section])
        # Two handler threads may decode the same record at once; both
        # must leave with the one tree the view keeps.
        return self._indexes.setdefault(
            name, InvertedIndex.from_postings(doc, postings))

    def document(self, name: str):
        return self.inverted_index(name).document

    @property
    def bytes(self) -> int:
        return sum(len(data) for sections in self._sections.values()
                   for data in sections.values())

    def stats(self) -> dict:
        """``carried`` documents came materialised from the previous
        epoch's view; ``materialized`` ones were decoded by this one."""
        return {"documents": len(self._sections),
                "tombstones": len(self.tombstones),
                "wal_records": self.wal_records,
                "bytes": self.bytes,
                "materialized": len(self._indexes) - self._carried,
                "carried": self._carried}

    def __repr__(self) -> str:
        return (f"DeltaView(documents={len(self._sections)}, "
                f"tombstones={len(self.tombstones)}, "
                f"wal_records={self.wal_records})")
