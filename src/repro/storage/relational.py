"""Shred documents into sqlite3 and load them back (paper ref [13]).

:class:`RelationalStore` owns one sqlite3 database holding one shredded
document.  It offers:

* :meth:`RelationalStore.save` / :meth:`RelationalStore.load` — full
  round-trips between :class:`~repro.xmltree.document.Document` and the
  relational schema;
* SQL-side primitives used by the relational query engine:
  keyword selection, interval-encoded descendant tests, and
  recursive-CTE root paths (the relational realisation of the
  path-climbing inside fragment join).

Connections use ``sqlite3`` from the standard library; pass
``":memory:"`` (the default) for an in-memory database or a path for a
persistent one.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Iterable, Optional

from ..errors import StorageError
from ..xmltree.document import Document
from . import schema

__all__ = ["RelationalStore"]


class RelationalStore:
    """A sqlite3-backed store for one shredded document.

    Usable as a context manager::

        with RelationalStore() as store:
            store.save(doc)
            nodes = store.keyword_nodes("optimization")
    """

    def __init__(self, database: str = ":memory:") -> None:
        try:
            self._conn = sqlite3.connect(database)
        except sqlite3.Error as exc:  # pragma: no cover - env specific
            raise StorageError(f"cannot open database {database!r}: "
                               f"{exc}") from exc
        self._conn.executescript(schema.CREATE_TABLES)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    def __enter__(self) -> "RelationalStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shredding and loading
    # ------------------------------------------------------------------

    def save(self, document: Document) -> None:
        """Shred ``document`` into the relational tables (replacing any
        previously stored document)."""
        conn = self._conn
        with conn:
            conn.executescript(schema.DROP_TABLES)
            conn.executescript(schema.CREATE_TABLES)
            conn.executemany(
                "INSERT INTO documents(key, value) VALUES (?, ?)",
                [("name", document.name),
                 ("nodes", str(document.size)),
                 ("schema_version", str(schema.SCHEMA_VERSION))])
            labels = document.labels
            # Attributes travel as one JSON object per node;
            # ensure_ascii=False keeps unicode values byte-exact and
            # json preserves the document's attribute order.  The
            # postorder rank is derived: nid + size - 1 - depth.
            conn.executemany(
                "INSERT INTO nodes(id, parent, depth, size, post, tag, "
                "text, attrs) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                ((nid, document.parent(nid), depth, size,
                  nid + size - 1 - depth, document.tag(nid),
                  document.text(nid),
                  json.dumps(dict(document.attributes(nid)),
                             ensure_ascii=False))
                 for nid, depth, size in zip(document.node_ids(),
                                             labels.depth, labels.size)))
            conn.executemany(
                "INSERT INTO keywords(word, node) VALUES (?, ?)",
                ((word, nid) for nid in document.node_ids()
                 for word in document.keywords(nid)))

    def load(self) -> Document:
        """Reconstruct the stored document.

        Raises
        ------
        StorageError
            If no document has been stored.
        """
        conn = self._conn
        meta = dict(conn.execute("SELECT key, value FROM documents"))
        if "nodes" not in meta:
            raise StorageError("no document stored in this database")
        try:
            rows = conn.execute(
                "SELECT id, parent, tag, text, attrs FROM nodes "
                "ORDER BY id").fetchall()
        except sqlite3.OperationalError:
            # Schema v1 database (no attrs column): still loadable,
            # with empty attributes on every node.
            rows = [(nid, parent, tag, text, "{}")
                    for nid, parent, tag, text in conn.execute(
                        "SELECT id, parent, tag, text FROM nodes "
                        "ORDER BY id")]
        n = len(rows)
        if n != int(meta["nodes"]):
            raise StorageError(
                f"corrupt store: metadata says {meta['nodes']} nodes, "
                f"table has {n}")
        tags = [""] * n
        texts = [""] * n
        attrs: list[dict] = [{} for _ in range(n)]
        parents: list[Optional[int]] = [None] * n
        children: list[list[int]] = [[] for _ in range(n)]
        for nid, parent, tag, text, attr_json in rows:
            tags[nid] = tag
            texts[nid] = text
            attrs[nid] = json.loads(attr_json)
            parents[nid] = parent
            if parent is not None:
                children[parent].append(nid)
        keyword_sets: list[set[str]] = [set() for _ in range(n)]
        for word, nid in conn.execute("SELECT word, node FROM keywords"):
            keyword_sets[nid].add(word)
        return Document(tags, texts, parents, children,
                        [frozenset(kws) for kws in keyword_sets],
                        attrs=attrs,
                        name=meta.get("name", "document"))

    # ------------------------------------------------------------------
    # SQL-side primitives
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of stored nodes."""
        (count,) = self._conn.execute("SELECT COUNT(*) FROM nodes"
                                      ).fetchone()
        return count

    def keyword_nodes(self, word: str) -> list[int]:
        """``σ_{keyword=word}`` evaluated in SQL; sorted node ids."""
        rows = self._conn.execute(
            "SELECT node FROM keywords WHERE word = ? ORDER BY node",
            (word.casefold(),))
        return [nid for (nid,) in rows]

    def descendants_sql(self, node_id: int) -> list[int]:
        """Descendant ids of a node via the interval encoding, in SQL."""
        rows = self._conn.execute(
            "SELECT d.id FROM nodes d JOIN nodes a ON a.id = ? "
            "WHERE d.id > a.id AND d.id < a.id + a.size ORDER BY d.id",
            (node_id,))
        return [nid for (nid,) in rows]

    def root_path_sql(self, node_id: int) -> list[int]:
        """Ids on the path node → root via a recursive CTE.

        This is the relational counterpart of the path climbing inside
        fragment join.
        """
        rows = self._conn.execute(
            """
            WITH RECURSIVE path(id, parent) AS (
                SELECT id, parent FROM nodes WHERE id = ?
                UNION ALL
                SELECT n.id, n.parent FROM nodes n
                JOIN path p ON n.id = p.parent
            )
            SELECT id FROM path
            """,
            (node_id,))
        path = [nid for (nid,) in rows]
        if not path:
            raise StorageError(f"node {node_id} not stored")
        return path

    def spanning_nodes_sql(self, node_ids: Iterable[int]) -> frozenset[int]:
        """The minimal-connected-subtree node set, computed relationally.

        Union of root paths, truncated at the deepest common member —
        i.e. fragment join's spanning set via recursive CTEs only.
        """
        ids = list(node_ids)
        if not ids:
            raise StorageError("spanning_nodes_sql needs at least one node")
        paths = [self.root_path_sql(nid) for nid in ids]
        common = set(paths[0])
        for path in paths[1:]:
            common &= set(path)
        if not common:
            raise StorageError("nodes do not share a root; corrupt tree")
        # The LCA is the deepest common ancestor = the last common member
        # along any root path (paths list node → root).
        lca = next(nid for nid in paths[0] if nid in common)
        spanning: set[int] = set()
        for path in paths:
            for nid in path:
                spanning.add(nid)
                if nid == lca:
                    break
        return frozenset(spanning)
