"""The document tree model (paper Definition 1).

An XML document is a rooted *ordered* tree.  :class:`Document` stores the
tree in flat arrays indexed by node id and exposes the structural
primitives the algebra is built on:

* parent / children / depth / tag / text lookups,
* ``keywords(n)`` — the representative keywords of a node,
* O(1) ancestor tests via preorder-interval encoding,
* lowest-common-ancestor queries by a climb of ``parents``,
* preorder/descendant iteration.

Node ids are normalised to **preorder ranks**: node ``0`` is the root and
a node's id is its preorder rank.  This makes document order comparisons
a plain integer comparison and lets fragments be plain ``frozenset[int]``.

Documents are immutable once built; use
:class:`repro.xmltree.builder.DocumentBuilder` or
:func:`repro.xmltree.parser.parse` to create one.  A storage backend
builds one with :meth:`Document.from_structure`, which decodes tags,
texts, attributes, children and keywords on their first read.
"""

from __future__ import annotations

import itertools
from typing import (Callable, Iterable, Iterator, Mapping, Optional,
                    Sequence)

from ..errors import DocumentError
from .labeling import TreeLabels, climb_lca, compute_labels
from .node import NodeView

__all__ = ["Document"]

# Process-wide monotonic document tokens.  Unlike id(), a token is never
# reused for a different tree after a document is garbage collected, so
# memos keyed on it (repro.core.algebra.JoinCache, whose closures carry
# the token) can never replay another tree's fixed point.
_DOCUMENT_TOKENS = itertools.count(1)


class Document:
    """An immutable rooted ordered tree with per-node keywords.

    Do not call the constructor directly in application code; it assumes
    the arrays are consistent and already in preorder.  Use
    :class:`~repro.xmltree.builder.DocumentBuilder` (programmatic
    construction) or :func:`~repro.xmltree.parser.parse` (from XML text).
    """

    __slots__ = ("_tags", "_texts", "_parents", "_children", "_keywords",
                 "_attrs", "_labels", "_token", "_content",
                 "name", "__weakref__")

    def __init__(self, tags: Sequence[str], texts: Sequence[str],
                 parents: Sequence[Optional[int]],
                 children: Sequence[Sequence[int]],
                 keywords: Sequence[frozenset[str]],
                 attrs: Optional[Sequence[Mapping[str, str]]] = None,
                 name: str = "document", *,
                 labels: Optional[TreeLabels] = None,
                 token: Optional[int] = None) -> None:
        n = len(tags)
        if not (len(texts) == len(parents) == len(children)
                == len(keywords) == n):
            raise DocumentError("document arrays have inconsistent lengths")
        self._tags = list(tags)
        self._texts = list(texts)
        self._parents = list(parents)
        self._children = [tuple(c) for c in children]
        self._keywords = [frozenset(k) for k in keywords]
        self._attrs = ([dict(a) for a in attrs] if attrs is not None
                       else [{} for _ in range(n)])
        if labels is not None:
            # Trusted fast path for storage backends that persisted the
            # label bundle alongside the tree (the labels were computed
            # from these exact arrays at build time, so recomputing them
            # at load would only burn CPU).  Length is still validated.
            if len(labels.size) != n:
                raise DocumentError(
                    "supplied label bundle does not match tree size")
            self._labels = labels
        else:
            self._labels = compute_labels(self._parents, self._children)
        # A storage backend that decodes the same immutable bytes again
        # (a shard index after an LRU eviction) passes the token its
        # earlier materialisation drew: identity survives eviction.
        self._token = (token if token is not None
                       else next(_DOCUMENT_TOKENS))
        self._content = None
        self.name = name

    @classmethod
    def from_structure(cls, parents: list[Optional[int]],
                       labels: TreeLabels, content: Callable[[str], list],
                       name: str, *,
                       token: Optional[int] = None) -> "Document":
        """A document holding only its structure until content is read.

        ``parents`` and ``labels`` are all the algebra reads.  The other
        slots stay unset until their first read (:meth:`_slot`): that
        derives ``_children`` from ``parents`` and assigns
        ``content(slot)`` to ``_tags``, ``_texts``, ``_attrs`` or
        ``_keywords``.  The arrays are trusted (a storage backend
        checksummed them).
        """
        self = object.__new__(cls)
        self._parents = parents
        self._labels = labels
        self._token = (token if token is not None
                       else next(_DOCUMENT_TOKENS))
        self._content = content
        self.name = name
        return self

    def _slot(self, slot: str) -> list:
        """A content slot's array, decoded if this is its first read.

        Per-node accessors read their slot directly and call this only
        when that raises ``AttributeError``; whole-array readers call it
        always (a set slot comes back as is).  Parsed and builder-made
        documents fill every slot, so they never decode.  (A
        ``__getattr__`` fallback would be shorter, but a class that
        defines one loses CPython's specialised attribute reads on
        *every* attribute of every instance: ~2.4x slower per read on
        3.11, which the joins' ``labels``/``parents`` reads pay.)  A
        decode is idempotent and assigns one complete value, so racing
        first reads need no lock.
        """
        try:
            return getattr(self, slot)
        except AttributeError:
            pass
        if slot == "_children":
            children: list[list[int]] = [[] for _ in self._parents]
            for node, parent in enumerate(self._parents):
                if parent is not None:
                    children[parent].append(node)
            value = [tuple(c) for c in children]
        else:
            value = self._content(slot)
        setattr(self, slot, value)
        return value

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of nodes in the document."""
        return len(self._parents)

    def __len__(self) -> int:
        return self.size

    @property
    def root(self) -> int:
        """The root node id (always 0 under preorder normalisation)."""
        return 0

    def node_ids(self) -> range:
        """All node ids, in document (preorder) order."""
        return range(self.size)

    def nodes(self) -> Iterator[NodeView]:
        """Iterate :class:`NodeView` objects in document order."""
        for nid in self.node_ids():
            yield NodeView(self, nid)

    def node(self, node_id: int) -> NodeView:
        """Return a :class:`NodeView` for ``node_id``."""
        return NodeView(self, node_id)

    def tag(self, node_id: int) -> str:
        """The tag name of a node."""
        try:
            return self._tags[node_id]
        except AttributeError:
            return self._slot("_tags")[node_id]

    def text(self, node_id: int) -> str:
        """The text content directly attached to a node."""
        try:
            return self._texts[node_id]
        except AttributeError:
            return self._slot("_texts")[node_id]

    def attributes(self, node_id: int) -> Mapping[str, str]:
        """The XML attributes of a node (may be empty)."""
        try:
            return self._attrs[node_id]
        except AttributeError:
            return self._slot("_attrs")[node_id]

    def parent(self, node_id: int) -> Optional[int]:
        """The parent id, or ``None`` for the root."""
        return self._parents[node_id]

    def children(self, node_id: int) -> tuple[int, ...]:
        """Child ids in document order."""
        try:
            return self._children[node_id]
        except AttributeError:
            return self._slot("_children")[node_id]

    def depth(self, node_id: int) -> int:
        """Distance from the root (root = 0)."""
        return self._labels.depth[node_id]

    def subtree_size(self, node_id: int) -> int:
        """Number of nodes in the subtree rooted at ``node_id``."""
        return self._labels.size[node_id]

    def is_leaf(self, node_id: int) -> bool:
        """Whether the node has no children."""
        try:
            return not self._children[node_id]
        except AttributeError:
            return not self._slot("_children")[node_id]

    def keywords(self, node_id: int) -> frozenset[str]:
        """The representative keywords of the node (paper's keywords(n))."""
        try:
            return self._keywords[node_id]
        except AttributeError:
            return self._slot("_keywords")[node_id]

    @property
    def parents(self) -> Sequence[Optional[int]]:
        """``parents[n]`` is node ``n``'s parent id, ``None`` for the
        root: the array itself (do not mutate), for loops that climb
        without a call per step."""
        return self._parents

    @property
    def labels(self) -> TreeLabels:
        """The structural label bundle (depth/size)."""
        return self._labels

    @property
    def token(self) -> int:
        """A process-wide unique, never-reused identity token.

        Safe to key caches on where ``id()`` is not: tokens survive the
        document's own lifetime and are reassigned on unpickling, so two
        different trees never share one within a process.  The only
        documents that do share one are a shard index's successive
        materialisations of one name — the same immutable bytes.
        """
        return self._token

    @property
    def max_depth(self) -> int:
        """The depth of the deepest node."""
        return max(self._labels.depth)

    # ------------------------------------------------------------------
    # Structural predicates and queries
    # ------------------------------------------------------------------

    def is_ancestor_or_self(self, u: int, v: int) -> bool:
        """O(1) test: is ``u`` equal to or an ancestor of ``v``?"""
        return self._labels.is_ancestor_or_self(u, v)

    def is_proper_ancestor(self, u: int, v: int) -> bool:
        """O(1) test: is ``u`` a strict ancestor of ``v``?"""
        return self._labels.is_proper_ancestor(u, v)

    def ancestors(self, node_id: int) -> Iterator[int]:
        """Yield ancestor ids from the parent up to the root."""
        p = self._parents[node_id]
        while p is not None:
            yield p
            p = self._parents[p]

    def descendants(self, node_id: int) -> range:
        """All descendant ids of ``node_id`` (excluding itself).

        Because ids are preorder ranks, the descendants of a node form the
        contiguous id range ``(n, n + size(n))``.
        """
        return range(node_id + 1, node_id + self._labels.size[node_id])

    def subtree(self, node_id: int) -> range:
        """The id range of the subtree rooted at ``node_id`` (inclusive)."""
        return range(node_id, node_id + self._labels.size[node_id])

    def lca(self, u: int, v: int) -> int:
        """The lowest common ancestor of two nodes, by a climb of
        ``parents`` (:func:`~repro.xmltree.labeling.climb_lca`)."""
        depth = self._labels.depth
        return climb_lca(self._parents, u, v, depth[u], depth[v])[0]

    def lca_of(self, node_ids: Iterable[int]) -> int:
        """The lowest common ancestor of a non-empty set of nodes.

        Because ids are preorder ranks, the LCA of a set equals the LCA
        of its minimum and maximum elements.
        """
        ids = list(node_ids)
        if not ids:
            raise ValueError("lca_of requires at least one node id")
        lo = min(ids)
        hi = max(ids)
        if lo == hi:
            return lo
        return self.lca(lo, hi)

    # ------------------------------------------------------------------
    # Keyword access
    # ------------------------------------------------------------------

    def nodes_with_keyword(self, keyword: str) -> list[int]:
        """Node ids whose keyword set contains ``keyword`` (linear scan).

        For repeated queries build a
        :class:`repro.index.inverted.InvertedIndex` instead.
        """
        keywords = self._slot("_keywords")
        return [nid for nid in self.node_ids() if keyword in keywords[nid]]

    def vocabulary(self) -> frozenset[str]:
        """The union of all node keyword sets."""
        vocab: set[str] = set()
        for kws in self._slot("_keywords"):
            vocab |= kws
        return frozenset(vocab)

    # ------------------------------------------------------------------
    # Pickling (documents are shipped to pool workers at init)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle the structural arrays only.

        The identity token must not travel: tokens are process-wide
        unique, so the unpickled copy draws a fresh one.  Content not
        yet decoded is decoded here.
        """
        slot = self._slot
        return {"tags": slot("_tags"), "texts": slot("_texts"),
                "parents": self._parents, "children": slot("_children"),
                "keywords": slot("_keywords"), "attrs": slot("_attrs"),
                "labels": self._labels, "name": self.name}

    def __setstate__(self, state: dict) -> None:
        self._tags = state["tags"]
        self._texts = state["texts"]
        self._parents = state["parents"]
        self._children = state["children"]
        self._keywords = state["keywords"]
        self._attrs = state["attrs"]
        self._labels = state["labels"]
        self._token = next(_DOCUMENT_TOKENS)
        self._content = None
        self.name = state["name"]

    def __repr__(self) -> str:
        return (f"Document(name={self.name!r}, nodes={self.size}, "
                f"max_depth={self.max_depth})")
