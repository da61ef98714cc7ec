"""Document fragments (paper Definition 2).

A fragment is a non-empty subset of a document's nodes whose induced
subgraph is connected — i.e. a subtree of the document tree.  Fragments
are immutable, hashable values; the algebra manipulates *sets* of them.

Because node ids are preorder ranks, several fragment properties are
cheap:

* the fragment root is simply ``min(nodes)``;
* document-order comparisons are integer comparisons;
* ``width`` (horizontal extent) is ``max(nodes) - min(nodes)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import CrossDocumentError, FragmentError
from ..xmltree.navigation import fragment_leaves, is_connected

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..xmltree.document import Document

__all__ = ["Fragment"]


class Fragment:
    """An immutable connected node set of one document.

    Parameters
    ----------
    document:
        The document the nodes belong to.
    nodes:
        Node ids; their induced subgraph must be connected.
    validate:
        When True (default), connectivity and id ranges are checked and a
        :class:`~repro.errors.FragmentError` is raised on violation.
        Internal algebra code that constructs provably-connected sets
        passes ``validate=False`` to skip the O(|f|) check.
    """

    __slots__ = ("_doc", "_nodes", "_hash", "_bounds", "_height")

    def __init__(self, document: "Document", nodes: Iterable[int],
                 validate: bool = True) -> None:
        node_set = frozenset(nodes)
        if validate:
            if not node_set:
                raise FragmentError("a fragment must contain at least one "
                                    "node")
            for nid in node_set:
                if not 0 <= nid < document.size:
                    raise FragmentError(f"node id {nid} out of range for "
                                        f"document of {document.size} nodes")
            if not is_connected(document, node_set):
                raise FragmentError(f"nodes {sorted(node_set)} do not induce "
                                    "a connected subtree")
        self._doc = document
        self._nodes = node_set
        self._hash = hash(node_set)
        # Lazily cached structural measures: fragments are immutable, so
        # (min, max) preorder bounds and height are computed at most
        # once even when anti-monotonic filters probe them every
        # fixed-point round.
        self._bounds = None
        self._height = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _trusted(cls, document: "Document",
                 node_set: frozenset[int]) -> "Fragment":
        """Bind an already-built, known-connected ``frozenset`` to
        ``document`` — no copy, no checks.  The join path builds one
        fragment per join, and a closure replay one per memoised node
        set (:class:`~repro.core.algebra.JoinCache` stores node sets,
        not fragments), so this skips ``__init__``."""
        self = cls.__new__(cls)
        self._doc = document
        self._nodes = node_set
        self._hash = hash(node_set)
        self._bounds = None
        self._height = None
        return self

    @classmethod
    def from_node(cls, document: "Document", node_id: int) -> "Fragment":
        """The single-node fragment ⟨n⟩."""
        return cls(document, (node_id,))

    @classmethod
    def subtree(cls, document: "Document", node_id: int) -> "Fragment":
        """The fragment consisting of the whole subtree under a node."""
        return cls(document, document.subtree(node_id), validate=False)

    @classmethod
    def whole_document(cls, document: "Document") -> "Fragment":
        """The fragment consisting of every node of the document."""
        return cls(document, document.node_ids(), validate=False)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def document(self) -> "Document":
        """The document this fragment belongs to."""
        return self._doc

    @property
    def nodes(self) -> frozenset[int]:
        """The node-id set of the fragment."""
        return self._nodes

    def _minmax(self) -> tuple[int, int]:
        """Cached (min, max) preorder ids of the node set."""
        bounds = self._bounds
        if bounds is None:
            bounds = (min(self._nodes), max(self._nodes))
            self._bounds = bounds
        return bounds

    @property
    def root(self) -> int:
        """The root of the induced subtree (its minimum preorder id)."""
        return self._minmax()[0]

    @property
    def size(self) -> int:
        """Number of nodes (the paper's size(f) filter measure)."""
        return len(self._nodes)

    @property
    def height(self) -> int:
        """Vertical distance from the root to the deepest fragment node.

        A single node has height 0, matching the paper's Figure 6 where
        ``height <= 2`` admits a three-level fragment.
        """
        if self._height is None:
            depth = self._doc.labels.depth
            root_depth = depth[self.root]
            self._height = max(depth[n] for n in self._nodes) - root_depth
        return self._height

    @property
    def width(self) -> int:
        """Horizontal extent: preorder span between extreme nodes.

        The paper's width filter bounds "the maximal horizontal distance
        between extreme nodes (the leftmost and the rightmost)".  We
        measure it as the preorder-rank span, which is 0 for a single
        node and monotone under fragment inclusion — hence ``width <= γ``
        is anti-monotonic.
        """
        lo, hi = self._minmax()
        return hi - lo

    @property
    def leaves(self) -> frozenset[int]:
        """Nodes having no child inside the fragment (induced leaves)."""
        return fragment_leaves(self._doc, self._nodes)

    def keywords(self) -> frozenset[str]:
        """The union of keywords over all fragment nodes."""
        words: set[str] = set()
        for nid in self._nodes:
            words |= self._doc.keywords(nid)
        return frozenset(words)

    def leaf_keywords(self) -> frozenset[str]:
        """The union of keywords over the fragment's induced leaves."""
        words: set[str] = set()
        for nid in self.leaves:
            words |= self._doc.keywords(nid)
        return frozenset(words)

    def contains_keyword(self, keyword: str) -> bool:
        """Whether any fragment node carries ``keyword``."""
        return any(keyword in self._doc.keywords(n) for n in self._nodes)

    # ------------------------------------------------------------------
    # Containment (the paper's f' ⊆ f)
    # ------------------------------------------------------------------

    def issubfragment(self, other: "Fragment") -> bool:
        """Whether this fragment is contained in ``other`` (f ⊆ f')."""
        self._require_same_document(other)
        return self._nodes <= other._nodes

    def __le__(self, other: "Fragment") -> bool:
        return self.issubfragment(other)

    def __lt__(self, other: "Fragment") -> bool:
        self._require_same_document(other)
        return self._nodes < other._nodes

    def __ge__(self, other: "Fragment") -> bool:
        return other.issubfragment(self)

    def __gt__(self, other: "Fragment") -> bool:
        return other < self

    def _require_same_document(self, other: "Fragment") -> None:
        if self._doc is not other._doc:
            raise CrossDocumentError(
                "fragments belong to different documents "
                f"({self._doc.name!r} vs {other._doc.name!r})")

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fragment):
            return NotImplemented
        return self._doc is other._doc and self._nodes == other._nodes

    def __hash__(self) -> int:
        return self._hash

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        ids = ",".join(f"n{n}" for n in sorted(self._nodes))
        return f"⟨{ids}⟩"

    def label(self) -> str:
        """The paper's angle-bracket notation, e.g. ``⟨n16,n17,n18⟩``."""
        return repr(self)
