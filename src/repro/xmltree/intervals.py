"""Interval-bitset join kernel: spanning-tree closure on flat arrays.

:func:`repro.xmltree.navigation.spanning_nodes` — the hot core of
fragment join — climbs parent pointers while testing membership in a
growing Python ``set``.  Every step pays a hash lookup and an insert.
This module provides :class:`IntervalKernel`, a per-document kernel
that performs the same closure on **integer arithmetic only**:

* the parent and depth labels are unpacked once into flat lists so the
  climb is plain list indexing;
* "already covered" is an *epoch-stamped bitset*: one preallocated
  ``array('Q')`` slot per node holding the epoch of its last visit.
  Membership is ``stamp[n] == epoch`` — O(1), allocation-free, and the
  array never needs clearing between joins (bumping the epoch
  invalidates every stale bit at once);
* the closure root comes from the preorder-interval property: the LCA
  of a node set is the LCA of its minimum and maximum preorder ids,
  answered in O(1) by the document's Euler-tour index.

Deciding a size/height/width filter *without* materialising the join is
not the kernel's business: the pairwise-join and fixed-point loops do
it from the interval labels, above the kernel choice, so both kernels
prune identically (:func:`repro.core.filters.necessary_bound`).

The kernel is *selected*, never mandatory: the algebra keeps the
reference ``frozenset``-based implementation and the two are
cross-checked property-based in the test suite (they must produce
identical node sets on every input).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .document import Document

__all__ = ["IntervalKernel"]


class IntervalKernel:
    """Per-document spanning/join kernel over flat interval labels.

    Instances are cheap to build (three flat copies of existing label
    arrays) and are cached on the document via
    :meth:`repro.xmltree.document.Document.interval_kernel`.  They are
    **not** shared across documents.

    Not thread-safe: the epoch-stamped scratch array is mutable state.
    Per-process use (one kernel per worker) is the intended deployment.
    """

    __slots__ = ("document", "_parents", "_depth", "_pre", "_size",
                 "_stamp", "_epoch")

    def __init__(self, document: "Document") -> None:
        labels = document.labels
        n = document.size
        # Root gets parent -1 so the climb can use plain ints throughout.
        parents = array("l", ((-1 if (p := document.parent(i)) is None
                               else p) for i in range(n)))
        self.document = document
        self._parents = parents
        self._depth = array("l", labels.depth)
        self._pre = array("l", labels.pre)
        self._size = array("l", labels.size)
        self._stamp = array("Q", bytes(8 * n))
        self._epoch = 0
        # Force the O(1) LCA index so spanning() never pays the lazy
        # build inside a timed region.
        if n > 1:
            document.lca(0, n - 1)

    @classmethod
    def from_arrays(cls, document: "Document", parents, depth, pre,
                    size) -> "IntervalKernel":
        """Zero-copy construction over pre-built flat label arrays.

        ``parents``/``depth``/``pre``/``size`` are any integer sequences
        supporting ``seq[i] -> int`` — in the sharded index they are
        ``memoryview.cast("q")`` windows onto an ``mmap`` (or shared
        memory segment), so building a kernel costs only the scratch
        bitset, never a per-node Python loop.  ``parents`` must encode
        the root as ``-1``, exactly as :meth:`__init__` does.
        """
        n = document.size
        if not (len(parents) == len(depth) == len(pre) == len(size) == n):
            raise ValueError("kernel arrays do not match document size")
        self = object.__new__(cls)
        self.document = document
        self._parents = parents
        self._depth = depth
        self._pre = pre
        self._size = size
        self._stamp = array("Q", bytes(8 * n))
        self._epoch = 0
        if n > 1:
            document.lca(0, n - 1)
        return self

    # ------------------------------------------------------------------
    # Closure
    # ------------------------------------------------------------------

    def spanning(self, nodes: Iterable[int]) -> frozenset[int]:
        """The tree-Steiner closure of ``nodes`` as a frozenset.

        Exact drop-in for
        :func:`repro.xmltree.navigation.spanning_nodes`; the property
        suite asserts equality on randomized trees.
        """
        ids = list(nodes)
        if not ids:
            raise ValueError("spanning requires at least one node")
        self._epoch += 1
        epoch = self._epoch
        stamp = self._stamp
        parents = self._parents
        lo = min(ids)
        hi = max(ids)
        root = lo if lo == hi else self.document.lca(lo, hi)
        out = []
        for n in ids:
            if stamp[n] != epoch:
                stamp[n] = epoch
                out.append(n)
        if stamp[root] != epoch:
            stamp[root] = epoch
            out.append(root)
        for n in ids:
            if n == root:
                continue
            cur = parents[n]
            while stamp[cur] != epoch:
                stamp[cur] = epoch
                out.append(cur)
                cur = parents[cur]
        return frozenset(out)

    def spanning_of_union(self, nodes1: Iterable[int],
                          nodes2: Iterable[int]) -> frozenset[int]:
        """Closure of ``nodes1 ∪ nodes2`` without building the union."""
        ids1 = list(nodes1)
        ids2 = list(nodes2)
        ids1.extend(ids2)
        return self.spanning(ids1)

    def join_nodes(self, n1: frozenset, n2: frozenset,
                   r1: int, r2: int) -> frozenset:
        """Closure of the union of two *connected* node sets.

        ``r1`` / ``r2`` are the sets' roots (their minimum preorder
        ids).  Connectivity makes the closure cheap: every node of a
        connected set is a descendant of its root, so joining the sets
        only requires climbing from the two roots to their LCA ``a`` —
        the closure is ``n1 ∪ n2 ∪ {a} ∪ path(r1→a) ∪ path(r2→a)``,
        with each climb stopping early at any already-covered node.
        That is O(path length) integer steps plus C-speed frozenset
        unions, versus the reference's climb from *every* member node.
        """
        parents = self._parents
        a = r1 if r1 == r2 else self.document.lca(r1, r2)
        extra = [a]
        if r1 != a:
            # Ancestors of r1 are never inside n1 (r1 is its root), so
            # only n2 membership can stop the climb before a.
            cur = parents[r1]
            while cur != a and cur not in n2:
                extra.append(cur)
                cur = parents[cur]
        if r2 != a:
            # The second climb may also stop on the first climb's path.
            first_path = extra
            cur = parents[r2]
            while cur != a and cur not in n1 and cur not in first_path:
                extra.append(cur)
                cur = parents[cur]
        return n1 | n2 | frozenset(extra)

    # ------------------------------------------------------------------
    # Interval labels
    # ------------------------------------------------------------------

    def is_ancestor_or_self(self, u: int, v: int) -> bool:
        """Preorder-interval containment check (O(1))."""
        pu = self._pre[u]
        return pu <= self._pre[v] < pu + self._size[u]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IntervalKernel(document={self.document.name!r}, "
                f"nodes={self.document.size})")
