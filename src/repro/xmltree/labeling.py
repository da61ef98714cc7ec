"""Structural labelling of document trees.

Node ids are depth-first preorder ranks (node ``0`` is the root), so a
tree needs two labels beyond its ``parents`` array, both computed in
one pass when a :class:`~repro.xmltree.document.Document` is built:

``depth``
    Distance from the root (root = 0).
``size``
    Number of nodes in the subtree rooted at the node (including itself).

With the id as the preorder start, ``(id, size, depth)`` is the
*region encoding* of the XML indexing literature, and the ancestor test
is a constant-time interval containment check::

    u is an ancestor-or-self of v  <=>  u <= v < u + size(u)

A postorder rank, where one is wanted (the relational backend stores
it), is ``id + size - 1 - depth``.  The lowest common ancestor of two
nodes is found by :func:`climb_lca`, a climb of ``parents``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import DocumentError

__all__ = ["TreeLabels", "compute_labels", "climb_lca"]


class TreeLabels:
    """Immutable bundle of structural labels for one tree.

    Attributes
    ----------
    depth, size:
        Lists indexed by node id.
    """

    __slots__ = ("depth", "size")

    def __init__(self, depth: list[int], size: list[int]) -> None:
        self.depth = depth
        self.size = size

    def is_ancestor_or_self(self, u: int, v: int) -> bool:
        """Return ``True`` iff ``u`` is ``v`` or an ancestor of ``v``."""
        return u <= v < u + self.size[u]

    def is_proper_ancestor(self, u: int, v: int) -> bool:
        """Return ``True`` iff ``u`` is a strict ancestor of ``v``."""
        return u != v and self.is_ancestor_or_self(u, v)


def compute_labels(parents: Sequence[Optional[int]],
                   children: Sequence[Sequence[int]]) -> TreeLabels:
    """Compute :class:`TreeLabels` for a tree given parent/children arrays.

    Parameters
    ----------
    parents:
        ``parents[n]`` is the parent id of node ``n`` or ``None`` for the
        root.  Exactly one root must exist.
    children:
        ``children[n]`` lists the child ids of ``n`` in document order.

    Raises
    ------
    DocumentError
        If the arrays do not describe a single rooted tree (no root, more
        than one root, a cycle, or unreachable nodes), or if node ids are
        not the nodes' preorder ranks.
    """
    n = len(parents)
    if n == 0:
        raise DocumentError("a document must contain at least one node")
    roots = [i for i, p in enumerate(parents) if p is None]
    if len(roots) != 1:
        raise DocumentError(f"expected exactly one root node, found "
                            f"{len(roots)}")

    depth = [0] * n
    size = [1] * n
    above = [0] * n  # each node's parent, as the child lists place it
    # Depth-first walk: the k-th node popped must be node k.  Every id
    # below k has been visited once, so meeting one again is a cycle.
    stack = [roots[0]]
    visited = 0
    while stack:
        node = stack.pop()
        if node != visited:
            if 0 <= node < visited:
                raise DocumentError(
                    f"node {node} reached twice; the edge arrays contain "
                    "a cycle or shared child")
            raise DocumentError(
                "node ids must equal preorder ranks; build documents "
                "via DocumentBuilder or parser, which normalise ids")
        visited += 1
        kids = children[node]
        below = depth[node] + 1
        for child in kids:
            depth[child] = below
            above[child] = node
        stack.extend(reversed(kids))

    if visited != n:
        raise DocumentError(f"{n - visited} node(s) unreachable from the "
                            "root; the document is not a connected tree")
    # A child's id exceeds its parent's, so one backward pass sums
    # every subtree before its size is added to the parent's.
    for node in range(n - 1, 0, -1):
        size[above[node]] += size[node]
    return TreeLabels(depth, size)


def climb_lca(parents: Sequence[Optional[int]], a: int, b: int,
              depth_a: int, depth_b: int) -> tuple[int, int]:
    """``(lca(a, b), its depth)``, found by climbing ``parents``: lift
    the deeper node level with the other, then both until they meet.

    O(path length) and no preprocessing, so a document materialised
    for a handful of joins pays for nothing it does not climb.
    """
    top = depth_a
    while top > depth_b:
        a = parents[a]
        top -= 1
    for _ in range(depth_b - top):
        b = parents[b]
    while a != b:
        a, b = parents[a], parents[b]
        top -= 1
    return a, top
