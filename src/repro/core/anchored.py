"""Definition 8 without joins: the keyword-anchored subtrees.

An answer of ``σ_P(F1 ⋈* … ⋈* Fm)`` is ``span(S)`` for a set ``S`` of
keyword nodes meeting every term (Definitions 6 and 8).  With ``K`` the
keyword nodes, a fragment ``f`` is such a span iff (docs/theory.md, the
anchored-span lemma):

* every leaf of ``f`` is in ``K``;
* its root is in ``K`` or has at least two children in ``f``;
* it meets every term.

:func:`iter_anchored_spans` enumerates exactly those fragments in one
bottom-up pass over ``K`` and its ancestors, children before parents.
A *partial* at node ``v`` is ``{v}`` plus at most one partial of each
relevant child, so every node set is built once: there is no join, no
closure, no memo and no duplicate to filter.  A partial that breaks the
predicate's :func:`~repro.core.filters.necessary_bound` is dropped
unbuilt — size, height and width only grow as a partial grows upward
(docs/theory.md, the three-measure lemma) — and the partials that
satisfy the lemma are checked against the full predicate and emitted.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .algebra import _TICK_BLOCK
from .filters import UNBOUNDED, Filter, TrueFilter, necessary_bound
from .fragment import Fragment
from .stats import OperationStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..guard.budget import QueryBudget
    from ..xmltree.document import Document

__all__ = ["iter_anchored_spans"]

#: A partial's size.
_SIZE = itemgetter(1)


def iter_anchored_spans(document: "Document",
                        keyword_nodes: Sequence[Sequence[int]],
                        predicate: Filter,
                        stats: Optional[OperationStats] = None,
                        budget: Optional["QueryBudget"] = None
                        ) -> Iterator[Fragment]:
    """``σ_predicate(F1 ⋈* … ⋈* Fm)`` with ``Fi`` the single-node
    fragments of ``keyword_nodes[i]``, one answer at a time.

    ``stats`` counts ``partials`` (partials built), ``partials_pruned``
    (combinations the bound rejected unbuilt) and the final selection's
    ``predicate_checks`` / ``fragments_discarded``.  A ``budget`` is
    charged one operation per combination considered, in blocks of
    ``_TICK_BLOCK``, and its live ceiling holds the partials held plus
    the answers emitted.
    """
    if not all(keyword_nodes):
        return  # the conjunctive early exit
    full = (1 << len(keyword_nodes)) - 1
    masks: dict[int, int] = {}
    for bit, nodes in enumerate(keyword_nodes):
        flag = 1 << bit
        for node in nodes:
            masks[node] = masks.get(node, 0) | flag
    parents = document.parents
    depth = document.labels.depth
    # The keyword nodes and their ancestors, each linked to its parent
    # once; a climb stops at the first node already linked.
    kids: dict[int, list[int]] = {}
    linked: set[int] = set()
    for node in masks:
        parent = parents[node]
        while parent is not None and node not in linked:
            linked.add(node)
            siblings = kids.get(parent)
            if siblings is None:
                kids[parent] = [node]
            else:
                siblings.append(node)
            node, parent = parent, parents[parent]
    bound = necessary_bound(predicate)
    max_size, max_height, max_width = (
        bound if bound is not None else (UNBOUNDED,) * 3)
    check = not isinstance(predicate, TrueFilter)
    built = pruned = emitted = held = 0
    # node -> its partials, (nodes, size, deepest depth, last id, term
    # mask, children taken), ascending size; dropped once consumed.
    table: dict[int, list[tuple]] = {}
    try:
        # Preorder ids: every child has a larger id than its parent.
        for v in sorted(kids.keys() | masks.keys(), reverse=True):
            top = depth[v]
            own = masks.get(v, 0)
            acc = [(frozenset((v,)), 1, top, v, own, 0)]
            built += 1
            for child in kids.get(v, ()):
                partials = table.pop(child, None)
                if partials is None:
                    continue
                held -= len(partials)
                n = len(partials)
                blocks = ((partials,) if n <= _TICK_BLOCK else
                          [partials[i:i + _TICK_BLOCK]
                           for i in range(0, n, _TICK_BLOCK)])
                grown: list[tuple] = []
                for nodes, size, deep, last, mask, taken in acc:
                    before = len(grown)
                    room = max_size - size
                    for block in blocks:
                        if budget is not None:
                            budget.tick(len(block))
                        for (c_nodes, c_size, c_deep, c_last,
                             c_mask, _) in block:
                            if c_size > room:
                                break
                            d = deep if deep > c_deep else c_deep
                            end = last if last > c_last else c_last
                            if d - top <= max_height \
                                    and end - v <= max_width:
                                grown.append((nodes | c_nodes,
                                              size + c_size, d, end,
                                              mask | c_mask, taken + 1))
                        else:
                            continue
                        break  # ascending sizes: the rest are larger
                    pruned += n - (len(grown) - before)
                    if budget is not None:
                        budget.admit_live(held + len(acc) + len(grown)
                                          + emitted)
                built += len(grown)
                acc += grown
            for nodes, size, deep, last, mask, taken in acc:
                if mask != full or not (own or taken > 1):
                    continue
                fragment = Fragment._trusted(document, nodes)
                fragment._bounds = (v, last)
                fragment._height = deep - top
                if check:
                    if stats is not None:
                        stats.predicate_checks += 1
                    if not predicate.matches(fragment):
                        if stats is not None:
                            stats.fragments_discarded += 1
                        continue
                emitted += 1
                yield fragment
            if parents[v] is not None:
                # ``{v}`` alone has a leaf outside K unless v is in K.
                keep = acc if own else acc[1:]
                if keep:
                    if max_size != UNBOUNDED:
                        keep.sort(key=_SIZE)
                    table[v] = keep
                    held += len(keep)
            if stats is not None:
                stats.partials += built
                stats.partials_pruned += pruned
                built = pruned = 0
            if budget is not None:
                budget.admit_live(held + emitted)
    finally:  # a consumer walked away mid-node, or the budget is spent
        if stats is not None:
            stats.partials += built
            stats.partials_pruned += pruned
