"""The fragment algebra (paper Section 2.2).

Implements, over :class:`~repro.core.fragment.Fragment` values and
``frozenset`` fragment sets:

* :func:`fragment_join` — ``f1 ⋈ f2`` (Definition 4): the minimal
  fragment containing both operands;
* :func:`pairwise_join` — ``F1 ⋈ F2`` (Definition 5);
* :func:`powerset_join` — ``F1 ⋈* F2`` (Definition 6), by direct
  enumeration of non-empty subset pairs (exponential; exists as the
  semantic reference and the brute-force baseline);
* :func:`multiway_powerset_join` — the m-ary generalisation used for
  queries with more than two keywords;
* :func:`join_all` — ``⋈{f1..fn}`` folding.

Selection (`σ_P`) lives in :mod:`repro.core.filters`; fixed points and
set reduction in :mod:`repro.core.reduce`.

:class:`JoinCache` memoises completed fixed points for
:class:`~repro.core.evaluator.FixpointOp`; the loops here hold no memo.
It is keyed on the document's identity token and the base's node sets,
stores node sets only, and is safe because documents and fragments are
immutable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from ..errors import FragmentError
from ..xmltree.labeling import climb_lca

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..guard.budget import QueryBudget
from .filters import UNBOUNDED
from .fragment import Fragment
from .stats import OperationStats

#: Budget checkpoints charge work in blocks of this many operations:
#: large enough that the per-block Python call disappears next to the
#: joins themselves, small enough that a deadline overshoots by at
#: most one block of work.
_TICK_BLOCK = 256

__all__ = [
    "fragment_join",
    "join_all",
    "pairwise_join",
    "powerset_join",
    "multiway_powerset_join",
    "JoinCache",
    "nonempty_subsets",
]


class JoinCache:
    """LRU memo of completed fixed points (Theorem 2's ``F+``).

    An entry maps ``(document token, base node sets, mode, pruning
    predicate)`` to the node sets of that closure in the order it
    emitted them; :class:`~repro.core.evaluator.FixpointOp` builds the
    key and is the memo's only reader and writer.  A replay is bound to
    the live base's document, so the memo never owns a
    :class:`~repro.xmltree.document.Document` — nothing an evicted
    document's entries hold keeps its tree alive.  Tokens are monotonic
    and never reused for a different tree (unlike ``id()``), so entries
    cannot go stale, and a shard index hands every re-materialisation
    of one name the same token, so they hit again when an evicted
    document comes back.  One memo can safely be shared across the
    documents of a collection; a bounded size with least-recently-*used*
    eviction keeps memory in check while retaining the hot closures.

    Handler threads share a memo.  A lookup takes no lock — every
    table operation is a single atomic call, and :meth:`closure`
    tolerates an entry evicted by another thread in between two of
    them.  Stores are serialised and evict before they insert, so no
    reader ever sees more than ``max_entries`` entries; there is one
    store per computed closure, so the lock is never hot.

    ``hits`` / ``misses`` count :meth:`closure` lookups over the memo's
    lifetime (a run counts its own replays in ``join_cache_hits``);
    :meth:`export_metrics` publishes them to a
    :class:`repro.obs.metrics.MetricsRegistry`.
    """

    __slots__ = ("_table", "_max_entries", "_store", "hits", "misses")

    def __init__(self, max_entries: int = 1 << 16) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._table: OrderedDict[tuple, tuple[frozenset[int], ...]] = \
            OrderedDict()
        self._max_entries = max_entries
        self._store = threading.Lock()
        self.hits = 0
        self.misses = 0

    def closure(self, key: tuple) -> Optional[tuple[frozenset[int], ...]]:
        """The node sets of the fixed point memoised under ``key``, in
        emission order, or ``None``."""
        value = self._table.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        try:
            # True LRU: a hit refreshes the entry's recency.
            self._table.move_to_end(key)
        except KeyError:
            pass  # evicted by a concurrent put; the value is right
        return value

    def put_closure(self, key: tuple,
                    closure: tuple[frozenset[int], ...]) -> None:
        """Record a fixed point that ran to completion."""
        table = self._table
        with self._store:
            if key not in table and len(table) >= self._max_entries:
                try:
                    # LRU eviction: drop the least recently touched entry.
                    table.popitem(last=False)
                except KeyError:
                    pass  # a concurrent clear() emptied the table
            table[key] = closure

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        """Drop all memoised closures (hit/miss counters are kept)."""
        self._table.clear()

    def export_metrics(self, metrics) -> None:
        """Publish lifetime hit/miss totals and the current entry count
        as gauges on ``metrics``.

        Gauges (not counters) because the memo owns the running totals;
        re-exporting after more queries overwrites with the new values.
        """
        from ..obs import (JOIN_CACHE_MEMO_ENTRIES, JOIN_CACHE_MEMO_HITS,
                           JOIN_CACHE_MEMO_MISSES)
        metrics.gauge(JOIN_CACHE_MEMO_HITS,
                      "Lifetime JoinCache closure lookups that hit."
                      ).set(self.hits)
        metrics.gauge(JOIN_CACHE_MEMO_MISSES,
                      "Lifetime JoinCache closure lookups that missed."
                      ).set(self.misses)
        metrics.gauge(JOIN_CACHE_MEMO_ENTRIES,
                      "Fixed points the JoinCache memo holds."
                      ).set(len(self))


def fragment_join(f1: Fragment, f2: Fragment,
                  stats: Optional[OperationStats] = None, *,
                  lca: Optional[int] = None) -> Fragment:
    """``f1 ⋈ f2``: the minimal fragment containing both operands.

    Both operands are connected, so every node of ``fi`` hangs below
    its root ``ri`` and the minimal connected subtree containing both
    adds to ``f1 ∪ f2`` only the two paths from the roots up to
    ``a = lca(r1, r2)`` (docs/theory.md, the two-root-paths lemma): a
    climb of ``document.parents``, no per-document state.  A caller
    that has already found ``a`` passes it as ``lca``.  The suite
    property-checks the result against the closure of the union
    (:func:`repro.xmltree.navigation.spanning_nodes`).

    Algebraic properties (tested property-based in the suite):
    idempotent, commutative, associative, absorptive.
    """
    f1._require_same_document(f2)
    # Absorption fast paths: f1 ⋈ (f2 ⊆ f1) = f1.
    if f2.nodes <= f1.nodes:
        return f1
    if f1.nodes <= f2.nodes:
        return f2
    if stats is not None:
        stats.fragment_joins += 1
    document = f1.document
    parents = document.parents
    r1, r2 = f1.root, f2.root
    if lca is None:
        depth = document.labels.depth
        lca, _ = climb_lca(parents, r1, r2, depth[r1], depth[r2])
    path = [lca]
    for node in (r1, r2):
        while node != lca:
            node = parents[node]
            path.append(node)
    return Fragment._trusted(document, f1.nodes.union(f2.nodes, path))


def join_all(fragments: Iterable[Fragment],
             stats: Optional[OperationStats] = None) -> Fragment:
    """``⋈{f1, ..., fn}``: fold fragment join over a non-empty collection.

    Associativity and commutativity make the fold order irrelevant for
    the result (Definition 6 relies on this).
    """
    iterator = iter(fragments)
    try:
        result = next(iterator)
    except StopIteration:
        raise FragmentError("join_all requires at least one fragment")
    for fragment in iterator:
        result = fragment_join(result, fragment, stats=stats)
    return result


def _labelled(fragments: Iterable[Fragment],
              bound: Optional[tuple]) -> Iterator[tuple]:
    """``(fragment, root, root depth, size, deepest depth, last id)``
    for each fragment — all :func:`_joins` reads of an operand to hold
    a pair against ``bound``, taken once per operand instead of once
    per pair.  Without a ``bound`` nothing is measured: ``(fragment,)``.
    """
    if bound is None:
        for fragment in fragments:
            yield (fragment,)
        return
    tall = bound[1] != UNBOUNDED  # height costs a pass over the nodes
    for fragment in fragments:
        root, last = fragment._minmax()
        top = fragment._doc.labels.depth[root]
        yield (fragment, root, top, len(fragment._nodes),
               top + fragment.height if tall else 0, last)


def _joins(block: Sequence[tuple], other: tuple, bound: Optional[tuple],
           stats: Optional[OperationStats]) -> Iterator[Fragment]:
    """``f1 ⋈ f2`` for ``f2 = other`` and each ``f1`` of ``block``
    (:func:`_labelled` entries) — except the pairs whose join provably
    exceeds ``bound = (max size, max height, max width)``, which are
    never joined and are counted in ``joins_pruned``.

    The join is rooted at ``a = lca(r1, r2)`` and adds to ``f1 ∪ f2``
    only ancestors of the two roots, so its height and width are known
    exactly, and its size exactly when neither root is above the other
    and from below otherwise (docs/theory.md, the three-measure lemma).
    A pair that survives is joined at the ``a`` it was priced at.
    """
    f2 = other[0]
    if bound is None:
        for (f1,) in block:
            yield fragment_join(f1, f2, stats=stats)
        return
    max_size, max_height, max_width = bound
    _, r2, d2, s2, deep2, last2 = other
    parents = f2._doc.parents
    for f1, r1, d1, s1, deep1, last1 in block:
        a, top = climb_lca(parents, r1, r2, d1, d2)
        up1, up2 = d1 - top, d2 - top
        if (s1 + s2 + up1 + up2 - 1 if up1 and up2
                else max(s1 + up1, s2 + up2)) > max_size \
                or max(deep1, deep2) - top > max_height \
                or max(last1, last2) - a > max_width:
            if stats is not None:
                stats.joins_pruned += 1
            continue
        yield fragment_join(f1, f2, stats=stats, lca=a)


def _iter_pairwise_join(set1: Iterable[Fragment], set2: Iterable[Fragment],
                        stats: Optional[OperationStats] = None,
                        budget: Optional["QueryBudget"] = None,
                        bound: Optional[tuple] = None
                        ) -> Iterator[Fragment]:
    """``F1 ⋈ F2`` one new fragment at a time — the pairwise-join loop.

    ``set1`` is drained first; each fragment of ``set2`` is then joined
    against it as it arrives, so a lazy right-hand producer is pulled
    only as far as the consumer reads, and an empty left side returns
    without touching the right one (the conjunctive early exit).  A
    budget is charged per block of ``_TICK_BLOCK`` pairs *considered*,
    bounding a deadline overshoot to one block of work.

    ``bound`` is a :func:`~repro.core.filters.necessary_bound` of the
    selection the caller applies next: a pair whose join would exceed
    it is counted in ``joins_pruned`` and never joined.
    """
    left = list(_labelled(set1, bound))
    if not left:
        return
    emitted: set[Fragment] = set()
    for other in _labelled(set2, bound):
        for start in range(0, len(left), _TICK_BLOCK):
            block = left[start:start + _TICK_BLOCK]
            if budget is not None:
                budget.tick(len(block))
            for joined in _joins(block, other, bound, stats):
                if joined not in emitted:
                    emitted.add(joined)
                    yield joined
        if budget is not None:
            budget.admit_live(len(emitted))


def pairwise_join(set1: Iterable[Fragment], set2: Iterable[Fragment],
                  stats: Optional[OperationStats] = None,
                  budget: Optional["QueryBudget"] = None
                  ) -> frozenset[Fragment]:
    """``F1 ⋈ F2``: join every pair (Definition 5), deduplicated.

    Commutative, associative, monotone (``F ⋈ F ⊇ F`` by idempotency of
    the underlying join), and distributes over set union.  An optional
    :class:`~repro.guard.QueryBudget` is charged one operation per
    joined pair and checks the result set against its live-fragment
    ceiling.
    """
    return frozenset(_iter_pairwise_join(set1, set2, stats=stats,
                                         budget=budget))


def nonempty_subsets(items: Sequence) -> Iterable[tuple]:
    """Every non-empty subset of ``items``, as tuples (2^n - 1 of them)."""
    for size in range(1, len(items) + 1):
        yield from combinations(items, size)


def powerset_join(set1: Iterable[Fragment], set2: Iterable[Fragment],
                  stats: Optional[OperationStats] = None,
                  max_operand_size: Optional[int] = 20,
                  budget: Optional["QueryBudget"] = None
                  ) -> frozenset[Fragment]:
    """``F1 ⋈* F2`` by direct enumeration (Definition 6).

    Joins ``⋈(F1' ∪ F2')`` for every pair of non-empty subsets
    ``F1' ⊆ F1``, ``F2' ⊆ F2`` — Θ(2^|F1| · 2^|F2|) subset pairs.  This
    is the semantic reference implementation and the paper's brute-force
    strategy; production evaluation uses the Theorem-2 rewrite
    ``F1+ ⋈ F2+`` (see :mod:`repro.core.reduce`).

    Parameters
    ----------
    max_operand_size:
        Guard against accidental exponential blow-up; ``None`` disables
        the check.

    Raises
    ------
    FragmentError
        If an operand exceeds ``max_operand_size``.
    """
    left = list(set1)
    right = list(set2)
    if max_operand_size is not None:
        for operand in (left, right):
            if len(operand) > max_operand_size:
                raise FragmentError(
                    f"powerset join operand has {len(operand)} fragments; "
                    f"enumeration over 2^{len(operand)} subsets refused "
                    "(raise max_operand_size to override)")
    results: set[Fragment] = set()
    for subset1 in nonempty_subsets(left):
        if budget is not None:
            budget.admit_candidates(len(results))
        base = join_all(subset1, stats=stats)
        for subset2 in nonempty_subsets(right):
            if budget is not None:
                budget.tick(len(subset2))
            joined = fragment_join(base, join_all(subset2, stats=stats),
                                   stats=stats)
            results.add(joined)
    return frozenset(results)


def _iter_multiway_powerset_join(
        fragment_sets: Sequence[Iterable[Fragment]],
        stats: Optional[OperationStats] = None,
        max_operand_size: Optional[int] = 20,
        budget: Optional["QueryBudget"] = None) -> Iterator[Fragment]:
    """The m-ary powerset join, one new candidate at a time.

    Every operand is drained before enumeration starts; each candidate
    is yielded as its subset combination is joined.
    """
    operands = [list(fs) for fs in fragment_sets]
    if not operands:
        raise FragmentError("multiway powerset join needs >= 1 operand")
    if max_operand_size is not None:
        for operand in operands:
            if len(operand) > max_operand_size:
                raise FragmentError(
                    f"powerset join operand has {len(operand)} fragments; "
                    f"enumeration over 2^{len(operand)} subsets refused "
                    "(raise max_operand_size to override)")
    emitted: set[Fragment] = set()
    partial: list[Fragment] = []

    def recurse(position: int) -> Iterator[Fragment]:
        if position == len(operands):
            if budget is not None:
                budget.tick(len(partial))
                budget.admit_candidates(len(emitted))
            candidate = join_all(partial, stats=stats)
            if candidate not in emitted:
                emitted.add(candidate)
                yield candidate
            return
        for subset in nonempty_subsets(operands[position]):
            if budget is not None:
                budget.tick(max(0, len(subset) - 1))
            partial.append(join_all(subset, stats=stats))
            yield from recurse(position + 1)
            partial.pop()

    yield from recurse(0)


def multiway_powerset_join(fragment_sets: Sequence[Iterable[Fragment]],
                           stats: Optional[OperationStats] = None,
                           max_operand_size: Optional[int] = 20,
                           budget: Optional["QueryBudget"] = None
                           ) -> frozenset[Fragment]:
    """m-ary powerset join: ``{⋈(F1' ∪ … ∪ Fm') | Fi' ⊆ Fi, Fi' ≠ ∅}``.

    The paper defines the binary case; queries with m keywords need the
    m-ary generalisation (DESIGN.md §4).  Like :func:`powerset_join`
    this is the enumeration reference; the equivalent efficient form is
    ``F1+ ⋈ F2+ ⋈ … ⋈ Fm+``.
    """
    return frozenset(_iter_multiway_powerset_join(
        fragment_sets, stats=stats, max_operand_size=max_operand_size,
        budget=budget))
