"""Streaming evaluation with top-k early termination.

:func:`~repro.core.strategies.evaluate` drains its operator pipeline
into the complete answer set before anything downstream (ranking,
pagination, a CLI ``-n 10``) sees a single fragment.  This module hands
the same pipeline — the strategy's plan compiled by
:func:`~repro.core.evaluator.build_pipeline` — to the consumer instead:
answer fragments arrive *as they are proven*, so a consumer that needs
only the best ``k`` answers can stop the producers long before the full
set exists.

Two soundness arguments carry everything here:

* **Theorem 3 (anti-monotonic push-down).**  An anti-monotonic
  selection may be applied below every join and inside every fixed
  point without changing the answer set.  The consumer's
  ``extra_predicate`` (the adaptive ``size <= β`` bound) is one more
  selection on top of the strategy's plan, pushed down by the
  optimizer's Theorem-3 rewrite whatever the strategy: that is what
  bounds the producers' work.

* **The β-round bound.**  A round evaluated under ``size <= β`` yields
  *exactly* the answers of size ≤ β (Theorem 3: no false negatives
  within the bound).  Doubling β therefore only ever *appends* larger
  answers: everything already seen is final, which is what lets
  :func:`stream_top_k` and the collection layer emit results
  incrementally in the canonical order and stop as soon as no unseen
  fragment can precede the current ``k``-th.

The canonical orderings shared by every top-k/ranking path live here
(:func:`fragment_order_key`, :func:`hit_order_key`,
:func:`ranked_order_key`) so streamed and materialized results break
ties identically.  See ``docs/streaming.md``.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Optional

from ..obs import NOOP, Observability, STREAM_EARLY_EXITS, STREAM_ROUNDS
from .algebra import JoinCache
from .evaluator import (FixpointOp, FragmentStream, JoinOp, Operator,
                        PowersetOp, ScanOp, SelectOp, build_pipeline)
from .filters import Filter, SizeAtMost
from .fragment import Fragment
from .query import Query
from .strategies import Strategy, _physical_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..guard.budget import QueryBudget
    from ..index.inverted import InvertedIndex
    from ..xmltree.document import Document

__all__ = [
    "Operator", "ScanOp", "FixpointOp", "JoinOp", "SelectOp",
    "PowersetOp", "FragmentStream", "TopKHeap", "build_pipeline",
    "stream_evaluate", "stream_top_k", "fragment_order_key",
    "hit_order_key", "ranked_order_key",
]


# ----------------------------------------------------------------------
# Canonical orderings
# ----------------------------------------------------------------------
#
# Every presentation/top-k path in the repo must agree on how equal
# fragments tie-break, or a streamed top-k and a materialized sort can
# return different (both "correct") answer lists.  These three keys are
# the single source of truth:

def fragment_order_key(fragment: Fragment) -> tuple:
    """Single-document presentation order: smallest first, then node ids.

    Matches ``QueryResult.sorted_fragments`` and :func:`stream_top_k`.
    """
    return (fragment.size, tuple(sorted(fragment.nodes)))


def hit_order_key(document_name: str, fragment: Fragment) -> tuple:
    """Collection presentation order: size, then document, then nodes.

    Matches ``CollectionResult.hits``.
    """
    return (fragment.size, document_name, tuple(sorted(fragment.nodes)))


def ranked_order_key(document_name: str, score: float,
                     fragment: Fragment) -> tuple:
    """Ranked order: best score first, then the compactness tie-breaks.

    Equal scores prefer the smaller fragment, then the lexically
    earlier document, then node ids — exactly the order the stable
    materialized sort in ``DocumentCollection.ranked_search`` produced
    (its per-document ``FragmentScorer.rank`` pre-sorts by
    ``(-score, size, nodes)``, so the final stable ``(-score, size,
    name)`` sort leaves equal keys in node-id order).
    """
    return (-score, fragment.size, document_name,
            tuple(sorted(fragment.nodes)))


# ----------------------------------------------------------------------
# Streamed evaluation
# ----------------------------------------------------------------------

def stream_evaluate(document: "Document", query: Query,
                    strategy: Strategy = Strategy.PUSHDOWN, *,
                    index: Optional["InvertedIndex"] = None,
                    cache: Optional[JoinCache] = None,
                    obs: Optional[Observability] = None,
                    budget: Optional["QueryBudget"] = None,
                    extra_predicate: Optional[Filter] = None,
                    keyword_source: Optional[
                        Callable[[str], frozenset[Fragment]]] = None,
                    max_brute_force_operand: int = 16) -> FragmentStream:
    """Evaluate ``query`` incrementally; returns a :class:`FragmentStream`.

    The streaming counterpart of :func:`~repro.core.strategies.evaluate`:
    the same run of the same plan, handed to the caller undrained, so
    the set of yielded fragments is exactly the materialized answer set
    of ``query.predicate & extra_predicate`` under ``strategy`` — but
    fragments arrive as they are proven and the pipeline stops when the
    caller stops pulling (which is what records the request as
    ``stream-<strategy>``).
    ``extra_predicate`` exists for consumers (top-k, β rounds) that
    tighten the caller's filter without rebuilding the query: it is one
    more selection over the strategy's plan and its anti-monotonic part
    is pushed below the joins regardless of strategy.
    """
    return FragmentStream(
        document, query,
        _physical_plan(query, strategy, index, extra_predicate),
        strategy.value, index=index, cache=cache, obs=obs, budget=budget,
        keyword_source=keyword_source,
        max_powerset_operand=max_brute_force_operand)


# ----------------------------------------------------------------------
# Top-k consumer
# ----------------------------------------------------------------------

class _ReverseKey:
    """Inverts comparison so ``heapq``'s min-heap acts as a max-heap."""

    __slots__ = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key

    def __lt__(self, other: "_ReverseKey") -> bool:
        return other.key < self.key


class TopKHeap:
    """A bounded heap keeping the ``k`` smallest items by key.

    ``offer`` is O(log k); ``bound()`` exposes the current k-th key so
    producers can prune everything provably behind it.
    """

    __slots__ = ("k", "_heap")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._heap: list[tuple[_ReverseKey, object]] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.k

    def bound(self) -> Optional[tuple]:
        """The current k-th (worst kept) key, or None until full."""
        if not self.full:
            return None
        return self._heap[0][0].key

    def offer(self, item, key: tuple) -> bool:
        """Keep ``item`` if its key belongs in the current top k."""
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (_ReverseKey(key), item))
            return True
        if key < self._heap[0][0].key:
            heapq.heapreplace(self._heap, (_ReverseKey(key), item))
            return True
        return False

    def items_sorted(self) -> list:
        """Kept items, best (smallest key) first."""
        return [item for _, item in
                sorted(self._heap, key=lambda pair: pair[0].key)]


def _count_rounds(ob: Observability, rounds: int) -> None:
    if ob.enabled:
        ob.metrics.counter(
            STREAM_ROUNDS, "Adaptive β rounds run by streaming top-k."
        ).inc(rounds)


def _count_early_exit(ob: Observability, stage: str) -> None:
    if ob.enabled:
        ob.metrics.counter(
            STREAM_EARLY_EXITS,
            "Streaming evaluations stopped before the full answer set "
            "existed.", labels={"stage": stage}).inc()


def stream_top_k(document: "Document", query: Query, k: int, *,
                 strategy: Strategy = Strategy.PUSHDOWN,
                 index: Optional["InvertedIndex"] = None,
                 cache: Optional[JoinCache] = None,
                 obs: Optional[Observability] = None,
                 budget: Optional["QueryBudget"] = None,
                 initial_beta: int = 2,
                 extra_predicate: Optional[Filter] = None
                 ) -> list[Fragment]:
    """The ``k`` smallest answers, via adaptive β rounds over the stream.

    Each round streams the pipeline under ``size <= β``; because the
    bound is anti-monotonic, a round yields exactly the answers of size
    ≤ β, so the first round holding ``k`` answers holds the ``k``
    smallest overall and the producers stop there (the early exit is
    counted in ``repro_stream_early_exits_total``).  The answers are
    sorted once, at the end (an O(n log k) ``nsmallest``), not every
    round.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if initial_beta < 1:
        raise ValueError("initial_beta must be >= 1")
    ob = obs if obs is not None else NOOP
    beta = initial_beta
    rounds = 0
    while True:
        rounds += 1
        bound: Filter = SizeAtMost(beta)
        if extra_predicate is not None:
            bound = bound & extra_predicate
        stream = stream_evaluate(document, query, strategy, index=index,
                                 cache=cache, obs=obs, budget=budget,
                                 extra_predicate=bound)
        answers = set(stream)
        if len(answers) >= k or beta >= document.size:
            _count_rounds(ob, rounds)
            if beta < document.size:
                _count_early_exit(ob, "topk")
            return heapq.nsmallest(k, answers, key=fragment_order_key)
        beta = min(beta * 2, document.size)
