"""Fixed points and fragment set reduction (paper Section 3.1).

* :func:`set_reduce` — ``⊖(F)`` (Definition 10): drop every fragment
  that is a sub-fragment of the join of two *other* fragments of the
  set.  The paper's displayed formula has a typo (``∃`` for ``∄``); we
  implement the prose/Figure-4 semantics and test against Figure 4.
* :func:`iterate_pairwise` — ``⋈_n(F)``: pairwise join of n copies.
* :func:`fixed_point` — ``F+`` (Definition 9) via *semi-naive*
  iteration: each round joins only the previous round's newly produced
  fragments against the accumulated set, exactly like semi-naive Datalog
  evaluation, so reaching the fixed point costs O(|F+|·|F|) joins rather
  than re-joining everything every round.
* :func:`fixed_point_bounded` — the paper's §3.1.2 alternative: compute
  ``k = |⊖(F)|`` first, then run exactly ``k`` pairwise-join rounds
  with **no fixed-point checking**, relying on Theorem 1
  (``⋈_n(F) = ⋈_k(F)``).

An optional anti-monotonic predicate can be threaded through the
iteration (the equation after Theorem 3): fragments failing the filter
are discarded *as they are produced*, which is sound because none of
their super-fragments could satisfy the filter either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .algebra import (_TICK_BLOCK, _iter_pairwise_join, _joins, _labelled,
                      fragment_join, pairwise_join)
from .filters import Filter, necessary_bound, select
from .fragment import Fragment
from .stats import OperationStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..guard.budget import QueryBudget

__all__ = [
    "set_reduce",
    "reduction_count",
    "iterate_pairwise",
    "fixed_point",
    "fixed_point_bounded",
    "is_fixed_point",
]


def set_reduce(fragments: Iterable[Fragment],
               stats: Optional[OperationStats] = None,
               budget: Optional["QueryBudget"] = None
               ) -> frozenset[Fragment]:
    """``⊖(F)``: remove fragments subsumed by a join of two others.

    A fragment ``f`` is removed iff there exist distinct ``f', f'' ∈ F``
    (both different from ``f``) with ``f ⊆ f' ⋈ f''``.  O(|F|³) subset
    checks over O(|F|²) joins, which dominate.  An optional
    :class:`~repro.guard.QueryBudget` is charged per pair join and
    deadline-polled per subset check.
    """
    items = list(dict.fromkeys(fragments))  # stable dedup
    n = len(items)
    if n < 3:
        # Elimination needs three distinct fragments (see Theorem 1's
        # proof preamble), so small sets are already reduced.
        return frozenset(items)
    if budget is not None:
        budget.admit_live(n)
    pair_joins: list[tuple[int, int, Fragment]] = []
    for i in range(n):
        if budget is not None:
            budget.tick(n - i - 1)  # charge the whole row at once
        for j in range(i + 1, n):
            pair_joins.append(
                (i, j, fragment_join(items[i], items[j], stats=stats)))
    kept = []
    for idx, fragment in enumerate(items):
        subsumed = False
        if budget is not None:
            budget.poll(len(pair_joins))
        for i, j, joined in pair_joins:
            if idx == i or idx == j:
                continue
            if stats is not None:
                stats.subset_checks += 1
            if fragment.nodes <= joined.nodes:
                subsumed = True
                break
        if not subsumed:
            kept.append(fragment)
    return frozenset(kept)


def reduction_count(fragments: Iterable[Fragment],
                    stats: Optional[OperationStats] = None,
                    budget: Optional["QueryBudget"] = None) -> int:
    """``|⊖(F)|`` — the Theorem-1 iteration bound for ``F``."""
    return len(set_reduce(fragments, stats=stats, budget=budget))


def _iter_pairwise_rounds(fragments: Iterable[Fragment], rounds: int,
                          stats: Optional[OperationStats] = None,
                          predicate: Optional[Filter] = None,
                          budget: Optional["QueryBudget"] = None
                          ) -> Iterator[Fragment]:
    """``⋈_n(F)`` round by round — the bounded fixed-point loop.

    Yields each fragment in the round that first produces it.  Rounds
    only ever grow (``f ⋈ f = f`` keeps every fragment of ``⋈_r(F)`` in
    ``⋈_{r+1}(F)``, and an anti-monotonic ``predicate`` that kept ``f``
    keeps the base fragments under it), so the fragments yielded are
    exactly ``⋈_rounds(F)``.  No fixed-point checking: every round runs.
    A pair the ``predicate`` is bound to reject is never joined.
    """
    bound = necessary_bound(predicate)
    base = _apply_predicate(frozenset(fragments), predicate, stats)
    current = base
    yield from base
    for _ in range(rounds - 1):
        if stats is not None:
            stats.iterations += 1
        previous = current
        current = _apply_predicate(
            frozenset(_iter_pairwise_join(
                base, previous, stats=stats, budget=budget, bound=bound)),
            predicate, stats)
        if budget is not None:
            budget.admit_live(len(current))
        yield from current - previous


def iterate_pairwise(fragments: Iterable[Fragment], rounds: int,
                     stats: Optional[OperationStats] = None,
                     predicate: Optional[Filter] = None,
                     budget: Optional["QueryBudget"] = None
                     ) -> frozenset[Fragment]:
    """``⋈_n(F)``: pairwise fragment join of ``rounds`` copies of ``F``.

    ``rounds = 1`` returns ``F`` itself.  When an anti-monotonic
    ``predicate`` is supplied, fragments failing it are discarded after
    every round (including the first), per Theorem 3.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    return frozenset(_iter_pairwise_rounds(
        fragments, rounds, stats=stats, predicate=predicate, budget=budget))


def _iter_fixed_point(fragments: Iterable[Fragment],
                      stats: Optional[OperationStats] = None,
                      predicate: Optional[Filter] = None,
                      budget: Optional["QueryBudget"] = None
                      ) -> Iterator[Fragment]:
    """``F+`` round by round — the semi-naive fixed-point loop.

    Yields the (filtered) base, then each round's new fragments the
    moment the round ends, so a consumer starts joining before the
    closure is complete.  A budget is charged per block of
    ``_TICK_BLOCK`` pairs considered, bounding a deadline overshoot to
    one block; a pair the ``predicate`` is bound to reject (its
    :func:`~repro.core.filters.necessary_bound`) is never joined.
    """
    bound = necessary_bound(predicate)
    result: set[Fragment] = set(
        _apply_predicate(frozenset(fragments), predicate, stats))
    frontier: set[Fragment] = set(result)
    yield from frontier
    while frontier:
        if stats is not None:
            stats.iterations += 1
        produced: set[Fragment] = set()
        snapshot = list(_labelled(result, bound))
        for new_fragment in _labelled(frontier, bound):
            for start in range(0, len(snapshot), _TICK_BLOCK):
                block = snapshot[start:start + _TICK_BLOCK]
                if budget is not None:
                    budget.tick(len(block))
                for joined in _joins(block, new_fragment, bound, stats):
                    if joined not in result and joined not in produced:
                        produced.add(joined)
        produced = set(_apply_predicate(produced, predicate, stats))
        produced -= result
        result |= produced
        frontier = produced
        if budget is not None:
            budget.admit_live(len(result))
        yield from produced


def fixed_point(fragments: Iterable[Fragment],
                stats: Optional[OperationStats] = None,
                predicate: Optional[Filter] = None,
                budget: Optional["QueryBudget"] = None
                ) -> frozenset[Fragment]:
    """``F+`` via semi-naive iteration with fixed-point checking.

    Each round joins only the frontier (fragments first produced in the
    previous round) against the accumulated result, and stops when a
    round produces nothing new — the §3.1.1 'naive solution' upgraded
    with the standard semi-naive refinement.
    """
    return frozenset(_iter_fixed_point(
        fragments, stats=stats, predicate=predicate, budget=budget))


def _iter_fixed_point_bounded(fragments: Iterable[Fragment],
                              stats: Optional[OperationStats] = None,
                              predicate: Optional[Filter] = None,
                              budget: Optional["QueryBudget"] = None
                              ) -> Iterator[Fragment]:
    """:func:`fixed_point_bounded`, one new fragment at a time."""
    base = frozenset(fragments)
    if not base:
        return
    k = reduction_count(base, stats=stats, budget=budget)
    yield from _iter_pairwise_rounds(base, k, stats=stats,
                                     predicate=predicate, budget=budget)


def fixed_point_bounded(fragments: Iterable[Fragment],
                        stats: Optional[OperationStats] = None,
                        predicate: Optional[Filter] = None,
                        budget: Optional["QueryBudget"] = None
                        ) -> frozenset[Fragment]:
    """``F+`` via the Theorem-1 bound: exactly ``|⊖(F)|`` join rounds.

    No fixed-point checking is performed during iteration — the §3.1.2
    'alternative solution'.  The bound ``k`` is computed on the
    *unfiltered* set (Theorem 1 speaks about F itself); the optional
    anti-monotonic predicate then prunes during iteration, which can
    only shrink intermediate sets, never change the filtered result.
    """
    return frozenset(_iter_fixed_point_bounded(
        fragments, stats=stats, predicate=predicate, budget=budget))


def is_fixed_point(fragments: Iterable[Fragment]) -> bool:
    """Whether ``F ⋈ F = F`` — i.e. ``F`` is closed under fragment join."""
    base = frozenset(fragments)
    return pairwise_join(base, base) == base


def _apply_predicate(fragments: frozenset[Fragment],
                     predicate: Optional[Filter],
                     stats: Optional[OperationStats]
                     ) -> frozenset[Fragment]:
    if predicate is None:
        return frozenset(fragments)
    return select(predicate, fragments, stats=stats)
