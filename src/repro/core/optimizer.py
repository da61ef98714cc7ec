"""Algebraic plan rewriting (paper Section 3).

Two rewrite rules, applied by :func:`optimize`:

**Theorem 2** (powerset elimination)::

    F1 ⋈* F2 ⋈* … ⋈* Fm   →   F1+ ⋈ F2+ ⋈ … ⋈ Fm+

Each ``Fi+`` is a :class:`~repro.core.plan.FixedPoint` over the scan;
the m-ary join becomes a left-deep chain of pairwise joins.

**Theorem 3** (selection push-down)::

    σ_Pa(F1 ⋈ F2)   →   σ_Pa(σ_Pa(F1) ⋈ σ_Pa(F2))

applied recursively, so an anti-monotonic selection ends up (a) on every
scan, (b) pruning inside every fixed point, and (c) re-applied after
every join — the equation displayed after Theorem 3 in the paper.
``∧`` preserves anti-monotonicity (§3.3), so a predicate is first split
into its anti-monotonic conjuncts and the rest, ``σ_P = σ_r(σ_a(·))``:
the anti-monotonic part is pushed, and only the residual — once, on
top — is left where it was.

The optimizer is purely algebraic (the paper's focus); the cost model in
:mod:`repro.core.cost` chooses *between* valid plans, e.g. bounded vs
semi-naive fixed points based on the estimated reduction factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce as _reduce
from typing import Optional

from ..obs import NOOP, Observability
from .cost import CostModel
from .filters import Filter, split_anti_monotonic
from .plan import (FixedPoint, KeywordScan, PairwiseJoin, PlanNode,
                   PowersetJoin, Select)
from .query import Query

__all__ = ["OptimizerSettings", "optimize", "push_down_selections",
           "select_pushed", "rewrite_powerset"]


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs for plan rewriting.

    Attributes
    ----------
    push_down:
        Apply Theorem-3 push-down of anti-monotonic selections.
    bounded_fixed_points:
        Use the Theorem-1 bounded iteration inside fixed points.  When a
        cost model is supplied, this is decided per fixed point from the
        estimated reduction factor instead (see §5's RF discussion).
    cost_model:
        Optional :class:`~repro.core.cost.CostModel` used for
        RF-threshold decisions and join ordering.
    """

    push_down: bool = True
    bounded_fixed_points: bool = True
    cost_model: Optional[CostModel] = field(default=None)


def optimize(query: Query,
             settings: Optional[OptimizerSettings] = None,
             obs: Optional[Observability] = None) -> PlanNode:
    """Produce an optimised plan for ``query``.

    Starts from the canonical ``σ_P(scan ⋈* … ⋈* scan)`` plan, applies
    the Theorem-2 rewrite, orders the join chain rarest-first when a
    cost model with term statistics is available, and finally pushes the
    anti-monotonic part of the selection down by Theorem 3.  With an
    enabled ``obs`` handle the rewrite is wrapped in an ``optimize``
    span recording the operator count and whether push-down fired.
    """
    ob = obs if obs is not None else NOOP
    with ob.span("optimize", terms=len(query.terms)) as span:
        settings = (settings if settings is not None
                    else OptimizerSettings())
        terms = list(query.terms)
        model = settings.cost_model
        if model is not None:
            terms.sort(key=model.term_cardinality)

        bounded = settings.bounded_fixed_points

        def make_fixed_point(term: str) -> PlanNode:
            scan = KeywordScan(term)
            use_bounded = bounded
            if model is not None:
                use_bounded = model.prefer_bounded_fixed_point(term)
            return FixedPoint(scan, bounded=use_bounded)

        chain: PlanNode = _reduce(
            PairwiseJoin, (make_fixed_point(term) for term in terms))
        plan: PlanNode = Select(query.predicate, chain)
        pushed = settings.push_down and \
            split_anti_monotonic(query.predicate)[0] is not None
        if pushed:
            plan = push_down_selections(plan)
        if ob.enabled:
            span.set(push_down=pushed,
                     operators=sum(1 for _ in plan.walk()))
    return plan


def rewrite_powerset(node: PlanNode, bounded: bool = True) -> PlanNode:
    """Apply the Theorem-2 rewrite to every ``PowersetJoin`` in a plan."""
    if isinstance(node, PowersetJoin):
        fixed_points = [FixedPoint(rewrite_powerset(op, bounded), bounded)
                        for op in node.operands]
        return _reduce(PairwiseJoin, fixed_points)
    if isinstance(node, Select):
        return Select(node.predicate, rewrite_powerset(node.child, bounded))
    if isinstance(node, PairwiseJoin):
        return PairwiseJoin(rewrite_powerset(node.left, bounded),
                            rewrite_powerset(node.right, bounded))
    if isinstance(node, FixedPoint):
        return FixedPoint(rewrite_powerset(node.child, bounded),
                          node.bounded, node.predicate)
    return node


def push_down_selections(node: PlanNode) -> PlanNode:
    """Apply Theorem-3 push-down to every eligible selection in a plan.

    The anti-monotonic conjuncts of each ``Select`` are propagated to
    the scans, threaded into fixed points as a pruning predicate, and
    re-applied above every join, matching the expansion after Theorem 3;
    the residual conjuncts stay, as one selection, where the ``Select``
    was.
    """
    if isinstance(node, Select):
        return select_pushed(node.predicate,
                             push_down_selections(node.child))
    if isinstance(node, PairwiseJoin):
        return PairwiseJoin(push_down_selections(node.left),
                            push_down_selections(node.right))
    if isinstance(node, FixedPoint):
        return FixedPoint(push_down_selections(node.child),
                          node.bounded, node.predicate)
    if isinstance(node, PowersetJoin):
        return PowersetJoin(tuple(push_down_selections(op)
                                  for op in node.operands))
    return node


def select_pushed(predicate: Filter, node: PlanNode,
                  reselect: bool = True) -> PlanNode:
    """``σ_predicate(node)`` with the anti-monotonic part pushed through
    ``node`` and the residual, if any, selected on top.

    Pushed, the anti-monotonic part already holds of every fragment
    ``node`` yields; ``reselect`` applies it to the result once more
    all the same, the form the paper displays after Theorem 3.
    """
    pushable, residual = split_anti_monotonic(predicate)
    if pushable is not None:
        node = _push(pushable, node)
        if reselect:
            node = Select(pushable, node)
    return node if residual is None else Select(residual, node)


def _push(predicate: Filter, node: PlanNode) -> PlanNode:
    """Push an anti-monotonic predicate through one subtree."""
    if isinstance(node, KeywordScan):
        return Select(predicate, node)
    if isinstance(node, Select):
        # Merge: pushing P through σ_Q(X) keeps σ_Q and pushes P inward.
        return Select(node.predicate, _push(predicate, node.child))
    if isinstance(node, PairwiseJoin):
        return Select(predicate,
                      PairwiseJoin(_push(predicate, node.left),
                                   _push(predicate, node.right)))
    if isinstance(node, FixedPoint):
        # A fixed point already pruning on an earlier selection keeps
        # it: the closure must satisfy both.
        pruning = (predicate if node.predicate is None
                   else node.predicate & predicate)
        return FixedPoint(_push(predicate, node.child),
                          node.bounded, pruning)
    if isinstance(node, PowersetJoin):
        # ⋈* is a union of joins of operand subsets, and σ_Pa commutes
        # with unions and joins alike, so pushing into each operand is
        # sound; the outer selection is re-applied by the caller.
        return Select(predicate,
                      PowersetJoin(tuple(_push(predicate, op)
                                         for op in node.operands)))
    raise TypeError(f"unknown plan node {type(node).__name__}")
