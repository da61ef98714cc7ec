"""A cost model for the algebra (paper Section 5, built out).

The paper defers cost modelling to future work but sketches what it must
do: estimate operator costs, and in particular decide whether computing
``⊖(F)`` pays for itself via the *reduction factor* ``RF = (a - b)/a``
with ``a = |F|`` and ``b = |⊖(F)|``.  This module provides:

* cardinality estimation per plan operator,
* a unit-cost estimate per operator (joins weighted by expected
  fragment size),
* the RF-threshold decision rule: prefer the Theorem-1 bounded fixed
  point when the *estimated* RF of the keyword set is at least the
  calibrated threshold ``v`` (because the ⊖ computation then removes
  enough iterations to amortise its own O(|F|²) joins).

Estimates are intentionally simple and fully deterministic — the point
is to reproduce the *decision structure* the paper describes, and to
give the S2 bench a concrete RF/v mechanism to measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .filters import TrueFilter, necessary_bound
from .plan import (AnchoredSpans, FixedPoint, KeywordScan, PairwiseJoin,
                   PlanNode, PowersetJoin, Select)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..index.inverted import InvertedIndex
    from ..xmltree.document import Document

__all__ = ["CostEstimate", "CostModel", "DEFAULT_RF_THRESHOLD"]

#: Default reduction-factor threshold ``v``: below this, ⊖'s own cost is
#: assumed to outweigh the iterations it saves.  Calibrated empirically
#: by ``benchmarks/bench_reduction_factor.py`` (see EXPERIMENTS.md, S2).
DEFAULT_RF_THRESHOLD = 0.25

#: Anti-monotonic filters prune aggressively; lacking per-filter
#: statistics we assume a selection keeps this fraction of fragments.
_DEFAULT_FILTER_SELECTIVITY = 0.5


@dataclass(frozen=True)
class CostEstimate:
    """Estimated output cardinality and cumulative cost of a plan node."""

    cardinality: float
    cost: float

    def __add__(self, other: "CostEstimate") -> "CostEstimate":
        return CostEstimate(self.cardinality + other.cardinality,
                            self.cost + other.cost)


class CostModel:
    """Cardinality/cost estimator bound to one document (and its index).

    Parameters
    ----------
    document:
        The queried document.
    index:
        Optional inverted index supplying exact term frequencies; without
        it term cardinalities fall back to a heuristic constant.
    rf_threshold:
        The §5 threshold ``v`` for the bounded-fixed-point decision.
    filter_selectivity:
        Assumed fraction of fragments surviving one anti-monotonic
        selection.
    """

    def __init__(self, document: "Document",
                 index: Optional["InvertedIndex"] = None,
                 rf_threshold: float = DEFAULT_RF_THRESHOLD,
                 filter_selectivity: float = _DEFAULT_FILTER_SELECTIVITY
                 ) -> None:
        if not 0.0 <= rf_threshold <= 1.0:
            raise ValueError("rf_threshold must be in [0, 1]")
        if not 0.0 < filter_selectivity <= 1.0:
            raise ValueError("filter_selectivity must be in (0, 1]")
        self._document = document
        self._index = index
        self.rf_threshold = rf_threshold
        self.filter_selectivity = filter_selectivity

    # ------------------------------------------------------------------
    # Term statistics
    # ------------------------------------------------------------------

    def term_cardinality(self, term: str) -> int:
        """Expected size of ``σ_{keyword=term}(nodes(D))``."""
        if self._index is not None:
            return self._index.document_frequency(term)
        # Without an index assume a mildly selective term.
        return max(1, self._document.size // 20)

    def estimate_reduction_factor(self, term: str) -> float:
        """Estimated RF of the keyword set of ``term``.

        Heuristic: keyword nodes that are ancestors of other keyword
        nodes, or siblings under a shared parent, tend to be subsumed by
        pairwise joins.  Lacking the actual ⊖ computation (whose cost is
        the very thing being traded off), we estimate RF from posting
        clustering: the fraction of posting nodes whose parent also has
        a posting node under it.
        """
        if self._index is None:
            return 0.0
        postings = self._index.postings(term)
        if len(postings) < 3:
            return 0.0
        parents = [self._document.parent(n) for n in postings]
        parent_counts: dict[int, int] = {}
        for parent in parents:
            if parent is not None:
                parent_counts[parent] = parent_counts.get(parent, 0) + 1
        clustered = sum(count for count in parent_counts.values()
                        if count > 1)
        # Within a sibling cluster of size c, roughly c - 2 fragments are
        # subsumed once the two extremes join (cf. Figure 4).
        reducible = sum(max(0, count - 2)
                        for count in parent_counts.values() if count > 1)
        del clustered
        return min(1.0, reducible / len(postings))

    def prefer_bounded_fixed_point(self, term: str) -> bool:
        """The §5 decision rule: bounded iff estimated RF ≥ threshold."""
        return self.estimate_reduction_factor(term) >= self.rf_threshold

    # ------------------------------------------------------------------
    # Plan costing
    # ------------------------------------------------------------------

    def estimate(self, plan: PlanNode) -> CostEstimate:
        """Estimated cardinality and cumulative cost of a plan subtree."""
        if isinstance(plan, KeywordScan):
            cardinality = float(self.term_cardinality(plan.term))
            return CostEstimate(cardinality, cardinality)
        if isinstance(plan, Select):
            child = self.estimate(plan.child)
            kept = child.cardinality * self.filter_selectivity
            return CostEstimate(kept, child.cost + child.cardinality)
        if isinstance(plan, PairwiseJoin):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            pairs = left.cardinality * right.cardinality
            # Joins deduplicate heavily; assume sqrt-style collapse.
            out = max(left.cardinality, right.cardinality,
                      math.sqrt(pairs))
            return CostEstimate(out, left.cost + right.cost + pairs)
        if isinstance(plan, FixedPoint):
            child = self.estimate(plan.child)
            n = max(1.0, child.cardinality)
            # Fixed points are bounded by 2^n - 1 but collapse massively
            # in tree-shaped data; model growth as quadratic.
            out = min(2.0 ** min(n, 30.0) - 1.0, n * n)
            rounds = max(1.0, math.log2(n + 1.0)) if plan.bounded else n
            reduce_cost = n * n if plan.bounded else 0.0
            return CostEstimate(out,
                                child.cost + reduce_cost + rounds * out * n)
        if isinstance(plan, PowersetJoin):
            children = [self.estimate(op) for op in plan.operands]
            subsets = 1.0
            for child in children:
                subsets *= (2.0 ** min(child.cardinality, 40.0)) - 1.0
            out = min(subsets, sum(c.cardinality for c in children) ** 2)
            return CostEstimate(out,
                                sum(c.cost for c in children) + subsets)
        if isinstance(plan, AnchoredSpans):
            # One pass over the keyword nodes: each takes part in at
            # most the partials the size bound lets it grow into
            # (2^(β-1), a node per step), and never in more than there
            # are keyword nodes to combine it with.
            n = float(sum(self.term_cardinality(term)
                          for term in plan.terms))
            bound = necessary_bound(plan.predicate)
            depth = bound[0] - 1.0 if bound is not None else n
            partials = n * min(n, 2.0 ** min(depth, 30.0))
            out = min(partials, n * n)
            if not isinstance(plan.predicate, TrueFilter):
                out *= self.filter_selectivity
            return CostEstimate(out, n + partials)
        raise TypeError(f"unknown plan node {type(plan).__name__}")
