"""Pre-admission cost screening.

Before any evaluation work runs, a query can be screened against a
configurable cost ceiling using the Section-5
:class:`~repro.core.cost.CostModel`: the logical plan the requested
strategy would execute (:func:`repro.core.strategies.plan_for`) is
costed per document and summed over the collection.  A query over the
ceiling is either *downgraded* to a cheaper strategy (by default the
join-free anchored strategy, whose single pass the screen prices
lowest) when that fits, or *rejected* with a structured
:class:`~repro.errors.AdmissionRejected` — the database-style admission
control the ROADMAP's serving goal needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from ..core.cost import CostModel
from ..core.query import Query
from ..core.strategies import Strategy, plan_for
from ..errors import AdmissionRejected

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..index.inverted import InvertedIndex
    from ..xmltree.document import Document

__all__ = ["AdmissionPolicy", "AdmissionDecision", "screen",
           "screen_models", "plan_cost"]

ADMIT = "admit"
DOWNGRADE = "downgrade"
REJECT = "reject"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Ceiling + downgrade rule for the pre-admission screen.

    Parameters
    ----------
    max_cost:
        Maximum summed :class:`~repro.core.cost.CostEstimate` cost a
        query's plan may carry over the screened documents.
    downgrade_to:
        Strategy to fall back to when the requested strategy is over
        the ceiling but this one is not; ``None`` disables downgrading
        (over-ceiling queries are rejected outright).
    """

    max_cost: float
    downgrade_to: Optional[Strategy] = Strategy.ANCHORED

    def __post_init__(self) -> None:
        if self.max_cost <= 0:
            raise ValueError("max_cost must be positive")


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of the screen: admit, downgrade or reject.

    ``strategy`` is the strategy the query should actually run with
    (the requested one when admitted, the policy's ``downgrade_to``
    when downgraded).  ``estimated_cost`` prices that strategy;
    ``requested_cost`` always prices the *requested* strategy.
    """

    decision: str
    strategy: Strategy
    estimated_cost: float
    requested_cost: float
    max_cost: float

    @property
    def admitted(self) -> bool:
        return self.decision != REJECT

    @property
    def downgraded(self) -> bool:
        return self.decision == DOWNGRADE

    def raise_if_rejected(self) -> "AdmissionDecision":
        """Raise :class:`AdmissionRejected` for a rejecting decision."""
        if self.decision == REJECT:
            raise AdmissionRejected(
                f"query rejected by admission control: estimated cost "
                f"{self.estimated_cost:.0f} exceeds the ceiling of "
                f"{self.max_cost:.0f}",
                estimated_cost=self.estimated_cost,
                max_cost=self.max_cost)
        return self

    def to_dict(self) -> dict:
        return {"decision": self.decision,
                "strategy": self.strategy.value,
                "estimated_cost": self.estimated_cost,
                "requested_cost": self.requested_cost,
                "max_cost": self.max_cost}


def plan_cost(query: Query, strategy: Strategy, document: "Document",
              index: Optional["InvertedIndex"] = None) -> float:
    """The Section-5 predicted cost of running ``strategy`` for
    ``query`` against one ``document``.

    The single costing primitive shared by admission control and the
    flight recorder's predicted-vs-measured calibration, so both read
    the same number for the same plan.
    """
    plan = plan_for(query, strategy)
    return CostModel(document, index=index).estimate(plan).cost


def screen(policy: AdmissionPolicy, query: Query, strategy: Strategy,
           documents: Iterable["Document"],
           index_for: Optional[Callable[["Document"],
                                        Optional["InvertedIndex"]]] = None
           ) -> AdmissionDecision:
    """Screen ``query`` against ``policy`` before running any work.

    Parameters
    ----------
    policy:
        Ceiling and downgrade rule.
    query / strategy:
        The query and the strategy the caller wants to run.
    documents:
        The documents the query would be evaluated against (consumed
        once; a generator keeps one tree alive at a time).
    index_for:
        Optional ``document -> InvertedIndex | None`` lookup; with an
        index the cost model uses exact term frequencies.
    """
    return screen_models(policy, query, strategy, (
        CostModel(document, index=(index_for(document)
                                   if index_for is not None else None))
        for document in documents))


def screen_models(policy: AdmissionPolicy, query: Query,
                  strategy: Strategy,
                  models: Iterable[CostModel]) -> AdmissionDecision:
    """:func:`screen` over one ready :class:`~repro.core.cost.CostModel`
    per document, in a single pass.

    The requested strategy's plan and the policy's downgrade plan are
    both priced against each model while it is in hand, so a caller
    that materialises documents lazily (a collection over a shard
    index) touches each one once however the decision falls.
    """
    downgrade = policy.downgrade_to
    if downgrade is strategy:
        downgrade = None
    plans = [plan_for(query, candidate)
             for candidate in (strategy, downgrade)
             if candidate is not None]
    costs = [0.0] * len(plans)
    for model in models:
        for i, plan in enumerate(plans):
            costs[i] += model.estimate(plan).cost
    requested_cost = costs[0]
    if requested_cost <= policy.max_cost:
        return AdmissionDecision(ADMIT, strategy, requested_cost,
                                 requested_cost, policy.max_cost)
    if downgrade is not None and costs[1] <= policy.max_cost:
        return AdmissionDecision(DOWNGRADE, downgrade, costs[1],
                                 requested_cost, policy.max_cost)
    return AdmissionDecision(REJECT, strategy, requested_cost,
                             requested_cost, policy.max_cost)
