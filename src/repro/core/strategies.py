"""Query evaluation strategies (paper Section 4).

A strategy is a plan, not a code path: :func:`plan_for` maps each to
its logical plan, and :func:`evaluate` drains one run of that plan
(:class:`~repro.core.evaluator.FragmentStream`, which compiles it to
the operators of :mod:`repro.core.evaluator`).  The
strategies produce identical answer sets by Theorems 2 and 3; they
differ — dramatically — in how much work they do:

``BRUTE_FORCE`` (§4.1)
    Enumerate the powerset join directly, then filter.  Exponential in
    the keyword-set sizes; exists as the semantic reference and the
    baseline "for performance comparison with other available
    alternative strategies".

``SET_REDUCTION`` (§4.2)
    Rewrite ``F1 ⋈* F2`` to ``F1+ ⋈ F2+`` (Theorem 2) and compute each
    fixed point in exactly ``|⊖(Fi)|`` rounds (Theorem 1), then filter.

``PUSHDOWN`` (§4.3)
    Additionally push the anti-monotonic conjuncts of the predicate
    below every join (Theorem 3), pruning doomed fragments as early as
    possible, over semi-naive fixed points; the remaining conjuncts are
    selected once, on top.  Falls back to ``SEMI_NAIVE`` behaviour for
    a filter with no anti-monotonic conjunct (results stay identical;
    only the opportunity for early pruning is lost).

``SEMI_NAIVE``
    ``SET_REDUCTION`` with semi-naive fixed-point iteration instead of
    the Theorem-1 bound — the paper's §3.1.1 'naive solution' upgraded
    with frontier-only joining.  Useful for measuring what the
    Theorem-1 bound buys (ablation S2/S6).

``ANCHORED`` (not in the paper)
    No join at all: one :class:`~repro.core.plan.AnchoredSpans` leaf
    enumerates the keyword-anchored subtrees bottom-up
    (:mod:`repro.core.anchored`, docs/theory.md), pruned by the
    predicate's necessary bound.  The same answers as the four §4
    strategies; the default of the collection, pool, server and CLI.
    The §4 strategies stay selectable, so the paper's algebra is still
    what ``bench_fig*`` and the differential matrix measure.
"""

from __future__ import annotations

import enum
import logging
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import QueryError
from ..obs import Observability
from .algebra import JoinCache
from .evaluator import FragmentStream, PlanAnalysis, run_plan
from .fragment import Fragment
from .filters import Filter
from .optimizer import OptimizerSettings, optimize, select_pushed
from .plan import AnchoredSpans, PlanNode, initial_plan
from .query import Query, QueryResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..guard.budget import QueryBudget
    from ..index.inverted import InvertedIndex
    from ..xmltree.document import Document

__all__ = ["Strategy", "evaluate", "answer", "plan_for", "explain_analyze"]

logger = logging.getLogger("repro.strategies")


class Strategy(enum.Enum):
    """Named evaluation strategies; see the module docstring."""

    BRUTE_FORCE = "brute-force"
    SET_REDUCTION = "set-reduction"
    PUSHDOWN = "pushdown"
    SEMI_NAIVE = "semi-naive"
    ANCHORED = "anchored"

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        """Look a strategy up by its value or (case-insensitive) name."""
        needle = name.strip().lower().replace("_", "-")
        for strategy in cls:
            if needle in (strategy.value, strategy.name.lower()):
                return strategy
        raise QueryError(f"unknown strategy {name!r}; expected one of "
                         f"{[s.value for s in cls]}")


def evaluate(document: "Document", query: Query,
             strategy: Strategy = Strategy.PUSHDOWN,
             index: Optional["InvertedIndex"] = None,
             cache: Optional[JoinCache] = None,
             max_brute_force_operand: int = 16,
             keyword_source: Optional[
                 Callable[[str], frozenset[Fragment]]] = None,
             obs: Optional[Observability] = None,
             # Accepted and ignored, for benchmarks/serving/layers.py:360-364
             kernel: Optional[str] = None,
             budget: Optional["QueryBudget"] = None) -> QueryResult:
    """Evaluate ``query`` against ``document`` with the given strategy.

    Returns a :class:`~repro.core.query.QueryResult` carrying the answer
    set, wall-clock time and operation counters.  All strategies return
    the same ``fragments`` (Theorems 2 and 3); tests assert this.

    Parameters
    ----------
    index:
        Optional inverted index; avoids a document scan per term and
        enables rarest-first term ordering.
    cache:
        Optional :class:`~repro.core.algebra.JoinCache`: each keyword's
        fixed point is memoised there and replayed by later queries.
    max_brute_force_operand:
        Safety limit on keyword-set size for the brute-force strategy.
    keyword_source:
        Optional override for ``σ_{keyword=term}``; the relational
        backend passes its SQL-backed lookup here.
    obs:
        Optional :class:`~repro.obs.Observability` handle; when enabled,
        the evaluation is wrapped in an ``execute`` span (with ``scan``
        and per-strategy child spans) and recorded once, as a request
        of one: per-query metrics plus, when the handle has a flight
        recorder, one profile with the plan's label, CPU time and the
        §5 predicted cost of the plan.
    budget:
        Optional :class:`~repro.guard.QueryBudget`: cooperative
        checkpoints inside the operators raise
        :class:`~repro.errors.BudgetExceeded` when the query blows
        past its deadline or operation limits.  ``None`` (the default)
        is the unguarded path, byte-for-byte the pre-guard behaviour.
    """
    result = FragmentStream(
        document, query, _physical_plan(query, strategy, index),
        strategy.value, index=index, cache=cache, obs=obs, budget=budget,
        keyword_source=keyword_source,
        max_powerset_operand=max_brute_force_operand).result()
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "%s evaluated %s: %d answers, %d joins, %d pruned, %.2fms",
            strategy.value, query.describe(), len(result.fragments),
            result.stats["fragment_joins"],
            result.stats["fragments_discarded"], result.elapsed * 1000)
    return result


def plan_for(query: Query,
             strategy: Strategy = Strategy.PUSHDOWN) -> PlanNode:
    """The logical plan a Section-4 strategy executes for ``query``.

    :func:`evaluate` compiles and drains exactly this plan (over the
    query's terms ordered rarest-first when it has an index), so what
    is costed and explained is what is run.  ``BRUTE_FORCE`` is the
    canonical ``σ_P(scan ⋈* … ⋈* scan)`` plan; the other strategies are
    the optimizer's Theorem-2 rewrite with push-down and fixed-point
    bounding toggled to match:

    * ``SET_REDUCTION`` — bounded fixed points, no push-down;
    * ``SEMI_NAIVE`` — semi-naive fixed points, no push-down;
    * ``PUSHDOWN`` — semi-naive fixed points with Theorem-3 push-down.

    ``ANCHORED`` is no rewrite of the algebra but one join-free leaf,
    ``AnchoredSpans(terms, predicate)``.
    """
    if strategy is Strategy.BRUTE_FORCE:
        return initial_plan(query)
    if strategy is Strategy.ANCHORED:
        return AnchoredSpans(query.terms, query.predicate)
    return optimize(query, OptimizerSettings(
        push_down=strategy is Strategy.PUSHDOWN,
        bounded_fixed_points=strategy is Strategy.SET_REDUCTION))


def _physical_plan(query: Query, strategy: Strategy,
                   index: Optional["InvertedIndex"],
                   extra_predicate: Optional[Filter] = None) -> PlanNode:
    """:func:`plan_for` over the terms in ascending document frequency.

    Join chains are left-deep in term order, and rarest-first keeps
    the intermediate fragment sets small.  ``extra_predicate`` is one
    more selection over the strategy's plan, its anti-monotonic part
    pushed below the joins whatever the strategy; an ``ANCHORED`` leaf
    takes it into its own predicate.
    """
    if index is not None:
        query = Query(tuple(index.rarest_first(query.terms)),
                      query.predicate)
    if strategy is Strategy.ANCHORED and extra_predicate is not None:
        query, extra_predicate = Query(
            query.terms, query.predicate & extra_predicate), None
    plan = plan_for(query, strategy)
    if extra_predicate is not None:
        plan = select_pushed(extra_predicate, plan, reselect=False)
    return plan


def explain_analyze(document: "Document", query: Query,
                    strategy: Strategy = Strategy.PUSHDOWN,
                    index: Optional["InvertedIndex"] = None,
                    cache: Optional[JoinCache] = None,
                    obs: Optional[Observability] = None,
                    plan: Optional[PlanNode] = None,
                    analysis: Optional[PlanAnalysis] = None,
                    budget: Optional["QueryBudget"] = None
                    ) -> tuple[QueryResult, PlanAnalysis]:
    """EXPLAIN ANALYZE: run ``query`` through its strategy's plan.

    Runs the plan :func:`evaluate` runs, through the same operators,
    timed: each operator records its runtime statistics (fragments
    in/out, joins, replayed fixed points, predicate checks, pushdown
    discards, self/total time), and their counters sum to ``evaluate(...).stats``.
    Returns ``(result, analysis)``.  Render the analysis with
    ``explain(plan, analyze=analysis)`` — the analysed plan is
    ``analysis.plan``.

    ``plan``/``analysis`` may be supplied to accumulate many executions
    (e.g. every document of a collection) into one analysis; the
    analysis must have been built from the *same* plan object.
    """
    if plan is None:
        plan = analysis.plan if analysis is not None \
            else _physical_plan(query, strategy, index)
    if analysis is None:
        analysis = PlanAnalysis(plan)
    elif analysis.plan is not plan:
        raise QueryError("analysis was built for a different plan; "
                         "pass the plan object it analyses")
    return run_plan(document, query, plan, index=index, cache=cache,
                    strategy_name=strategy.value, obs=obs,
                    analysis=analysis, budget=budget), analysis


def answer(document: "Document", *terms: str,
           predicate=None,
           strategy: Strategy = Strategy.PUSHDOWN,
           index: Optional["InvertedIndex"] = None) -> QueryResult:
    """One-call convenience API: ``answer(doc, "xquery", "optimization")``."""
    query = Query.of(*terms, predicate=predicate)
    return evaluate(document, query, strategy=strategy, index=index)
