"""Execute logical plans against a document (physical evaluation).

The one engine of the library.  A :mod:`repro.core.plan` tree says
*what* to compute; :func:`build_pipeline` compiles it into a tree of
generator :class:`Operator` objects, one per plan node, each wrapping the
loop that defines its algebra operation (:mod:`repro.core.algebra`,
:mod:`repro.core.reduce`, :mod:`repro.core.filters`).  Iterating the
root pulls answer fragments through the tree on demand, and one driver
does that for every entry point (:class:`FragmentStream`): draining it
into a ``frozenset`` is materialised evaluation
(:func:`~repro.core.strategies.evaluate`, :func:`run_plan`), abandoning
it early is top-k (:mod:`repro.core.streaming`), and reading the
per-operator :class:`OperatorRunStats` the operators fill while they
run is EXPLAIN ANALYZE.  The plan *shape* is the only thing that changes
between the strategies being compared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import attrgetter
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, Optional,
                    Sequence, Sized)

from ..errors import BudgetExceeded, PlanError
from ..obs import (GUARD_BUDGET_EXCEEDED, NOOP, NULL_SPAN, STREAM_ROWS,
                   Observability)
from .algebra import (JoinCache, _iter_multiway_powerset_join,
                      _iter_pairwise_join)
from .anchored import iter_anchored_spans
from .cost import CostModel
from .filters import _iter_select, _value_key, necessary_bound
from .fragment import Fragment
from .plan import (AnchoredSpans, FixedPoint, KeywordScan, PairwiseJoin,
                   PlanNode, PowersetJoin, Select)
from .query import Query, QueryResult, keyword_fragments
from .reduce import _iter_fixed_point, _iter_fixed_point_bounded
from .stats import COUNTERS, OperationStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..guard.budget import QueryBudget
    from ..index.inverted import InvertedIndex
    from ..xmltree.document import Document

__all__ = ["OperatorRunStats", "PlanAnalysis", "Operator", "ScanOp",
           "SelectOp", "JoinOp", "FixpointOp", "PowersetOp", "AnchoredOp",
           "build_pipeline", "Request", "FragmentStream", "PlanEvaluator",
           "run_plan"]


@dataclass
class OperatorRunStats:
    """Accumulated runtime measurements for one plan operator.

    One instance per plan-tree position.  The operator compiled from
    that position counts its own work here while it runs — ``rows`` it
    emitted, and the :data:`~repro.core.stats.COUNTERS` it shares with
    :class:`OperationStats` (the algebra loops bump them on whichever
    of the two they are handed): joins computed and pruned unbuilt,
    fixed points replayed from the memo, predicate checks, subset
    checks, discards, iterations — so a query's totals are the sum over
    its operators.  Executing the same plan over many documents (a
    collection EXPLAIN ANALYZE) accumulates into the same instances,
    with ``calls`` counting executions; the two ``*_seconds`` are
    measured only by analysed executions.
    """

    label: str
    depth: int
    children: tuple[int, ...]
    calls: int = 0
    rows: int = 0
    fragment_joins: int = 0
    join_cache_hits: int = 0
    joins_pruned: int = 0
    predicate_checks: int = 0
    subset_checks: int = 0
    fragments_discarded: int = 0
    iterations: int = 0
    partials: int = 0
    partials_pruned: int = 0
    self_seconds: float = 0.0
    total_seconds: float = 0.0

    def to_dict(self) -> dict:
        record = {"label": self.label, "depth": self.depth,
                  "calls": self.calls, "rows": self.rows}
        for name in COUNTERS:
            record[name] = getattr(self, name)
        record["self_seconds"] = self.self_seconds
        record["total_seconds"] = self.total_seconds
        return record


#: One operator's counters, in :data:`COUNTERS` order.
_COUNTS = attrgetter(*COUNTERS)


class PlanAnalysis:
    """Per-operator runtime statistics for one plan — EXPLAIN ANALYZE.

    Built from a plan tree (one stats slot per operator, preorder) and
    filled in by the operators :func:`build_pipeline` compiles from it:
    fragments in/out, join, replay and predicate counters, pushdown
    discards, and (for analysed executions) self/total seconds
    per operator.  Render it through :func:`repro.core.plan.explain`
    with ``analyze=``.

    One analysis describes one execution; :meth:`merge` folds analyses
    of equal shape together, which is how every document of a collection
    (and every worker of the parallel path) accumulates into one.
    """

    def __init__(self, plan: PlanNode) -> None:
        self.plan = plan
        #: The plan's nodes, preorder; ``operators[i]`` measures
        #: ``nodes[i]``.
        self.nodes: list[PlanNode] = []
        self.operators: list[OperatorRunStats] = []
        self._build(plan, 0)

    def _build(self, node: PlanNode, depth: int) -> int:
        slot = len(self.nodes)
        run = OperatorRunStats(node.label(), depth, ())
        self.nodes.append(node)
        self.operators.append(run)
        run.children = tuple([self._build(child, depth + 1)
                              for child in node.children()])
        return slot

    def rows_in(self, slot: int) -> int:
        """Fragments consumed by one operator (its children's output)."""
        return sum(self.operators[child].rows
                   for child in self.operators[slot].children)

    def totals(self) -> OperationStats:
        """The whole plan's work: every counter summed over operators."""
        columns = zip(*map(_COUNTS, self.operators))
        return OperationStats(**dict(zip(COUNTERS, map(sum, columns))))

    def as_dict(self) -> dict:
        """:meth:`totals` as a plain dict — what a budget bound to a
        running analysis reports as partial progress."""
        return self.totals().as_dict()

    def merge(self, other: "PlanAnalysis") -> None:
        """Accumulate another analysis of the same plan shape."""
        if [op.label for op in self.operators] \
                != [op.label for op in other.operators]:
            raise PlanError("cannot merge analyses of different plans")
        for op, theirs in zip(self.operators, other.operators):
            for name in ("calls", "rows", "self_seconds",
                         "total_seconds") + COUNTERS:
                setattr(op, name, getattr(op, name) + getattr(theirs, name))

    def render(self, indent: str = "  ",
               cost_model: Optional[CostModel] = None) -> str:
        """The analysed plan, one operator per line.

        With a ``cost_model``, each line also shows the *estimated*
        cardinality so estimation error is visible at a glance.
        Example::

            σa[size<=3]      rows=4   in=11  1.10ms self=0.20ms checks=11 pruned=7
              ⋈              rows=11  in=6   0.90ms self=0.45ms joins=14
        """
        entries = []
        for slot, op in enumerate(self.operators):
            label = f"{indent * op.depth}{op.label}"
            entries.append((slot, op, label))
        width = max((len(label) for _, _, label in entries), default=0) + 2
        lines = []
        for slot, op, label in entries:
            parts = [f"rows={op.rows:<5}", f"in={self.rows_in(slot):<5}",
                     f"{op.total_seconds * 1000:7.2f}ms",
                     f"self={op.self_seconds * 1000:7.2f}ms"]
            if op.calls != 1:
                parts.append(f"calls={op.calls}")
            if op.fragment_joins:
                parts.append(f"joins={op.fragment_joins}")
            if op.joins_pruned:
                parts.append(f"joins_pruned={op.joins_pruned}")
            if op.predicate_checks:
                parts.append(f"checks={op.predicate_checks}")
            if op.fragments_discarded:
                parts.append(f"pruned={op.fragments_discarded}")
            if op.subset_checks:
                parts.append(f"subset={op.subset_checks}")
            if op.iterations:
                parts.append(f"iters={op.iterations}")
            if op.join_cache_hits:
                parts.append(f"replayed={op.join_cache_hits}")
            if op.partials:
                parts.append(f"partials={op.partials}")
            if op.partials_pruned:
                parts.append(f"partials_pruned={op.partials_pruned}")
            if cost_model is not None:
                estimate = cost_model.estimate(self.nodes[slot])
                parts.append(f"est.rows={estimate.cardinality:.0f}")
            lines.append(f"{label.ljust(width)}{'  '.join(parts)}")
        return "\n".join(lines)

    def to_dicts(self) -> list[dict]:
        """Plain-dict form, one record per operator (preorder)."""
        records = []
        for slot, op in enumerate(self.operators):
            record = op.to_dict()
            record["rows_in"] = self.rows_in(slot)
            records.append(record)
        return records


class _Clock:
    """Attributes wall time to whichever operator is running.

    Operators nest (a join's ``next`` pulls its fixed point's ``next``),
    so the clock keeps the stack of operators currently inside a call
    and, at every switch, charges the time since the previous switch to
    the innermost one: exact self times, one clock read per switch.
    """

    def __init__(self) -> None:
        self._running: list[OperatorRunStats] = []
        self._mark = 0.0

    def _switch(self) -> None:
        now = time.perf_counter()
        if self._running:
            self._running[-1].self_seconds += now - self._mark
        self._mark = now

    def enter(self, run: OperatorRunStats) -> None:
        self._switch()
        self._running.append(run)

    def leave(self) -> None:
        self._switch()
        self._running.pop()


class Operator:
    """One node of a compiled plan: an iterable of distinct fragments.

    Operators compose producer→consumer: iterating an operator pulls
    from its ``children`` on demand, so abandoning the iterator (top-k
    satisfied, budget spent, client went away) stops the whole pipeline
    without computing the rest of the answer set.  Subclasses supply
    :meth:`_produce`, the generator of their algebra operation, handing
    it ``run`` — the operator's :class:`OperatorRunStats` — as the
    ``stats`` it counts into; the base class counts emitted ``rows``.
    """

    label = "operator"
    #: The complete output, for operators resolved when the pipeline is
    #: built (scans, and selections directly over them).
    fragments: Optional[frozenset[Fragment]] = None

    def __init__(self, node: PlanNode, run: OperatorRunStats,
                 children: Sequence["Operator"],
                 budget: Optional["QueryBudget"],
                 clock: Optional[_Clock] = None) -> None:
        self.node = node
        self.run = run
        self.children = children
        #: Charged by the algebra loops.
        self.budget = budget
        #: Given on analysed executions, to time the operator.
        self.clock = clock

    def _produce(self) -> Iterator[Fragment]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Fragment]:
        return iter(self.output)

    @property
    def output(self) -> Iterable[Fragment]:
        """What a consumer reads: the resolved set itself when there is
        one (a copy would iterate in another order), else a fresh run
        of the operator."""
        return self.fragments if self.fragments is not None \
            else self._rows()

    def _rows(self) -> Iterator[Fragment]:
        run, clock, produce = self.run, self.clock, self._produce()
        if clock is None:
            for fragment in produce:
                run.rows += 1
                yield fragment
            return
        while True:
            clock.enter(run)
            try:
                fragment = next(produce, None)
            finally:
                clock.leave()
            if fragment is None:
                return
            run.rows += 1
            yield fragment

    def counters(self) -> dict:
        """Plain-dict row accounting for telemetry."""
        return {"operator": self.label,
                "rows_in": sum(child.run.rows for child in self.children),
                "rows_out": self.run.rows}


class ScanOp(Operator):
    """``σ_{keyword=term}(nodes(D))``, resolved when the pipeline is
    built: it is the leaf input, and the conjunctive early exit needs
    its emptiness before anything runs."""

    label = "scan"


class SelectOp(Operator):
    """``σ_P`` applied fragment-by-fragment, mid-stream — or at once,
    over an input that is already resolved: a selection stacked on a
    scan is part of the leaf."""

    label = "select"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.children[0].fragments is not None:
            self.fragments = frozenset(self._rows())

    def _produce(self) -> Iterator[Fragment]:
        return _iter_select(self.node.predicate, self.children[0].output,
                            stats=self.run)


class JoinOp(Operator):
    """``left ⋈ right``: the left side is drained first (a fixed point
    must complete before its join partner can be exhaustive anyway),
    then each right-hand fragment joins against it as it arrives.  An
    empty left side never consumes the right producer."""

    label = "join"
    #: What the selections compiled directly over this join are bound
    #: to reject (their ``necessary_bound``): such a pair is not joined.
    bound: Optional[tuple] = None

    def _produce(self) -> Iterator[Fragment]:
        left, right = self.children
        return _iter_pairwise_join(left.output, right.output,
                                   stats=self.run, bound=self.bound,
                                   budget=self.budget)


class FixpointOp(Operator):
    """``F+`` (Definition 9) emitted round by round: Theorem-1 bounded
    rounds or semi-naive iteration, pruned by an optional anti-monotonic
    predicate (Theorem 3), whose ``necessary_bound`` also keeps doomed
    pairs from being joined.  Every surviving fragment is yielded the
    moment its round produces it, so downstream joins start before the
    closure finishes.

    Given a memo, a closure over a resolved base of two or more
    fragments — a scan, or selections over one — is keyed by the
    document token, the base's node sets, the mode and the value of the
    pruning predicate, and replayed whole when it was memoised before:
    the same fragments, in the same order, with no join.
    """

    label = "fixpoint"
    #: The run's closure memo (``None``: every closure is computed).
    memo: Optional[JoinCache] = None

    def _produce(self) -> Iterator[Fragment]:
        node, memo = self.node, self.memo
        base = self.children[0].fragments
        # A closure is a function of the document, the base's node sets
        # and (mode, predicate) alone; a one-fragment base is already
        # closed (f ⋈ f = f) and not worth a lookup.
        if memo is not None and base is not None and len(base) > 1:
            prune = (() if node.predicate is None
                     else _value_key(node.predicate))
            if prune is not None:  # no caller-named callable inside
                document = next(iter(base))._doc
                return self._memoised(memo, document, (
                    document.token,
                    frozenset([fragment._nodes for fragment in base]),
                    node.bounded, prune))
        return self._closure()

    def _closure(self) -> Iterator[Fragment]:
        closure = (_iter_fixed_point_bounded if self.node.bounded
                   else _iter_fixed_point)
        return closure(self.children[0].output, stats=self.run,
                       predicate=self.node.predicate, budget=self.budget)

    def _memoised(self, memo: JoinCache, document: "Document",
                  key: tuple) -> Iterator[Fragment]:
        """The closure replayed from ``memo``, or computed and stored
        there once it has run to completion — a closure abandoned by
        its consumer or aborted by the budget is not stored.

        A replay considers no pair, so it charges the budget no join
        operations; it checks the whole closure against the
        live-fragment ceiling once, which aborts exactly when the
        computed closure's last round would have.
        """
        closure = memo.closure(key)
        if closure is not None:
            if self.budget is not None:
                self.budget.admit_live(len(closure))
            self.run.join_cache_hits += 1
            for nodes in closure:
                yield Fragment._trusted(document, nodes)
            return
        emitted = []
        for fragment in self._closure():
            emitted.append(fragment._nodes)
            yield fragment
        memo.put_closure(key, tuple(emitted))


class PowersetOp(Operator):
    """Brute-force m-ary powerset join, enumerated incrementally, so
    even the semantic-reference strategy streams."""

    label = "powerset"
    #: Refuse operands larger than this (``None``: no limit).
    max_operand_size: Optional[int] = 16

    def _produce(self) -> Iterator[Fragment]:
        return _iter_multiway_powerset_join(
            [child.output for child in self.children], stats=self.run,
            max_operand_size=self.max_operand_size, budget=self.budget)


class AnchoredOp(Operator):
    """The whole ``σ_P(F1 ⋈* … ⋈* Fm)`` with no join: the keyword-anchored
    subtrees (:func:`~repro.core.anchored.iter_anchored_spans`).  A leaf:
    its term lists are resolved when the pipeline is built, like a
    scan's, so an empty one is the conjunctive early exit."""

    label = "anchored"
    #: Each term's keyword node ids, in the plan's term order.
    keyword_nodes: Sequence[Sequence[int]] = ()
    document: Optional["Document"] = None

    def _produce(self) -> Iterator[Fragment]:
        return iter_anchored_spans(self.document, self.keyword_nodes,
                                   self.node.predicate, stats=self.run,
                                   budget=self.budget)


_OPERATORS = {KeywordScan: ScanOp, Select: SelectOp, PairwiseJoin: JoinOp,
              FixedPoint: FixpointOp, PowersetJoin: PowersetOp,
              AnchoredSpans: AnchoredOp}


def build_pipeline(document: "Document", analysis: PlanAnalysis, *,
                   index: Optional["InvertedIndex"] = None,
                   keyword_source: Optional[
                       Callable[[str], frozenset[Fragment]]] = None,
                   cache: Optional[JoinCache] = None,
                   budget: Optional["QueryBudget"] = None,
                   timed: bool = False,
                   max_powerset_operand: Optional[int] = 16
                   ) -> tuple[Iterable[Fragment], list[Operator]]:
    """Compile ``analysis.plan`` into operators that count into it.

    Returns ``(emit, operators)``: the iterable of the plan's distinct
    answer fragments, and every operator built, for row accounting.
    ``analysis`` must be fresh; ``timed`` additionally measures each
    operator's ``self_seconds``.

    Leaves are resolved here rather than on first pull: every keyword
    scan, then — in plan order — each selection stacked directly on one.
    Every operator of the algebra maps an empty input to an empty
    output, so one empty leaf empties the answer and ``emit`` is empty
    before any fixed point or join has run.  That is the conjunctive
    early exit: a term with no matches, or (Theorem 3) a pushed
    anti-monotonic filter that rejects every keyword node of a term.
    """
    clock = _Clock() if timed else None
    nodes, runs = analysis.nodes, analysis.operators
    operators: list[Operator] = []

    def make(slot: int, children: Sequence[Operator]) -> Operator:
        node = nodes[slot]
        try:
            cls = _OPERATORS[type(node)]
        except KeyError:
            raise PlanError(
                f"unknown plan node {type(node).__name__}") from None
        operator = cls(node, runs[slot], children, budget, clock)
        operators.append(operator)
        return operator

    def keyword_nodes(term: str) -> Sequence[int]:
        if keyword_source is not None:
            return [fragment.root for fragment in keyword_source(term)]
        if index is not None:
            return index.postings(term)
        return document.nodes_with_keyword(term)

    scans: dict[int, Operator] = {}
    inputs: list[Sized] = []  # every leaf's input set
    for slot, node in enumerate(nodes):
        runs[slot].calls += 1
        if isinstance(node, KeywordScan):
            scan = scans[slot] = make(slot, ())
            if clock is not None:
                clock.enter(scan.run)
            scan.fragments = (keyword_source(node.term)
                              if keyword_source is not None
                              else keyword_fragments(document, node.term,
                                                     index=index))
            if clock is not None:
                clock.leave()
            scan.run.rows += len(scan.fragments)
            inputs.append(scan.fragments)
        elif isinstance(node, AnchoredSpans):
            anchored = scans[slot] = make(slot, ())
            if clock is not None:
                clock.enter(anchored.run)
            anchored.document = document
            anchored.keyword_nodes = [keyword_nodes(term)
                                      for term in node.terms]
            if clock is not None:
                clock.leave()
            inputs.extend(anchored.keyword_nodes)
    if budget is not None:
        # Catch pathological dense-keyword queries before any join
        # work: the candidate ceiling applies to every input set.
        for fragments in inputs:
            budget.admit_candidates(len(fragments))
        budget.check_deadline()
    if not all(inputs):
        return (), operators

    def compile(slot: int, above=None) -> Optional[Operator]:
        """The operator for one plan node, or None once a leaf is empty.

        ``above`` is the conjunction of the selections stacked directly
        over the node: everything it emits passes through them next.
        """
        if slot in scans:
            return scans[slot]
        node = nodes[slot]
        below = None
        if isinstance(node, Select):
            below = (node.predicate if above is None
                     else above & node.predicate)
        sources = []
        for child in runs[slot].children:
            source = compile(child, below)
            if source is None:
                return None
            sources.append(source)
        operator = make(slot, sources)
        if isinstance(operator, JoinOp):
            operator.bound = necessary_bound(above)
        elif isinstance(operator, FixpointOp):
            operator.memo = cache
        elif isinstance(operator, PowersetOp):
            operator.max_operand_size = max_powerset_operand
        if operator.fragments is not None and not operator.fragments:
            return None  # an empty leaf
        return operator

    emit = compile(0)
    return (emit if emit is not None else ()), operators


class Request:
    """One request — the unit the engine records, once.

    A collection search (materialised, streamed or limited), a ranked
    search, an EXPLAIN ANALYZE, one query of a pooled batch or one
    single-document evaluation.  Its runs (:class:`FragmentStream`)
    fold their answers, counters and §5 prediction in and record
    nothing; a pool adds its rows and priced totals (:meth:`add`).  The
    layer that opens a request finishes it, and :meth:`finish` is the
    one ``record_query`` call — as a context manager, when its block
    ends, under its ``root`` span if it names one.  ``target`` names
    what was searched; ``source`` names each drained run's shard on its
    ``execute`` span; ``priced`` (default: the handle has a recorder)
    prices each run.
    """

    __slots__ = ("obs", "target", "query", "label", "streamed", "source",
                 "priced", "answers", "stats", "predicted", "cpu_s",
                 "plan", "names", "span", "_root", "_budget", "_started",
                 "_cpu_started", "_memory", "_finished")

    def __init__(self, obs: Observability, target: str,
                 query: Optional[Query], label: str, *, source=None,
                 budget: Optional["QueryBudget"] = None,
                 streamed: bool = False, priced: Optional[bool] = None,
                 root: Optional[str] = None) -> None:
        self.obs, self.target, self.query = obs, target, query
        self.label, self.streamed, self.source = label, streamed, source
        self.span, self._root = None, root
        recorder = obs.recorder
        self.priced = recorder is not None if priced is None else priced
        self.answers, self.stats, self.cpu_s = 0, {}, 0.0
        self.predicted: Optional[float] = None
        self.plan: Optional[str] = None
        self.names: set = set()  # the documents evaluated
        self._budget, self._finished = budget, False
        self._memory = (recorder.begin_memory() if recorder is not None
                        else False)
        self._cpu_started = time.thread_time()
        self._started = time.perf_counter()

    def __enter__(self) -> "Request":
        if self._root is not None:
            self.span = self.obs.span(self._root,
                                      target=self.target).__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # A consumer walking away (GeneratorExit) ends it as ``ok``.
        if self.span is not None:
            self.span.__exit__(exc_type, exc, tb)
        self.finish(exc, self.span)
        return False

    def where(self, document: "Document") -> dict:
        """A drained run's document and shard, inside a collection."""
        if self.source is None:
            return {}
        return {"document": document.name,
                "shard": self.source.shard_of(document.name)}

    def fold(self, run: "FragmentStream") -> None:
        """Fold one finished run in."""
        predicted = None
        if self.priced:
            try:
                predicted = CostModel(
                    run._document, index=run._options["index"]
                ).estimate(run.plan).cost
            except Exception:
                # e.g. a keyword_source backend with no real Document:
                # an uncalibrated profile rather than an error.
                pass
        self.streamed |= run._iter is not None  # a pulled run
        self.add(getattr(run._document, "name", "?"), run._answers,
                 run.stats.as_dict(), predicted,
                 plan=None if self.plan else run.plan.label())

    def add(self, name: Optional[str], answers: int, stats: dict,
            predicted: Optional[float], cpu_s: float = 0.0,
            plan: Optional[str] = None) -> None:
        """Add one document's (or a pool's) answers, counters, §5
        prediction (``None``: it could not be priced), thread CPU spent
        elsewhere and plan label."""
        if name is not None:
            self.names.add(name)
        self.answers += answers
        for key, value in stats.items():
            self.stats[key] = self.stats.get(key, 0) + value
        if predicted is None:
            self.priced = False
        elif self.priced:
            self.predicted = (self.predicted or 0.0) + predicted
        self.cpu_s += cpu_s
        self.plan = self.plan or plan

    def finish(self, aborted: Optional[BaseException] = None,
               span=None) -> None:
        """End the request, once, and record it.  ``aborted`` is the
        exception that stopped it (the caller re-raises it); a spent
        budget also counts ``repro_guard_budget_exceeded_total``."""
        if self._finished:
            return
        self._finished = True
        ob = self.obs
        elapsed = time.perf_counter() - self._started
        outcome, reason = "ok", None
        if isinstance(aborted, BudgetExceeded):
            outcome, reason = "budget-exceeded", aborted.reason
            ob.metrics.counter(
                GUARD_BUDGET_EXCEEDED,
                "Queries aborted by a spent QueryBudget.").inc()
        elif isinstance(aborted, Exception):
            outcome, reason = "error", type(aborted).__name__
        cpu_s, peak = self.cpu_s, None
        if ob.recorder is not None:
            cpu_s += time.thread_time() - self._cpu_started
            peak = ob.recorder.end_memory(self._memory)
        query, budget = self.query, self._budget
        ob.record_query(
            document=self.target,
            terms=query.terms if query is not None else (),
            filter=repr(query.predicate) if query is not None else "",
            strategy=("stream-" if self.streamed else "") + self.label,
            answers=self.answers, elapsed=elapsed, stats=self.stats,
            plan=self.plan, cpu_s=cpu_s,
            predicted_cost=self.predicted if self.priced else None,
            peak_memory=peak, documents=len(self.names),
            checkpoints=budget.checkpoints if budget is not None else 0,
            outcome=outcome, reason=reason,
            span=span if ob.tracer.enabled else None)


class FragmentStream:
    """One evaluation of one plan over one document — *the* run.

    Every entry point builds one and either drains it
    (:func:`~repro.core.strategies.evaluate`, :func:`run_plan`, EXPLAIN
    ANALYZE) or hands it over to be pulled
    (:func:`~repro.core.streaming.stream_evaluate`).  The run owns the
    plan's :class:`PlanAnalysis`, binds ``budget`` to it, compiles the
    pipeline on first use and, when it ends — exhausted, closed or
    aborted — folds into its :class:`Request`.  A run handed no
    ``request`` (with live observability) opens its own and finishes
    it: a single-document evaluation is a request of one.  Given an
    ``analysis`` of the same plan, it is timed and folds in.

    Iterating yields each answer fragment exactly once, as it is
    proven: the same set as :meth:`drain`, and abandoning the iterator
    (or :meth:`close`) stops the producers.  A pulled run is a
    *stream*: its request is recorded as ``stream-<label>``, it
    publishes ``repro_stream_rows_total`` per operator and its finished
    ``stats`` carry ``extras["streamed_rows"]``.
    """

    def __init__(self, document: "Document", query: Optional[Query],
                 plan: PlanNode, label: str, *,
                 index: Optional["InvertedIndex"] = None,
                 cache: Optional[JoinCache] = None,
                 obs: Optional[Observability] = None,
                 budget: Optional["QueryBudget"] = None,
                 analysis: Optional[PlanAnalysis] = None,
                 keyword_source: Optional[
                     Callable[[str], frozenset[Fragment]]] = None,
                 max_powerset_operand: Optional[int] = 16,
                 request: Optional[Request] = None) -> None:
        #: ``None`` for a bare plan (:class:`PlanEvaluator`).
        self.query = query
        self.plan = plan
        self.label = label
        self.analysis = PlanAnalysis(plan)
        #: Wall-clock seconds from construction to the end of the run.
        self.elapsed = 0.0
        self._document = document
        self._obs = obs if obs is not None else NOOP
        self._into = analysis
        #: What :func:`build_pipeline` is called with.
        self._options = {"index": index, "keyword_source": keyword_source,
                         "cache": cache, "budget": budget,
                         "timed": analysis is not None,
                         "max_powerset_operand": max_powerset_operand}
        self._pipeline: Optional[tuple] = None
        self._iter: Optional[Iterator[Fragment]] = None  # set by a pull
        self._answers = 0
        self._finished = False
        self._final: Optional[OperationStats] = None  # a drain's totals
        if budget is not None:
            budget.start()
            budget.bind_stats(self.analysis)
        #: Whether this run opened (and so finishes) its request.
        self._owns_request = request is None and self._obs.enabled
        if self._owns_request:
            request = Request(self._obs, getattr(document, "name", "?"),
                              query, label, budget=budget)
        self._request = request
        self._started = time.perf_counter()

    def _open(self) -> tuple[Iterable[Fragment], list[Operator]]:
        """The compiled pipeline ``(emit, operators)``, built once."""
        if self._pipeline is None:
            self._pipeline = build_pipeline(self._document, self.analysis,
                                            **self._options)
        return self._pipeline

    @property
    def operators(self) -> list[Operator]:
        """Every operator of the pipeline (compiles it if need be)."""
        return self._open()[1]

    def __iter__(self) -> "FragmentStream":
        return self

    def __next__(self) -> Fragment:
        if self._finished:
            raise StopIteration
        try:
            if self._iter is None:
                self._iter = iter(self._open()[0])
            fragment = next(self._iter)
        except StopIteration:
            self._finish()
            raise
        except Exception as exc:
            self._finish(aborted=exc)
            raise
        self._answers += 1
        return fragment

    def close(self) -> None:
        """Stop the producers and end the run (idempotent)."""
        closer = getattr(self._iter, "close", None)
        if closer is not None:
            closer()
        self._finish()

    def drain(self) -> frozenset[Fragment]:
        """Run to completion; the answer set.

        The operator iterator feeds the ``frozenset`` directly — no
        Python frame per answer.  With live observability a drain is an
        ``execute`` span over ``scan`` (the leaves, which resolve as the
        pipeline is built) and ``strategy:<label>`` (the pull); inside a
        collection it names its document and shard.  A pulled run opens
        none: no span may stay open while its consumer holds control.
        """
        ob = self._obs
        tally = OperationStats()
        if ob.enabled:
            terms = self.query.terms if self.query is not None else ()
            execute = ob.span("execute", strategy=self.label,
                              terms=" ".join(terms), stats=tally,
                              **self._request.where(self._document))
            scan = ob.span("scan", stats=tally)
            pull = ob.span("strategy:" + self.label, stats=tally)
        else:
            execute = scan = pull = NULL_SPAN
        try:
            with execute as span:
                with scan:
                    emit = self._open()[0]
                with pull:
                    try:
                        fragments = frozenset(emit)
                    finally:
                        # Inside the span, so it reports the work done;
                        # summed once, for the request and the result.
                        tally.merge(self.analysis.totals())
                        self._final = tally
                span.set(answers=len(fragments))
        except Exception as exc:
            # The (closed, error-attributed) execute span is its trace.
            self._finish(aborted=exc, span=execute)
            raise
        self._answers = len(fragments)
        self._finish(span=execute)
        return fragments

    def result(self) -> QueryResult:
        """:meth:`drain`, wrapped as a :class:`QueryResult`."""
        fragments = self.drain()
        return QueryResult(query=self.query, fragments=fragments,
                           strategy=self.label, elapsed=self.elapsed,
                           stats=self.stats.as_dict())

    @property
    def stats(self) -> OperationStats:
        """The work done so far, summed over the operators; a finished
        stream adds ``extras["streamed_rows"]``."""
        if self._final is not None:
            return self._final
        stats = self.analysis.totals()
        if self._finished and self._iter is not None:
            stats.extras["streamed_rows"] = self.streamed_rows
        return stats

    @property
    def streamed_rows(self) -> int:
        """Rows emitted across all operators so far."""
        return sum(run.rows for run in self.analysis.operators)

    def operator_counters(self) -> list[dict]:
        """Per-operator ``rows_in``/``rows_out`` snapshots."""
        return [op.counters() for op in self.operators]

    def _finish(self, aborted: Optional[Exception] = None,
                span=None) -> None:
        """End the run, once: fold a timed run into its analysis and
        the run into its request, finishing a request it opened.
        ``aborted`` is the exception that stopped the run (the caller
        re-raises it), ``span`` a drain's closed ``execute`` span."""
        if self._finished:
            return
        self._finished = True
        self.elapsed = time.perf_counter() - self._started
        if self._into is not None:
            runs = self.analysis.operators
            for run in reversed(runs):  # children first
                run.total_seconds = run.self_seconds + sum(
                    runs[child].total_seconds for child in run.children)
            self._into.merge(self.analysis)
        ob = self._obs
        if not ob.enabled:
            return
        if self._iter is not None:
            for op in self.operators:
                if op.run.rows:
                    ob.metrics.counter(
                        STREAM_ROWS,
                        "Fragments emitted by streaming pipeline "
                        "operators.", labels={"operator": op.label},
                    ).inc(op.run.rows)
        self._request.fold(self)
        if self._owns_request:
            self._request.finish(aborted, span)


class PlanEvaluator:
    """Run logical plans over one document, to a fragment set.

    Parameters
    ----------
    document:
        The document queried by ``KeywordScan`` leaves.
    index:
        Optional inverted index for scans.
    cache:
        Optional :class:`~repro.core.algebra.JoinCache`: fixed points
        memoised across executions.
    max_powerset_operand:
        Guard for ``PowersetJoin`` enumeration (see
        :func:`repro.core.algebra.powerset_join`).
    obs:
        Optional :class:`~repro.obs.Observability` handle; when enabled,
        each :meth:`execute` call is traced and recorded as a request of
        one (:class:`FragmentStream`), under the label ``plan``.
    analysis:
        Optional :class:`PlanAnalysis` built from the plan being
        executed; when given, operators are timed and every execution
        is merged into it — EXPLAIN ANALYZE mode.
    budget:
        Optional :class:`~repro.guard.QueryBudget`; checkpoints inside
        the operators abort plan execution with
        :class:`~repro.errors.BudgetExceeded` when it is spent.
    """

    def __init__(self, document: "Document",
                 index: Optional["InvertedIndex"] = None,
                 cache: Optional[JoinCache] = None,
                 max_powerset_operand: Optional[int] = 16,
                 obs: Optional[Observability] = None,
                 analysis: Optional[PlanAnalysis] = None,
                 budget: Optional["QueryBudget"] = None) -> None:
        self._document = document
        self._options = {"index": index, "cache": cache, "obs": obs,
                         "budget": budget, "analysis": analysis,
                         "max_powerset_operand": max_powerset_operand}

    def execute(self, plan: PlanNode,
                stats: Optional[OperationStats] = None
                ) -> frozenset[Fragment]:
        """Evaluate ``plan`` and return its fragment set."""
        run = FragmentStream(self._document, None, plan, "plan",
                             **self._options)
        try:
            return run.drain()
        finally:
            if stats is not None:
                stats.merge(run.stats)


def run_plan(document: "Document", query: Query, plan: PlanNode,
             index: Optional["InvertedIndex"] = None,
             cache: Optional[JoinCache] = None,
             strategy_name: str = "plan",
             obs: Optional[Observability] = None,
             analysis: Optional[PlanAnalysis] = None,
             budget: Optional["QueryBudget"] = None) -> QueryResult:
    """Execute a plan and wrap the outcome as a :class:`QueryResult`.

    Passing ``analysis=`` (a :class:`PlanAnalysis` of ``plan``) records
    per-operator runtime statistics while the plan runs.
    """
    return FragmentStream(document, query, plan, strategy_name, index=index,
                          cache=cache, obs=obs, budget=budget,
                          analysis=analysis).result()
