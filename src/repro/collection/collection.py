"""Multi-document collections (paper §7: "a very large collection of
XML documents").

A :class:`DocumentCollection` manages many documents with per-document
inverted indexes (built lazily, cached), evaluates one query across the
whole collection, and merges the per-document answers — optionally
ranked across documents with :class:`repro.ranking.FragmentScorer`.

Fragments never span documents: the algebra is defined within one tree,
so a collection search is a fan-out of per-document evaluations plus a
merge, exactly the shape a relational deployment of the model would
execute per ref [13].
"""

from __future__ import annotations

import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from ..core.algebra import JoinCache
from ..core.cost import CostModel
from ..core.evaluator import FragmentStream, PlanAnalysis, Request
from ..core.filters import Filter, SizeAtLeast, SizeAtMost
from ..core.fragment import Fragment
from ..core.plan import PlanNode
from ..core.query import Query, QueryResult
from ..core.strategies import Strategy, _physical_plan, plan_for
from ..core.streaming import (TopKHeap, _count_early_exit, _count_rounds,
                              hit_order_key, ranked_order_key)
from ..errors import DocumentError, WALError
from ..guard.admission import (AdmissionDecision, AdmissionPolicy,
                               screen_models)
from ..guard.budget import QueryBudget, effective_budget
from ..index.inverted import InvertedIndex
from ..index.memory import MemorySource
from ..obs import (DOCUMENTS_SKIPPED, FRAGMENTS_RANKED, NOOP, Observability,
                   STREAM_SCORES_SKIPPED)
from ..ranking.scoring import FragmentScorer, ScoredFragment
from ..xmltree.document import Document
from ..xmltree.parser import parse, parse_file

__all__ = ["DocumentCollection", "CollectionResult", "CollectionHit"]


@dataclass(frozen=True)
class CollectionHit:
    """One answer fragment with its source document's name."""

    document_name: str
    fragment: Fragment

    def label(self) -> str:
        return f"{self.document_name}:{self.fragment.label()}"


@dataclass(frozen=True)
class CollectionResult:
    """Merged outcome of evaluating a query over a collection."""

    query: Query
    per_document: dict[str, QueryResult]

    @property
    def hits(self) -> list[CollectionHit]:
        """Every answer across the collection, smallest first."""
        all_hits = [CollectionHit(name, fragment)
                    for name, result in self.per_document.items()
                    for fragment in result.fragments]
        all_hits.sort(key=_hit_key)
        return all_hits

    def __len__(self) -> int:
        return sum(len(r.fragments) for r in self.per_document.values())

    @property
    def matched_documents(self) -> list[str]:
        """Names of documents contributing at least one answer."""
        return sorted(name for name, r in self.per_document.items()
                      if r.fragments)

    @property
    def total_elapsed(self) -> float:
        """Summed per-document evaluation time in seconds."""
        return sum(r.elapsed for r in self.per_document.values())


#: β of the first streamed round (:meth:`DocumentCollection._beta_rounds`).
_INITIAL_BETA = 4


def _hit_key(hit: CollectionHit) -> tuple:
    return hit_order_key(hit.document_name, hit.fragment)


def keyword_screen(source, terms: Iterable[str],
                   documents: Optional[Iterable[str]] = None
                   ) -> tuple[list[str], int]:
    """The collection-level early exit: ``(names, targets)``.

    ``names`` are the documents containing every term — the source's
    ``candidates(terms)``, narrowed to ``documents`` in the caller's
    order when given — out of ``targets`` documents searched.
    """
    found = source.candidates(terms)
    if documents is None:
        return found, len(source)
    targets = list(documents)
    keep = set(found)
    return [name for name in targets if name in keep], len(targets)


def document_runs(source, names: Iterable[str], query: Query,
                  strategy: Strategy, *, cache: Optional[JoinCache],
                  obs: Observability,
                  budget: Optional[QueryBudget] = None,
                  fresh_budget: bool = False,
                  analysis: Optional[PlanAnalysis] = None,
                  request: Optional[Request] = None
                  ) -> Iterator[tuple[str, FragmentStream]]:
    """The one per-document loop: ``(name, run)`` for each of ``names``.

    Each run (:class:`~repro.core.evaluator.FragmentStream`) is
    ``query`` over one document of ``source`` with that document's
    inverted index, for the consumer to drain (a search, EXPLAIN
    ANALYZE, a pool worker's items) or pull (a streamed β round, whose
    query carries its size window).  Documents that
    agree on the rarest-first term order share one plan; given an
    ``analysis``, every document runs *its* plan as it stands, timed,
    and folds into it.  ``fresh_budget`` runs each document under its
    own ``budget.fresh_item()``.  The runs are parts of ``request``:
    they fold into it and record nothing themselves.
    """
    plans: dict[tuple, PlanNode] = {}
    for name in names:
        index = source.inverted_index(name)
        if analysis is not None:
            plan = analysis.plan
        else:
            order = tuple(index.rarest_first(query.terms))
            plan = plans.get(order)
            if plan is None:
                plan = plans[order] = _physical_plan(
                    Query(order, query.predicate), strategy, None)
        yield name, FragmentStream(
            index.document, query, plan, strategy.value, index=index,
            cache=cache, obs=obs, analysis=analysis,
            budget=(budget.fresh_item()
                    if fresh_budget and budget is not None else budget),
            request=request)


def _check_limit(limit: object) -> None:
    if isinstance(limit, bool) or not isinstance(limit, int):
        raise ValueError(f"limit must be an int >= 1, got {limit!r}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")


def _count_skipped(ob: Observability, skipped: int) -> None:
    if ob.enabled:
        ob.metrics.counter(
            DOCUMENTS_SKIPPED, "Documents skipped by the index early exit."
        ).inc(skipped)


def _count_ranked(ob: Observability, tally: list[int]) -> None:
    """Publish a ranking pass's ``[scored, skipped-by-bound]`` tally."""
    if ob.enabled:
        ob.metrics.counter(
            FRAGMENTS_RANKED, "Fragments scored by the ranker."
        ).inc(tally[0])
        if tally[1]:
            ob.metrics.counter(
                STREAM_SCORES_SKIPPED,
                "Fragments skipped by the cheap score upper bound."
            ).inc(tally[1])


class DocumentCollection:
    """An ordered set of named documents, searchable as one corpus.

    The corpus lives in a *source* (:mod:`repro.index.memory`):
    in memory by default, a shard index or an epoch snapshot in the
    subclasses.  Everything below reads it through that one surface.
    """

    def __init__(self, name: str = "collection", source=None) -> None:
        self.name = name
        self._source = source if source is not None else MemorySource()
        self._owns_source = source is None  # else the caller closes it
        self._cache = JoinCache()
        self._scorers: dict[str, FragmentScorer] = {}
        self._executor = None  # cached pool (ParallelExecutor / router)
        self._executor_workers: Optional[int] = None
        # Guards the derived caches above against concurrent searches:
        # add() invalidates them under this lock, and the lazy
        # get-or-create paths (scorer / executor) take it so a reader
        # mid-search never observes a half-built entry.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def add(self, document: Document,
            name: Optional[str] = None) -> str:
        """Add a document; returns the name it is registered under.

        Only an in-memory corpus can be added to: a shard index is
        rebuilt (``repro-search index build``) and an epoch-pinned view
        is written through its ``MutableDocumentCollection``.

        Raises
        ------
        DocumentError
            If the name is already taken, or the corpus is read-only.
        """
        key = name if name is not None else document.name
        with self._lock:
            if not isinstance(self._source, MemorySource):
                raise DocumentError(
                    f"{type(self).__name__} is read-only: rebuild a "
                    f"shard index with 'repro-search index build', "
                    f"write an epoch through MutableDocumentCollection")
            if key in self._source:
                raise DocumentError(f"collection already contains a "
                                    f"document named {key!r}")
            self._source.add(key, document)
            # Derived state is now stale: any pooled executor holds a
            # snapshot of the old corpus, and cached scorers must not
            # outlive corpus changes.
            self._scorers = {}
            self._shutdown_executor()
        return key

    def _shutdown_executor(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown()
                self._executor = None
                self._executor_workers = None

    def close(self) -> None:
        """Release pooled resources (the lazy parallel executor), and
        the source if this collection opened it.

        Safe to call repeatedly; an in-memory collection remains usable
        and recreates the pool on the next ``workers=`` search.
        """
        self._shutdown_executor()
        if self._owns_source:
            self._source.close()

    def __enter__(self) -> "DocumentCollection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def add_xml(self, xml_text: str, name: str) -> str:
        """Parse and add an XML string."""
        return self.add(parse(xml_text, name=name))

    @classmethod
    def from_directory(cls, path: Union[str, "os.PathLike[str]"],
                       pattern: str = ".xml",
                       name: Optional[str] = None,
                       on_error=None) -> "DocumentCollection":
        """Load every ``*.xml`` file of a directory into a collection.

        ``on_error`` controls what happens when one file is malformed
        or unreadable: ``None`` (default) re-raises, aborting the load;
        a callable receives ``(path, exception)`` and the file is
        skipped, so one corrupt document cannot take down a whole
        corpus run.
        """
        base = os.fspath(path)
        collection = cls(name=name if name is not None
                         else os.path.basename(base) or "collection")
        for entry in sorted(os.listdir(base)):
            if entry.endswith(pattern):
                full = os.path.join(base, entry)
                try:
                    collection.add(parse_file(full))
                except (DocumentError, OSError) as exc:
                    if on_error is None:
                        raise
                    on_error(full, exc)
        return collection

    @classmethod
    def open_index(cls, path: Union[str, "os.PathLike[str]"],
                   **options) -> "DocumentCollection":
        """Open a persistent shard index built by ``repro.storage.shards``.

        Returns a read-only :class:`ShardedDocumentCollection` that
        serves the same search API over ``mmap``-attached shard files:
        documents materialise lazily on first match, the index early
        exit reads the mapped term directories without decoding, and
        ``workers=`` searches route through a scatter-gather
        :class:`~repro.storage.shards.ShardRouter` with per-shard
        circuit breakers.  ``options`` are forwarded to the
        ``ShardedDocumentCollection`` constructor.
        """
        from .sharded import ShardedDocumentCollection
        return ShardedDocumentCollection(path, **options)

    @classmethod
    def open_mutable(cls, path: Union[str, "os.PathLike[str]"],
                     **options) -> "DocumentCollection":
        """Open a crash-safe *writable* index (``repro.storage.mutation``).

        Returns a :class:`MutableDocumentCollection`: ``add``/``remove``
        are WAL-durable and epoch-committed, every search runs against
        one epoch-pinned snapshot, and ``workers=`` pools survive
        commits (workers re-attach epochs on demand).  ``options`` are
        forwarded to the ``MutableDocumentCollection`` constructor.
        """
        from .mutable import MutableDocumentCollection
        return MutableDocumentCollection(path, **options)

    # ------------------------------------------------------------------
    # Introspection (one source call each, inside one consistent view)
    # ------------------------------------------------------------------

    def _view(self, epoch: Optional[int] = None):
        """Context manager yielding the collection one call reads.

        That is this collection itself — its source never changes under
        a reader — except for ``MutableDocumentCollection``, which pins
        one epoch and yields a view whose source is that snapshot.
        """
        return nullcontext(self)

    def __len__(self) -> int:
        with self._view() as view:
            return len(view._source)

    def __contains__(self, name: str) -> bool:
        with self._view() as view:
            return name in view._source

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def names(self) -> list[str]:
        """Document names: insertion order in memory, sorted on disk."""
        with self._view() as view:
            return view._source.names()

    def document(self, name: str) -> Document:
        """The document registered under ``name`` (KeyError if absent;
        a shard index raises its structured ``unknown-document``
        :class:`~repro.errors.ShardError`)."""
        with self._view() as view:
            try:
                return view._source.document(name)
            except WALError:  # a snapshot's "unknown document"
                raise KeyError(name) from None

    def index(self, name: str) -> InvertedIndex:
        """The source's (lazily built, cached) inverted index of one
        document; on an index it is adopted from the mapped postings."""
        with self._view() as view:
            return view._source.inverted_index(name)

    def has_terms(self, name: str, terms: Iterable[str]) -> bool:
        """Early-exit probe: does the document contain every term?

        Index-backed sources answer straight off the mapped postings,
        without decoding the document.  The search paths screen the
        whole corpus at once instead (``source.candidates``).
        """
        with self._view() as view:
            contains = view._source.contains
            return all(contains(name, term) for term in terms)

    def node_count(self, name: str) -> int:
        """Node count of one document.

        Index-backed sources read it from the stored header, so sizing
        a search never materialises a document.
        """
        with self._view() as view:
            return view._source.node_count(name)

    @property
    def total_nodes(self) -> int:
        """Node count summed over all documents."""
        with self._view() as view:
            source = view._source
            return sum(source.node_count(name) for name in source.names())

    def document_frequency(self, term: str) -> int:
        """Number of *documents* containing ``term`` somewhere."""
        with self._view() as view:
            return len(view._source.candidates((term.casefold(),)))

    def vocabulary(self) -> frozenset[str]:
        """Union of all documents' vocabularies."""
        vocab: set[str] = set()
        with self._view() as view:
            source = view._source
            for name in source.names():
                vocab |= source.inverted_index(name).vocabulary()
        return frozenset(vocab)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _new_executor(self, workers: Optional[int], **options):
        """A fresh pool over this collection's source.

        ``options`` are :class:`repro.exec.ParallelExecutor` keywords.
        The pool snapshots the corpus (workers get a copy of the name →
        document table), so :meth:`add` invalidates the cached one.
        """
        from ..exec.parallel import ParallelExecutor
        return ParallelExecutor(self._source.documents, workers=workers,
                                **options)

    def _parallel_executor(self, workers: int):
        """The cached pool for ``workers``, rebuilt when the requested
        size changes."""
        with self._lock:
            if self._executor is None \
                    or self._executor_workers != workers:
                self._shutdown_executor()
                self._executor = self._new_executor(workers)
                self._executor_workers = workers
            return self._executor

    def warm_pool(self, workers: int) -> None:
        """Build the ``workers=`` pool and start its processes now,
        from the calling thread, instead of on the first pooled search
        (see :meth:`repro.exec.ParallelExecutor.warm`)."""
        self._parallel_executor(workers).warm()

    def _bound(self, executor):
        """``executor`` as this view must call it (an epoch view binds
        its snapshot in)."""
        return executor

    def _targets(self, documents: Optional[Iterable[str]]) -> list[str]:
        return (list(documents) if documents is not None
                else self._source.names())

    def screen(self, policy: AdmissionPolicy, query: Query,
               strategy: Strategy = Strategy.ANCHORED,
               documents: Optional[Iterable[str]] = None
               ) -> AdmissionDecision:
        """Pre-admission cost screen of ``query`` over this collection.

        Estimates the plan cost of the requested strategy summed over
        the (subset of) the collection with each document's inverted
        index, and returns the :class:`~repro.guard.AdmissionDecision`
        — admit, downgrade to the policy's cheaper strategy, or
        reject.  No evaluation work runs, and documents are costed by
        name, one at a time: an index-backed collection materialises
        each target once and keeps none of them alive.
        """
        inverted_index = self._source.inverted_index
        return screen_models(policy, query, strategy, (
            CostModel(index.document, index=index)
            for index in map(inverted_index, self._targets(documents))))

    def _admit(self, query: Query, strategy: Strategy,
               documents: Optional[Iterable[str]],
               budget: Optional[QueryBudget],
               deadline_ms: Optional[float],
               admission: Optional[AdmissionPolicy]
               ) -> tuple[Strategy, Optional[QueryBudget]]:
        """The guard rails a search starts under: the admitted strategy
        and the effective budget, started."""
        budget = effective_budget(budget, deadline_ms)
        if admission is not None:
            decision = self.screen(admission, query, strategy,
                                   documents=documents)
            decision.raise_if_rejected()
            strategy = decision.strategy
        if budget is not None:
            budget.start()
        return strategy, budget

    def _request(self, ob: Observability, query: Query, strategy: Strategy,
                 budget: Optional[QueryBudget], root: Optional[str] = None,
                 streamed: bool = False):
        """One request over this collection, recorded when its block
        ends (under :data:`NOOP`, a bare block yielding ``None``).  A
        streamed request names no ``root`` span: no span may stay open
        while its consumer holds control."""
        if not ob.enabled:
            return nullcontext()
        return Request(ob, self.name, query, strategy.value,
                       source=self._source, budget=budget, root=root,
                       streamed=streamed)

    def search(self, query: Query,
               strategy: Strategy = Strategy.ANCHORED,
               documents: Optional[Iterable[str]] = None,
               obs: Optional[Observability] = None,
               workers: Optional[int] = None,
               # Accepted and ignored, for benchmarks/serving/oracle.py:50
               kernel: Optional[str] = None,
               resilience=None, faults=None,
               budget: Optional[QueryBudget] = None,
               deadline_ms: Optional[float] = None,
               admission: Optional[AdmissionPolicy] = None,
               limit: Optional[int] = None,
               stream: bool = False):
        """Evaluate ``query`` over (a subset of) the collection.

        Documents whose indexes show a missing query term are skipped
        without evaluation — the collection-level analogue of the
        conjunctive early exit.  With an enabled ``obs`` handle the
        search is one request, recorded once however many documents it
        evaluates: a ``collection-search`` root span (one ``execute``
        child span per evaluated document, naming it and its shard),
        one ``repro_queries_total`` and, with a flight recorder, one
        profile; skipped documents are counted in
        ``repro_documents_skipped_total``.

        ``workers=N`` fans the per-document evaluations out over a
        process pool (:mod:`repro.exec`) with results guaranteed
        identical to the serial path; ``None`` stays in-process.
        ``resilience`` (a :class:`~repro.exec.resilience.RetryPolicy`)
        and ``faults`` (a :class:`~repro.exec.faults.FaultPlan`) tune
        the pooled path's fault tolerance; both are ignored without
        ``workers``.

        Guard rails: ``budget`` (a :class:`~repro.guard.QueryBudget`)
        and/or ``deadline_ms`` bound the whole search — the deadline is
        end-to-end and join-operation charges accumulate across
        documents (and propagate into pool workers on the parallel
        path).  A spent budget aborts with
        :class:`~repro.errors.BudgetExceeded`, recorded as one
        ``budget-exceeded`` request that increments
        ``repro_guard_budget_exceeded_total``.  ``admission`` runs the
        pre-admission cost screen first: the query is rejected
        (:class:`~repro.errors.AdmissionRejected`) or transparently
        downgraded to the policy's cheaper strategy before any
        evaluation work.

        Streaming: ``stream=True`` returns an *iterator* of
        :class:`CollectionHit` in the exact order ``CollectionResult.hits``
        would produce, materialised incrementally via adaptive β rounds
        (:mod:`repro.core.streaming`) — abandon the iterator to stop the
        evaluation.  ``limit=N`` (with or without ``stream``) bounds the
        result to the first ``N`` hits of that order and bounds the
        evaluation work accordingly; without ``stream`` it returns the
        list directly.  Both compose with every other option, including
        ``workers=`` (each round is one pooled search).  Every round is
        part of the one request, recorded as ``stream-<strategy>``.
        """
        ob = obs if obs is not None else NOOP
        strategy, budget = self._admit(query, strategy, documents, budget,
                                       deadline_ms, admission)
        if limit is not None:
            _check_limit(limit)
        if stream or limit is not None:
            hits = self._stream_hits(query, strategy=strategy,
                                     documents=documents, ob=ob,
                                     workers=workers,
                                     resilience=resilience, faults=faults,
                                     budget=budget, limit=limit)
            return hits if stream else list(hits)
        with self._request(ob, query, strategy, budget,
                           "collection-search") as request:
            return self._materialise(query, strategy, documents, ob,
                                     request, workers=workers,
                                     resilience=resilience, faults=faults,
                                     budget=budget)

    def _materialise(self, query: Query, strategy: Strategy,
                     documents: Optional[Iterable[str]],
                     ob: Observability, request: Optional[Request],
                     workers: Optional[int] = None, resilience=None,
                     faults=None, budget: Optional[QueryBudget] = None,
                     analysis: Optional[PlanAnalysis] = None
                     ) -> CollectionResult:
        """One ``request``'s materialised drive: a pooled search, or
        screen and drain one run per matching document (``budget`` and
        ``analysis`` as for :func:`document_runs`)."""
        if workers is not None:
            # Worker deltas carry the workers' JoinCache memo totals;
            # this (unused) cache is not exported over them.
            return self._parallel_executor(workers).search(
                query, strategy=strategy, documents=documents, obs=ob,
                resilience=resilience, faults=faults, budget=budget,
                request=request)
        per_document: dict[str, QueryResult] = {}
        names, targets = keyword_screen(self._source, query.terms,
                                        documents)
        for name, run in document_runs(
                self._source, names, query, strategy, cache=self._cache,
                obs=ob, budget=budget, analysis=analysis,
                request=request):
            per_document[name] = run.result()
        if ob.enabled:
            skipped = targets - len(names)
            request.span.set(documents=targets,
                             evaluated=len(per_document), skipped=skipped)
            _count_skipped(ob, skipped)
            self._cache.export_metrics(ob.metrics)
        return CollectionResult(query=query, per_document=per_document)

    def _stream_hits(self, query: Query, strategy: Strategy,
                     documents: Optional[Iterable[str]],
                     ob: Observability, workers: Optional[int],
                     resilience, faults,
                     budget: Optional[QueryBudget],
                     limit: Optional[int]) -> Iterator[CollectionHit]:
        """Generator behind ``search(stream=True / limit=)``.

        Emits each β round's new hits (:meth:`_beta_rounds`) in
        canonical :func:`~repro.core.streaming.hit_order_key` order —
        which, size being the primary key, extends the global order.
        Everything yielded is final, so hitting ``limit`` (or the
        consumer walking away) stops the search with work bounded by
        the last β instead of the answer-set size.  A mid-round
        :class:`~repro.errors.BudgetExceeded` propagates *between*
        emissions, so consumers always hold a consistent prefix of the
        full hit list.  The whole stream is one request.
        """
        with self._request(ob, query, strategy, budget,
                           streamed=True) as request:
            live, targets = keyword_screen(self._source, query.terms,
                                           documents)
            if len(live) < targets:
                _count_skipped(ob, targets - len(live))
            emitted = 0
            for hits, _, more in self._beta_rounds(
                    query, strategy, live, ob, workers, resilience, faults,
                    budget, request):
                hits.sort(key=_hit_key)
                for hit in hits:
                    yield hit
                    emitted += 1
                    if limit is not None and emitted >= limit:
                        if more:
                            _count_early_exit(ob, "limit")
                        return

    def _beta_rounds(self, query: Query, strategy: Strategy,
                     live: list[str], ob: Observability,
                     workers: Optional[int], resilience, faults,
                     budget: Optional[QueryBudget],
                     request: Optional[Request]
                     ) -> Iterator[tuple[list[CollectionHit], int, bool]]:
        """The adaptive β ladder: ``(new hits, β, more)`` a round.

        Round *r* evaluates every ``live`` document under the size
        window ``β_{r-1} < size <= β_r`` and yields its hits in document
        order; then β doubles, up to the largest live document.  The
        upper bound is anti-monotonic, so it prunes inside the plan
        (Theorem 3 guarantees the round holds *exactly* the answers of
        size ≤ β_r); the lower bound keeps a round from re-yielding the
        hits of the rounds before it, so each is counted once.  ``more``
        says whether a larger β is still to come.  A shared budget spans
        all rounds (its deadline is absolute).

        The window is part of the round's query, serial or pooled, so
        both run — and price — one plan: a serial round pulls one
        streamed run per document; with ``workers`` the round is one
        pooled search.  Either way it is complete up to β, and a part
        of ``request``.
        """
        if not live:
            return
        source = self._source
        runner = (self._parallel_executor(workers)
                  if workers is not None else None)
        max_size = max(source.node_count(name) for name in live)
        beta = min(_INITIAL_BETA, max_size)
        prev_beta = 0
        rounds = 0
        try:
            while True:
                rounds += 1
                window: Filter = SizeAtMost(beta)
                if prev_beta:
                    window = window & SizeAtLeast(prev_beta + 1)
                bounded = Query(query.terms, query.predicate & window)
                if runner is None:
                    found = ((name, fragment)
                             for name, run in document_runs(
                                 source, live, bounded, strategy,
                                 cache=self._cache, obs=ob, budget=budget,
                                 request=request)
                             for fragment in run)
                else:
                    result = runner.search(
                        bounded, strategy=strategy, documents=live, obs=ob,
                        resilience=resilience, faults=faults, budget=budget,
                        request=request)
                    found = ((name, fragment)
                             for name, doc in result.per_document.items()
                             for fragment in doc.fragments)
                hits = [CollectionHit(name, fragment)
                        for name, fragment in found]
                yield hits, beta, beta < max_size
                if beta >= max_size:
                    return
                prev_beta, beta = beta, min(beta * 2, max_size)
        finally:
            _count_rounds(ob, rounds)
            if ob.enabled and runner is None:
                self._cache.export_metrics(ob.metrics)

    def explain_analyze(self, query: Query,
                        strategy: Strategy = Strategy.ANCHORED,
                        documents: Optional[Iterable[str]] = None,
                        obs: Optional[Observability] = None
                        ) -> tuple[CollectionResult, PlanAnalysis]:
        """EXPLAIN ANALYZE over the collection — one shared plan.

        Builds the strategy's plan once, executes it against every
        document (honouring the index early exit, like :meth:`search`),
        and accumulates per-operator runtime statistics across all
        executions into a single :class:`~repro.core.PlanAnalysis`
        (``calls`` counts documents evaluated per operator).  Returns
        ``(result, analysis)``; render with
        ``explain(analysis.plan, analyze=analysis)``.  It is one
        request, under a ``collection-analyze`` root span.
        """
        ob = obs if obs is not None else NOOP
        analysis = PlanAnalysis(plan_for(query, strategy))
        with self._request(ob, query, strategy, None,
                           "collection-analyze") as request:
            result = self._materialise(query, strategy, documents, ob,
                                       request, analysis=analysis)
        return result, analysis

    def scorer(self, name: str) -> FragmentScorer:
        """The (cached) :class:`FragmentScorer` of one document.

        Built once per document and reused across ranked searches —
        cleared by :meth:`add`, since corpus changes may accompany
        re-indexing.  Observability is passed per :meth:`rank` call, so
        the cache is independent of ``obs`` handles.
        """
        scorer = self._scorers.get(name)
        if scorer is None:
            scorer = FragmentScorer(self._source.inverted_index(name))
            with self._lock:
                scorer = self._scorers.setdefault(name, scorer)
        return scorer

    def _score_into(self, heap: TopKHeap, hits: Iterable[CollectionHit],
                    terms, tally: list[int]) -> None:
        """Fold ``hits`` into the top-k ``heap``; ``tally`` counts
        ``[scored, skipped]``.

        A fragment whose cheap score upper bound provably cannot enter
        the heap is never fully scored.
        """
        for hit in hits:
            name, fragment = hit.document_name, hit.fragment
            scorer = self.scorer(name)
            bound = heap.bound()
            if bound is not None and \
                    -scorer.score_upper_bound(fragment) > bound[0]:
                tally[1] += 1
                continue
            scored = scorer.score(fragment, terms)
            tally[0] += 1
            heap.offer((name, scored),
                       ranked_order_key(name, scored.score,
                                        scored.fragment))

    def ranked_search(self, query: Query, limit: int = 10,
                      strategy: Strategy = Strategy.ANCHORED,
                      obs: Optional[Observability] = None,
                      workers: Optional[int] = None,
                      resilience=None, faults=None,
                      budget: Optional[QueryBudget] = None,
                      deadline_ms: Optional[float] = None,
                      admission: Optional[AdmissionPolicy] = None,
                      stream: bool = False
                      ) -> list[tuple[str, ScoredFragment]]:
        """Search and rank answers across documents, best first.

        Scores are comparable across documents because every signal is
        normalised to [0, 1] per document.  Ranking always happens in
        the parent process, over the (possibly pool-computed) merged
        answer set, so ``workers=N`` cannot perturb the ordering —
        and the pooled path's fault tolerance (``resilience``,
        ``faults``) cannot either.  ``budget``/``deadline_ms``/
        ``admission`` guard the underlying :meth:`search` (ranking
        itself is linear in the answer count and runs unguarded).

        Scoring work is bounded by ``limit``: candidates are folded
        into a ``limit``-sized heap under the canonical
        :func:`~repro.core.streaming.ranked_order_key`, and a fragment
        whose cheap score upper bound
        (:meth:`~repro.ranking.FragmentScorer.score_upper_bound`)
        provably cannot enter the heap is never fully scored (counted
        in ``repro_stream_scores_skipped_total``).  ``stream=True``
        additionally bounds the *evaluation*: adaptive β rounds stop as
        soon as the k-th held score meets the anti-monotonic
        size-score threshold
        (:meth:`~repro.ranking.FragmentScorer.size_score_bound`) — no
        unseen fragment can enter the heap — instead of materialising
        the full answer set first.  Both paths return the identical
        ranked list, and either is one request: the search under it is
        a part, not a request of its own.
        """
        ob = obs if obs is not None else NOOP
        _check_limit(limit)
        strategy, budget = self._admit(query, strategy, None, budget,
                                       deadline_ms, admission)
        if stream:
            return self._ranked_stream(query, limit, strategy, ob,
                                       workers, resilience, faults, budget)
        heap: TopKHeap = TopKHeap(limit)
        tally = [0, 0]
        with self._request(ob, query, strategy, budget,
                           "collection-search") as request:
            result = self._materialise(query, strategy, None, ob, request,
                                       workers=workers,
                                       resilience=resilience,
                                       faults=faults, budget=budget)
            with ob.span("rank", fragments=len(result)):
                self._score_into(
                    heap, (CollectionHit(name, fragment)
                           for name, doc in result.per_document.items()
                           for fragment in doc.fragments), query.terms,
                    tally)
                _count_ranked(ob, tally)
        return heap.items_sorted()

    def _ranked_stream(self, query: Query, limit: int,
                       strategy: Strategy, ob: Observability,
                       workers: Optional[int], resilience, faults,
                       budget: Optional[QueryBudget]
                       ) -> list[tuple[str, ScoredFragment]]:
        """Ranked top-k with threshold early termination over β rounds.

        Each round of :meth:`_beta_rounds` is scored as it lands.  Every
        unseen fragment is larger than the round's β,
        so its score is at most ``max_d size_score_bound(β + 1)``
        over the live documents' scorers; once the heap is full and its
        k-th score meets that threshold, no unseen fragment can displace
        anything — ties are safe because equal scores break by smaller
        size and every unseen fragment is strictly larger than every
        held one.
        """
        heap: TopKHeap = TopKHeap(limit)
        tally = [0, 0]
        with self._request(ob, query, strategy, budget,
                           streamed=True) as request:
            live = self._source.candidates(query.terms)
            for hits, beta, more in self._beta_rounds(
                    query, strategy, live, ob, workers, resilience, faults,
                    budget, request):
                self._score_into(heap, hits, query.terms, tally)
                bound = heap.bound()
                if more and bound is not None:
                    threshold = max(
                        self.scorer(name).size_score_bound(beta + 1)
                        for name in live)
                    if -bound[0] >= threshold:
                        _count_early_exit(ob, "threshold")
                        break
        _count_ranked(ob, tally)
        return heap.items_sorted()

    def __repr__(self) -> str:
        return (f"DocumentCollection(name={self.name!r}, "
                f"documents={len(self)}, nodes={self.total_nodes})")
