"""Batch query evaluation over a collection (``repro.exec.batch``).

:class:`BatchRunner` evaluates a *list* of queries against one
:class:`~repro.collection.collection.DocumentCollection`, amortising
all per-corpus setup — inverted indexes, the worker pool itself —
across the whole batch instead of paying it per query.

Serial mode (``workers=None``) walks the collection once per query
through :meth:`DocumentCollection.search`, reusing the collection's
cached indexes and closure memo.  Parallel mode hands the *entire* batch
to one :class:`~repro.exec.parallel.ParallelExecutor` scheduling wave,
so all ``(document, query)`` pairs share one chunked dispatch and every
worker's warm state serves many queries.

Each query of a batch is one request, recorded once, in this process:
serial batches search the collection per query, and parallel batches
ride the same chunk dispatch as ``search`` (per-worker span trees and
metric deltas ship back in-band and merge into the ``obs=`` handle,
see :mod:`repro.obs.delta`), so counters read the same at any worker
count.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..collection.collection import CollectionResult, DocumentCollection
from ..core.query import Query
from ..core.strategies import Strategy
from ..guard.budget import QueryBudget
from ..obs import BATCH_QUERIES, NOOP, Observability
from .faults import FaultPlan
from .resilience import RetryPolicy

__all__ = ["BatchRunner"]


class BatchRunner:
    """Evaluate query batches over one collection with warm state.

    Parameters
    ----------
    collection:
        The corpus to search.  The runner's pool is built from the
        collection's source: an in-memory collection ships a snapshot
        of its documents (add documents before running, or create a
        new runner afterwards); an index-backed one ships only an
        attach recipe, and a mutable one pins one epoch per batch.
    workers:
        ``None`` for serial evaluation; ``>= 1`` for a process pool of
        that size (created lazily on the first :meth:`run`, reused for
        every later batch until :meth:`shutdown`).
    strategy:
        Default for every query of every batch; :meth:`run` can
        override it per call.
    obs:
        Default observability handle (batch counters, pool metrics).
    resilience:
        :class:`~repro.exec.resilience.RetryPolicy` for the pooled
        path (deadlines, retries, serial degradation); ``None`` uses
        the executor default.
    faults:
        Optional :class:`~repro.exec.faults.FaultPlan` injected into
        every pooled dispatch (tests / bench runner).
    """

    def __init__(self, collection: DocumentCollection,
                 workers: Optional[int] = None,
                 strategy: Strategy = Strategy.ANCHORED,
                 obs: Optional[Observability] = None,
                 resilience: Optional[RetryPolicy] = None,
                 faults: Optional[FaultPlan] = None) -> None:
        self.collection = collection
        self.workers = workers
        self.strategy = strategy
        self._obs = obs if obs is not None else NOOP
        self.resilience = resilience
        self.faults = faults
        self._executor = None  # ParallelExecutor, or a ShardRouter
        #: The pooled path's latest
        #: :class:`~repro.exec.resilience.ResilienceReport` (``None``
        #: before the first parallel batch; retained across
        #: :meth:`shutdown`).
        self.last_report = None

    def _pool(self):
        if self._executor is None:
            self._executor = self.collection._new_executor(
                self.workers, obs=self._obs,
                resilience=self.resilience, faults=self.faults)
        return self._executor

    def run(self, queries: Iterable[Query],
            strategy: Optional[Strategy] = None,
            obs: Optional[Observability] = None,
            budget: Optional[QueryBudget] = None,
            deadline_ms: Optional[float] = None
            ) -> list[CollectionResult]:
        """Evaluate every query; one :class:`CollectionResult` each.

        Results are identical to calling
        :meth:`DocumentCollection.search` per query — the batch only
        changes *where* the work runs and how often setup is paid.

        ``budget``/``deadline_ms`` guard the whole batch: the deadline
        is end-to-end across all queries; per-operation limits
        (``max_join_ops`` etc.) apply to each query independently
        (serial mode) or each ``(document, query)`` item (pooled
        mode), composing with the pool's
        :class:`~repro.exec.resilience.RetryPolicy` — see
        :meth:`ParallelExecutor.run`.
        """
        from ..guard.budget import effective_budget
        batch: Sequence[Query] = list(queries)
        ob = obs if obs is not None else self._obs
        use_strategy = strategy if strategy is not None else self.strategy
        use_budget = effective_budget(budget, deadline_ms)
        if ob.enabled:
            ob.metrics.counter(
                BATCH_QUERIES, "Queries evaluated through BatchRunner."
            ).inc(len(batch))
        if not batch:
            return []
        if use_budget is not None:
            use_budget.start()
        if self.workers is None:
            return [self.collection.search(
                        query, strategy=use_strategy, obs=ob,
                        budget=(use_budget.fresh_item()
                                if use_budget is not None else None))
                    for query in batch]
        pool = self._pool()
        try:
            # One consistent view per batch: a mutable collection pins
            # an epoch here and binds it into the pool's runs.
            with self.collection._view() as view:
                return view._bound(pool).run(
                    batch, strategy=use_strategy, obs=ob,
                    budget=use_budget)
        finally:
            # A shard router's report wraps the executor's.
            report = pool.last_report
            self.last_report = getattr(report, "resilience", report)

    def shutdown(self) -> None:
        """Stop the pool, if one was created (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (f"BatchRunner(collection={self.collection.name!r}, "
                f"workers={self.workers}, "
                f"strategy={self.strategy.value!r})")
