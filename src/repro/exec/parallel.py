"""Process-pool collection search with deterministic merge.

:class:`ParallelExecutor` fans a collection search out over a
``concurrent.futures.ProcessPoolExecutor`` while keeping the results
**bit-identical** to the serial path:

* the corpus reaches each worker once, at pool init, as a picklable
  *attach recipe* that builds the worker's own corpus source
  (:mod:`repro.index.memory`): a copy of the ``{name: Document}``
  table, an ``mmap``/shared-memory handle on a shard index, or — for a
  mutable index — just its path, attached per epoch.  The source keeps
  documents and inverted indexes warm under its own bound and the
  worker keeps one :class:`~repro.core.algebra.JoinCache`, so repeated
  queries pay the setup cost once per worker, not once per task;
* the parent screens: the conjunctive early exit is one
  ``source.candidates(terms)`` call per query, and only the
  ``(document, query)`` items that pass it are chunked and shipped, so
  workers evaluate and never probe;
* workers never pickle :class:`~repro.core.fragment.Fragment` or
  :class:`~repro.xmltree.document.Document` objects back.  They return
  plain node-id tuples and the parent rehydrates fragments against its
  *own* document objects — fragment equality requires document
  identity, so this is what makes parallel output exactly equal to
  serial output;
* the merge walks documents in the caller's target order, so result
  dictionaries iterate identically however chunks complete;
* telemetry survives the pool: each worker ships span trees and metric
  increments (:class:`~repro.obs.delta.ObsDelta`) next to a chunk's
  rows, merged as ``worker=N`` spans and onto the serial path's
  series; it keeps no flight recorder, since its runs are parts of the
  parent's :class:`~repro.core.evaluator.Request`, recorded once in
  the parent — so ``--trace``, ``--query-log`` and Prometheus output
  mean the same thing at any worker count.

Start method: ``fork`` is preferred (worker state is inherited
copy-on-write, so even large corpora ship for free); on platforms
without it the executor falls back to ``spawn``, where the payload is
pickled through :meth:`Document.__getstate__`.  See
``docs/parallelism.md``.

Fault tolerance: every dispatch runs under a
:class:`~repro.exec.resilience.RetryPolicy` — per-chunk deadlines,
bounded retries with exponential backoff, automatic pool respawn on
worker crash, and (by default) graceful degradation to an in-process
serial re-evaluation of the surviving chunks, so callers get
serial-identical results even when workers are killed or hang.  See
``docs/robustness.md`` and :mod:`repro.exec.faults` for the
fault-injection hooks that exercise these paths deterministically.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from ..collection.collection import (CollectionResult, _count_skipped,
                                     document_runs, keyword_screen)
from ..core.algebra import JoinCache
from ..core.evaluator import Request
from ..core.fragment import Fragment
from ..core.query import Query, QueryResult
from ..core.strategies import Strategy
from ..errors import (BudgetExceeded, DocumentError, ExecutionError,
                      QueryError)
from ..guard.budget import QueryBudget
from ..index.memory import MemorySource
from ..obs import (CHUNK_FALLBACKS, CHUNK_RETRIES, CHUNK_TIMEOUTS,
                   EXEC_DEGRADED,
                   MUTATION_WORKER_REATTACH, NOOP,
                   Observability,
                   POOL_CHUNKS, POOL_CHUNK_SECONDS,
                   POOL_DISPATCH_SECONDS, POOL_RESPAWNS, POOL_TASKS,
                   POOL_WORKERS, SpanTracer,
                   WORKER_CRASHES, capture_delta, merge_delta)
from ..obs.tracer import NULL_TRACER
from ..storage.shards.reader import ShardIndex
from ..xmltree.document import Document
from .faults import FaultPlan, apply_fault
from .resilience import (DEFAULT_POLICY, FALLBACK_SERIAL, ResilienceReport,
                         RetryPolicy)

__all__ = ["ParallelExecutor", "default_workers", "default_start_method"]


def default_workers() -> int:
    """The default pool size: one worker per available CPU."""
    return os.cpu_count() or 1


def default_start_method() -> str:
    """``fork`` where available (Linux/macOS), else ``spawn``."""
    return ("fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")


# ----------------------------------------------------------------------
# Worker side: module-level state, populated once per worker at pool
# init (inherited via fork, or unpickled under spawn) and warmed lazily.
# ----------------------------------------------------------------------

_WORKER_SOURCE = None  # this worker's corpus source
_WORKER_MUTABLE_PATH: Optional[str] = None
_WORKER_MUTABLE_EPOCH: Optional[int] = None
_WORKER_CACHE: Optional[JoinCache] = None
#: This worker's handle (no flight recorder): its registry persists
#: across chunks, whose increments ship as diffs against a rolling
#: baseline; its tracer follows the parent's per chunk.
_WORKER_OBS: Optional[Observability] = None
_WORKER_BASELINE: dict = {}


def _init_worker(recipe: tuple) -> None:
    """Pool initializer: build this worker's corpus source.

    ``recipe`` is the parent's picklable ``(attach, argument)`` pair
    and ``attach(argument)`` is the source — a
    :class:`~repro.index.memory.MemorySource` over the shipped
    documents, or the worker's own ``ShardIndex`` handle (``mmap`` over
    the shard files, or shared-memory segments when the spec names
    them; O(shards) either way, so pool spin-up does not scale with
    corpus size).  A mutable index ships ``(None, path)``: nothing
    attaches until the first chunk names an epoch
    (:func:`_ensure_worker_epoch`), so a commit never forces a pool
    rebuild.
    """
    global _WORKER_SOURCE, _WORKER_MUTABLE_PATH, _WORKER_MUTABLE_EPOCH
    global _WORKER_CACHE, _WORKER_OBS, _WORKER_BASELINE
    attach, argument = recipe
    _WORKER_SOURCE = attach(argument) if attach is not None else None
    _WORKER_MUTABLE_PATH = argument if attach is None else None
    _WORKER_MUTABLE_EPOCH = None
    _WORKER_CACHE = JoinCache()
    _WORKER_OBS = Observability(tracer=NULL_TRACER)
    _WORKER_BASELINE = {}


def _ensure_worker_epoch(epoch: int, obs) -> None:
    """Re-attach this worker's snapshot when the chunk's epoch moved.

    The new epoch attaches from disk under fresh tokens — a worker does
    not share the writer's views, so what a commit carries over
    (:mod:`repro.storage.mutation.delta`) stays on the writer's side
    and this worker's join memo starts cold for every document.  The
    old snapshot (its mmap base and every document it kept warm) closes
    only once the new one stands: a failed attach leaves the worker
    serving the epoch it still claims.  Epoch pinning in the parent
    guarantees the named epoch's files are still on disk.
    """
    global _WORKER_SOURCE, _WORKER_MUTABLE_EPOCH
    if _WORKER_MUTABLE_EPOCH == epoch:
        return
    from ..storage.mutation import attach_snapshot
    previous = _WORKER_SOURCE
    _WORKER_SOURCE = attach_snapshot(_WORKER_MUTABLE_PATH, epoch)
    if previous is not None:
        previous.close()
    reattached = _WORKER_MUTABLE_EPOCH is not None
    _WORKER_MUTABLE_EPOCH = epoch
    if reattached and obs.enabled:
        obs.metrics.counter(
            MUTATION_WORKER_REATTACH,
            "Pool workers that re-attached after an epoch change."
        ).inc()


def _budget_marker(exc: BudgetExceeded) -> dict:
    """A picklable row payload standing in for a budget abort.

    Budget aborts travel as *data*, not exceptions: a doomed query must
    not look like a worker failure to the retry machinery (retrying a
    spent deadline can never succeed), so the worker finishes its chunk
    normally and the parent re-raises deterministically at merge time.
    """
    return {"budget_exceeded": exc.to_dict()}


def _budget_error(marker: dict) -> BudgetExceeded:
    info = marker["budget_exceeded"]
    return BudgetExceeded(info["message"], reason=info["reason"],
                          elapsed=info["elapsed_s"],
                          progress=info["progress"])


def _item_rows(source, queries: Sequence[Query],
               items: Sequence[tuple[str, int]], strategy: Strategy,
               cache: JoinCache, obs, budget: Optional[QueryBudget],
               priced: bool = False) -> tuple[list, Optional[dict]]:
    """Evaluate ``(document name, query index)`` items over one source.

    The one item loop, over the collection's one document loop
    (:func:`~repro.collection.collection.document_runs`): a worker runs
    it over its attached source, the parent's degraded fallback over
    its own, so the rows — the per-item budget clones included — are
    bit-identical wherever a chunk ends up running.  Every item already
    passed the parent's keyword screen; an index-backed source keeps
    what it materialises under its own ``cache_limit``.

    Returns ``(rows, totals)``: the runs are parts of the parent's
    requests, and with ``priced`` ``totals`` maps each query index to
    its items' ``(§5 predicted cost, thread CPU seconds, plan label)``.
    """
    rows, totals = [], {}
    # Chunks list each query's documents together.
    for query_index, group in groupby(items, key=itemgetter(1)):
        query = queries[query_index]
        part = (Request(NOOP, "", query, strategy.value, source=source,
                        priced=priced) if obs.enabled else None)
        cpu_started = time.thread_time()
        for name, run in document_runs(
                source, [name for name, _ in group], query, strategy,
                cache=cache, obs=obs, budget=budget, fresh_budget=True,
                request=part):
            try:
                result = run.result()
            except BudgetExceeded as exc:
                rows.append((name, query_index, _budget_marker(exc)))
                continue
            rows.append((name, query_index,
                         (tuple(sorted(tuple(sorted(f.nodes))
                                       for f in result.fragments)),
                          result.elapsed, result.stats)))
        if priced:
            totals[query_index] = (part.predicted if part.priced else None,
                                   time.thread_time() - cpu_started,
                                   part.plan)
    return rows, totals


def _run_chunk(queries: Sequence[Query], items: Sequence[tuple[str, int]],
               strategy_value: str, obs_spec: Optional[dict] = None,
               fault: Optional[dict] = None,
               budget: Optional[QueryBudget] = None,
               epoch: Optional[int] = None):
    """Evaluate one chunk of ``(document name, query index)`` items.

    Returns ``(rows, chunk_seconds, delta, pid, totals)`` where each
    row is ``(name, query_index, payload)`` and ``payload`` is
    ``(fragment node tuples, elapsed, stats dict)`` — plain picklable
    data only, never Fragment/Document objects.  When the parent's
    telemetry is enabled (``obs_spec`` given), ``delta`` carries this
    worker's span trees and metric increments for the chunk; otherwise
    it is ``None``.  ``totals`` (:func:`_item_rows`) are priced only
    when ``obs_spec["price"]`` says the parent records.

    ``fault`` is an optional fault-injection directive from
    :class:`~repro.exec.faults.FaultPlan`, executed before evaluation.
    If the chunk fails (injected or real), the partial telemetry is
    discarded so a retried chunk never double-counts.

    ``budget`` is an optional started :class:`~repro.guard.QueryBudget`
    shipped from the parent.  Its deadline is an absolute
    ``CLOCK_MONOTONIC`` timestamp (system-wide on Linux), so each item
    evaluates under a fresh per-item clone that sees exactly the wall
    time the parent request has left.  An item that blows the budget
    becomes a marker row (see :func:`_budget_marker`) rather than a
    chunk failure.
    """
    global _WORKER_BASELINE
    started = time.perf_counter()
    strategy = Strategy(strategy_value)
    obs = NOOP
    if obs_spec is not None:
        obs = _WORKER_OBS
        if obs.tracer.enabled != obs_spec["trace"]:
            obs.tracer = SpanTracer() if obs_spec["trace"] else NULL_TRACER
    if epoch is not None:
        # Mutable-index mode: the chunk is pinned to one epoch; attach
        # (or re-attach) this worker's snapshot to match before any
        # probe or evaluation touches the corpus.
        _ensure_worker_epoch(epoch, obs)
    try:
        if fault is not None:
            apply_fault(fault)
        rows, totals = _item_rows(
            _WORKER_SOURCE, queries, items, strategy, _WORKER_CACHE, obs,
            budget, priced=bool(obs_spec and obs_spec["price"]))
    except BaseException:
        # Discard the failed attempt's telemetry: advance the metrics
        # baseline and drain the tracer, so the eventual
        # successful attempt (here or elsewhere) ships exactly once.
        if obs_spec is not None:
            _, _WORKER_BASELINE = capture_delta(obs, _WORKER_BASELINE)
        raise
    delta = None
    if obs_spec is not None:
        _WORKER_CACHE.export_metrics(obs.metrics)
        delta, _WORKER_BASELINE = capture_delta(obs, _WORKER_BASELINE)
    return rows, time.perf_counter() - started, delta, os.getpid(), totals


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class ParallelExecutor:
    """A warm process pool evaluating queries over one corpus source.

    Exactly one of ``documents=``, ``index_path=`` or ``mutable_index=``
    names the corpus; the constructor resolves it to the parent's
    source plus the picklable recipe workers attach their own from,
    and nothing after it cares which spelling was used.

    Parameters
    ----------
    documents:
        ``{name: Document}`` — an in-memory corpus, shipped to workers
        once at pool init.  The executor takes a snapshot; add/remove
        requires a new executor (collections handle this by
        invalidating their cached executor on
        :meth:`~DocumentCollection.add`).
    index_path:
        A shard index directory or an attached
        :class:`~repro.storage.shards.reader.ShardIndex`: the corpus
        stays on disk, this process and every worker attach their own
        handle (workers under the same ``cache_limit``), and documents
        materialise only when they match.  Under ``spawn`` the shard
        bytes ship as shared-memory segments instead of being re-read
        from the files; forked workers share the mmap for free.
    mutable_index:
        Directory of an epoch-versioned live index.  Workers get only
        the path and attach whichever epoch a run names; every run
        must pass ``snapshot=``, which is that run's source — the pool
        itself outlives any number of commits.
    workers:
        Pool size; defaults to :func:`default_workers`.
    start_method:
        ``"fork"`` (default where available) or ``"spawn"``.
    chunk_size:
        Items per scheduled chunk; default balances load as
        ``ceil(items / (4 * workers))``.
    obs:
        Default :class:`~repro.obs.Observability` handle for pool
        metrics; each call may override it.
    resilience:
        Default :class:`~repro.exec.resilience.RetryPolicy`; falls back
        to :data:`~repro.exec.resilience.DEFAULT_POLICY` (no deadline,
        two retries, serial degradation).  Each call may override it.
    faults:
        Optional :class:`~repro.exec.faults.FaultPlan` injected into
        every dispatch (tests / bench runner); each call may override.
    """

    def __init__(self, documents: Optional[Mapping[str, Document]] = None,
                 workers: Optional[int] = None,
                 start_method: Optional[str] = None,
                 chunk_size: Optional[int] = None,
                 obs: Optional[Observability] = None,
                 resilience: Optional[RetryPolicy] = None,
                 faults: Optional[FaultPlan] = None,
                 index_path=None,
                 mutable_index=None) -> None:
        if sum(spelling is not None for spelling in
               (documents, index_path, mutable_index)) != 1:
            raise DocumentError("ParallelExecutor requires exactly one "
                                "of documents=, index_path= or "
                                "mutable_index=")
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise QueryError(f"workers must be >= 1, got {self.workers}")
        self.start_method = (start_method if start_method is not None
                             else default_start_method())
        if mutable_index is not None:
            self._source = None  # each run's snapshot= is its source
            self._recipe = (None, os.fspath(mutable_index))
        elif index_path is not None:
            self._source = (index_path
                            if isinstance(index_path, ShardIndex)
                            else ShardIndex.attach(
                                index_path,
                                obs=obs if obs is not None else NOOP))
            self._recipe = (ShardIndex.from_spec, self._source.attach_spec(
                shared_memory=self.start_method == "spawn"))
        else:
            self._source = MemorySource(documents)
            self._recipe = (MemorySource, self._source.documents)
        if self._source is not None and not len(self._source):
            raise DocumentError("ParallelExecutor requires at least one "
                                "document")
        self._chunk_size = chunk_size
        self._obs = obs if obs is not None else NOOP
        self.resilience = (resilience if resilience is not None
                           else DEFAULT_POLICY)
        self.faults = faults
        self.last_report: ResilienceReport = ResilienceReport()
        self.degraded = False
        self._worker_ids: dict[int, str] = {}
        # Join memo of the parent-side serial fallback (documents and
        # indexes stay warm in the source, under its own bound).
        self._parent_cache = JoinCache()
        self._pool = self._new_pool()
        if self._obs.enabled:
            self._obs.metrics.gauge(
                POOL_WORKERS, "Workers in the current query pool."
            ).set(self.workers)

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(self.start_method),
            initializer=_init_worker, initargs=(self._recipe,))

    def _respawn_pool(self, report: ResilienceReport) -> None:
        """Tear the pool down hard and rebuild it (crash / hang path).

        ``shutdown`` alone cannot reclaim a wedged worker, so live
        worker processes are terminated first; futures still pending on
        the old pool resolve broken or cancelled and their chunks are
        re-dispatched by the caller.
        """
        pool, self._pool = self._pool, None
        try:
            for process in list(getattr(pool, "_processes", {}).values()):
                if process.is_alive():
                    process.terminate()
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass  # the old pool is unusable either way
        self._pool = self._new_pool()
        report.respawns += 1

    def _worker_label(self, pid: int) -> str:
        """A stable small ``worker=N`` label for one worker process.

        Indexes are assigned in order of first telemetry arrival, so
        labels are dense (0..workers-1) without cross-process
        coordination.
        """
        label = self._worker_ids.get(pid)
        if label is None:
            label = str(len(self._worker_ids))
            self._worker_ids[pid] = label
        return label

    # ------------------------------------------------------------------
    # Resilient dispatch
    # ------------------------------------------------------------------

    def _record_outcome(self, payload, outcomes, totals, ob) -> None:
        """Fold one successful chunk result into the parent state."""
        rows, chunk_seconds, delta, pid, chunk_totals = payload
        for name, query_index, row_payload in rows:
            outcomes[(name, query_index)] = row_payload
        totals.append(chunk_totals)
        if ob.enabled:
            ob.metrics.histogram(
                POOL_CHUNK_SECONDS,
                "Worker-measured seconds per chunk."
            ).observe(chunk_seconds)
            merge_delta(ob, delta, worker=self._worker_label(pid))

    def _fail(self, chunk_index: int, attempts: list[int],
              policy: RetryPolicy, pending: list[int],
              fallback: list[int], report: ResilienceReport,
              reason: str, cause: Optional[BaseException] = None) -> None:
        """Charge one failed attempt to a chunk and decide its fate.

        Within budget the chunk re-enters ``pending``; past it, the
        chunk joins the serial ``fallback`` list — or, with
        ``fallback="never"``, the whole run raises.
        """
        attempts[chunk_index] += 1
        report.note(f"chunk {chunk_index} attempt {attempts[chunk_index]}:"
                    f" {reason}")
        if attempts[chunk_index] <= policy.max_retries:
            report.retries += 1
            pending.append(chunk_index)
        elif policy.fallback == FALLBACK_SERIAL:
            fallback.append(chunk_index)
        else:
            raise ExecutionError(
                f"chunk {chunk_index} failed {attempts[chunk_index]} "
                f"time(s) ({reason}) and fallback is disabled"
            ) from cause

    def _dispatch(self, queries, chunks, strategy, obs_spec, ob,
                  policy: RetryPolicy, plan: Optional[FaultPlan],
                  outcomes, totals, report: ResilienceReport,
                  budget: Optional[QueryBudget] = None,
                  chunk_keys: Sequence[Optional[int]] = (),
                  source=None, epoch: Optional[int] = None) -> None:
        """Run every chunk to completion, surviving crashes and hangs.

        Chunks are dispatched in waves; a wave is the current pending
        set.  Failures charge an attempt to the chunk that caused them
        (crash, deadline, in-band exception); chunks lost as collateral
        when the pool breaks are re-queued without being charged.  A
        crash with several chunks in flight names no culprit: they run
        one per wave, uncharged, until a crash names it.
        Chunks that exhaust ``policy.max_retries`` are re-evaluated
        in-process at the end, through the exact serial path.
        """
        attempts = [0] * len(chunks)
        pending = list(range(len(chunks)))
        solo: list[int] = []  # suspects of a crash, dispatched alone
        fallback: list[int] = []
        rng = random.Random()
        stalled_waves = 0
        while pending or solo:
            if solo:
                wave = [solo.pop(0)]
            else:
                retried = [ci for ci in pending if attempts[ci]]
                if retried:
                    delay = max(policy.delay(attempts[ci] - 1, rng)
                                for ci in retried)
                    if delay:
                        time.sleep(delay)
                wave, pending = pending, []

            # Submit the wave.  A submit can only fail if the pool is
            # already broken; stash the rest of the wave for the next
            # round and let the collection loop (or, with nothing in
            # flight, an immediate respawn) repair the pool.
            futures: dict[int, object] = {}
            submit_broken = False
            for chunk_index in wave:
                if submit_broken:
                    pending.append(chunk_index)
                    continue
                fault = (plan.for_chunk(chunk_index, attempts[chunk_index])
                         if plan is not None else None)
                try:
                    futures[chunk_index] = self._pool.submit(
                        _run_chunk, queries, chunks[chunk_index],
                        strategy.value, obs_spec, fault, budget, epoch)
                except (BrokenExecutor, RuntimeError):
                    submit_broken = True
                    pending.append(chunk_index)
                    if not futures:
                        self._respawn_pool(report)
            if not futures:
                stalled_waves += 1
                if stalled_waves >= 2:
                    raise ExecutionError(
                        "worker pool cannot accept work after respawn; "
                        "giving up")
                continue
            stalled_waves = 0

            # Collect in submission order.  After a crash or timeout the
            # old pool is gone: salvage whatever already finished; the
            # rest is lost.
            broken = False
            crash: Optional[BrokenExecutor] = None
            lost: list[int] = []
            try:
                for chunk_index, future in futures.items():
                    if broken:
                        if future.done() and not future.cancelled():
                            try:
                                self._record_outcome(
                                    future.result(timeout=0), outcomes,
                                    totals, ob)
                                continue
                            except Exception:
                                pass
                        lost.append(chunk_index)
                        continue
                    try:
                        payload = future.result(timeout=policy.timeout_s)
                    except FuturesTimeout as exc:
                        report.timeouts += 1
                        self._respawn_pool(report)
                        broken = True
                        self._fail(chunk_index, attempts, policy, pending,
                                   fallback, report,
                                   reason=f"deadline of {policy.timeout_s}s"
                                          f" exceeded", cause=exc)
                    except BrokenExecutor as exc:
                        report.crashes += 1
                        self._respawn_pool(report)
                        broken, crash = True, exc
                        lost.append(chunk_index)
                    except Exception as exc:
                        self._fail(chunk_index, attempts, policy, pending,
                                   fallback, report,
                                   reason=f"worker raised "
                                          f"{type(exc).__name__}: {exc}",
                                   cause=exc)
                    else:
                        self._record_outcome(payload, outcomes, totals, ob)
                if crash is None:
                    pending.extend(lost)  # collateral of a timeout
                elif len(lost) == 1:
                    self._fail(lost[0], attempts, policy, pending,
                               fallback, report,
                               reason=f"worker pool broke "
                                      f"({type(crash).__name__})",
                               cause=crash)
                else:
                    solo.extend(lost)
            except ExecutionError:
                for future in futures.values():
                    future.cancel()
                raise

        # Graceful degradation: the surviving chunks run through the
        # worker's own item loop, in-process, over the parent's source
        # (the run's pinned snapshot on a mutable index), so callers
        # still get serial-identical answers.  Telemetry lands directly
        # on the parent handle, exactly like the serial path; the
        # request's own thread CPU already covers this work.
        for chunk_index in fallback:
            shard = chunk_keys[chunk_index]
            if shard is not None:
                report.failed_groups[shard] = \
                    report.failed_groups.get(shard, 0) + 1
            rows, chunk_totals = _item_rows(
                source, queries, chunks[chunk_index], strategy,
                self._parent_cache, ob, budget,
                priced=bool(obs_spec and obs_spec["price"]))
            for name, query_index, payload in rows:
                outcomes[(name, query_index)] = payload
            totals.append({qi: (predicted, 0.0, label) for qi, (
                predicted, _, label) in chunk_totals.items()})
            report.fallback_chunks += 1
            report.fallback_items += len(chunks[chunk_index])

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def search(self, query: Query,
               strategy: Strategy = Strategy.ANCHORED,
               documents: Optional[Iterable[str]] = None,
               obs: Optional[Observability] = None,
               resilience: Optional[RetryPolicy] = None,
               faults: Optional[FaultPlan] = None,
               budget: Optional[QueryBudget] = None,
               snapshot=None,
               request: Optional[Request] = None) -> CollectionResult:
        """Evaluate one query over the corpus; serial-identical result.
        ``request`` as for :meth:`run`."""
        return self.run([query], strategy=strategy, documents=documents,
                        obs=obs, resilience=resilience, faults=faults,
                        budget=budget, snapshot=snapshot,
                        requests=None if request is None else [request])[0]

    def run(self, queries: Sequence[Query],
            strategy: Strategy = Strategy.ANCHORED,
            documents: Optional[Iterable[str]] = None,
            obs: Optional[Observability] = None,
            resilience: Optional[RetryPolicy] = None,
            faults: Optional[FaultPlan] = None,
            budget: Optional[QueryBudget] = None,
            snapshot=None,
            requests: Optional[Sequence[Request]] = None
            ) -> list[CollectionResult]:
        """Evaluate a batch of queries in one scheduling wave.

        All ``(document, query)`` pairs are chunked together, so a
        multi-query batch keeps every worker busy even when single
        queries have few matching documents.  Returns one
        :class:`CollectionResult` per query, in query order.

        Dispatch is fault tolerant (see :mod:`repro.exec.resilience`):
        crashed or timed-out chunks are retried on a respawned pool,
        and chunks that exhaust the retry budget are re-evaluated
        serially in-process — so the result is serial-identical even
        under worker loss, unless ``resilience.fallback == "never"``
        (then :class:`~repro.errors.ExecutionError` is raised).

        ``budget`` composes with the retry machinery rather than
        fighting it: each ``(document, query)`` item evaluates under a
        fresh per-item clone sharing the parent's *absolute* deadline,
        and an item that blows its budget travels back as a marker row
        — not a chunk failure, so it is never retried — and is
        re-raised here as :class:`~repro.errors.BudgetExceeded`, in
        deterministic caller order, once dispatch completes.

        Each query is one :class:`~repro.core.evaluator.Request`: a
        caller that owns them (a collection search) hands them in as
        ``requests`` and finishes them; else the run opens and records
        one per query, under the ``parallel-search`` span.
        """
        ob = obs if obs is not None else self._obs
        policy = resilience if resilience is not None else self.resilience
        plan = faults if faults is not None else self.faults
        queries = list(queries)
        own = requests is None and ob.enabled
        if own:
            requests = [Request(ob, "pool", query, strategy.value,
                                budget=budget) for query in queries]
        source = snapshot if snapshot is not None else self._source
        if source is None:
            raise QueryError(
                "a mutable-index executor needs an epoch-pinned "
                "snapshot; pass snapshot= (see MutableIndex.snapshot)")
        targets = list(documents) if documents is not None else None
        for name in targets or ():
            if name not in source:
                raise DocumentError(f"unknown document {name!r}")
        # The keyword screen, in the parent: only (document, query)
        # pairs whose document holds every term become items.
        matching, total_skipped = [], 0
        for query in queries:
            found, screened = keyword_screen(source, query.terms, targets)
            matching.append(found)
            total_skipped += screened - len(found)
        items = [(name, qi) for qi, found in enumerate(matching)
                 for name in found]
        chunk_size = self._chunk_size or max(
            1, -(-len(items) // (4 * self.workers)))
        # Scatter: group items by shard so no chunk straddles a shard
        # boundary — each chunk touches exactly one mapped file,
        # failures attribute cleanly to a shard, and worker page-cache
        # locality follows the shard layout.  A snapshot's delta
        # documents report shard -1 and group ahead of the mapped
        # shards; in-memory documents all report None, one group in
        # item order.  The merge below still walks targets in caller
        # order (the gather), so results are unchanged.
        by_shard: dict[Optional[int], list] = {}
        for item in items:
            by_shard.setdefault(source.shard_of(item[0]), []).append(item)
        chunks = []
        chunk_keys: list[Optional[int]] = []
        for shard in sorted(by_shard):
            group = by_shard[shard]
            for i in range(0, len(group), chunk_size):
                chunks.append(group[i:i + chunk_size])
                chunk_keys.append(shard)

        if budget is not None:
            # Start before shipping: workers clone the *absolute*
            # monotonic deadline, which is valid across processes.
            budget.start()
        # Workers trace when we do, and price their items for a recorder.
        obs_spec = ({"trace": ob.tracer.enabled,
                     "price": ob.recorder is not None} if ob.enabled else None)
        outcomes: dict[tuple[str, int], object] = {}
        totals: list[dict] = []  # each chunk's priced totals
        report = ResilienceReport()
        try:
            with ob.span("parallel-search", workers=self.workers,
                         queries=len(queries), items=len(items),
                         chunks=len(chunks)) as span:
                dispatch_started = time.perf_counter()
                try:
                    self._dispatch(queries, chunks, strategy, obs_spec, ob,
                                   policy, plan, outcomes, totals,
                                   report, budget=budget,
                                   chunk_keys=chunk_keys, source=source,
                                   epoch=getattr(snapshot, "epoch", None))
                finally:
                    self.last_report = report
                    self.degraded = report.degraded
                    self._count_dispatch(
                        ob, span, report, len(items), len(chunks),
                        time.perf_counter() - dispatch_started)
        except Exception as exc:
            for request in requests if own else ():
                request.finish(exc, span)
            raise

        for chunk_totals in totals:
            for query_index, entry in chunk_totals.items():
                requests[query_index].add(None, 0, {}, *entry)
        results = []
        for query_index, query in enumerate(queries):
            request = requests[query_index] if requests else None
            per_document: dict[str, QueryResult] = {}
            # caller order => deterministic merge
            for name in matching[query_index]:
                payload = outcomes[(name, query_index)]
                if isinstance(payload, dict):
                    # First budget abort in caller order wins, matching
                    # where the serial path would have raised.
                    exc = _budget_error(payload)
                    if own:
                        request.finish(exc, span)
                    raise exc
                node_tuples, elapsed, stats = payload
                if request is not None:
                    request.add(name, len(node_tuples), stats, 0.0)
                document = source.document(name)
                fragments = frozenset(
                    Fragment(document, nodes, validate=False)
                    for nodes in node_tuples)
                per_document[name] = QueryResult(
                    query=query, fragments=fragments,
                    strategy=strategy.value, elapsed=elapsed, stats=stats)
            if own:
                request.finish(span=span)
            results.append(CollectionResult(query=query,
                                            per_document=per_document))
        if total_skipped:
            _count_skipped(ob, total_skipped)
        return results

    def _count_dispatch(self, ob, span, report: ResilienceReport,
                        items: int, chunks: int,
                        dispatch_seconds: float) -> None:
        """The pool's counters and the ``parallel-search`` span's
        attributes for one dispatch, also when it raised."""
        if not ob.enabled:
            return
        m = ob.metrics
        m.gauge(POOL_WORKERS, "Workers in the current query pool."
                ).set(self.workers)
        m.histogram(POOL_DISPATCH_SECONDS,
                    "Parent-side submit-to-merge seconds."
                    ).observe(dispatch_seconds)
        m.counter(POOL_TASKS,
                  "(document, query) items dispatched to the pool."
                  ).inc(items)
        m.counter(POOL_CHUNKS, "Chunks dispatched to the pool."
                  ).inc(chunks)
        m.counter(CHUNK_RETRIES,
                  "Chunk attempts re-dispatched after a failure."
                  ).inc(report.retries)
        m.counter(CHUNK_TIMEOUTS,
                  "Chunks that blew the per-chunk deadline."
                  ).inc(report.timeouts)
        m.counter(WORKER_CRASHES, "Worker-pool breakages observed."
                  ).inc(report.crashes)
        m.counter(POOL_RESPAWNS,
                  "Worker pools rebuilt after a crash or hang."
                  ).inc(report.respawns)
        m.counter(CHUNK_FALLBACKS,
                  "Chunks degraded to the in-process serial fallback."
                  ).inc(report.fallback_chunks)
        m.gauge(EXEC_DEGRADED,
                "1 while the last parallel run needed the serial "
                "fallback, else 0.").set(1 if report.degraded else 0)
        span.set(dispatch_seconds=round(dispatch_seconds, 6))
        if not report.clean:
            span.set(retries=report.retries, timeouts=report.timeouts,
                     crashes=report.crashes, respawns=report.respawns,
                     fallback_chunks=report.fallback_chunks)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def warm(self) -> None:
        """Start the worker processes now, from the calling thread.

        The pool launches its workers on the first submit (all of them
        under ``fork``), so one empty chunk is enough.  A server calls
        this from its main thread before it reads stdin: a child forked
        from a handler thread while the main thread sits in
        ``stdin.readline`` inherits that buffer's lock held, and hangs
        closing its own stdin.
        """
        self._pool.submit(_run_chunk, [], [], Strategy.ANCHORED.value,
                          None).result()

    def shutdown(self) -> None:
        """Terminate the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (f"ParallelExecutor(source={self._source!r}, "
                f"workers={self.workers}, "
                f"start_method={self.start_method!r})")
