"""Unified observability for the query engine (``repro.obs``).

One handle — an :class:`Observability` — bundles the three concerns a
query engine needs to watch itself:

* a **span tracer** (:mod:`repro.obs.tracer`) recording the nested
  phases of each query (parse → plan → optimize → execute → rank) with
  wall time and primitive-operation deltas;
* a **metrics registry** (:mod:`repro.obs.metrics`) with counters,
  gauges and histograms, exportable as JSON or Prometheus text;
* a **flight recorder** (:mod:`repro.obs.recorder`): the one
  per-request record — a bounded ring of profiles with a slow-query
  threshold, an optional JSONL sink and tail-sampled traces.

Every engine entry point (``evaluate``/``run_plan``/``stream_evaluate``:
one operator pipeline; ``optimize``, collections, the relational engine,
the ranker) accepts an optional ``obs=`` handle and defaults to
:data:`NOOP` — a singleton whose spans and instruments are shared no-op
objects, so the disabled path costs a call per phase and allocates nothing.

Typical use::

    from repro.obs import Observability
    obs = Observability()
    result = evaluate(document, query, obs=obs)
    print(obs.tracer.render())
    print(obs.metrics.to_prometheus())
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .delta import DELTAS_MERGED, ObsDelta, capture_delta, merge_delta
from .history import (DEFAULT_QUANTILES, HISTORY_SAMPLES, HISTORY_SERIES,
                      MetricsHistory)
from .metrics import (COST_ERROR_BUCKETS, DEFAULT_BUCKETS,
                      LATENCY_BUCKETS, LATENCY_LOG_BUCKETS, NULL_METRICS,
                      RATIO_BUCKETS, SIZE_LOG_BUCKETS, Counter, Gauge,
                      Histogram, MetricsRegistry, NullMetrics,
                      exponential_buckets)
from .slo import (ALERT_STATE_CODES, CRITICAL, FEEDBACK_TIGHTEN_ADMISSION,
                  FEEDBACK_TRIP_BREAKERS, OK, SLO_BURN_RATE, SLO_STATE,
                  WARNING, AlertState, Objective, SLOMonitor, parse_slo)
from .recorder import FlightRecorder, QueryProfile, RecorderConfig
from .tracer import (NULL_SPAN, NULL_TRACER, NullTracer, Span, SpanTracer)

__all__ = [
    "Observability", "NOOP",
    "SpanTracer", "NullTracer", "Span", "NULL_TRACER", "NULL_SPAN",
    "MetricsRegistry", "NullMetrics", "Counter", "Gauge", "Histogram",
    "NULL_METRICS", "DEFAULT_BUCKETS", "LATENCY_BUCKETS", "RATIO_BUCKETS",
    "exponential_buckets", "LATENCY_LOG_BUCKETS", "SIZE_LOG_BUCKETS",
    "COST_ERROR_BUCKETS",
    "FlightRecorder", "QueryProfile", "RecorderConfig",
    "COST_ERROR", "COST_CALIBRATION", "COST_PREDICTED", "COST_ACTUAL",
    "PROFILES_RECORDED", "TRACES_RETAINED", "TRACES_DROPPED",
    "SLOW_QUERIES",
    "ObsDelta", "capture_delta", "merge_delta", "DELTAS_MERGED",
    "MetricsHistory", "DEFAULT_QUANTILES",
    "HISTORY_SAMPLES", "HISTORY_SERIES",
    "SLOMonitor", "Objective", "AlertState", "parse_slo",
    "OK", "WARNING", "CRITICAL", "ALERT_STATE_CODES",
    "SLO_STATE", "SLO_BURN_RATE",
    "FEEDBACK_TIGHTEN_ADMISSION", "FEEDBACK_TRIP_BREAKERS",
]

# Well-known metric names recorded by Observability.record_query().
QUERIES_TOTAL = "repro_queries_total"
QUERIES_BY_STRATEGY = "repro_queries_by_strategy_total"
QUERY_LATENCY = "repro_query_latency_seconds"
QUERY_FRAGMENTS = "repro_query_fragments"
FRAGMENT_JOINS = "repro_fragment_joins_total"
JOIN_CACHE_HITS = "repro_join_cache_hits_total"
JOINS_PRUNED = "repro_joins_pruned_total"
PREDICATE_CHECKS = "repro_predicate_checks_total"
SUBSET_CHECKS = "repro_subset_checks_total"
FRAGMENTS_DISCARDED = "repro_fragments_discarded_total"
REDUCTION_FACTOR = "repro_reduction_factor"
FRAGMENTS_RANKED = "repro_fragments_ranked_total"
DOCUMENTS_SKIPPED = "repro_documents_skipped_total"

# Per-profile metric names, counted by record_query() when a flight
# recorder is attached.
PROFILES_RECORDED = "repro_recorder_profiles_total"
SLOW_QUERIES = "repro_slow_queries_total"
TRACES_RETAINED = "repro_recorder_traces_retained_total"
TRACES_DROPPED = "repro_recorder_traces_dropped_total"
COST_ERROR = "repro_cost_error_ratio"
COST_PREDICTED = "repro_cost_predicted_total"
COST_ACTUAL = "repro_cost_actual_total"
#: Gauge: summed actual / summed predicted cost per strategy, computed
#: from the two counters above when read (publish_calibration()).
COST_CALIBRATION = "repro_cost_calibration_ratio"

# Streaming pipeline metrics (recorded by repro.core.streaming and the
# collection/ranked streaming consumers).
STREAM_ROWS = "repro_stream_rows_total"
STREAM_EARLY_EXITS = "repro_stream_early_exits_total"
STREAM_ROUNDS = "repro_stream_rounds_total"
STREAM_SCORES_SKIPPED = "repro_stream_scores_skipped_total"

# JoinCache lifetime memo totals (exported by JoinCache.export_metrics).
JOIN_CACHE_MEMO_HITS = "repro_join_cache_memo_hits"
JOIN_CACHE_MEMO_MISSES = "repro_join_cache_memo_misses"
#: Gauge: entries the memo currently holds (bounded by ``max_entries``).
JOIN_CACHE_MEMO_ENTRIES = "repro_join_cache_memo_entries"

# Parallel-execution pool metrics (recorded by repro.exec).
POOL_WORKERS = "repro_pool_workers"
POOL_TASKS = "repro_pool_tasks_total"
POOL_CHUNKS = "repro_pool_chunks_total"
POOL_CHUNK_SECONDS = "repro_pool_chunk_seconds"
POOL_DISPATCH_SECONDS = "repro_pool_dispatch_seconds"
BATCH_QUERIES = "repro_batch_queries_total"

# Fault-tolerance metrics (recorded by repro.exec.resilience).
POOL_RESPAWNS = "repro_pool_respawns_total"
CHUNK_RETRIES = "repro_exec_chunk_retries_total"
CHUNK_TIMEOUTS = "repro_exec_chunk_timeouts_total"
WORKER_CRASHES = "repro_exec_worker_crashes_total"
CHUNK_FALLBACKS = "repro_exec_chunk_fallbacks_total"
#: Gauge: 1 while the last parallel run needed the serial fallback,
#: else 0.  Reflected by the /healthz and /varz endpoints.
EXEC_DEGRADED = "repro_exec_degraded"

#: Gauge: resident-set size of the serving process in bytes
#: (refreshed by the /metrics and /varz endpoints).
PROCESS_RSS = "repro_process_rss_bytes"

# Guard-rail metrics (recorded by repro.guard consumers: the collection
# layer, the CLI serve loop and the query-serving endpoint).
GUARD_ADMITTED = "repro_guard_admitted_total"
GUARD_REJECTED = "repro_guard_rejected_total"
GUARD_SHED = "repro_guard_shed_total"
GUARD_BUDGET_EXCEEDED = "repro_guard_budget_exceeded_total"
#: Gauge: circuit-breaker state (0 closed, 1 half-open, 2 open).
GUARD_BREAKER_STATE = "repro_guard_breaker_state"

# Sharded on-disk index metrics (recorded by repro.storage.shards).
SHARD_BUILD_SECONDS = "repro_shard_build_seconds"
SHARD_BYTES_WRITTEN = "repro_shard_bytes_written_total"
SHARD_ATTACH_SECONDS = "repro_shard_attach_seconds"
SHARD_ATTACH_FAILURES = "repro_shard_attach_failures_total"
#: Gauge: shards successfully mapped by this process.
SHARDS_ATTACHED = "repro_shards_attached"
#: Gauge: bytes of shard files currently mapped (mmap or shm).
SHARD_BYTES_MAPPED = "repro_shard_bytes_mapped"
SHARD_DOCS_MATERIALIZED = "repro_shard_documents_materialized_total"
#: Histogram: distinct shards touched per routed query.
SHARD_ROUTER_FANOUT = "repro_shard_router_fanout"
SHARD_ROUTER_SKIPPED = "repro_shard_router_skipped_total"
#: Counter (labelled ``shard=``, ``reason=``): shards excluded from a
#: routed run — breaker-open, attach-failed, or mid-run eviction.
SHARD_ROUTER_EXCLUSIONS = "repro_shard_router_exclusions_total"
#: Counter (labelled ``shard=``): mid-run evictions whose documents
#: were rerouted to the serial fallback.
SHARD_ROUTER_REROUTES = "repro_shard_router_reroutes_total"
#: Gauge (labelled ``shard=``): per-shard breaker state
#: (0 closed, 1 half-open, 2 open), mirroring GUARD_BREAKER_STATE.
SHARD_BREAKER_STATE = "repro_shard_breaker_state"

# Live-mutation metrics (recorded by repro.storage.mutation and the
# epoch re-attach path in repro.exec.parallel).
MUTATION_WAL_RECORDS = "repro_mutation_wal_records_total"
MUTATION_WAL_BYTES = "repro_mutation_wal_bytes_total"
MUTATION_COMMITS = "repro_mutation_commits_total"
#: Gauge: the last committed epoch of the writable index.
MUTATION_EPOCH = "repro_mutation_epoch"
#: Gauge: distinct epochs currently pinned by in-flight readers.
MUTATION_EPOCHS_PINNED = "repro_mutation_epochs_pinned"
MUTATION_EPOCHS_GCED = "repro_mutation_epochs_gced_total"
MUTATION_COMPACTIONS = "repro_mutation_compactions_total"
MUTATION_RECOVERY_SECONDS = "repro_mutation_recovery_seconds"
#: Counter: WAL bytes discarded at recovery (torn or uncommitted tail).
MUTATION_WAL_TAIL_DISCARDED = "repro_mutation_wal_tail_discarded_total"
#: Gauge: documents living in the committed delta segment.
MUTATION_DELTA_DOCUMENTS = "repro_mutation_delta_documents"
#: Counter: pool workers that re-attached after an epoch change
#: (instead of a pool rebuild).
MUTATION_WORKER_REATTACH = "repro_mutation_worker_reattach_total"

# Baseline evaluators (repro.baselines) recorded by record_baseline().
BASELINE_QUERIES = "repro_baseline_queries_total"
BASELINE_LATENCY = "repro_baseline_latency_seconds"
BASELINE_ANSWERS = "repro_baseline_answers"


class Observability:
    """The live observability handle: tracer + metrics + recorder.

    Parameters
    ----------
    tracer:
        A :class:`SpanTracer` (default) or :data:`NULL_TRACER` to keep
        metrics without spans.
    metrics:
        A :class:`MetricsRegistry` (default) or :data:`NULL_METRICS`.
    recorder:
        Optional :class:`FlightRecorder`; when present,
        :meth:`record_query` folds every request into it as one
        :class:`QueryProfile` (the query log: resource attribution,
        slow flag, §5 predicted-vs-measured cost, tail-sampled trace)
        and counts the profile's series.
    """

    enabled = True

    __slots__ = ("tracer", "metrics", "recorder")

    def __init__(self, tracer=None, metrics=None,
                 recorder: Optional[FlightRecorder] = None) -> None:
        self.tracer = tracer if tracer is not None else SpanTracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.recorder = recorder

    def span(self, name: str, stats=None, **attributes):
        """Open a span on the tracer (context manager)."""
        return self.tracer.span(name, stats=stats, **attributes)

    def record_query(self, *, document: str, terms: Sequence[str],
                     filter: str, strategy: str, answers: int,
                     elapsed: float, stats: Optional[Mapping] = None,
                     plan: Optional[str] = None, cpu_s: float = 0.0,
                     predicted_cost: Optional[float] = None,
                     peak_memory: Optional[int] = None,
                     documents: int = 1, checkpoints: int = 0,
                     outcome: str = "ok", reason: Optional[str] = None,
                     span=None) -> Optional[QueryProfile]:
        """Fold one request into metrics and the flight recorder.

        The one place a query is counted: the single recording call of
        a finished :class:`~repro.core.evaluator.Request` — a search, a
        ranked search, an EXPLAIN ANALYZE, one query of a batch or one
        single-document evaluation, however many document runs it took.
        ``document`` names its target (a collection or a document),
        ``documents`` counts the distinct documents it evaluated,
        ``elapsed``/``cpu_s`` are in seconds, ``stats`` the summed
        plain-dict operation counters, ``span`` the request's closed
        root span (serialised only if the recorder's sampling retains
        it).  An aborted request (``outcome != "ok"``) is recorded as a
        profile only: the ``repro_query*`` families count finished
        requests.
        """
        counters = dict(stats) if stats else {}
        if outcome == "ok":
            self._count_query(strategy, answers, elapsed, counters)
        recorder = self.recorder
        if recorder is None:
            return None
        profile = recorder.observe(
            document=document, terms=terms,
            filter=filter, strategy=strategy, answers=answers,
            elapsed=elapsed, cpu_s=cpu_s, stats=counters,
            outcome=outcome, reason=reason,
            predicted_cost=predicted_cost, peak_memory=peak_memory,
            checkpoints=checkpoints, plan=plan, documents=documents,
            span=span)
        self._count_profile(recorder, profile)
        return profile

    def _count_profile(self, recorder: FlightRecorder,
                       profile: QueryProfile) -> None:
        m = self.metrics
        m.counter(PROFILES_RECORDED,
                  "Queries folded into the flight recorder.").inc()
        if recorder.is_slow(profile):
            m.counter(SLOW_QUERIES,
                      "Queries at or over the slow threshold.").inc()
        ratio = profile.cost_ratio
        if ratio is not None:
            labels = {"strategy": profile.strategy}
            m.histogram(COST_ERROR,
                        "Measured/predicted Section-5 cost ratio per "
                        "query.", buckets=COST_ERROR_BUCKETS,
                        labels=labels).observe(ratio)
            m.counter(COST_PREDICTED,
                      "Summed Section-5 predicted plan cost.",
                      labels=labels).inc(profile.predicted_cost)
            m.counter(COST_ACTUAL, "Summed measured operation cost.",
                      labels=labels).inc(profile.actual_cost)
        if profile.trace_id is not None:
            m.counter(TRACES_RETAINED,
                      "Span trees retained by tail/head sampling.").inc()
            self.count_dropped_traces()

    def count_dropped_traces(self) -> None:
        """Catch ``repro_recorder_traces_dropped_total`` up with the
        recorder, the one store that drops a trace, after a profile
        retained one."""
        recorder = self.recorder
        if recorder is None or not recorder.traces_dropped:
            return
        dropped = self.metrics.counter(
            TRACES_DROPPED, "Retained traces evicted past max_traces.")
        if dropped.value < recorder.traces_dropped:
            dropped.inc(recorder.traces_dropped - dropped.value)

    def publish_calibration(self) -> dict[str, float]:
        """Set and return the per-strategy calibration gauges.

        ``{strategy: actual/predicted}`` over the summed
        ``repro_cost_predicted_total`` / ``repro_cost_actual_total``
        counters — which merge additively from pool workers, so a
        pooled run reads what a serial one does.  The gauge is a ratio,
        so it is computed when read (export, ``/varz``, exit), never
        counted on the query path or shipped in a worker delta.
        """
        m = self.metrics
        ratios = {}
        for predicted in m.instruments():
            if predicted.name != COST_PREDICTED or predicted.value <= 0:
                continue
            labels = dict(predicted.labels)
            actual = m.get(COST_ACTUAL, labels)
            if actual is None:
                continue
            ratio = ratios[labels["strategy"]] = \
                actual.value / predicted.value
            m.gauge(COST_CALIBRATION,
                    "Measured/predicted cost ratio per strategy "
                    "(running).", labels=labels).set(round(ratio, 6))
        return ratios

    def _count_query(self, strategy: str, answers: int, elapsed: float,
                     counters: Mapping) -> None:
        m = self.metrics
        m.counter(QUERIES_TOTAL, "Queries evaluated.").inc()
        m.counter(QUERIES_BY_STRATEGY, "Queries evaluated per strategy.",
                  labels={"strategy": strategy}).inc()
        m.histogram(QUERY_LATENCY, "End-to-end query latency.",
                    buckets=LATENCY_LOG_BUCKETS).observe(elapsed)
        m.histogram(QUERY_FRAGMENTS, "Answer fragments per query.",
                    buckets=SIZE_LOG_BUCKETS).observe(answers)
        discarded = counters.get("fragments_discarded", 0)
        m.counter(FRAGMENT_JOINS, "Fragment joins computed."
                  ).inc(counters.get("fragment_joins", 0))
        m.counter(JOIN_CACHE_HITS,
                  "Fixed points replayed from the JoinCache memo."
                  ).inc(counters.get("join_cache_hits", 0))
        m.counter(JOINS_PRUNED,
                  "Pairs never joined: past the next selection's "
                  "size/height/width bound by their labels alone."
                  ).inc(counters.get("joins_pruned", 0))
        m.counter(PREDICATE_CHECKS, "Filter evaluations performed."
                  ).inc(counters.get("predicate_checks", 0))
        m.counter(SUBSET_CHECKS, "Fragment containment tests."
                  ).inc(counters.get("subset_checks", 0))
        m.counter(FRAGMENTS_DISCARDED,
                  "Fragments pruned by pushed-down selections."
                  ).inc(discarded)
        if discarded + answers:
            m.histogram(REDUCTION_FACTOR,
                        "Fraction of candidate fragments pruned early.",
                        buckets=RATIO_BUCKETS
                        ).observe(discarded / (discarded + answers))

    def record_baseline(self, *, baseline: str, document: str,
                        terms: Sequence[str], answers: int,
                        elapsed: float) -> None:
        """Fold one finished baseline evaluation into metrics.

        Called by the :mod:`repro.baselines` entry points so
        baseline-vs-algebra bench comparisons share one registry;
        every series carries a ``baseline=`` label.
        """
        m = self.metrics
        labels = {"baseline": baseline}
        m.counter(BASELINE_QUERIES, "Baseline queries evaluated.",
                  labels=labels).inc()
        m.histogram(BASELINE_LATENCY, "Baseline query latency.",
                    buckets=LATENCY_BUCKETS, labels=labels
                    ).observe(elapsed)
        m.histogram(BASELINE_ANSWERS, "Baseline answers per query.",
                    labels=labels).observe(answers)


class _NoopObservability(Observability):
    """Observability disabled: shared null tracer/metrics, no recorder.

    A singleton (:data:`NOOP`); ``span()`` returns the allocation-free
    shared null span and ``record_query()`` does nothing.
    """

    enabled = False

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(tracer=NULL_TRACER, metrics=NULL_METRICS)

    def span(self, name: str, stats=None, **attributes):
        return NULL_SPAN

    def record_query(self, **kwargs) -> None:
        return None

    def record_baseline(self, **kwargs) -> None:
        return None


#: The shared disabled handle every ``obs=`` parameter defaults to.
NOOP = _NoopObservability()
