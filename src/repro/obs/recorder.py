"""Query flight recorder (``repro.obs.recorder``).

A :class:`FlightRecorder` keeps an always-on, bounded post-mortem
record of every answered request — the observability gap the metrics
registry leaves open: counters aggregate away the one bad request, and
full span trees for *all* traffic would be O(traffic) memory.  The
recorder is O(ring size) by construction, and its ring is the query
log: the one per-request record the engine keeps.

* every request (a search, however many documents it evaluates, or
  one single-document evaluation) becomes one :class:`QueryProfile`
  in a bounded ring — wall and CPU seconds, join ops / cache hits /
  budget checkpoints, the documents evaluated, the chosen strategy,
  the Section-5 *predicted* plan cost next to the *measured*
  operation count, and (opt-in) the ``tracemalloc``
  high-water mark — and, when a ``sink`` is configured, one JSON line
  (the format :func:`load_dump` reads back);
* profiles at or over ``RecorderConfig.slow_ms`` are the *slow
  queries* (:meth:`FlightRecorder.slow_profiles`, ``/slow``);
* **tail-based trace sampling**: the full span tree is retained only
  for queries that are slow, budget-aborted, errored, or randomly
  head-sampled at a configurable rate.  Everything else is dropped;
* retained traces are stored pre-converted to **Chrome trace-event**
  JSON (load the export in ``chrome://tracing`` or Perfetto).

A request is recorded in the process that answers it: pool workers
keep no recorder, and their spans graft under the request's root span.

The recorder touches no metrics registry: the per-query series — slow
queries, §5 cost counters, retained traces — are counted once, by
:meth:`repro.obs.Observability.record_query`, from the profile that
:meth:`FlightRecorder.observe` returns.
"""

from __future__ import annotations

import atexit
import io
import json
import os
import signal
import threading
import time
import tracemalloc
from collections import OrderedDict, deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, Optional, Sequence

__all__ = ["RecorderConfig", "QueryProfile", "FlightRecorder",
           "load_dump", "span_to_events"]

#: Stats counters summed into a profile's *measured* cost — the same
#: "primitive operations" currency the Section-5 ``CostEstimate`` prices
#: (keyword probes, join pair work, filter checks), so the calibration
#: ratio compares like with like.
_COST_COUNTERS = ("fragment_joins", "joins_pruned", "predicate_checks",
                  "subset_checks", "fragments_discarded")

# Retention reasons, in the order they are tried.
RETAIN_BUDGET = "budget-exceeded"
RETAIN_ERROR = "error"
RETAIN_SLOW = "slow"
RETAIN_HEAD = "head-sample"


@dataclass(frozen=True)
class RecorderConfig:
    """Tuning knobs for one :class:`FlightRecorder`.

    Parameters
    ----------
    ring_size:
        Profiles retained in the ring (oldest evicted first).
    max_traces:
        Full span trees retained; beyond it the oldest trace is
        dropped (the profile keeps its ``trace_id`` but the trace body
        is gone — ``traces_dropped`` counts this).
    slow_ms:
        The slow-query threshold: queries at or over this latency are
        *slow* — listed by ``/slow``, counted in
        ``repro_slow_queries_total`` and tail-sampled (they keep their
        trace).  ``None`` disables the distinction (nothing is slow).
    sample_rate:
        Head-sampling probability in ``[0, 1]``: this fraction of
        *healthy, fast* queries also keeps a trace, so the recorder
        sees normal traffic too, not just the tail.
    track_memory:
        Opt-in ``tracemalloc`` high-water tracking per query.  Starts
        ``tracemalloc`` lazily; meaningful for one query at a time
        (the peak is process-wide) and costs real time — keep it off
        on hot serving paths.
    seed:
        Seed for the head-sampling RNG (deterministic tests).
    """

    ring_size: int = 512
    max_traces: int = 32
    slow_ms: Optional[float] = 100.0
    sample_rate: float = 0.0
    track_memory: bool = False
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        if self.max_traces < 0:
            raise ValueError("max_traces must be >= 0")
        if self.slow_ms is not None and self.slow_ms < 0:
            raise ValueError("slow_ms must be >= 0")
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RecorderConfig":
        return cls(**{name: data[name]
                      for name in cls.__dataclass_fields__ if name in data})


@dataclass(slots=True)
class QueryProfile:
    """Per-query resource attribution — one ring entry.

    Not frozen: one is built per request on the hot path, and the
    frozen-dataclass ``object.__setattr__`` init costs ~3x a plain
    one.  Treat instances as read-only records all the same.
    ``document`` names the request's target (a collection, or the
    document of a single-document request) and ``documents`` counts
    the distinct documents it evaluated.
    """

    ts: float
    query_id: str
    document: str
    terms: tuple[str, ...]
    filter: str
    strategy: str
    answers: int
    wall_ms: float
    cpu_ms: float
    outcome: str = "ok"
    reason: Optional[str] = None
    join_ops: int = 0
    cache_hits: int = 0
    checkpoints: int = 0
    stats: dict = field(default_factory=dict)
    predicted_cost: Optional[float] = None
    actual_cost: Optional[float] = None
    peak_memory_bytes: Optional[int] = None
    documents: int = 1
    trace_id: Optional[str] = None
    retained: Optional[str] = None
    plan: Optional[str] = None

    @property
    def cost_ratio(self) -> Optional[float]:
        """Measured / predicted cost, the per-query calibration sample."""
        if self.predicted_cost and self.actual_cost is not None:
            return self.actual_cost / self.predicted_cost
        return None

    def to_dict(self) -> dict:
        record = {
            "ts": round(self.ts, 6),
            "query_id": self.query_id,
            "document": self.document,
            "terms": list(self.terms),
            "filter": self.filter,
            "strategy": self.strategy,
            "answers": self.answers,
            "wall_ms": round(self.wall_ms, 4),
            "cpu_ms": round(self.cpu_ms, 4),
            "outcome": self.outcome,
            "join_ops": self.join_ops,
            "cache_hits": self.cache_hits,
            "checkpoints": self.checkpoints,
            "documents": self.documents,
            "stats": dict(self.stats),
        }
        for key in ("reason", "predicted_cost", "actual_cost",
                    "peak_memory_bytes", "trace_id",
                    "retained", "plan"):
            value = getattr(self, key)
            if value is not None:
                record[key] = value
        ratio = self.cost_ratio
        if ratio is not None:
            record["cost_ratio"] = round(ratio, 6)
        return record

    @classmethod
    def from_dict(cls, data: Mapping) -> "QueryProfile":
        return cls(
            ts=float(data.get("ts", 0.0)),
            query_id=str(data.get("query_id", "?")),
            document=data.get("document", "?"),
            terms=tuple(data.get("terms", ())),
            filter=data.get("filter", ""),
            strategy=data.get("strategy", "?"),
            answers=int(data.get("answers", 0)),
            wall_ms=float(data.get("wall_ms", 0.0)),
            cpu_ms=float(data.get("cpu_ms", 0.0)),
            outcome=data.get("outcome", "ok"),
            reason=data.get("reason"),
            join_ops=int(data.get("join_ops", 0)),
            cache_hits=int(data.get("cache_hits", 0)),
            checkpoints=int(data.get("checkpoints", 0)),
            stats=dict(data.get("stats", ())),
            predicted_cost=data.get("predicted_cost"),
            actual_cost=data.get("actual_cost"),
            peak_memory_bytes=data.get("peak_memory_bytes"),
            documents=int(data.get("documents", 1)),
            trace_id=data.get("trace_id"),
            retained=data.get("retained"),
            plan=data.get("plan"))

    def to_json(self) -> str:
        """One JSONL line (no newline) that :func:`load_dump` reads."""
        record = {"type": "profile"}
        record.update(self.to_dict())
        return json.dumps(record, sort_keys=False, default=str)


def span_to_events(span, *, pid: int = 0, tid: int = 0,
                   origin: Optional[float] = None,
                   offset_us: float = 0.0) -> list[dict]:
    """Flatten one closed span (tree) into Chrome trace events.

    Live spans carry real ``perf_counter`` start times, so nested
    events land at their true offsets; rehydrated spans (``started``
    pinned, see :meth:`~repro.obs.tracer.Span.from_dict`) fall back to
    laying siblings out end-to-end.  Events are complete (``"ph": "X"``)
    with microsecond ``ts``/``dur`` — the units ``chrome://tracing``
    and Perfetto expect.
    """
    if origin is None:
        if span.started:
            origin = span.started
        elif any(child.started for child in span.children):
            # Rehydrated tree: root pinned to 0 but children carry
            # real start offsets (see Span.from_dict).
            origin = 0.0
    if origin is not None and span.started:
        ts_us = (span.started - origin) * 1e6
    else:
        ts_us = offset_us
    duration_us = max(0.0, span.duration * 1e6)
    args: dict = dict(span.attributes)
    if span.work:
        args["work"] = dict(span.work)
    event = {"name": span.name, "ph": "X", "pid": pid, "tid": tid,
             "ts": round(ts_us, 3), "dur": round(duration_us, 3)}
    if args:
        event["args"] = args
    events = [event]
    child_offset = ts_us
    for child in span.children:
        child_events = span_to_events(child, pid=pid, tid=tid,
                                      origin=origin,
                                      offset_us=child_offset)
        events.extend(child_events)
        child_offset = child_events[0]["ts"] + child_events[0]["dur"]
    return events


def _trace_body(span) -> Optional[dict]:
    """A retained trace: the span tree as Chrome events plus its
    nested-dict form, or ``None`` for a span that will not serialise
    (a half-broken span must not kill the query)."""
    try:
        return {"events": span_to_events(span, pid=os.getpid()),
                "spans": [span.to_dict()]}
    except Exception:
        return None


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class FlightRecorder:
    """Bounded per-query post-mortem ring with tail-sampled traces.

    ``sink`` is where one JSON line per profile goes: a file-like
    object (``write`` gets the line plus a newline) or a callable
    receiving the bare line; ``None`` keeps profiles in memory only.

    Thread safety: all mutation and snapshots hold one lock; snapshots
    return copies, so the ``/slow`` and ``/debug/flightrecorder``
    endpoints can read the ring from HTTP server threads while queries
    keep landing.
    """

    def __init__(self, config: Optional[RecorderConfig] = None,
                 sink=None,
                 clock: Callable[[], float] = time.time) -> None:
        self.config = config if config is not None else RecorderConfig()
        self._sink = sink
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: deque[QueryProfile] = deque(
            maxlen=self.config.ring_size)
        self._traces: "OrderedDict[str, dict]" = OrderedDict()
        self._seq = 0
        self.recorded = 0
        self.evicted = 0
        self.traces_retained = 0
        self.traces_dropped = 0
        import random
        self._rng = random.Random(self.config.seed)
        self._memory_on = False
        self._id_prefix = f"q{os.getpid():x}-"

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _next_id(self) -> str:
        self._seq += 1
        return self._id_prefix + format(self._seq, "06d")

    def _retain_reason(self, outcome: str,
                       wall_ms: float) -> Optional[str]:
        if outcome == "budget-exceeded":
            return RETAIN_BUDGET
        if outcome != "ok":
            return RETAIN_ERROR
        if self.config.slow_ms is not None \
                and wall_ms >= self.config.slow_ms:
            return RETAIN_SLOW
        if self.config.sample_rate > 0 \
                and self._rng.random() < self.config.sample_rate:
            return RETAIN_HEAD
        return None

    def measured_cost(self, stats: Mapping, answers: int) -> float:
        """A query's measured cost in Section-5 operation units."""
        total = float(answers)
        for key in _COST_COUNTERS:
            total += stats.get(key, 0)
        return max(1.0, total)

    def observe(self, *, document: str, terms: Sequence[str],
                filter: str, strategy: str, answers: int,
                elapsed: float, cpu_s: float = 0.0,
                stats: Optional[Mapping] = None, outcome: str = "ok",
                reason: Optional[str] = None,
                predicted_cost: Optional[float] = None,
                peak_memory: Optional[int] = None,
                checkpoints: int = 0, plan: Optional[str] = None,
                documents: int = 1, span=None) -> QueryProfile:
        """Fold one finished (or aborted) request into the recorder.

        ``documents`` counts the documents the request evaluated.
        ``span`` is the request's *closed* root span, held only for this
        call and serialized to Chrome events only if the tail/head
        sampling decision retains it (the profile then carries a
        ``trace_id``).
        """
        if stats is None:
            counters = {}
        elif type(stats) is dict:
            counters = stats  # callers pass a fresh as_dict() snapshot
        else:
            counters = dict(stats)
        wall_ms = elapsed * 1000.0
        actual = (self.measured_cost(counters, answers)
                  if predicted_cost is not None else None)
        retained = self._retain_reason(outcome, wall_ms)
        trace = None
        if retained is not None and span is not None \
                and self.config.max_traces > 0:
            trace = _trace_body(span)
        with self._lock:
            query_id = self._next_id()
            trace_id = query_id if trace is not None else None
            profile = QueryProfile(
                ts=self._clock(), query_id=query_id, document=document,
                terms=tuple(terms), filter=filter, strategy=strategy,
                answers=answers, wall_ms=wall_ms, cpu_ms=cpu_s * 1000.0,
                outcome=outcome, reason=reason,
                join_ops=counters.get("fragment_joins", 0),
                cache_hits=counters.get("join_cache_hits", 0),
                checkpoints=checkpoints, stats=counters,
                predicted_cost=predicted_cost, actual_cost=actual,
                peak_memory_bytes=peak_memory, documents=documents,
                trace_id=trace_id, retained=retained,
                plan=plan)
            self._append(profile)
            if trace is not None:
                self._store_trace(trace_id, trace)
        return profile

    def _append(self, profile: QueryProfile) -> None:
        """Ring append and sink line under the lock (one choke point,
        so the ring, the sink and the counts stay coherent across
        threads), counting evictions."""
        if len(self._ring) == self._ring.maxlen:
            self.evicted += 1
        self._ring.append(profile)
        self.recorded += 1
        sink = self._sink
        if sink is not None:
            if callable(sink):
                sink(profile.to_json())
            else:
                sink.write(profile.to_json() + "\n")

    def is_slow(self, profile: QueryProfile) -> bool:
        """Whether ``profile`` is at or over ``config.slow_ms``."""
        slow_ms = self.config.slow_ms
        return slow_ms is not None and profile.wall_ms >= slow_ms

    def slow_profiles(self) -> list[QueryProfile]:
        """Retained profiles at or over the threshold (a copy)."""
        return [p for p in self.profiles if self.is_slow(p)]

    def _store_trace(self, trace_id: str, body: dict) -> None:
        self._traces[trace_id] = body
        self.traces_retained += 1
        while len(self._traces) > self.config.max_traces:
            self._traces.popitem(last=False)
            self.traces_dropped += 1

    # -- opt-in memory high-water -------------------------------------

    def begin_memory(self) -> bool:
        """Arm the per-query ``tracemalloc`` peak; returns whether
        tracking is live (pass the token to :meth:`end_memory`)."""
        if not self.config.track_memory:
            return False
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._memory_on = True
        tracemalloc.reset_peak()
        return True

    def end_memory(self, token: bool) -> Optional[int]:
        """The peak traced bytes since :meth:`begin_memory`."""
        if not token or not tracemalloc.is_tracing():
            return None
        return tracemalloc.get_traced_memory()[1]

    def close(self) -> None:
        """Stop ``tracemalloc`` if this recorder started it."""
        if self._memory_on and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._memory_on = False

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------

    @property
    def profiles(self) -> list[QueryProfile]:
        """Retained profiles, oldest first (a snapshot copy)."""
        with self._lock:
            return list(self._ring)

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def chrome_trace(self, trace_id: str) -> Optional[dict]:
        """One retained trace as a Chrome trace-event document."""
        with self._lock:
            body = self._traces.get(trace_id)
        if body is None:
            return None
        return {"traceEvents": list(body.get("events", ())),
                "displayTimeUnit": "ms",
                "metadata": {"trace_id": trace_id,
                             "recorder": "repro.obs.recorder"}}

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p90/p99 wall latency (ms) over the current ring."""
        values = sorted(p.wall_ms for p in self.profiles)
        return {"p50_ms": round(_percentile(values, 0.50), 4),
                "p90_ms": round(_percentile(values, 0.90), 4),
                "p99_ms": round(_percentile(values, 0.99), 4),
                "samples": len(values)}

    def snapshot(self, limit: int = 50) -> dict:
        """The ``/debug/flightrecorder`` document."""
        with self._lock:
            profiles = list(self._ring)[-limit:]
            trace_ids = list(self._traces)
            counts = {"recorded": self.recorded,
                      "evicted": self.evicted,
                      "in_ring": len(self._ring),
                      "traces_retained": self.traces_retained,
                      "traces_dropped": self.traces_dropped,
                      "traces_in_store": len(trace_ids)}
        outcomes: dict[str, int] = {}
        for profile in profiles:
            outcomes[profile.outcome] = outcomes.get(profile.outcome,
                                                     0) + 1
        return {"config": self.config.to_dict(),
                "counts": counts,
                "latency": self.latency_percentiles(),
                "outcomes": outcomes,
                "traces": trace_ids,
                "profiles": [p.to_dict() for p in profiles]}

    def to_jsonl(self) -> str:
        """The whole ring + retained traces, one JSON object per line."""
        with self._lock:
            profiles = list(self._ring)
            traces = dict(self._traces)
        buffer = io.StringIO()
        for profile in profiles:
            buffer.write(profile.to_json() + "\n")
        for trace_id, body in traces.items():
            buffer.write(json.dumps(
                {"type": "trace", "id": trace_id,
                 "events": body.get("events", []),
                 "spans": body.get("spans", [])},
                sort_keys=False, default=str) + "\n")
        return buffer.getvalue()

    def dump(self, path) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns lines written."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return text.count("\n")

    # ------------------------------------------------------------------
    # On-abort dump hook
    # ------------------------------------------------------------------

    def install_dump_hook(self, path,
                          signals: Sequence[int] = (signal.SIGTERM,)
                          ) -> Callable[[], None]:
        """Dump the ring to ``path`` on interpreter exit or a signal.

        Registers an :mod:`atexit` hook plus handlers for ``signals``
        that write the JSONL dump and then re-deliver the signal's
        previous disposition, so a crashed or killed ``serve`` process
        leaves a post-mortem artifact behind.  Returns an uninstaller
        (idempotent) that also removes the atexit hook.

        Idempotent and re-registration-safe: all hooks share one
        process-wide registry, so installing again for the *same*
        recorder (a long-lived process invoking ``serve`` repeatedly)
        replaces the previous registration instead of stacking a
        second dump, distinct recorders coexist and each dumps exactly
        once, the atexit hook and each signal handler are installed at
        most once per process, and uninstalling the last hook restores
        the original signal dispositions.
        """
        return _DUMP_HOOKS.install(self, path, signals)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:
        return (f"FlightRecorder(ring={len(self)}/"
                f"{self.config.ring_size}, "
                f"traces={len(self.trace_ids())}, "
                f"recorded={self.recorded})")


class _DumpHookRegistry:
    """Process-wide ledger behind :meth:`FlightRecorder.install_dump_hook`.

    One atexit hook and one handler per signal are ever installed, no
    matter how many times hooks are (re)registered; each registered
    recorder dumps at most once; re-registering the same recorder
    replaces its previous entry (path and all); removing the last entry
    restores the original signal dispositions and unregisters the
    atexit hook, so a fresh install later re-arms cleanly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next_token = 0
        #: token -> (recorder, dump path)
        self._entries: dict[int, tuple] = {}
        self._dumped: set[int] = set()
        #: id(recorder) -> its current token (re-registration replaces)
        self._token_by_recorder: dict[int, int] = {}
        self._atexit_armed = False
        #: signum -> the handler that was installed before ours
        self._previous: dict[int, object] = {}

    def install(self, recorder: FlightRecorder, path,
                signals: Sequence[int]) -> Callable[[], None]:
        with self._lock:
            stale = self._token_by_recorder.pop(id(recorder), None)
            if stale is not None:
                self._entries.pop(stale, None)
                self._dumped.discard(stale)
            token = self._next_token
            self._next_token += 1
            self._entries[token] = (recorder, path)
            self._token_by_recorder[id(recorder)] = token
            if not self._atexit_armed:
                atexit.register(self._dump_all)
                self._atexit_armed = True
            for signum in signals:
                if signum in self._previous:
                    continue  # one dispatcher per signal, ever
                try:
                    self._previous[signum] = signal.signal(
                        signum, self._on_signal)
                except (ValueError, OSError):  # non-main thread
                    pass

        def uninstall() -> None:
            self._uninstall(token)

        return uninstall

    def _dump_all(self) -> None:
        with self._lock:
            pending = [(token, recorder, path)
                       for token, (recorder, path)
                       in sorted(self._entries.items())
                       if token not in self._dumped]
            self._dumped.update(token for token, _, _ in pending)
        for _token, recorder, path in pending:
            try:
                recorder.dump(path)
            except OSError:
                pass

    def _on_signal(self, signum, frame) -> None:
        self._dump_all()
        handler = self._previous.get(signum)
        signal.signal(signum, handler if callable(handler)
                      or handler in (signal.SIG_IGN, signal.SIG_DFL)
                      else signal.SIG_DFL)
        signal.raise_signal(signum)

    def _uninstall(self, token: int) -> None:
        with self._lock:
            entry = self._entries.pop(token, None)
            self._dumped.discard(token)
            if entry is not None:
                recorder_id = id(entry[0])
                if self._token_by_recorder.get(recorder_id) == token:
                    del self._token_by_recorder[recorder_id]
            if not self._entries:
                self._disarm_locked()

    def _disarm_locked(self) -> None:
        if self._atexit_armed:
            atexit.unregister(self._dump_all)
            self._atexit_armed = False
        for signum, handler in self._previous.items():
            try:
                if signal.getsignal(signum) == self._on_signal:
                    signal.signal(signum, handler)
            except (ValueError, OSError, TypeError):
                pass
        self._previous.clear()

    def stats(self) -> dict:
        """Registry introspection (tests and debugging)."""
        with self._lock:
            return {"entries": len(self._entries),
                    "atexit_armed": self._atexit_armed,
                    "signals": sorted(self._previous)}


#: The process-wide dump-hook registry.
_DUMP_HOOKS = _DumpHookRegistry()


def load_dump(path) -> tuple[list[QueryProfile], dict[str, dict]]:
    """Read a :meth:`FlightRecorder.dump` JSONL file back.

    Returns ``(profiles, traces)``; malformed lines are skipped so a
    truncated crash dump still loads.
    """
    profiles: list[QueryProfile] = []
    traces: dict[str, dict] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            kind = record.get("type")
            if kind == "profile":
                profiles.append(QueryProfile.from_dict(record))
            elif kind == "trace" and record.get("id"):
                traces[record["id"]] = {
                    "events": record.get("events", []),
                    "spans": record.get("spans", [])}
    return profiles, traces
