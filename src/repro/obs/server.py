"""A live metrics + query-serving endpoint over one
:class:`~repro.obs.Observability`.

:class:`MetricsServer` runs a stdlib :class:`ThreadingHTTPServer` on a
daemon thread and serves the handle's current state:

``GET /metrics``
    Prometheus text exposition (format 0.0.4) of the metrics registry —
    point a Prometheus scrape job straight at it.
``GET /healthz``
    ``ok`` (liveness probe) — ``degraded`` while the
    ``repro_exec_degraded`` gauge is set, ``breaker-open`` while the
    query circuit breaker is open (both still HTTP 200: the server
    keeps answering), and ``draining`` with HTTP 503 once shutdown has
    begun.
``GET /varz``
    The whole registry as JSON, plus server uptime, the degraded flag,
    the flight-recorder ring and (with a collection attached) the
    guard-rail state: queue depth, in-flight count, breaker state.
``GET /slow``
    The ring's profiles at or over the recorder's ``slow_ms``, as a
    JSON array.
``GET /debug/flightrecorder``, ``GET /debug/trace/<id>``
    The recorder's snapshot and one retained trace (Chrome trace-event
    JSON); a handle served without a recorder is given a default one.
``GET /timeseries?name=&window=``
    Ring-buffer time series from an attached
    :class:`~repro.obs.MetricsHistory` sampler: without ``name`` the
    series catalog, with it every label set of that metric as
    point-by-point JSON (counter deltas/rates, gauge values, histogram
    quantiles per interval) plus a trailing-``window``-seconds
    aggregate.  404 when no sampler is attached.
``GET /alertz``
    Machine-readable SLO alert states from an attached
    :class:`~repro.obs.SLOMonitor` — per-objective fast/slow burn
    rates, ok/warning/critical state and hysteresis bookkeeping.  Any
    critical alert also flips ``/healthz`` to ``degraded``.
``POST /query``
    Evaluate one query against the attached
    :class:`~repro.collection.DocumentCollection`, behind the full
    guard-rail stack (see :class:`QueryGuardrails`): bounded admission
    queue (HTTP 429 when full), concurrency semaphore (503 on wait
    timeout), pre-admission cost screen (422), per-request deadlines
    propagated into a :class:`~repro.guard.QueryBudget` (422 on budget
    abort), and a circuit breaker that fails fast (503) after
    consecutive execution failures.  Load-shedding responses carry
    ``Retry-After``.
``POST /ingest``
    Add/replace/remove documents on a *writable* collection
    (:class:`~repro.collection.MutableDocumentCollection`, served via
    ``repro-search serve --index DIR --writable``): the batch is
    validated whole, applied through the WAL under a single-writer
    lock, and (by default) committed as one new epoch before the
    response returns.  Writes share the admission queue and
    concurrency slots with queries; read-only collections answer 403.
    In-flight queries are unaffected — each pinned its epoch at
    admission.

Unsupported methods get HTTP 405 with an ``Allow`` header rather than
a hang or a 404 fallthrough; unknown paths get 404.

Reads are snapshots: each request renders the registry at that moment,
so a long-running search can be watched live::

    obs = Observability(recorder=FlightRecorder(RecorderConfig(slow_ms=50)))
    with MetricsServer(obs, collection=collection) as server:
        print(f"query endpoint at {server.url}/query")

The CLI wires this up via ``repro-search … --metrics-port N`` (serve
while the search runs) and ``repro-search serve`` (serve queries over
HTTP and stdin).  Only stdlib is used; there is no dependency on a
Prometheus client library.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import threading
import time
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Mapping, Optional
from urllib.parse import parse_qs, urlsplit

from ..core.query import Query
from ..core.queryparser import parse_filter, parse_query
from ..core.strategies import Strategy
from ..errors import (AdmissionRejected, BudgetExceeded, ExecutionError,
                      ReproError)
from ..guard.admission import AdmissionPolicy
from ..guard.breaker import BREAKER_STATE_CODES, OPEN, CircuitBreaker
from ..guard.budget import QueryBudget
from . import (EXEC_DEGRADED, GUARD_ADMITTED, GUARD_BREAKER_STATE,
               GUARD_REJECTED, GUARD_SHED, PROCESS_RSS, FlightRecorder,
               Observability)
from .history import MetricsHistory
from .slo import (CRITICAL, FEEDBACK_TIGHTEN_ADMISSION,
                  FEEDBACK_TRIP_BREAKERS, AlertState, SLOMonitor)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..collection.collection import DocumentCollection

__all__ = ["MetricsServer", "QueryGuardrails", "process_stats"]


def process_stats() -> dict:
    """Resource facts about this process for ``/varz``.

    Linux reads ``/proc/self`` (RSS from ``VmRSS``, FD count from
    ``/proc/self/fd``); elsewhere RSS degrades to ``resource``'s
    ``ru_maxrss`` and missing facts are ``None`` rather than errors.

    ``ru_maxrss`` is a lifetime *peak*, not the current resident set
    (and on darwin it is reported in bytes, not KiB), so ``rss_kind``
    labels what ``rss_bytes`` actually is: ``"current"`` (procfs),
    ``"peak"`` (rusage fallback) or ``None`` when unavailable.
    Consumers that plot live memory — the RSS gauge, the time-series
    sampler — must skip peak values: a flat lifetime high-water mark
    masquerading as live memory is worse than no series at all.
    """
    rss = None
    rss_kind = None
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    rss = int(line.split()[1]) * 1024
                    rss_kind = "current"
                    break
    except (OSError, ValueError, IndexError):
        pass
    if rss is None:  # pragma: no cover - non-Linux fallback
        try:
            import resource
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rss = peak if sys.platform == "darwin" else peak * 1024
            rss_kind = "peak"
        except Exception:
            rss = None
            rss_kind = None
    open_fds = None
    try:
        open_fds = len(os.listdir("/proc/self/fd"))
    except OSError:  # pragma: no cover - non-procfs platform
        pass
    return {"pid": os.getpid(),
            "rss_bytes": rss,
            "rss_kind": rss_kind,
            "open_fds": open_fds,
            "python": platform.python_version(),
            "platform": platform.platform()}

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest accepted ``POST /query`` body.
MAX_BODY_BYTES = 1 << 20


@dataclass(frozen=True)
class QueryGuardrails:
    """Serving-side guard-rail configuration for ``POST /query``.

    Parameters
    ----------
    max_concurrency:
        Queries evaluating at once; the rest wait on the semaphore.
    max_queue:
        Requests allowed to wait for a slot; beyond it the server
        sheds with HTTP 429.
    queue_timeout_s:
        Longest a queued request waits for a slot before shedding
        with HTTP 503.
    retry_after_s:
        ``Retry-After`` hint on every shed response.
    default_deadline_ms:
        Server-side wall-clock ceiling per query.  A request may ask
        for less but never more (the effective deadline is the
        minimum of the two).
    max_join_ops / max_live_fragments / max_candidates:
        Default per-query :class:`~repro.guard.QueryBudget` limits;
        ``max_join_ops`` may be tightened per request.
    admission:
        Optional :class:`~repro.guard.AdmissionPolicy`: cost-screen
        every query before evaluation (HTTP 422 on rejection).
    breaker_failures / breaker_reset_s:
        Circuit-breaker trip threshold and cooldown.
    strategy / workers / resilience / faults:
        Evaluation configuration forwarded to
        :meth:`DocumentCollection.search` (``faults`` exists for
        deterministic failure-injection tests).
    """

    max_concurrency: int = 4
    max_queue: int = 16
    queue_timeout_s: float = 2.0
    retry_after_s: float = 1.0
    default_deadline_ms: Optional[float] = None
    max_join_ops: Optional[int] = None
    max_live_fragments: Optional[int] = None
    max_candidates: Optional[int] = None
    admission: Optional[AdmissionPolicy] = None
    breaker_failures: int = 5
    breaker_reset_s: float = 30.0
    strategy: Strategy = Strategy.ANCHORED
    workers: Optional[int] = None
    resilience: object = None
    faults: object = None

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")


class _GuardState:
    """Mutable serving state: queue, semaphore, breaker, drain flag."""

    def __init__(self, rails: QueryGuardrails) -> None:
        self.rails = rails
        self.semaphore = threading.Semaphore(rails.max_concurrency)
        self.lock = threading.Lock()
        self.idle = threading.Condition(self.lock)
        self.queued = 0
        self.in_flight = 0
        self.draining = False
        # SLO feedback: < 1.0 scales the admission policy's max_cost
        # down while a burn-rate alert is critical.
        self.admission_scale = 1.0
        self.tightenings = 0
        self.breaker = CircuitBreaker(
            failure_threshold=rails.breaker_failures,
            reset_s=rails.breaker_reset_s)

    def try_enqueue(self) -> Optional[str]:
        """Join the admission queue; a string names the shed reason."""
        with self.lock:
            if self.draining:
                return "draining"
            if self.queued >= self.rails.max_queue:
                return "queue-full"
            self.queued += 1
            return None

    def acquire_slot(self) -> bool:
        """Wait (bounded) for an evaluation slot; leaves the queue."""
        acquired = self.semaphore.acquire(
            timeout=self.rails.queue_timeout_s)
        with self.lock:
            self.queued -= 1
            if acquired:
                self.in_flight += 1
        return acquired

    def release_slot(self) -> None:
        self.semaphore.release()
        with self.idle:
            self.in_flight -= 1
            self.idle.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting and wait for in-flight queries to finish."""
        with self.idle:
            self.draining = True
            return self.idle.wait_for(
                lambda: self.in_flight == 0 and self.queued == 0,
                timeout=timeout)

    def tighten_admission(self, factor: float = 0.5,
                          floor: float = 0.125) -> float:
        """Scale the admission cost ceiling down (SLO feedback on a
        critical burn-rate alert); returns the new scale."""
        with self.lock:
            self.admission_scale = max(floor,
                                       self.admission_scale * factor)
            self.tightenings += 1
            return self.admission_scale

    def relax_admission(self) -> None:
        """Restore the configured admission policy (alert cleared)."""
        with self.lock:
            self.admission_scale = 1.0

    def effective_admission(self) -> Optional[AdmissionPolicy]:
        """The configured admission policy with any SLO tightening
        applied (``None`` when no policy is configured)."""
        base = self.rails.admission
        with self.lock:
            scale = self.admission_scale
        if base is None or scale >= 1.0:
            return base
        return replace(base, max_cost=base.max_cost * scale)

    def snapshot(self) -> dict:
        with self.lock:
            return {"queued": self.queued,
                    "in_flight": self.in_flight,
                    "draining": self.draining,
                    "max_concurrency": self.rails.max_concurrency,
                    "max_queue": self.rails.max_queue,
                    "admission_scale": self.admission_scale,
                    "tightenings": self.tightenings,
                    "breaker": self.breaker.to_dict()}


def _parse_ingest(payload: Mapping) -> tuple[list, list[str], bool]:
    """Validate one ``POST /ingest`` body into (adds, removes, commit).

    ``{"documents": [{"name": ..., "xml": ...}, ...],
    "remove": [name, ...], "commit": true}`` — every document is parsed
    here, before any guarded resource or WAL byte is consumed, so a bad
    batch is rejected whole.
    """
    from ..xmltree.parser import parse
    if not isinstance(payload, Mapping):
        raise ReproError("request body must be a JSON object")
    specs = payload.get("documents", [])
    if not isinstance(specs, (list, tuple)):
        raise ReproError('"documents" must be a list')
    adds = []
    for spec in specs:
        if (not isinstance(spec, Mapping)
                or not isinstance(spec.get("name"), str)
                or not spec["name"]
                or not isinstance(spec.get("xml"), str)):
            raise ReproError('each document needs a non-empty "name" '
                             'and an "xml" string')
        adds.append((spec["name"], parse(spec["xml"],
                                         name=spec["name"])))
    removes = payload.get("remove", [])
    if isinstance(removes, str):
        removes = [removes]
    if not isinstance(removes, (list, tuple)) \
            or not all(isinstance(n, str) and n for n in removes):
        raise ReproError('"remove" must be a list of document names')
    commit = payload.get("commit", True)
    if not isinstance(commit, bool):
        raise ReproError('"commit" must be a boolean')
    if not adds and not removes:
        raise ReproError('nothing to ingest: provide "documents" '
                         'and/or "remove"')
    return adds, list(removes), commit


def _parse_request(payload: Mapping) -> tuple[Query, dict]:
    """Build the :class:`Query` (and options) of one request body.

    Accepts either ``{"query": "red pear [size<=3]"}`` (the CLI's
    textual form) or ``{"terms": [...], "filter": "size<=3"}``.
    """
    if not isinstance(payload, Mapping):
        raise ReproError("request body must be a JSON object")
    if "query" in payload:
        query = parse_query(str(payload["query"]))
    elif "terms" in payload:
        terms = payload["terms"]
        if (not isinstance(terms, (list, tuple))
                or not all(isinstance(t, str) for t in terms)):
            raise ReproError('"terms" must be a list of strings')
        predicate = None
        if payload.get("filter"):
            predicate = parse_filter(str(payload["filter"]))
        query = Query.of(*terms, predicate=predicate)
    else:
        raise ReproError('request needs "query" or "terms"')
    options = {}
    if payload.get("strategy"):
        options["strategy"] = Strategy.parse(str(payload["strategy"]))
    for key in ("deadline_ms", "max_join_ops", "limit"):
        if payload.get(key) is not None:
            value = payload[key]
            if not isinstance(value, (int, float)) or value <= 0:
                raise ReproError(f'"{key}" must be a positive number')
            options[key] = value
    if payload.get("offset") is not None:
        value = payload["offset"]
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 0:
            raise ReproError('"offset" must be a non-negative integer')
        options["offset"] = value
    if payload.get("stream") is not None:
        if not isinstance(payload["stream"], bool):
            raise ReproError('"stream" must be a boolean')
        options["stream"] = payload["stream"]
    return query, options


class _Handler(BaseHTTPRequestHandler):
    """Route tables for one :class:`MetricsServer`."""

    # Set per served request by ThreadingHTTPServer subclass below.
    server: "_ObsHTTPServer"

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket: a reply is written as a
    # header block, then a body or NDJSON chunks, and with Nagle on
    # each write after the first waits for the client's delayed ACK
    # (>= 40 ms on Linux).
    disable_nagle_algorithm = True

    GET_ROUTES = {"/metrics": "_get_metrics", "/healthz": "_get_healthz",
                  "/varz": "_get_varz", "/slow": "_get_slow",
                  "/timeseries": "_get_timeseries",
                  "/alertz": "_get_alertz",
                  "/debug/flightrecorder": "_get_flightrecorder"}
    #: Prefix-matched GET routes; the handler receives the path suffix.
    GET_PREFIX_ROUTES = {"/debug/trace/": "_get_trace"}
    POST_ROUTES = {"/query": "_post_query", "/ingest": "_post_ingest"}

    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request stderr logging (scrapes are periodic)."""

    # -- method dispatch ----------------------------------------------

    def _clean_path(self) -> str:
        return self.path.split("?", 1)[0].rstrip("/") or "/"

    def _allowed(self, path: str) -> str:
        methods = []
        if path in self.GET_ROUTES:
            methods.append("GET")
        if path in self.POST_ROUTES:
            methods.append("POST")
        return ", ".join(methods)

    def _route(self, method: str, table: Mapping[str, str]) -> None:
        path = self._clean_path()
        name = table.get(path)
        if name is not None:
            getattr(self, name)()
            return
        if method == "GET":
            for prefix, handler in self.GET_PREFIX_ROUTES.items():
                if path.startswith(prefix) and len(path) > len(prefix):
                    getattr(self, handler)(path[len(prefix):])
                    return
        allowed = self._allowed(path)
        if allowed:
            # Known path, wrong verb: 405 + Allow, never a fallthrough.
            self._reply(f"method {method} not allowed for {path}; "
                        f"allowed: {allowed}\n",
                        "text/plain; charset=utf-8", status=405,
                        headers={"Allow": allowed})
        else:
            self._reply(f"not found: {self.path!r}; try /metrics, "
                        f"/healthz, /varz, /slow, /timeseries, /alertz, "
                        f"/debug/flightrecorder, /debug/trace/<id>, "
                        f"POST /query or POST /ingest\n",
                        "text/plain; charset=utf-8", status=404)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._route("GET", self.GET_ROUTES)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._route("POST", self.POST_ROUTES)

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._route("PUT", {})

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._route("DELETE", {})

    def do_PATCH(self) -> None:  # noqa: N802 - http.server API
        self._route("PATCH", {})

    # -- GET endpoints ------------------------------------------------

    def _get_metrics(self) -> None:
        self.server.refresh_gauges()
        self._reply(self.server.obs.metrics.to_prometheus(),
                    PROMETHEUS_CONTENT_TYPE)

    def _get_healthz(self) -> None:
        guard = self.server.guard
        if guard is not None and guard.snapshot()["draining"]:
            self._reply("draining\n", "text/plain; charset=utf-8",
                        status=503)
            return
        if guard is not None and guard.breaker.state == OPEN:
            body = "breaker-open\n"
        elif self.server.degraded():
            body = "degraded\n"
        else:
            body = "ok\n"
        self._reply(body, "text/plain; charset=utf-8")

    def _get_varz(self) -> None:
        self._reply(json.dumps(self.server.varz(), indent=2,
                               sort_keys=True) + "\n",
                    "application/json")

    def _get_slow(self) -> None:
        slow = [p.to_dict()
                for p in self.server.obs.recorder.slow_profiles()]
        self._reply(json.dumps(slow, indent=2) + "\n",
                    "application/json")

    def _query_params(self) -> dict[str, str]:
        """The request's query-string parameters (last value wins)."""
        return {key: values[-1]
                for key, values in
                parse_qs(urlsplit(self.path).query).items()}

    def _get_timeseries(self) -> None:
        history = self.server.history
        if history is None:
            self._reply_json(
                {"error": "no-history",
                 "message": "no metrics history sampler is attached; "
                            "serve with --sample-interval"}, status=404)
            return
        params = self._query_params()
        window_s: Optional[float] = None
        if params.get("window"):
            try:
                window_s = float(params["window"])
                if window_s <= 0:
                    raise ValueError
            except ValueError:
                self._reply_json(
                    {"error": "bad-request",
                     "message": "window must be a positive number of "
                                "seconds"}, status=400)
                return
        self._reply_json(history.timeseries_doc(
            params.get("name") or None, window_s))

    def _get_alertz(self) -> None:
        slo = self.server.slo
        if slo is None:
            # 200, not 404: "no objectives configured" is a healthy
            # answer the ops console can render, not a routing error.
            self._reply_json({"enabled": False, "state": "ok",
                              "objectives": 0, "alerts": [],
                              "message": "no SLOs configured; serve "
                                         "with --slo"})
            return
        self._reply_json(slo.snapshot())

    def _get_flightrecorder(self) -> None:
        obs = self.server.obs
        doc = obs.recorder.snapshot()
        doc["calibration"] = obs.publish_calibration()
        self._reply_json(doc)

    def _get_trace(self, trace_id: str) -> None:
        doc = self.server.obs.recorder.chrome_trace(trace_id)
        if doc is None:
            self._reply_json(
                {"error": "unknown-trace",
                 "message": f"no retained trace {trace_id!r}; see "
                            f"/debug/flightrecorder for retained ids"},
                status=404)
            return
        # Chrome trace-event JSON: load in chrome://tracing or Perfetto.
        self._reply(json.dumps(doc, indent=2) + "\n", "application/json")

    # -- POST /query --------------------------------------------------

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` once an error reply is sent.

        An error reply leaves the body unread, so it closes the
        connection: on keep-alive the unread bytes would be parsed as
        the next request.  A body framed by ``Transfer-Encoding`` (say,
        chunked) is refused with 411: a ``Content-Length`` is required.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if "Transfer-Encoding" in self.headers:
            status = 411
            message = ("Transfer-Encoding bodies are not accepted; send "
                       "Content-Length")
        elif 0 <= length <= MAX_BODY_BYTES:
            return self.rfile.read(length)
        elif length < 0:
            status = 400
            message = "Content-Length must be a non-negative integer"
        else:
            status, message = 413, f"body over {MAX_BODY_BYTES} bytes"
        self._reply_json({"error": "bad-request", "message": message},
                         status=status, headers={"Connection": "close"})
        return None

    def _post_query(self) -> None:
        body = self._read_body()
        if body is None:
            return
        status, headers, doc = self.server.serve_query(body)
        lines = (doc.pop("_stream", None)
                 if isinstance(doc, dict) else None)
        if lines is not None:
            self._reply_ndjson(lines, status=status, headers=headers)
        else:
            self._reply_json(doc, status=status, headers=headers)

    def _post_ingest(self) -> None:
        body = self._read_body()
        if body is None:
            return
        status, headers, doc = self.server.serve_ingest(body)
        self._reply_json(doc, status=status, headers=headers)

    # -- plumbing -----------------------------------------------------

    def _reply_ndjson(self, lines, status: int = 200,
                      headers: Optional[Mapping[str, str]] = None
                      ) -> None:
        """Send an iterable of JSON documents as chunked NDJSON.

        HTTP/1.1 chunked transfer framing, one JSON document per line;
        each document is flushed as its own chunk so clients can render
        hits before the response completes.
        """
        self.send_response(status)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        for doc in lines:
            data = (json.dumps(doc, sort_keys=True) + "\n"
                    ).encode("utf-8")
            self.wfile.write(b"%x\r\n" % len(data) + data + b"\r\n")
            self.wfile.flush()
        self.wfile.write(b"0\r\n\r\n")

    def _reply_json(self, doc: dict, status: int = 200,
                    headers: Optional[Mapping[str, str]] = None) -> None:
        self._reply(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    "application/json", status=status, headers=headers)

    def _reply(self, body: str, content_type: str, status: int = 200,
               headers: Optional[Mapping[str, str]] = None) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)


class _ObsHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the obs handle + guard state."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], obs: Observability,
                 collection: Optional["DocumentCollection"] = None,
                 guardrails: Optional[QueryGuardrails] = None,
                 history: Optional[MetricsHistory] = None,
                 slo: Optional[SLOMonitor] = None,
                 slo_feedback: bool = False) -> None:
        super().__init__(address, _Handler)
        self.obs = obs
        self.collection = collection
        self.guard: Optional[_GuardState] = None
        if collection is not None:
            self.guard = _GuardState(guardrails if guardrails is not None
                                     else QueryGuardrails())
        self.history = history
        self.slo = slo
        self.slo_feedback = slo_feedback
        # Writes are single-writer: POST /ingest batches validate and
        # apply under this lock (queries never take it — they pin
        # epochs instead).
        self.ingest_lock = threading.Lock()
        if slo is not None:
            slo.attach()
            if slo_feedback:
                slo.add_listener(self._on_slo_transition)
        self.started = time.time()

    def degraded(self) -> bool:
        """Whether the last parallel run needed the serial fallback.

        Reads the ``repro_exec_degraded`` gauge without creating it;
        a handle that never ran a pool reports healthy.  A sharded
        collection with failed shards or tripped per-shard breakers
        reports degraded, and so does any critical SLO alert — the
        burn-rate engine exists precisely to catch trouble the
        point-in-time flags miss.
        """
        gauge = self.obs.metrics.get(EXEC_DEGRADED)
        if gauge is not None and gauge.value:
            return True
        if self.slo is not None and self.slo.critical:
            return True
        return bool(getattr(self.collection, "degraded", False))

    def _on_slo_transition(self, state: AlertState,
                           previous: str) -> None:
        """Close the observe → decide loop on alert transitions.

        Entering critical tightens admission (halves the cost ceiling)
        and pre-trips breakers of shards already showing failures;
        leaving critical — once *no* objective is critical — restores
        the configured admission policy.  Tripped shard breakers heal
        through their own half-open probes; feedback never forces them
        closed.
        """
        objective = state.objective
        actions = objective.feedback or (FEEDBACK_TIGHTEN_ADMISSION,
                                         FEEDBACK_TRIP_BREAKERS)
        if state.state == CRITICAL:
            if (FEEDBACK_TIGHTEN_ADMISSION in actions
                    and self.guard is not None):
                self.guard.tighten_admission()
            if FEEDBACK_TRIP_BREAKERS in actions:
                router = getattr(self.collection, "router", None)
                if router is not None:
                    router.pretrip_suspect_shards()
        elif previous == CRITICAL and self.slo is not None \
                and not self.slo.critical:
            if self.guard is not None:
                self.guard.relax_admission()

    def refresh_gauges(self) -> None:
        """Recompute point-in-time gauges before a metrics export.

        Sets the process RSS gauge and the per-strategy calibration
        ratios — both are snapshots, not counters, so they are computed
        on read rather than on the query hot path.
        """
        stats = process_stats()
        # Only a *current* RSS becomes a gauge: the rusage fallback is
        # a lifetime peak, and a flat peak plotted as live memory by
        # the time-series sampler would be a lie (it stays in /varz,
        # labelled rss_kind="peak").
        if (stats.get("rss_bytes") is not None
                and stats.get("rss_kind") == "current"):
            self.obs.metrics.gauge(
                PROCESS_RSS,
                "Resident-set size of the serving process."
            ).set(stats["rss_bytes"])
        self.obs.publish_calibration()

    def varz(self) -> dict:
        """The ``/varz`` document: uptime + registry + serving state."""
        obs = self.obs
        self.refresh_gauges()
        doc: dict = {
            "uptime_seconds": round(time.time() - self.started, 3),
            "degraded": self.degraded(),
            "metrics": obs.metrics.to_json(),
            "process": process_stats(),
        }
        recorder = obs.recorder
        doc["flight_recorder"] = {
            "profiles": len(recorder),
            "ring_size": recorder.config.ring_size,
            "recorded": recorder.recorded,
            "evicted": recorder.evicted,
            "slow": len(recorder.slow_profiles()),
            "slow_ms": recorder.config.slow_ms,
            "traces": len(recorder.trace_ids()),
            "traces_retained": recorder.traces_retained,
            "traces_dropped": recorder.traces_dropped,
            "calibration": obs.publish_calibration(),
        }
        if self.guard is not None:
            self._publish_breaker()
            doc["guard"] = self.guard.snapshot()
        if self.history is not None:
            doc["history"] = self.history.stats()
        if self.slo is not None:
            doc["slo"] = self.slo.snapshot()
        shard_stats = getattr(self.collection, "shard_stats", None)
        if shard_stats is not None:
            # Sharded collections report attach health, bytes mapped,
            # router fan-out and per-shard breaker states.
            doc["shards"] = shard_stats()
        mutable = getattr(self.collection, "mutable", None)
        if mutable is not None:
            # Writable serves surface the epoch state head-on: what a
            # new query pins, what old pins still hold alive, and how
            # much WAL is waiting for a commit.
            doc["epochs"] = {
                "current": mutable.epoch,
                "pending_wal_records": mutable.pending_records,
                "pinned": doc["shards"].get("pinned_epochs", {}),
                "published": doc["shards"].get("published_epochs", []),
            }
        return doc

    # -- guard metric helpers -----------------------------------------

    def _count_shed(self, reason: str) -> None:
        self.obs.metrics.counter(
            GUARD_SHED, "Requests shed by the serving guard rails.",
            labels={"reason": reason}).inc()

    def _count_rejected(self, reason: str) -> None:
        self.obs.metrics.counter(
            GUARD_REJECTED, "Queries rejected before evaluation.",
            labels={"reason": reason}).inc()

    def _count_admitted(self) -> None:
        self.obs.metrics.counter(
            GUARD_ADMITTED, "Queries admitted and evaluated.").inc()

    def _publish_breaker(self) -> None:
        if self.guard is not None:
            self.obs.metrics.gauge(
                GUARD_BREAKER_STATE,
                "Query circuit-breaker state "
                "(0 closed, 1 half-open, 2 open)."
            ).set(BREAKER_STATE_CODES[self.guard.breaker.state])

    # -- the guarded query path ---------------------------------------

    def serve_query(self, body: bytes
                    ) -> tuple[int, Optional[dict], dict]:
        """Run one ``POST /query`` request through the guard stack.

        Returns ``(status, extra headers, response document)``.
        Factored off the handler so tests can drive the whole
        admission pipeline without a socket.
        """
        guard = self.guard
        if guard is None:
            return 503, None, {
                "error": "no-collection",
                "message": "no document collection is attached; start "
                           "the server with a collection to serve "
                           "queries"}
        rails = guard.rails
        retry = {"Retry-After": f"{rails.retry_after_s:g}"}

        # 1. Parse (before consuming any guarded resource).
        try:
            payload = json.loads(body.decode("utf-8"))
            query, options = _parse_request(payload)
        except (ValueError, ReproError) as exc:
            self._count_rejected("parse")
            return 400, None, {"error": "bad-request",
                               "message": str(exc)}

        # 2. Bounded admission queue.
        shed = guard.try_enqueue()
        if shed is not None:
            self._count_shed(shed)
            status = 503 if shed == "draining" else 429
            return status, retry, {
                "error": "shed", "reason": shed,
                "message": f"request shed ({shed}); retry later"}

        # 3. Concurrency slot (bounded wait).
        if not guard.acquire_slot():
            self._count_shed("overload")
            return 503, retry, {
                "error": "shed", "reason": "overload",
                "message": f"no evaluation slot within "
                           f"{rails.queue_timeout_s:g}s; retry later"}
        try:
            return self._evaluate_admitted(guard, query, options, retry)
        finally:
            guard.release_slot()
            # The request is answered: its span trees are done with (a
            # retained trace already lives in the recorder).
            self.obs.tracer.clear()

    def serve_ingest(self, body: bytes
                     ) -> tuple[int, Optional[dict], dict]:
        """Run one ``POST /ingest`` request through the guard stack.

        Writes share the admission queue and concurrency slots with
        queries (a write burst cannot starve the query path past the
        configured bounds) and serialise on the ingest lock.  The
        batch is validated whole before the first WAL byte; with
        ``commit`` (default) the new epoch is durable before the
        response, and in-flight queries keep serving the epoch they
        pinned.
        """
        guard = self.guard
        if guard is None:
            return 503, None, {
                "error": "no-collection",
                "message": "no document collection is attached; start "
                           "the server with a collection to ingest"}
        writable = getattr(self.collection, "mutable", None)
        if writable is None:
            return 403, None, {
                "error": "read-only",
                "message": "this collection is not writable; serve a "
                           "mutable index ('repro-search serve "
                           "--index DIR --writable')"}
        rails = guard.rails
        retry = {"Retry-After": f"{rails.retry_after_s:g}"}

        # 1. Parse + validate the whole batch (no resources consumed).
        try:
            payload = json.loads(body.decode("utf-8"))
            adds, removes, commit = _parse_ingest(payload)
        except (ValueError, ReproError) as exc:
            self._count_rejected("parse")
            return 400, None, {"error": "bad-request",
                               "message": str(exc)}

        # 2/3. Same bounded queue + slots as queries.
        shed = guard.try_enqueue()
        if shed is not None:
            self._count_shed(shed)
            status = 503 if shed == "draining" else 429
            return status, retry, {
                "error": "shed", "reason": shed,
                "message": f"request shed ({shed}); retry later"}
        if not guard.acquire_slot():
            self._count_shed("overload")
            return 503, retry, {
                "error": "shed", "reason": "overload",
                "message": f"no evaluation slot within "
                           f"{rails.queue_timeout_s:g}s; retry later"}
        started = time.perf_counter()
        try:
            with self.ingest_lock:
                adding = {name for name, _ in adds}
                for name in removes:
                    if name not in adding and name not in self.collection:
                        self._count_rejected("unknown-document")
                        return 404, None, {
                            "error": "unknown-document", "name": name,
                            "message": f"cannot remove unknown "
                                       f"document {name!r}"}
                try:
                    for name, document in adds:
                        self.collection.add(document, name,
                                            commit=False)
                    for name in removes:
                        self.collection.remove(name, commit=False)
                    epoch = (self.collection.commit() if commit
                             else None)
                except ReproError as exc:
                    guard.breaker.record_failure()
                    self._publish_breaker()
                    return 500, None, {"error": "ingest-failed",
                                       "message": str(exc)}
        finally:
            guard.release_slot()
        guard.breaker.record_success()
        self._publish_breaker()
        self._count_admitted()
        return 200, None, {
            "added": sorted(name for name, _ in adds),
            "removed": sorted(removes),
            "committed": commit,
            "epoch": epoch if commit else writable.epoch,
            "pending_wal_records": writable.pending_records,
            "elapsed_ms": round((time.perf_counter() - started) * 1000,
                                3),
        }

    def _evaluate_admitted(self, guard: _GuardState, query: Query,
                           options: dict, retry: dict
                           ) -> tuple[int, Optional[dict], dict]:
        rails = guard.rails
        strategy = options.get("strategy", rails.strategy)

        # 4. Pre-admission cost screen (a client-side error: it does
        #    not consume a breaker probe or count as a failure).  The
        #    effective policy may be tighter than the configured one
        #    while an SLO alert is critical.
        admission = guard.effective_admission()
        if admission is not None:
            try:
                decision = self.collection.screen(
                    admission, query, strategy)
                decision.raise_if_rejected()
            except AdmissionRejected as exc:
                self._count_rejected("admission")
                return 422, None, exc.to_dict()
            strategy = decision.strategy

        # 5. Circuit breaker — checked last so probes are spent on
        #    real evaluation attempts only.
        if not guard.breaker.allow():
            self._publish_breaker()
            self._count_shed("breaker-open")
            return 503, retry, {
                "error": "shed", "reason": "breaker-open",
                "message": "circuit breaker is open after repeated "
                           "failures; retry later"}

        # 6. Per-request budget: the request may tighten the server's
        #    deadline/join ceiling, never loosen them.
        deadline_ms = _min_optional(options.get("deadline_ms"),
                                    rails.default_deadline_ms)
        max_join_ops = _min_optional(options.get("max_join_ops"),
                                     rails.max_join_ops)
        budget = None
        if any(v is not None for v in (
                deadline_ms, max_join_ops, rails.max_live_fragments,
                rails.max_candidates)):
            budget = QueryBudget(
                deadline_s=(deadline_ms / 1000.0
                            if deadline_ms is not None else None),
                max_join_ops=(int(max_join_ops)
                              if max_join_ops is not None else None),
                max_live_fragments=rails.max_live_fragments,
                max_candidates=rails.max_candidates)

        limit = int(options.get("limit", 50))
        offset = int(options.get("offset", 0))
        stream = bool(options.get("stream"))
        started = time.perf_counter()
        try:
            if stream:
                # The streaming path materialises exactly one page of
                # hits: evaluation work is bounded by ``offset + limit``
                # (adaptive β rounds under the hood), not by the answer
                # set.  Iteration happens here, while the concurrency
                # slot is held, so the guard stack sees the work.
                page_hits = list(self.collection.search(
                    query, strategy=strategy, obs=self.obs,
                    workers=rails.workers,
                    resilience=rails.resilience, faults=rails.faults,
                    budget=budget, stream=True, limit=offset + limit))
            else:
                result = self.collection.search(
                    query, strategy=strategy, obs=self.obs,
                    workers=rails.workers,
                    resilience=rails.resilience, faults=rails.faults,
                    budget=budget)
        except BudgetExceeded as exc:
            # The collection layer already counted
            # repro_guard_budget_exceeded_total; only the breaker and
            # the response are the server's business here.
            guard.breaker.record_failure()
            self._publish_breaker()
            return 422, None, exc.to_dict()
        except (ExecutionError, ReproError) as exc:
            guard.breaker.record_failure()
            self._publish_breaker()
            return 500, None, {"error": "execution-failed",
                               "message": str(exc)}
        guard.breaker.record_success()
        self._publish_breaker()
        self._count_admitted()
        elapsed = time.perf_counter() - started
        if stream:
            page = page_hits[offset:offset + limit]
            exhausted = len(page_hits) < offset + limit
            return 200, None, {"_stream": self._stream_lines(
                page, strategy, offset, limit, exhausted, elapsed)}
        hits = result.hits
        page = hits[offset:offset + limit]
        next_offset = offset + len(page)
        return 200, None, {
            "answers": len(result),
            "returned": len(page),
            "offset": offset,
            "limit": limit,
            "next_offset": (next_offset if next_offset < len(hits)
                            else None),
            "elapsed_ms": round(elapsed * 1000, 3),
            "strategy": strategy.value,
            "matched_documents": result.matched_documents,
            "hits": [{"document": hit.document_name,
                      "nodes": sorted(hit.fragment.nodes),
                      "size": hit.fragment.size}
                     for hit in page],
        }

    @staticmethod
    def _stream_lines(page, strategy, offset: int, limit: int,
                      exhausted: bool, elapsed: float):
        """NDJSON line documents for one streamed ``/query`` page.

        One meta line, one line per hit, one trailing summary line —
        the shape a client needs to render results incrementally.
        """
        yield {"stream": True, "strategy": strategy.value,
               "offset": offset, "limit": limit}
        for hit in page:
            yield {"document": hit.document_name,
                   "nodes": sorted(hit.fragment.nodes),
                   "size": hit.fragment.size}
        yield {"returned": len(page),
               "next_offset": (None if exhausted
                               else offset + limit),
               "elapsed_ms": round(elapsed * 1000, 3)}


def _min_optional(a: Optional[float],
                  b: Optional[float]) -> Optional[float]:
    """Minimum of two optional ceilings (``None`` = unlimited)."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class MetricsServer:
    """Serve one observability handle's state — and, with a collection
    attached, queries — over HTTP.

    Parameters
    ----------
    obs:
        The live handle to expose.  Serving :data:`~repro.obs.NOOP`
        raises ``ValueError`` — a disabled handle records nothing, so
        the endpoint would lie.
    host:
        Bind address; loopback by default (the endpoint is diagnostic,
        not hardened).
    port:
        TCP port; ``0`` (default) picks a free one — read it back from
        :attr:`port` after :meth:`start`.
    collection:
        Optional :class:`~repro.collection.DocumentCollection`;
        enables ``POST /query`` behind the guard rails.
    guardrails:
        Serving configuration (:class:`QueryGuardrails`); defaults
        apply when a collection is given without one.
    history:
        Optional :class:`~repro.obs.MetricsHistory`; enables
        ``GET /timeseries``.  If its sampler thread is not already
        running, :meth:`start` starts it and :meth:`stop` stops it
        (a sampler the caller started stays the caller's).
    slo:
        Optional :class:`~repro.obs.SLOMonitor`; enables
        ``GET /alertz`` and folds critical alerts into ``/healthz``.
        The monitor is attached to the history sampler so objectives
        re-evaluate after every sample.
    slo_feedback:
        When true, critical alerts act: admission tightens (max_cost
        halves, floor 1/8) and suspect shard breakers pre-trip;
        admission restores once no objective is critical.
    """

    def __init__(self, obs: Observability, host: str = "127.0.0.1",
                 port: int = 0,
                 collection: Optional["DocumentCollection"] = None,
                 guardrails: Optional[QueryGuardrails] = None,
                 history: Optional[MetricsHistory] = None,
                 slo: Optional[SLOMonitor] = None,
                 slo_feedback: bool = False) -> None:
        if not obs.enabled:
            raise ValueError("cannot serve a disabled (NOOP) "
                             "observability handle")
        if obs.recorder is None:
            # /slow, /varz and /debug/* read the one per-query ring:
            # a served handle always has it.
            obs.recorder = FlightRecorder()
        if slo is not None and history is not None \
                and slo.history is not history:
            raise ValueError("the SLO monitor must evaluate the same "
                             "history the server samples")
        self._obs = obs
        self._host = host
        self._requested_port = port
        self._collection = collection
        self._guardrails = guardrails
        self._history = history
        self._slo = slo
        self._slo_feedback = slo_feedback
        self._owns_history = False
        self._server: Optional[_ObsHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "MetricsServer":
        """Bind and serve on a daemon thread; returns ``self``."""
        if self._server is not None:
            return self
        self._server = _ObsHTTPServer((self._host, self._requested_port),
                                      self._obs,
                                      collection=self._collection,
                                      guardrails=self._guardrails,
                                      history=self._history,
                                      slo=self._slo,
                                      slo_feedback=self._slo_feedback)
        if self._history is not None and not self._history.running:
            self._history.start()
            self._owns_history = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"repro-metrics:{self.port}", daemon=True)
        self._thread.start()
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful drain: shed new queries, wait for in-flight ones.

        Returns ``True`` once the server is idle (always ``True`` when
        no collection is attached).  The server keeps answering GET
        endpoints while draining; ``/healthz`` reports ``draining``
        with HTTP 503 so load balancers stop routing to it.
        """
        if self._server is None or self._server.guard is None:
            return True
        return self._server.guard.drain(timeout=timeout)

    def stop(self, drain_timeout: Optional[float] = 5.0) -> None:
        """Drain in-flight queries, then shut down (idempotent)."""
        if self._server is None:
            return
        self.drain(timeout=drain_timeout)
        if self._owns_history and self._history is not None:
            self._history.stop()
            self._owns_history = False
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def history(self) -> Optional[MetricsHistory]:
        """The attached time-series sampler, if any."""
        return self._history

    @property
    def slo(self) -> Optional[SLOMonitor]:
        """The attached SLO monitor, if any."""
        return self._slo

    def varz(self) -> dict:
        """The live ``/varz`` document, without a socket round-trip
        (the in-process ops console source reads this)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.varz()

    @property
    def port(self) -> int:
        """The bound port (the OS-assigned one when constructed with 0)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server, e.g. ``http://127.0.0.1:9464``."""
        return f"http://{self._host}:{self.port}"

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = (f"url={self.url!r}" if self.running else "stopped")
        return f"MetricsServer({state})"
