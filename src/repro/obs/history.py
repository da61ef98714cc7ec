"""Metrics time series: a background sampler over one registry
(``repro.obs.history``).

The metrics registry answers "what is true *now*"; nothing in the
point-in-time layer answers "is p99 degrading over the last five
minutes?".  :class:`MetricsHistory` closes that gap with a bounded
temporal store:

* a **sampler** (daemon thread, or :meth:`~MetricsHistory.sample_once`
  driven by tests) snapshots the registry every ``interval_s`` seconds
  and folds the *movement* since the previous sample
  (:func:`~repro.obs.metrics.subtract`, the subtraction
  ``MetricsRegistry.diff`` makes) into per-series ring buffers —
  memory is O(series × capacity) by construction, never O(traffic);
* **counters** are stored as per-interval deltas (and derived rates),
  so a trailing-window QPS is one sum, and process restarts (value
  going backwards) are detected and treated as a fresh baseline;
* **gauges** are stored as last-value samples;
* **histograms** are stored as each interval's bucket-count movement,
  so p50/p95/p99 over an *arbitrary trailing window* interpolate the
  window's summed bucket counts — exactly what the buckets say, with
  no raw samples retained anywhere.

Consumers: the ``GET /timeseries`` endpoint and the ``repro-search
top`` console (:mod:`repro.obs.console`) read series for dashboards;
the SLO engine (:mod:`repro.obs.slo`) registers a sampler listener and
evaluates burn rates after every sample.

Thread safety: the sampler snapshots the registry through its
(lock-guarded) ``to_json`` export, then folds under one history lock;
readers (``window`` / ``series`` / ``timeseries_doc``) copy under the
same lock, so HTTP server threads can render series while the sampler
folds and query threads keep writing the registry.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .metrics import MetricsRegistry, subtract

__all__ = ["MetricsHistory", "HISTORY_SAMPLES", "HISTORY_SERIES",
           "DEFAULT_QUANTILES"]

#: Counter: samples the history sampler has folded (self-reported into
#: the sampled registry, so the sampler's own cadence is a series too).
HISTORY_SAMPLES = "repro_history_samples_total"
#: Gauge: time series currently retained by the history store.
HISTORY_SERIES = "repro_history_series"

#: Quantile points reported by default for histogram series.
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)


def _moved_buckets(bounds: Sequence[float],
                   counts: Sequence[float]) -> tuple:
    """The buckets an interval moved, as ``(representative, count)``
    pairs: the midpoint of each finite bucket (the first one's lower
    edge is 0), the last finite bound for the ``+Inf`` tail (which has
    no upper bound: an underestimate, as with PromQL's
    ``histogram_quantile``)."""
    values = [(low + high) / 2.0
              for low, high in zip((0.0, *bounds), bounds)]
    values.append(bounds[-1])
    return tuple((value, count)
                 for value, count in zip(values, counts) if count > 0)


def _summed(points: Iterable[tuple]) -> list[tuple[float, float]]:
    """Histogram ``points``' bucket movement added up, as ascending
    ``(representative, count)`` pairs."""
    summed: dict[float, float] = {}
    for point in points:
        for value, count in point[1]:
            summed[value] = summed.get(value, 0) + count
    return sorted(summed.items())


def _interpolate(masses: Sequence[tuple[float, float]],
                 q: float) -> Optional[float]:
    """The ``q``-quantile of ascending ``(representative, count)``
    pairs, linear on cumulative count between adjacent
    representatives; ``None`` when there are none."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if not masses:
        return None
    target = q * sum(count for _, count in masses)
    previous, below = masses[0][0], 0
    for value, count in masses:
        if below + count >= target:
            return previous + (value - previous) * (
                (target - below) / count)
        previous, below = value, below + count
    return previous


def _quantile_key(q: float) -> str:
    scaled = q * 100.0
    if scaled == int(scaled):
        return f"p{int(scaled)}"
    return f"p{scaled:g}".replace(".", "_")


class _Series:
    """One named+labelled ring of samples."""

    __slots__ = ("name", "labels", "kind", "points")

    def __init__(self, name: str, labels: tuple, kind: str,
                 capacity: int) -> None:
        self.name = name
        self.labels = labels
        self.kind = kind
        # counter: (ts, delta, rate); gauge: (ts, value);
        # histogram: (ts, ((representative, count), ...), count_delta,
        # sum_delta) — the buckets the interval moved
        self.points: deque = deque(maxlen=capacity)


class MetricsHistory:
    """Bounded time-series store fed by sampling one registry.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.MetricsRegistry` to sample.
    interval_s:
        Sampling cadence of the background thread (and the assumed
        spacing when deriving rates for the very first interval).
    capacity:
        Points retained per series (ring buffer).  The default — 720
        points at 5 s — keeps one hour of history.
    max_series:
        Hard ceiling on retained series; series beyond it are dropped
        (counted in :meth:`stats`) rather than growing without bound
        when a caller labels a metric with unbounded cardinality.
    clock:
        Injectable wall clock (tests drive a fake and call
        :meth:`sample_once` directly).
    """

    def __init__(self, registry: MetricsRegistry,
                 interval_s: float = 5.0, capacity: int = 720,
                 max_series: int = 2048,
                 clock: Callable[[], float] = time.time) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        if max_series < 1:
            raise ValueError("max_series must be >= 1")
        self.registry = registry
        self.interval_s = float(interval_s)
        self.capacity = int(capacity)
        self.max_series = int(max_series)
        self._clock = clock
        self._lock = threading.Lock()
        self._series: dict[tuple, _Series] = {}
        self._last: dict[tuple, dict] = {}
        self._last_ts: Optional[float] = None
        self._samples = 0
        self._sample_errors = 0
        self._series_dropped = 0
        self._listeners: list[Callable[["MetricsHistory", float], None]] = []
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def add_listener(self, listener: Callable[["MetricsHistory", float],
                                              None]) -> None:
        """Call ``listener(history, now)`` after every folded sample
        (the SLO monitor's hook).  Listeners run outside the history
        lock, on the sampler thread."""
        self._listeners.append(listener)

    def sample_once(self, now: Optional[float] = None) -> int:
        """Snapshot the registry and fold the movement; returns the
        number of series updated.  The first call establishes the
        baseline: counters and histograms contribute their first point
        on the *second* sample (a cumulative value is not a rate)."""
        now = self._clock() if now is None else float(now)
        snapshot = self.registry.to_json().get("metrics", ())
        with self._lock:
            first = self._last_ts is None
            dt = (self.interval_s if first
                  else max(1e-9, now - self._last_ts))
            updated = 0
            last: dict[tuple, dict] = {}
            for record in snapshot:
                key = (record["name"],
                       tuple(sorted((record.get("labels") or {}).items())))
                last[key] = record
                if self._fold(key, record, self._last.get(key), now, dt,
                              first):
                    updated += 1
            self._last = last
            self._last_ts = now
            self._samples += 1
            self.registry.gauge(
                HISTORY_SERIES,
                "Time series retained by the history store."
            ).set(len(self._series))
            self.registry.counter(
                HISTORY_SAMPLES,
                "Samples folded by the history sampler.").inc()
        for listener in list(self._listeners):
            listener(self, now)
        return updated

    def _fold(self, key: tuple, record: Mapping,
              prior: Optional[Mapping], now: float, dt: float,
              first: bool) -> bool:
        kind = record.get("kind", "untyped")
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self.max_series:
                self._series_dropped += 1
                return False
            series = _Series(record["name"], key[1], kind, self.capacity)
            self._series[key] = series
        if kind == "gauge":
            series.points.append((now, record.get("value", 0)))
            return True
        if first or kind not in ("counter", "histogram"):
            return False
        moved = subtract(record, prior)
        if kind == "counter":
            if moved["value"] < 0:  # process restart: went backwards
                moved = record
            series.points.append((now, moved["value"], moved["value"] / dt))
        else:
            if any(count < 0 for count in moved["counts"]):  # restart
                moved = record
            series.points.append((
                now, _moved_buckets(moved["buckets"], moved["counts"]),
                moved["count"], moved["sum"]))
        return True

    # ------------------------------------------------------------------
    # Background thread
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "MetricsHistory":
        """Start the daemon sampler thread (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-history-sampler", daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.sample_once()
            except Exception:  # noqa: BLE001 - the sampler must survive
                self._sample_errors += 1

    def stop(self) -> None:
        """Stop the sampler thread (idempotent)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsHistory":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _matching(self, name: str,
                  labels: Optional[Mapping] = None) -> list[_Series]:
        if labels is None:
            return [s for (n, _), s in self._series.items() if n == name]
        key = (name, tuple(sorted((str(k), str(v))
                                  for k, v in labels.items())))
        found = self._series.get(key)
        return [found] if found is not None else []

    def _window_points(self, series: _Series,
                       window_s: Optional[float]) -> list[tuple]:
        points = list(series.points)
        if window_s is None or self._last_ts is None:
            return points
        # A point stamped ts summarises the interval *ending* at ts,
        # so a point exactly on the horizon belongs to the previous
        # window: strictly-greater keeps a 2-interval window at
        # exactly 2 points.
        horizon = self._last_ts - float(window_s)
        return [p for p in points if p[0] > horizon]

    def window(self, name: str, window_s: Optional[float] = None,
               labels: Optional[Mapping] = None,
               quantiles: Sequence[float] = DEFAULT_QUANTILES
               ) -> Optional[dict]:
        """Aggregate one series over the trailing ``window_s`` seconds
        (the whole ring when ``None``).

        Counters report ``{"sum", "rate"}``; gauges ``{"last", "min",
        "max", "mean"}``; histograms the quantiles of the window's
        summed bucket counts plus ``{"count", "sum", "mean"}``.  Returns ``None`` when the series
        does not exist; a present series with no points in the window
        reports ``samples: 0``.
        """
        with self._lock:
            matching = self._matching(name, labels)
            if not matching:
                return None
            kind = matching[0].kind
            windows = [self._window_points(s, window_s) for s in matching]
        points = sorted((p for pts in windows for p in pts),
                        key=lambda p: p[0])
        doc: dict = {"name": name, "kind": kind,
                     "window_s": window_s, "samples": len(points)}
        if not points:
            return doc
        span = max(points[-1][0] - points[0][0], self.interval_s)
        if window_s is not None:
            span = max(span, 1e-9) if len(points) > 1 else self.interval_s
        if kind == "counter":
            total = sum(p[1] for p in points)
            doc["sum"] = total
            doc["rate"] = total / (float(window_s) if window_s
                                   else span)
        elif kind == "gauge":
            values = [p[1] for p in points]
            doc.update(last=values[-1], min=min(values),
                       max=max(values),
                       mean=sum(values) / len(values))
        elif kind == "histogram":
            masses = _summed(points)
            count = sum(p[2] for p in points)
            total = sum(p[3] for p in points)
            doc.update(count=count, sum=total,
                       mean=(total / count) if count else 0.0,
                       quantiles={_quantile_key(q): _interpolate(masses, q)
                                  for q in quantiles})
        return doc

    def quantile(self, name: str, q: float,
                 window_s: Optional[float] = None,
                 labels: Optional[Mapping] = None) -> Optional[float]:
        """One quantile over the trailing window, or ``None``
        when the series is missing or saw no samples in the window."""
        doc = self.window(name, window_s=window_s, labels=labels,
                          quantiles=(q,))
        if not doc or doc.get("kind") != "histogram" \
                or not doc.get("count"):
            return None
        return doc["quantiles"][_quantile_key(q)]

    def delta(self, name: str, window_s: Optional[float] = None,
              labels: Optional[Mapping] = None) -> Optional[float]:
        """Summed counter movement over the trailing window."""
        doc = self.window(name, window_s=window_s, labels=labels)
        if not doc or doc.get("kind") != "counter":
            return None
        return doc.get("sum", 0.0)

    def last(self, name: str,
             labels: Optional[Mapping] = None,
             window_s: Optional[float] = None) -> Optional[float]:
        """Most recent gauge value (or worst ``max`` when windowed)."""
        doc = self.window(name, window_s=window_s, labels=labels)
        if not doc or doc.get("kind") != "gauge" or not doc["samples"]:
            return None
        return doc["max"] if window_s is not None else doc["last"]

    def series(self, name: str, labels: Optional[Mapping] = None,
               window_s: Optional[float] = None,
               quantiles: Sequence[float] = DEFAULT_QUANTILES
               ) -> list[dict]:
        """Point-by-point JSON for every label set of ``name``.

        Counter points are ``[ts, delta, rate]``; gauge points
        ``[ts, value]``; histogram points ``[ts, count, p50, ..]`` with
        per-interval quantiles, ready for sparklines.
        """
        with self._lock:
            matching = self._matching(name, labels)
            snapshots = [(s, self._window_points(s, window_s))
                         for s in matching]
        out = []
        for series, points in snapshots:
            doc: dict = {"name": series.name,
                         "labels": dict(series.labels),
                         "kind": series.kind,
                         "interval_s": self.interval_s,
                         "samples": len(points)}
            if series.kind == "counter":
                doc["points"] = [[ts, delta, rate]
                                 for ts, delta, rate in points]
            elif series.kind == "gauge":
                doc["points"] = [[ts, value] for ts, value in points]
            else:
                keys = [_quantile_key(q) for q in quantiles]
                doc["quantile_keys"] = keys
                doc["points"] = []
                for point in points:
                    masses = _summed((point,))
                    doc["points"].append(
                        [point[0], point[2]]
                        + [_interpolate(masses, q) for q in quantiles])
            out.append(doc)
        return out

    def catalog(self) -> list[dict]:
        """Every retained series: name, labels, kind, point count."""
        with self._lock:
            return [{"name": s.name, "labels": dict(s.labels),
                     "kind": s.kind, "points": len(s.points)}
                    for s in self._series.values()]

    def timeseries_doc(self, name: Optional[str] = None,
                       window_s: Optional[float] = None) -> dict:
        """The ``GET /timeseries`` response document."""
        if name is None:
            return {"stats": self.stats(), "series": self.catalog()}
        return {"name": name, "window_s": window_s,
                "series": self.series(name, window_s=window_s),
                "window": self.window(name, window_s=window_s)}

    def stats(self) -> dict:
        """Sampler health for ``/varz``."""
        with self._lock:
            return {"interval_s": self.interval_s,
                    "capacity": self.capacity,
                    "samples": self._samples,
                    "sample_errors": self._sample_errors,
                    "series": len(self._series),
                    "series_dropped": self._series_dropped,
                    "max_series": self.max_series,
                    "running": self.running,
                    "last_sample_ts": self._last_ts}

    def __repr__(self) -> str:
        return (f"MetricsHistory(series={len(self._series)}, "
                f"samples={self._samples}, "
                f"interval_s={self.interval_s}, "
                f"running={self.running})")
