"""Counters, gauges and histograms with JSON / Prometheus export.

A :class:`MetricsRegistry` is a small, dependency-free metrics store in
the Prometheus data model: named instruments, optional labels, and for
histograms a fixed set of upper-bound buckets.  Instruments are created
lazily (get-or-create by name + labels) so call sites never need setup
code::

    registry = MetricsRegistry()
    registry.counter("repro_queries_total").inc()
    registry.histogram("repro_query_latency_seconds").observe(0.0042)
    print(registry.to_prometheus())

Export formats:

* :meth:`MetricsRegistry.to_json` / :meth:`MetricsRegistry.from_json` —
  a lossless dump, used by the CLI's ``--metrics-out`` and re-read by the
  ``repro-search metrics`` subcommand;
* :meth:`MetricsRegistry.to_prometheus` — the text exposition format
  (``# HELP`` / ``# TYPE`` / sample lines), scrapable as-is.

The disabled path is :data:`NULL_METRICS`: its instruments are one
shared no-op object, so metric calls on a disabled registry cost a
method call and nothing else.

Thread safety: every *registry-level* operation that creates or lists
instruments — creation, export (JSON/Prometheus/summary),
:meth:`~MetricsRegistry.diff` and :meth:`~MetricsRegistry.merge` — holds
one reentrant lock (returning an existing instrument does not), so a
query thread can keep registering instruments while HTTP server
threads export snapshots (see :mod:`repro.obs.server`) without
"dictionary changed size during iteration" failures.  Individual
instrument updates (``inc`` / ``set`` / ``observe``) stay lock-free:
the supported concurrency model is one writer thread plus any number
of exporting readers.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Iterable, Mapping, Optional, Sequence, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NullMetrics", "NULL_METRICS", "DEFAULT_BUCKETS",
           "LATENCY_BUCKETS", "RATIO_BUCKETS", "exponential_buckets",
           "LATENCY_LOG_BUCKETS", "SIZE_LOG_BUCKETS",
           "COST_ERROR_BUCKETS"]

#: General-purpose magnitude buckets (counts of things).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)

#: Latency buckets in seconds, 0.5 ms – 10 s.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0)

#: Buckets for quantities in [0, 1] (hit ratios, reduction factors).
RATIO_BUCKETS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


def exponential_buckets(start: float, factor: float,
                        count: int) -> tuple[float, ...]:
    """``count`` log-scaled bucket bounds: ``start * factor**i``.

    The standard client-library helper for long-tailed quantities:
    equal resolution per decade instead of per unit.  ``start`` must be
    positive and ``factor`` > 1 so the bounds are strictly increasing.
    """
    if start <= 0:
        raise ValueError("start must be > 0")
    if factor <= 1:
        raise ValueError("factor must be > 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(start * factor ** i for i in range(count))


#: Flight-recorder latency buckets in seconds: 0.1 ms – ~13 s, base 2.
LATENCY_LOG_BUCKETS: tuple[float, ...] = exponential_buckets(
    0.0001, 2.0, 18)

#: Result-size buckets: 1 – 16384 answer fragments, base 2.
SIZE_LOG_BUCKETS: tuple[float, ...] = exponential_buckets(1.0, 2.0, 15)

#: Cost-error (measured/predicted) buckets, symmetric around 1 on a
#: log scale: 1/64 – 64, base 2.
COST_ERROR_BUCKETS: tuple[float, ...] = exponential_buckets(
    1.0 / 64.0, 2.0, 13)

LabelsArg = Optional[Mapping[str, str]]


def _label_key(labels: LabelsArg) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def subtract(record: Mapping, prior: Optional[Mapping]) -> dict:
    """``record`` minus ``prior``: two :meth:`MetricsRegistry.to_json`
    records of one instrument (``prior`` ``None`` when there is none).

    Counters and gauges subtract ``value``; histograms subtract bucket
    counts, ``count`` and ``sum``, and bucket lists of different
    lengths mean a zero prior for the buckets.  The one interval
    movement :meth:`MetricsRegistry.diff`, ``capture_delta`` and the
    history sampler compute.
    """
    moved = dict(record)
    if record["kind"] == "histogram":
        before = prior.get("counts", ()) if prior else ()
        if len(before) != len(record["counts"]):
            before = [0] * len(record["counts"])
        moved["counts"] = [now - then for now, then
                           in zip(record["counts"], before)]
        moved["sum"] = record["sum"] - (float(prior.get("sum", 0.0))
                                        if prior else 0.0)
        moved["count"] = record["count"] - (int(prior.get("count", 0))
                                            if prior else 0)
    else:
        moved["value"] = record["value"] - (prior.get("value", 0)
                                            if prior else 0)
    return moved


def diff_snapshots(current: Mapping, baseline: Optional[Mapping]) -> dict:
    """``current`` minus ``baseline``, two :meth:`MetricsRegistry.to_json`
    dumps, record by record; instruments that did not move are
    omitted (see :meth:`MetricsRegistry.diff`)."""
    def key(record: Mapping) -> tuple:
        return (record["name"], _label_key(record.get("labels") or None))

    before = {key(record): record
              for record in (baseline or {}).get("metrics", ())}
    metrics = []
    for record in current.get("metrics", ()):
        moved = subtract(record, before.get(key(record)))
        if moved.get("value") or moved.get("count") \
                or any(moved.get("counts", ())):
            metrics.append(moved)
    return {"metrics": metrics}


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return f"{value:g}" if isinstance(value, float) else str(value)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format.

    Backslash, double quote and newline are the three characters the
    format requires escaping inside quoted label values.
    """
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` line body (backslash and newline only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: tuple[tuple[str, str], ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


class _Instrument:
    """Shared plumbing: identity, help text, labels.

    Each instrument carries its own mutation lock so concurrent
    writers (search threads sharing one ``obs=`` handle) never lose
    updates — ``+=`` on a plain attribute is a read-modify-write that
    the GIL does not make atomic.  Value *reads* stay lock-free: a
    torn read of a single attribute is impossible, and exports already
    snapshot the instrument table under the registry lock.
    """

    kind = "untyped"

    __slots__ = ("name", "help", "labels", "_mutate")

    def __init__(self, name: str, help: str = "",
                 labels: LabelsArg = None) -> None:
        if not name or not name.replace("_", "a").replace(":", "a") \
                .isalnum() or name[0].isdigit():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labels = _label_key(labels)
        self._mutate = threading.Lock()


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    __slots__ = ("_value",)

    def __init__(self, name: str, help: str = "",
                 labels: LabelsArg = None) -> None:
        super().__init__(name, help, labels)
        self._value: float = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._mutate:
            self._value += amount

    @property
    def value(self) -> Union[int, float]:
        return self._value


class Gauge(_Instrument):
    """A value that can go up and down (last write wins)."""

    kind = "gauge"

    __slots__ = ("_value",)

    def __init__(self, name: str, help: str = "",
                 labels: LabelsArg = None) -> None:
        super().__init__(name, help, labels)
        self._value: float = 0

    def set(self, value: Union[int, float]) -> None:
        self._value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        with self._mutate:
            self._value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        with self._mutate:
            self._value -= amount

    @property
    def value(self) -> Union[int, float]:
        return self._value


class Histogram(_Instrument):
    """Fixed-bucket histogram with sum and count.

    ``buckets`` are inclusive upper bounds in increasing order; an
    implicit ``+Inf`` bucket catches the tail.  Bucket counts are stored
    per-bucket and exported cumulatively (the Prometheus convention).
    """

    kind = "histogram"

    __slots__ = ("buckets", "_counts", "_sum", "_count")

    def __init__(self, name: str, help: str = "",
                 buckets: Optional[Sequence[float]] = None,
                 labels: LabelsArg = None) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds) \
                or len(set(bounds)) != len(bounds):
            raise ValueError("buckets must be strictly increasing")
        self.buckets = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.buckets) + 1)  # + the +Inf bucket
        self._sum: float = 0.0
        self._count: int = 0

    def observe(self, value: Union[int, float]) -> None:
        """Record one sample."""
        with self._mutate:
            self._counts[bisect_left(self.buckets, value)] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``inf`` last."""
        out = []
        running = 0
        for bound, count in zip(self.buckets, self._counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self._counts[-1]))
        return out


class MetricsRegistry:
    """Get-or-create store for instruments, with exporters.

    Registry-level operations are serialized by one reentrant lock
    (``merge`` get-or-creates while holding it), so exports from
    server threads see consistent instrument tables while the query
    thread registers new series.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[tuple, _Instrument] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Instrument accessors
    # ------------------------------------------------------------------

    def _get(self, cls, name: str, help: str, labels: LabelsArg,
             **kwargs) -> _Instrument:
        key = (name, _label_key(labels))
        # An existing instrument is returned without the lock: a dict
        # read is atomic under the GIL, and entries are never removed.
        # Creating one locks and re-checks.
        found = self._instruments.get(key)
        if found is None:
            with self._lock:
                found = self._instruments.get(key)
                if found is None:
                    found = self._instruments[key] = cls(
                        name, help=help, labels=labels, **kwargs)
                    return found
        if not isinstance(found, cls):
            raise ValueError(f"metric {name!r} already registered as "
                             f"{found.kind}")
        return found

    def get(self, name: str,
            labels: LabelsArg = None) -> Optional[_Instrument]:
        """The instrument registered under ``name``/``labels``, or
        ``None`` — a read-only probe that never creates a series."""
        with self._lock:
            return self._instruments.get((name, _label_key(labels)))

    def counter(self, name: str, help: str = "",
                labels: LabelsArg = None) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: LabelsArg = None) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  labels: LabelsArg = None) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def instruments(self) -> list[_Instrument]:
        """Every registered instrument, in registration order."""
        with self._lock:
            return list(self._instruments.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return any(key[0] == name for key in self._instruments)

    # ------------------------------------------------------------------
    # Export / import
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        """A lossless plain-dict dump (see :meth:`from_json`)."""
        metrics = []
        for instrument in self.instruments():
            record: dict = {"name": instrument.name,
                            "kind": instrument.kind,
                            "help": instrument.help,
                            "labels": dict(instrument.labels)}
            if isinstance(instrument, Histogram):
                record["buckets"] = list(instrument.buckets)
                record["counts"] = list(instrument._counts)
                record["sum"] = instrument.sum
                record["count"] = instrument.count
            else:
                record["value"] = instrument.value
            metrics.append(record)
        return {"metrics": metrics}

    @classmethod
    def from_json(cls, data: Mapping) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`to_json` dump."""
        registry = cls()
        for record in data.get("metrics", ()):
            name, labels = record["name"], record.get("labels") or None
            kind = record.get("kind", "untyped")
            if kind == "counter":
                registry.counter(name, record.get("help", ""),
                                 labels).inc(record.get("value", 0))
            elif kind == "gauge":
                registry.gauge(name, record.get("help", ""),
                               labels).set(record.get("value", 0))
            elif kind == "histogram":
                histogram = registry.histogram(
                    name, record.get("help", ""),
                    buckets=record.get("buckets"), labels=labels)
                histogram._counts = list(record.get("counts", ()))
                if len(histogram._counts) != len(histogram.buckets) + 1:
                    raise ValueError(
                        f"histogram {name!r}: counts do not match buckets")
                histogram._sum = float(record.get("sum", 0.0))
                histogram._count = int(record.get("count", 0))
            else:
                raise ValueError(f"unknown metric kind {kind!r}")
        return registry

    def to_json_text(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=False)

    # ------------------------------------------------------------------
    # Mergeable deltas (cross-process telemetry)
    # ------------------------------------------------------------------

    def diff(self, baseline: Optional[Mapping] = None) -> dict:
        """This registry's state minus a :meth:`to_json` ``baseline``.

        The result has the same shape as :meth:`to_json` but every
        value, histogram bucket count and sum is the *increment* since
        the baseline was taken — the mergeable delta format a pool
        worker ships back to its parent.  Instruments whose values did
        not move are omitted, so an idle worker ships an empty delta.
        Gauges are differenced like counters: the engine's gauges
        (e.g. JoinCache memo totals) are running totals, so increments
        sum correctly across workers.
        """
        return diff_snapshots(self.to_json(), baseline)

    def merge(self, delta: Mapping) -> None:
        """Fold a :meth:`diff` dump (or a full :meth:`to_json` dump of a
        fresh registry) into this one.

        Counters and gauges are incremented by the delta's values;
        histogram bucket counts, sums and counts are added elementwise.
        A name registered here with a different kind, or a histogram
        with different buckets, raises :class:`ValueError` — merged
        worker deltas must agree with the parent on instrument identity.

        The whole merge holds the registry lock (reentrantly across
        its get-or-creates), so exporters never see half a delta.
        """
        with self._lock:
            self._merge_locked(delta)

    def _merge_locked(self, delta: Mapping) -> None:
        for record in delta.get("metrics", ()):
            name = record["name"]
            labels = record.get("labels") or None
            help_text = record.get("help", "")
            kind = record.get("kind", "untyped")
            if kind == "counter":
                self.counter(name, help_text,
                             labels).inc(record.get("value", 0))
            elif kind == "gauge":
                self.gauge(name, help_text,
                           labels).inc(record.get("value", 0))
            elif kind == "histogram":
                histogram = self.histogram(name, help_text,
                                           buckets=record.get("buckets"),
                                           labels=labels)
                counts = list(record.get("counts", ()))
                if tuple(record.get("buckets", ())) != histogram.buckets \
                        or len(counts) != len(histogram._counts):
                    raise ValueError(
                        f"histogram {name!r}: delta buckets do not match "
                        f"the registered instrument")
                for i, value in enumerate(counts):
                    histogram._counts[i] += value
                histogram._sum += float(record.get("sum", 0.0))
                histogram._count += int(record.get("count", 0))
            else:
                raise ValueError(f"unknown metric kind {kind!r}")

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        by_name: dict[str, list[_Instrument]] = {}
        for instrument in self.instruments():
            by_name.setdefault(instrument.name, []).append(instrument)
        lines = []
        for name, group in by_name.items():
            head = group[0]
            if head.help:
                lines.append(f"# HELP {name} {_escape_help(head.help)}")
            lines.append(f"# TYPE {name} {head.kind}")
            for instrument in group:
                if isinstance(instrument, Histogram):
                    for bound, cumulative in instrument.cumulative_counts():
                        le = ("+Inf" if bound == float("inf")
                              else _format_value(bound))
                        labels = _format_labels(instrument.labels,
                                                (("le", le),))
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    labels = _format_labels(instrument.labels)
                    lines.append(f"{name}_sum{labels} "
                                 f"{_format_value(instrument.sum)}")
                    lines.append(f"{name}_count{labels} "
                                 f"{instrument.count}")
                else:
                    labels = _format_labels(instrument.labels)
                    lines.append(f"{name}{labels} "
                                 f"{_format_value(instrument.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def summary(self) -> str:
        """A human-readable one-line-per-metric summary."""
        lines = []
        for instrument in self.instruments():
            labels = _format_labels(instrument.labels)
            if isinstance(instrument, Histogram):
                lines.append(
                    f"{instrument.name}{labels}  count={instrument.count}"
                    f"  mean={instrument.mean:.6g}"
                    f"  sum={instrument.sum:.6g}")
            else:
                lines.append(f"{instrument.name}{labels}  "
                             f"{_format_value(instrument.value)}")
        return "\n".join(lines)


class _NullInstrument:
    """One object that silently absorbs every instrument method."""

    __slots__ = ()
    value = 0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Metrics disabled: accessors return the shared null instrument."""

    enabled = False

    __slots__ = ()

    def counter(self, name, help="", labels=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name, help="", labels=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name, help="", buckets=None,
                  labels=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def get(self, name, labels=None) -> None:
        return None

    def instruments(self) -> list:
        return []

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False

    def to_json(self) -> dict:
        return {"metrics": []}

    def diff(self, baseline=None) -> dict:
        return {"metrics": []}

    def merge(self, delta) -> None:
        pass

    def to_prometheus(self) -> str:
        return ""

    def summary(self) -> str:
        return ""


#: Shared disabled registry.
NULL_METRICS = NullMetrics()
