"""Cross-process telemetry deltas (``repro.obs.delta``).

Spans, metrics and query profiles produced inside a pool worker would
otherwise die with the worker.  An :class:`ObsDelta` is the in-band
envelope that keeps them alive: plain picklable data — a
:meth:`~repro.obs.metrics.MetricsRegistry.diff` metrics increment,
serialized span trees, profile dicts — captured on the worker after
each chunk and merged into the parent's handle next to the chunk's
results.

The merge is *identity preserving*: metric increments land on the same
unlabeled series the serial path uses (so parent-side counters are
equal to a serial run's on the same workload), while spans and
profiles are stamped with a ``worker=N`` label so their origin stays
visible in the merged trace and ring.

Worker side::

    baseline = {}                                 # per-worker, persistent
    delta, baseline = capture_delta(obs, baseline)
    return rows, seconds, delta                   # ships with the results

Parent side::

    merge_delta(parent_obs, delta, worker="2")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .metrics import diff_snapshots

__all__ = ["ObsDelta", "capture_delta", "merge_delta"]

#: Counter of worker deltas folded into a parent handle.
DELTAS_MERGED = "repro_pool_deltas_merged_total"


@dataclass
class ObsDelta:
    """One worker's telemetry increment: plain data, pickles cheaply.

    Attributes
    ----------
    metrics:
        A :meth:`MetricsRegistry.diff` dump — instrument increments
        since the previous capture.
    spans:
        Serialized root spans (``Span.to_dict`` form) recorded since the
        previous capture.
    profiles:
        Flight-recorder profiles (``QueryProfile.to_dict`` form)
        drained from the worker's recorder ring.
    traces:
        Tail-sampled traces the worker retained, keyed by trace id
        (Chrome trace events + serialized span tree).
    """

    metrics: dict = field(default_factory=lambda: {"metrics": []})
    spans: list = field(default_factory=list)
    profiles: list = field(default_factory=list)
    traces: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.metrics.get("metrics") or self.spans
                    or self.profiles or self.traces)


def capture_delta(obs, baseline: Optional[dict] = None
                  ) -> tuple[ObsDelta, dict]:
    """Capture (and drain) one telemetry increment from ``obs``.

    Returns ``(delta, new_baseline)``.  The tracer (the calling
    thread's roots) and the recorder are drained — their contents ship
    exactly once — while the metrics registry keeps accumulating.  One
    registry snapshot is both the state the increment subtracts
    ``baseline`` from and the returned baseline that marks the cut for
    the next capture.
    """
    if not obs.enabled:
        return ObsDelta(), baseline or {}
    new_baseline = obs.metrics.to_json()
    metrics = diff_snapshots(new_baseline, baseline)
    spans = []
    if obs.tracer.enabled:
        spans = [root.to_dict(epoch=root.started or None)
                 for root in obs.tracer.roots]
        obs.tracer.clear()
    profiles: list = []
    traces: dict = {}
    if obs.recorder is not None:
        profiles, traces = obs.recorder.drain()
    return ObsDelta(metrics=metrics, spans=spans, profiles=profiles,
                    traces=traces), new_baseline


def merge_delta(obs, delta: Optional[ObsDelta],
                worker: Optional[str] = None) -> None:
    """Fold a worker's :class:`ObsDelta` into the parent handle ``obs``.

    Metric increments merge onto the parent's (unlabeled) series, so
    totals match a serial run; span trees rehydrate under the currently
    open span with a ``worker`` attribute; profiles and retained
    traces are ingested into the parent's ring.  A worker records under
    the parent's ``RecorderConfig`` and counts each profile's series
    (slow, cost, retained traces) where it ran, so they travel in the
    metrics increment like every other counter; only traces the
    parent's store drops on ingest are counted here.
    """
    if delta is None or not obs.enabled or not delta:
        return
    obs.metrics.merge(delta.metrics)
    obs.metrics.counter(
        DELTAS_MERGED, "Worker telemetry deltas merged by the parent."
    ).inc()
    if delta.spans:
        obs.tracer.adopt(delta.spans,
                         **({"worker": worker} if worker else {}))
    if (delta.profiles or delta.traces) and obs.recorder is not None:
        obs.recorder.ingest(delta.profiles, delta.traces, worker=worker)
        obs.count_dropped_traces()
