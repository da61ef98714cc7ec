"""Cross-process telemetry deltas (``repro.obs.delta``).

Spans and metrics produced inside a pool worker would otherwise die
with the worker.  An :class:`ObsDelta` is the in-band envelope that
keeps them alive: plain picklable data — a
:meth:`~repro.obs.metrics.MetricsRegistry.diff` metrics increment and
serialized span trees — captured on the worker after each chunk and
merged into the parent's handle next to the chunk's results.  Query
profiles do not travel: a worker keeps no flight recorder, and the
parent records each request once.

The merge is *identity preserving*: metric increments land on the same
unlabeled series the serial path uses (so parent-side counters are
equal to a serial run's on the same workload), while spans are
stamped with a ``worker=N`` label so their origin stays visible in
the merged trace.

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
    """

    metrics: dict = field(default_factory=lambda: {"metrics": []})
    spans: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.metrics.get("metrics") or self.spans)


def capture_delta(obs, baseline: Optional[dict] = None
                  ) -> tuple[ObsDelta, dict]:
    """Capture (and drain) one telemetry increment from ``obs``.

    Returns ``(delta, new_baseline)``.  The tracer (the calling
    thread's roots) is drained — its spans ship exactly once — while
    the metrics registry keeps accumulating.  One registry snapshot is
    both the state the increment subtracts ``baseline`` from and the
    returned baseline that marks the cut for the next capture.
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
    return ObsDelta(metrics=metrics, spans=spans), new_baseline


def merge_delta(obs, delta: Optional[ObsDelta],
                worker: Optional[str] = None) -> None:
    """Fold a worker's :class:`ObsDelta` into the parent handle ``obs``.

    Metric increments merge onto the parent's (unlabeled) series, so
    totals match a serial run; span trees rehydrate under the currently
    open span with a ``worker`` attribute.
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
