"""Scatter-gather query routing over an attached shard index.

:class:`ShardRouter` sits between a collection-level caller and the
``index_path=`` mode of :class:`~repro.exec.parallel.ParallelExecutor`.
The executor already scatters ``(document, query)`` items so that no
chunk straddles a shard boundary; the router adds the *health* layer on
top:

* shards that failed to attach (``on_error="skip"``) are excluded from
  the fan-out and reported, never silently dropped;
* every shard gets its own :class:`~repro.guard.CircuitBreaker` —
  a shard whose chunks keep exhausting their retry budget is taken out
  of the fan-out for ``breaker_reset_s`` seconds, then probed
  (half-open) with real traffic;
* a :class:`~repro.errors.ShardError` raised mid-run (for example a
  checksum failure surfacing at first materialisation) trips that
  shard's breaker and the run is re-routed over the surviving shards —
  bounded by the shard count, so a fully corrupt index still
  terminates.

Every run produces a :class:`RouterReport` (``router.last_report``)
naming the shards queried and skipped, mirrored into
``repro_shard_router_*`` metrics and the ``/varz`` shard section.
Results for the routed documents remain bit-identical to the serial
in-memory path; degradation only ever *narrows* the document set, and
always observably.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ...errors import ShardError
from ...guard.breaker import CircuitBreaker
from ...obs import (NOOP, SHARD_BREAKER_STATE, SHARD_ROUTER_EXCLUSIONS,
                    SHARD_ROUTER_FANOUT, SHARD_ROUTER_REROUTES,
                    SHARD_ROUTER_SKIPPED, Observability)
from .reader import ShardIndex

__all__ = ["ShardRouter", "RouterReport"]


@dataclass
class RouterReport:
    """What one routed run fanned out to — and what it had to avoid.

    ``skipped`` maps shard number to the reason it was excluded:
    an attach-time failure reason (``"truncated"``, ``"checksum"``,
    ``"version-skew"`` ...), ``"breaker-open"`` for a tripped breaker,
    or a mid-run :class:`~repro.errors.ShardError` reason for shards
    evicted while the run was in flight.  ``documents_skipped`` counts
    requested documents that lived on those shards.  ``reroutes``
    counts mid-run evictions (each one re-dispatches the surviving
    shards).  ``resilience`` is the underlying executor's
    :class:`~repro.exec.resilience.ResilienceReport` for the final
    dispatch.
    """

    fanout: int = 0
    shards_queried: list = field(default_factory=list)
    skipped: dict = field(default_factory=dict)
    evicted: list = field(default_factory=list)
    documents_routed: int = 0
    documents_skipped: int = 0
    reroutes: int = 0
    resilience: Optional[object] = None

    @property
    def degraded(self) -> bool:
        """True when any shard was excluded or any chunk fell back."""
        if self.skipped:
            return True
        return bool(self.resilience is not None
                    and self.resilience.degraded)

    @property
    def clean(self) -> bool:
        return not self.degraded and not self.reroutes

    def to_dict(self) -> dict:
        return {
            "fanout": self.fanout,
            "shards_queried": list(self.shards_queried),
            "skipped": {str(k): v for k, v in self.skipped.items()},
            "evicted": list(self.evicted),
            "documents_routed": self.documents_routed,
            "documents_skipped": self.documents_skipped,
            "reroutes": self.reroutes,
            "degraded": self.degraded,
            "resilience": (self.resilience.to_dict()
                           if self.resilience is not None else None),
        }


class ShardRouter:
    """Health-aware scatter-gather over a sharded on-disk index.

    Parameters
    ----------
    index:
        A manifest directory path (attached here with
        ``on_error="skip"``, so a partially corrupt index degrades
        instead of failing) or an already-attached
        :class:`~repro.storage.shards.ShardIndex`.
    workers / start_method / chunk_size / obs / resilience / faults:
        Forwarded to the pooled executor (see
        :class:`~repro.exec.parallel.ParallelExecutor`).
    breaker_failures / breaker_reset_s:
        Per-shard circuit breaker tuning: consecutive failed *runs*
        (not chunks) before a shard is taken out of the fan-out, and
        seconds before the half-open probe.
    strict:
        When true, any exclusion (attach failure, open breaker,
        mid-run eviction) raises the underlying
        :class:`~repro.errors.ShardError` instead of degrading.
        Default false: degrade, report, keep serving.
    """

    def __init__(self, index, *,
                 workers: Optional[int] = None,
                 start_method: Optional[str] = None,
                 chunk_size: Optional[int] = None,
                 obs: Optional[Observability] = None,
                 resilience=None, faults=None,
                 cache_limit: Optional[int] = 64,
                 breaker_failures: int = 3,
                 breaker_reset_s: float = 30.0,
                 strict: bool = False,
                 clock=time.monotonic) -> None:
        self._obs = obs if obs is not None else NOOP
        if isinstance(index, ShardIndex):
            self.index = index
            self._owns_index = False
        else:
            self.index = ShardIndex.attach(index, on_error="skip",
                                           cache_limit=cache_limit,
                                           obs=self._obs)
            self._owns_index = True
        self.strict = strict
        self._breakers: dict[int, CircuitBreaker] = {
            shard: CircuitBreaker(failure_threshold=breaker_failures,
                                  reset_s=breaker_reset_s, clock=clock)
            for shard in self.index.attached_shards
        }
        # Cumulative per-shard health (survives across runs; the
        # /varz shards section and the ops console read it to show
        # *which* shard is sick, not just that one is).
        self.history: dict[int, dict] = {
            shard: self._fresh_history()
            for shard in self.index.attached_shards
        }
        from ...exec.parallel import ParallelExecutor
        self.executor = ParallelExecutor(
            index_path=self.index, workers=workers,
            start_method=start_method, chunk_size=chunk_size,
            obs=self._obs, resilience=resilience, faults=faults)
        self.last_report = RouterReport()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route(self, documents: Optional[Iterable[str]],
               report: RouterReport) -> tuple[list[str], set[int]]:
        """Partition the requested documents into routable targets.

        Returns ``(targets, healthy_shards)``.  Shards excluded by an
        attach failure or an open breaker land in ``report.skipped``
        with their reason; in ``strict`` mode the first attach failure
        re-raises instead.
        """
        for shard, error in sorted(self.index.failed_shards.items()):
            if self.strict:
                raise error
            report.skipped[shard] = error.reason
        healthy: set[int] = set()
        for shard in self.index.attached_shards:
            if shard in report.skipped:
                continue
            if self._breakers[shard].allow():
                healthy.add(shard)
            else:
                if self.strict:
                    raise ShardError(
                        f"shard {shard} circuit breaker is open",
                        reason="breaker-open", shard=shard,
                        path=self.index.path)
                report.skipped[shard] = "breaker-open"
        requested = (list(documents) if documents is not None
                     else self.index.names())
        if documents is None:
            # names() already excludes attach-failed shards; their
            # documents are skipped work and must be accounted for.
            report.documents_skipped += (
                self.index.stats()["documents"] - len(requested))
        targets: list[str] = []
        for name in requested:
            # Unknown names raise here (unknown-document), exactly as
            # the in-memory executor raises DocumentError.
            shard = self.index.shard_of(name)
            if shard in healthy:
                targets.append(name)
            else:
                report.documents_skipped += 1
                self._shard_history(shard)["documents_skipped"] += 1
        return targets, healthy

    @staticmethod
    def _fresh_history() -> dict:
        return {"runs": 0, "failed_runs": 0, "excluded_runs": 0,
                "reroutes": 0, "documents_skipped": 0,
                "exclusions": {}, "last_exclusion": None}

    def _shard_history(self, shard: int) -> dict:
        # Attach-failed shards have no breaker but still need a ledger.
        return self.history.setdefault(shard, self._fresh_history())

    def _evict(self, shard: int, reason: str, targets: list[str],
               healthy: set[int], report: RouterReport) -> list[str]:
        """Take a shard out of an in-flight run after a ShardError."""
        self._breakers[shard].record_failure()
        report.skipped[shard] = reason
        report.evicted.append(shard)
        report.reroutes += 1
        healthy.discard(shard)
        kept = []
        for name in targets:
            if self.index.shard_of(name) == shard:
                report.documents_skipped += 1
            else:
                kept.append(name)
        self._shard_history(shard)["documents_skipped"] += (
            len(targets) - len(kept))
        return kept

    def run(self, queries: Sequence, strategy=None,
            documents: Optional[Iterable[str]] = None,
            obs: Optional[Observability] = None,
            resilience=None, faults=None, budget=None,
            requests=None) -> list:
        """Evaluate a query batch across the healthy shards.

        Returns one ``CollectionResult`` per query, in query order —
        bit-identical to the in-memory path over the routed documents.
        ``router.last_report`` names anything that was excluded.
        ``requests`` as for :meth:`ParallelExecutor.run`.
        """
        from ...core.strategies import Strategy
        if strategy is None:
            strategy = Strategy.ANCHORED
        ob = obs if obs is not None else self._obs
        report = RouterReport()
        targets, healthy = self._route(documents, report)
        results = None
        while True:
            queried = sorted({self.index.shard_of(n) for n in targets})
            try:
                results = self.executor.run(
                    list(queries), strategy=strategy, documents=targets,
                    obs=ob, resilience=resilience, faults=faults,
                    budget=budget, requests=requests)
            except ShardError as exc:
                # A shard went bad mid-flight (e.g. lazy checksum
                # verification failing at first materialisation).
                # Evict it, charge its breaker, re-route the rest.
                if (self.strict or exc.shard is None
                        or exc.shard not in healthy):
                    raise
                targets = self._evict(exc.shard, exc.reason, targets,
                                      healthy, report)
                continue
            break
        report.resilience = self.executor.last_report
        report.fanout = len(queried)
        report.shards_queried = queried
        report.documents_routed = len(targets)
        # Charge the breakers: a shard whose chunks exhausted their
        # retry budget this run (the executor's serial fallback) counts
        # as one failure; a cleanly-served shard resets its breaker.
        failed_groups = report.resilience.failed_groups
        for shard in queried:
            if failed_groups.get(shard):
                self._breakers[shard].record_failure()
            else:
                self._breakers[shard].record_success()
        self.last_report = report
        self._remember(report)
        self._observe(ob, report)
        return results

    def search(self, query, strategy=None,
               documents: Optional[Iterable[str]] = None,
               obs: Optional[Observability] = None,
               resilience=None, faults=None, budget=None, request=None):
        """Route one query; returns a single ``CollectionResult``."""
        return self.run([query], strategy=strategy, documents=documents,
                        obs=obs, resilience=resilience, faults=faults,
                        budget=budget,
                        requests=None if request is None else [request])[0]

    def _remember(self, report: RouterReport) -> None:
        """Fold one run's report into the cumulative per-shard ledger."""
        failed_groups = (report.resilience.failed_groups
                         if report.resilience is not None else {})
        for shard in report.shards_queried:
            entry = self._shard_history(shard)
            entry["runs"] += 1
            if failed_groups.get(shard):
                entry["failed_runs"] += 1
        for shard, reason in report.skipped.items():
            entry = self._shard_history(shard)
            entry["excluded_runs"] += 1
            entry["exclusions"][reason] = (
                entry["exclusions"].get(reason, 0) + 1)
            entry["last_exclusion"] = reason
        for shard in report.evicted:
            self._shard_history(shard)["reroutes"] += 1

    def _observe(self, ob: Observability, report: RouterReport) -> None:
        if not ob.enabled:
            return
        m = ob.metrics
        m.histogram(SHARD_ROUTER_FANOUT,
                    "Shards queried per routed run.").observe(
                        report.fanout)
        if report.skipped:
            m.counter(SHARD_ROUTER_SKIPPED,
                      "Shards excluded from routed runs.").inc(
                          len(report.skipped))
        for shard, reason in report.skipped.items():
            m.counter(SHARD_ROUTER_EXCLUSIONS,
                      "Shards excluded from routed runs, by shard "
                      "and reason.",
                      labels={"shard": str(shard), "reason": reason}
                      ).inc()
        for shard in report.evicted:
            m.counter(SHARD_ROUTER_REROUTES,
                      "Mid-run shard evictions rerouted to the "
                      "surviving shards.",
                      labels={"shard": str(shard)}).inc()
        for shard, breaker in self._breakers.items():
            m.gauge(SHARD_BREAKER_STATE,
                    "Per-shard breaker state (0 closed, 1 half-open, "
                    "2 open).", labels={"shard": str(shard)}
                    ).set(breaker.state_code)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def breaker(self, shard: int) -> CircuitBreaker:
        """The circuit breaker guarding one attached shard."""
        return self._breakers[shard]

    def pretrip_suspect_shards(self, min_failures: int = 1,
                               reason: str = "pre-tripped"
                               ) -> list[int]:
        """Force-open the breakers of shards already showing trouble.

        The SLO feedback loop calls this when a burn-rate alert goes
        critical: instead of waiting for ``breaker_failures``
        consecutive failed runs, any shard with at least
        ``min_failures`` recent consecutive failures is taken out of
        the fan-out immediately.  Healthy shards (zero consecutive
        failures) are never touched.  Returns the shards tripped.
        """
        tripped: list[int] = []
        for shard, breaker in sorted(self._breakers.items()):
            if breaker.consecutive_failures < min_failures:
                continue
            if breaker.trip():
                tripped.append(shard)
                entry = self._shard_history(shard)
                entry["exclusions"][reason] = (
                    entry["exclusions"].get(reason, 0) + 1)
                entry["last_exclusion"] = reason
        return tripped

    @property
    def degraded(self) -> bool:
        """True when the index is partially attached, any breaker is
        off-closed, or the last run degraded."""
        if self.index.degraded or self.last_report.degraded:
            return True
        return any(b.state_code != 0 for b in self._breakers.values())

    def stats(self) -> dict:
        """One JSON-ready snapshot for ``/varz`` and debugging."""
        return {
            "index": self.index.stats(),
            "breakers": {str(s): b.to_dict()
                         for s, b in sorted(self._breakers.items())},
            "history": {str(s): dict(h, exclusions=dict(h["exclusions"]))
                        for s, h in sorted(self.history.items())},
            "last_run": self.last_report.to_dict(),
            "degraded": self.degraded,
        }

    def warm(self) -> None:
        """Start the pool's workers from the calling thread (see
        :meth:`ParallelExecutor.warm`)."""
        self.executor.warm()

    def close(self) -> None:
        """Shut the pool down; detach the index if this router owns it."""
        self.executor.shutdown()
        if self._owns_index:
            self.index.close()

    #: Executor-compatible alias, so a router can stand in wherever a
    #: :class:`~repro.exec.parallel.ParallelExecutor` is shut down.
    shutdown = close

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ShardRouter(path={self.index.path!r}, "
                f"shards={self.index.shards}, "
                f"attached={len(self.index.attached_shards)}, "
                f"workers={self.executor.workers})")
