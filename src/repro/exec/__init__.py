"""Parallel execution layer (``repro.exec``).

Process-pool fan-out for collection queries with a determinism
guarantee: ``search(..., workers=N)`` returns results bit-identical to
the serial path for every strategy.  See ``docs/parallelism.md``
for the architecture and ``docs/robustness.md`` for the failure
model.

* :class:`~repro.exec.parallel.ParallelExecutor` — warm worker pool
  over a fixed document set; parent-side keyword screen
  (``source.candidates``), chunked ``(document, query)`` scheduling,
  deterministic merge.  With ``index_path=``
  the corpus stays on disk in a sharded mmap index
  (:mod:`repro.storage.shards`): workers attach zero-copy instead of
  unpickling documents, and chunks are scattered along shard
  boundaries.
* :class:`~repro.exec.batch.BatchRunner` — evaluate a list of queries
  over a collection, amortising index/pool setup across the batch.
* :mod:`~repro.exec.resilience` — :class:`RetryPolicy` (per-chunk
  deadlines, bounded retries with backoff, pool respawn, serial
  degradation) and the per-run :class:`ResilienceReport`.
* :mod:`~repro.exec.faults` — deterministic fault injection
  (:class:`FaultPlan` / :class:`FaultRule`: kill-worker, hang-worker,
  flaky-chunk) for tests and the bench runner.
"""

from .batch import BatchRunner
from .faults import (FAULT_KINDS, FLAKY_CHUNK, HANG_WORKER, KILL_WORKER,
                     FaultPlan, FaultRule, InjectedFault)
from .parallel import (ParallelExecutor, default_start_method,
                       default_workers)
from .resilience import (DEFAULT_POLICY, FALLBACK_NEVER, FALLBACK_SERIAL,
                         ResilienceReport, RetryPolicy)

__all__ = ["ParallelExecutor", "BatchRunner",
           "default_workers", "default_start_method",
           "RetryPolicy", "ResilienceReport", "DEFAULT_POLICY",
           "FALLBACK_SERIAL", "FALLBACK_NEVER",
           "FaultPlan", "FaultRule", "InjectedFault",
           "KILL_WORKER", "HANG_WORKER", "FLAKY_CHUNK", "FAULT_KINDS"]
