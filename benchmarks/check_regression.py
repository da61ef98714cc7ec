"""Compare fresh ``BENCH_*.json`` facts against committed baselines.

CI snapshots the committed bench facts before the smoke run, lets the
smoke benches overwrite them, then calls this script to compare the
two sets::

    python benchmarks/check_regression.py \
        --baseline-dir .bench-baseline --current-dir . --threshold 0.25

Only *headline ratios* are compared — dimensionless speedups/overheads
that are stable across machines — never raw wall-clock seconds, which
vary with the runner.  A headline regresses when it moves more than
``threshold`` in its bad direction (slower speedup, fatter overhead).
Metrics present on one side only are reported but never fail the
check, so new benches can land before their baseline is committed.

Exit status: 0 clean, 1 when any headline regressed, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (file, dotted path, direction) — direction says which way is good:
#: ``higher`` for speedups, ``lower`` for overhead factors.  Two facts
#: the benches still record are deliberately *not* gated (ROADMAP item
#: 7): ``parallel_scaling.speedup_at_4_workers`` enshrined a 0.145x
#: slowdown, and ``shard.attach_speedup`` compares a smoke run (12x)
#: against a committed full-mode 1000x, so it flagged every change to
#: the pool's attach path.  The serving bench's ``pool_join_heavy`` and
#: ``storage.shards.attach_ms`` carry both facts.
HEADLINES = [
    ("BENCH_obs.json", "noop_overhead.vs_baseline.noop", "lower"),
    ("BENCH_obs.json", "noop_overhead.vs_baseline.traced", "lower"),
    ("BENCH_obs.json",
     "recorder_overhead.vs_recorder_off.recorder_on", "lower"),
    ("BENCH_obs.json",
     "recorder_overhead.vs_recorder_off.sampled", "lower"),
    ("BENCH_obs.json",
     "sampler_overhead.vs_sampler_off.sampler_on", "lower"),
    ("BENCH_resilience.json", "resilience.armed_overhead", "lower"),
    ("BENCH_guard.json", "guard.checkpoint_overhead", "lower"),
    ("BENCH_guard.json", "guard.abort_factor", "lower"),
    ("BENCH_shard.json", "rss.growth", "lower"),
    ("BENCH_streaming.json", "streaming.topk_vs_full", "lower"),
    ("BENCH_mutation.json", "mutation.batch_commit_speedup", "higher"),
    ("BENCH_mutation.json", "reads.read_overhead", "lower"),
]


def _lookup(doc: dict, dotted: str):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) \
        and not isinstance(node, bool) else None


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def check(baseline_dir: Path, current_dir: Path,
          threshold: float) -> int:
    """Print a comparison table; return the process exit code."""
    regressions = 0
    compared = 0
    for filename, dotted, direction in HEADLINES:
        baseline = _lookup(_load(baseline_dir / filename), dotted)
        current = _lookup(_load(current_dir / filename), dotted)
        label = f"{filename}:{dotted}"
        if baseline is None and current is None:
            continue
        if baseline is None:
            print(f"  new      {label} = {current:.4f} (no baseline)")
            continue
        if current is None:
            print(f"  missing  {label} (baseline {baseline:.4f}; "
                  f"bench did not run?)")
            continue
        compared += 1
        if direction == "higher":
            # A speedup: regression when it shrinks past the envelope.
            bad = current < baseline / (1.0 + threshold)
            change = baseline / current - 1.0 if current else float("inf")
        else:
            # An overhead factor: regression when it grows past it.
            bad = current > baseline * (1.0 + threshold)
            change = current / baseline - 1.0 if baseline else float("inf")
        verdict = "REGRESSED" if bad else "ok"
        print(f"  {verdict:9s}{label}: baseline {baseline:.4f} -> "
              f"current {current:.4f} ({change:+.1%} toward "
              f"{'slower' if direction == 'higher' else 'fatter'})")
        if bad:
            regressions += 1
    print(f"{compared} headline(s) compared, {regressions} regressed "
          f"(threshold {threshold:.0%})")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", type=Path, required=True,
                        help="directory holding the committed "
                             "BENCH_*.json snapshots")
    parser.add_argument("--current-dir", type=Path, default=Path("."),
                        help="directory holding the fresh BENCH_*.json "
                             "(default: .)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional slowdown before a "
                             "headline fails (default: 0.25)")
    args = parser.parse_args(argv)
    if not args.baseline_dir.is_dir():
        print(f"error: baseline dir {args.baseline_dir} not found",
              file=sys.stderr)
        return 2
    return check(args.baseline_dir, args.current_dir, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
