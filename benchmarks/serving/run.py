#!/usr/bin/env python3
"""Serving benchmark: four workloads through ``repro.cli serve``.

One command, two shapes::

    # one workload, the driver's contract; last stdout line is the result
    python3 benchmarks/serving/run.py --workload ro_selective --seed 1 \\
        --seconds 15 --trace 0

    # every workload, timed and traced, as one report for compare.py
    python3 benchmarks/serving/run.py --out report.json

See README.md next to this file for workloads, metrics and method.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from server import SRC_DIR  # noqa: E402

if not os.path.isfile(os.path.join(SRC_DIR, "repro", "cli.py")):
    sys.exit(f"error: {SRC_DIR} holds no repro package; run the benchmark "
             f"from a checkout of the repository")
sys.path.insert(0, SRC_DIR)

from harness import (DEFAULT_SEED, WORKLOADS, NoiseGuard, Run,  # noqa: E402
                     load_spec, machine, shaped)
from inputs import make_inputs  # noqa: E402
from oracle import GOLDEN_PATH, Oracle  # noqa: E402

REPS = 3
WORK_ROOT = os.path.join(HERE, ".work")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="timed seconds per workload, split over the "
                             "repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, tracing off; 1: the "
                             "traced per-layer run (default: both, for "
                             "the report)")
    parser.add_argument("--quick", action="store_true",
                        help="one 2 s repetition on tiny corpora")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the full report as JSON")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json (only when the "
                             "inputs are changed on purpose) and exit")
    args = parser.parse_args(argv)
    if args.write_golden:
        return write_golden()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    mode = "quick" if args.quick else "full"
    reps = 1 if args.quick else REPS
    seconds = 2.0 if args.quick else args.seconds
    # A noisy repetition is re-run at most twice in a report; a single
    # workload is the driver's call, whose wall time is budgeted.
    retries = 2 if args.workload == "all" else 0
    timed = args.trace in (None, 0)
    traced = args.trace in (None, 1)

    work_dir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(work_dir)
    report = {"benchmark": "serving", "seed": args.seed, "mode": mode,
              "seconds": seconds, "reps": reps, "machine": machine(),
              "workloads": {}}
    try:
        guard = NoiseGuard()
        runs = [Run(WORKLOADS[name], args.seed, mode, work_dir)
                for name in names]
        if timed:
            # Repetitions interleave round-robin across workloads, so
            # drift in the machine lands on all of them alike.
            for rep in range(reps):
                for run in runs:
                    run.repetition(seconds / reps, guard, retries,
                                   last=rep == reps - 1)
        for run in runs:
            entry = report["workloads"][run.workload.name] = {}
            if timed:
                summary = run.summary()
                summary["end_to_end"] = shaped(spec["end_to_end"],
                                               summary.pop("values"))
                entry.update(summary)
            if traced:
                import layers
                entry["traced"] = layers.traced_run(
                    run, spec, work_dir, quick=args.quick)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({k: report[k] for k in
                      ("seed", "mode", "seconds", "reps", "machine")}),
          file=sys.stderr)
    for name, entry in report["workloads"].items():
        for part in (entry, entry.get("traced", {})):
            if part.get("failures"):
                print(f"{name}: failures: {part['failures']}",
                      file=sys.stderr)
    if args.workload == "all":
        print_table(report)
        return 0 if all(_correct(e) for e in
                        report["workloads"].values()) else 1
    # The driver's contract: one JSON object, last line of stdout.
    entry = report["workloads"][args.workload]
    part = entry if args.trace == 0 else entry["traced"]
    print(json.dumps({
        "correct": part["correct"], "attempted": part["attempted"],
        "failed": part["failed"],
        "metrics": part["end_to_end" if args.trace == 0 else "per_layer"]}))
    return 0


def write_golden() -> int:
    golden = {"seed": DEFAULT_SEED, "mode": "full", "workloads": {}}
    for name in WORKLOADS:
        inputs = make_inputs(name, DEFAULT_SEED)
        golden["workloads"][name] = {"inputs": inputs.fingerprint(),
                                     "answers": Oracle(inputs).digest()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


def _correct(entry: dict) -> bool:
    return (entry.get("correct", True)
            and entry.get("traced", {}).get("correct", True))


def print_table(report: dict) -> None:
    for name, entry in report["workloads"].items():
        flags = ("  (noisy)" if entry.get("noisy") else "") \
            + ("" if _correct(entry) else "  ** INCORRECT **")
        print(f"\n{name}{flags}")
        for section in ("end_to_end", "per_layer"):
            metrics = (entry.get(section)
                       or entry.get("traced", {}).get(section) or {})
            for metric, cell in metrics.items():
                print(f"  {metric:<42} {cell['value']:>14.4f} {cell['unit']}")


if __name__ == "__main__":
    sys.exit(main())
