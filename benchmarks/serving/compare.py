#!/usr/bin/env python3
"""Compare two serving-benchmark reports: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric), judged by the bound that
``BENCHMARK.json`` fixes for the metric:

* ``better`` / ``worse`` — B's median differs from A's by more than the
  bound, in the metric's good / bad direction;
* ``same`` — within the bound;
* ``unresolved`` — the spread across repetitions (on either side) is
  wider than the bound, so the run cannot tell; unless every repetition
  of one side beats every repetition of the other, which resolves it.

Exit status is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys

from server import REPO_ROOT


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _spread(values: list[float], median: float) -> float:
    """Range of the repetitions as a share of their median."""
    return (max(values) - min(values)) / abs(median) if median else 0.0


def verdict(metric: dict, a: list[float], a_median: float,
            b: list[float], b_median: float) -> str:
    bound = metric["bound"]
    lower_is_better = metric["better"] == "lower"
    change = (b_median - a_median) / abs(a_median) if a_median else 0.0
    if not lower_is_better:
        change = -change                 # now: positive means worse
    separated = max(a) < min(b) or max(b) < min(a)
    if not separated and max(_spread(a, a_median),
                             _spread(b, b_median)) > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    rows = []
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in wa.get("end_to_end", {}) \
                    or key not in wb.get("end_to_end", {}):
                continue
            a_median = wa["end_to_end"][key]["value"]
            b_median = wb["end_to_end"][key]["value"]
            rows.append((name, key, a_median, b_median,
                         verdict(metric, wa["reps"][key], a_median,
                                 wb["reps"][key], b_median)))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    a, b = _load(argv[0]), _load(argv[1])
    spec = _load(os.path.join(REPO_ROOT, "BENCHMARK.json"))
    for side, path in ((a, argv[0]), (b, argv[1])):
        print(f"# {path}: seed {side['seed']}, {side['seconds']} s, "
              f"{side['machine']}")
    if a["machine"] != b["machine"]:
        print("# warning: the two reports come from different machines")
    rows = compare(a, b, spec)
    for workload, metric, a_median, b_median, word in rows:
        print(f"{workload:<16} {metric:<28} {a_median:>12.4f} "
              f"{b_median:>12.4f}  {word}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
