#!/usr/bin/env python3
"""Choosing an evaluation strategy: plans, costs and the RF threshold.

For query-engine developers: this example generates a synthetic
document-centric corpus, inspects logical plans before and after
optimisation, estimates costs, measures the reduction factor of the
keyword sets, and races the strategies — the §5 optimizer workflow,
driven by the public API.

Run with::

    python examples/strategy_tuning.py
"""

from __future__ import annotations

import time

import repro
from repro.core.query import keyword_fragments
from repro.core.statistics import (estimate_reduction_factor,
                                   reduction_factor)
from repro.workloads.generator import (DocumentSpec, generate_document,
                                       plant_keyword)


def main() -> None:
    # A 1000-node synthetic article with two planted query terms:
    # 'needle' clustered inside one subtree (high RF), 'thread'
    # scattered document-wide (low RF).
    doc = generate_document(DocumentSpec(nodes=1000, seed=5))
    doc = plant_keyword(doc, "needle", occurrences=8, clustering=1.0,
                        seed=6)
    doc = plant_keyword(doc, "thread", occurrences=8, clustering=0.0,
                        seed=7)
    index = repro.InvertedIndex(doc)
    query = repro.Query.of("needle", "thread",
                           predicate=repro.SizeAtMost(6))

    print("=== logical plans ===")
    naive = repro.initial_plan(query)
    print("canonical plan (Definition 8):")
    print(repro.explain(naive, indent="  "))
    optimised = repro.optimize(query)
    print("\noptimised plan (Theorem 2 rewrite + Theorem 3 push-down):")
    print(repro.explain(optimised, indent="  "))

    print("\n=== cost estimates ===")
    model = repro.CostModel(doc, index=index)
    for label, plan in (("canonical", naive), ("optimised", optimised)):
        estimate = model.estimate(plan)
        print(f"  {label:>10}: est. cardinality "
              f"{estimate.cardinality:10.1f}, est. cost "
              f"{estimate.cost:12.1f}")

    print("\n=== reduction factors (§5) ===")
    for term in query.terms:
        frags = sorted(keyword_fragments(doc, term, index=index),
                       key=lambda f: f.root)
        exact = reduction_factor(frags)
        sampled = estimate_reduction_factor(frags, sample_size=6)
        decision = ("reduce" if model.prefer_bounded_fixed_point(term)
                    else "skip ⊖")
        print(f"  {term:>7}: |F| = {len(frags)}, exact RF = "
              f"{exact:.2f}, sampled RF = {sampled:.2f} → {decision}")

    print("\n=== explain analyze (per-operator measurements) ===")
    from repro.core import explain_analyze
    _, analysis = explain_analyze(doc, query, index=index, plan=optimised)
    print(analysis.render(cost_model=model))

    print("\n=== strategy race ===")
    for strategy in repro.Strategy:
        started = time.perf_counter()
        result = repro.evaluate(doc, query, strategy=strategy,
                                index=index)
        elapsed = (time.perf_counter() - started) * 1000
        print(f"  {strategy.value:>14}: {len(result):>3} answers  "
              f"{result.stats['fragment_joins']:>6} joins  "
              f"{elapsed:8.2f} ms")

    print("\nall strategies agree on the answer set; pick pushdown "
          "unless your filter lacks the anti-monotonic property.")


if __name__ == "__main__":
    main()
