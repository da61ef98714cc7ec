"""Reduction-factor statistics (paper Section 5).

The paper defines the *reduction factor* of a fragment set ``F`` as

    ``RF = (a - b) / a``  with  ``a = |F|``, ``b = |⊖(F)|``

(``RF = 0`` — no reduction; ``RF → 1`` — massive reduction) and sketches
an optimizer that estimates RF, compares it against an empirically
calibrated threshold ``v``, and performs set reduction only when
``RF ≥ v``.  This module supplies the exact computation, a cheap
sampling estimator, and the calibration helper the S2 bench uses to
locate ``v``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .fragment import Fragment
from .reduce import set_reduce
from .stats import OperationStats

__all__ = [
    "reduction_factor",
    "estimate_reduction_factor",
    "CalibrationPoint",
    "calibrate_threshold",
]


def reduction_factor(fragments: Iterable[Fragment],
                     stats: Optional[OperationStats] = None) -> float:
    """Exact ``RF = (|F| - |⊖(F)|) / |F|`` (0.0 for empty sets)."""
    items = frozenset(fragments)
    if not items:
        return 0.0
    reduced = set_reduce(items, stats=stats)
    return (len(items) - len(reduced)) / len(items)


def estimate_reduction_factor(fragments: Sequence[Fragment],
                              sample_size: int = 12,
                              trials: int = 4,
                              seed: int = 0) -> float:
    """Estimate RF by reducing small random samples of ``F``.

    Exact ⊖ costs O(|F|²) joins — precisely what the optimizer is trying
    to avoid paying blindly.  Sampling reduces the cost to
    O(trials · sample_size²) while preserving the ranking between
    low-RF and high-RF sets (validated in the S2 bench).

    Sampling *underestimates* RF because subsuming pairs may fall
    outside the sample; that bias is conservative for the decision rule
    (we skip reduction only when even the optimistic samples show none).
    """
    items = list(fragments)
    if len(items) <= sample_size:
        return reduction_factor(items)
    rng = random.Random(seed)
    estimates = []
    for _ in range(max(1, trials)):
        sample = rng.sample(items, sample_size)
        estimates.append(reduction_factor(sample))
    return sum(estimates) / len(estimates)


@dataclass(frozen=True)
class CalibrationPoint:
    """One observation for threshold calibration.

    Attributes
    ----------
    rf:
        Measured (or estimated) reduction factor of the fragment set.
    reduction_paid_off:
        Whether evaluating with set reduction was cheaper than without
        for this observation (by whatever cost metric the experiment
        uses — joins or wall time).
    """

    rf: float
    reduction_paid_off: bool


def calibrate_threshold(points: Sequence[CalibrationPoint]) -> float:
    """Choose the RF threshold ``v`` minimising decision errors.

    Scans candidate thresholds (the observed RF values plus 0 and 1) and
    returns the one for which the rule "reduce iff RF ≥ v" misclassifies
    the fewest observations.  Ties prefer the smaller threshold, i.e.
    reducing more often, since Theorem 1 never makes results wrong —
    only slower.
    """
    if not points:
        return 0.0
    candidates = sorted({0.0, 1.0} | {p.rf for p in points})
    best_threshold = 0.0
    best_errors = len(points) + 1
    for threshold in candidates:
        errors = sum(
            1 for p in points
            if (p.rf >= threshold) != p.reduction_paid_off)
        if errors < best_errors:
            best_errors = errors
            best_threshold = threshold
    return best_threshold
