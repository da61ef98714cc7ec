"""Operation counters for the algebra.

Every algebra entry point accepts an optional :class:`OperationStats`;
when supplied, the number of primitive operations performed (fragment
joins, predicate evaluations, subset checks) is accumulated there.  The
benchmark harness uses these counters to report *logical* work — the
quantity the paper's optimisation claims are about — alongside wall-clock
time, which depends on implementation detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["OperationStats", "COUNTERS"]

#: The counter fields, in reporting order.
COUNTERS = ("fragment_joins", "join_cache_hits", "joins_pruned",
            "predicate_checks", "subset_checks", "fragments_discarded",
            "iterations", "partials", "partials_pruned")


@dataclass
class OperationStats:
    """Mutable tally of primitive algebra operations.

    Attributes
    ----------
    fragment_joins:
        Number of binary fragment-join computations.
    join_cache_hits:
        Fixed points replayed whole from the
        :class:`~repro.core.algebra.JoinCache` memo instead of computed:
        a replay considers no pair, so it adds to none of the other
        counters.
    joins_pruned:
        Pairs never joined: the operands' labels already put the join
        past the size/height/width the next selection allows
        (:func:`repro.core.filters.necessary_bound`).
    predicate_checks:
        Filter evaluations performed by selections.
    subset_checks:
        Fragment-containment tests (used by set reduction).
    fragments_discarded:
        Fragments a selection rejected after they were built — pushed
        down or not; what ``joins_pruned`` caught first is not built
        and not counted here.
    iterations:
        Pairwise-join rounds executed by fixed-point computations.
    partials:
        Partial fragments built by the join-free anchored-span pass
        (:mod:`repro.core.anchored`): one per node visited, plus one per
        combination within the bound.
    partials_pruned:
        Combinations that pass never built: their measures already put
        them past the predicate's ``necessary_bound``.
    """

    fragment_joins: int = 0
    join_cache_hits: int = 0
    joins_pruned: int = 0
    predicate_checks: int = 0
    subset_checks: int = 0
    fragments_discarded: int = 0
    iterations: int = 0
    partials: int = 0
    partials_pruned: int = 0
    extras: dict = field(default_factory=dict)

    def reset(self) -> None:
        """Zero every counter."""
        for name in COUNTERS:
            setattr(self, name, 0)
        self.extras.clear()

    def merge(self, other: "OperationStats") -> None:
        """Add another tally into this one."""
        for name in COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for key, value in other.extras.items():
            self.extras[key] = self.extras.get(key, 0) + value

    def as_dict(self) -> dict:
        """A plain-dict snapshot, convenient for reporting."""
        snapshot = {name: getattr(self, name) for name in COUNTERS}
        snapshot.update(self.extras)
        return snapshot

    def snapshot(self) -> "OperationStats":
        """An independent copy of the current counter values.

        The tracer snapshots a tally when a span opens so the span can
        later report only the work done while it was open.
        """
        return OperationStats(
            **{name: getattr(self, name) for name in COUNTERS},
            extras=dict(self.extras))

    def delta(self, since: "OperationStats") -> "OperationStats":
        """The work done after ``since`` was snapshotted (``self − since``).

        Extras present only in ``since`` come out negative-free: keys
        are differenced where shared and copied where new.
        """
        extras = {key: value - since.extras.get(key, 0)
                  for key, value in self.extras.items()}
        return OperationStats(
            **{name: getattr(self, name) - getattr(since, name)
               for name in COUNTERS},
            extras={key: value for key, value in extras.items() if value})
