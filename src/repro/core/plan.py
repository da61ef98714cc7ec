"""Logical query plans — the paper's *query evaluation trees* (Figure 5).

A plan is an immutable tree of operator nodes:

``KeywordScan(term)``
    ``σ_{keyword=term}(nodes(D))`` — leaf of the plan.
``Select(predicate, child)``
    ``σ_P`` over the child's output.
``PairwiseJoin(left, right)``
    ``F1 ⋈ F2``.
``FixedPoint(child, bounded)``
    ``F+`` — bounded mode uses the Theorem-1 iteration count, unbounded
    mode uses semi-naive iteration with fixed-point checking.
``PowersetJoin(children)``
    ``F1 ⋈* … ⋈* Fm`` by enumeration (the pre-optimisation form).
``AnchoredSpans(terms, predicate)``
    The whole ``σ_P(F1 ⋈* … ⋈* Fm)`` as one leaf, answered without a
    join by enumerating the keyword-anchored subtrees (docs/theory.md,
    the anchored-span lemma).

Plans are built by :func:`initial_plan`, rewritten by
:mod:`repro.core.optimizer`, executed by
:mod:`repro.core.evaluator`, and rendered by :func:`explain` in the
indented style of the paper's Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import PlanError
from .filters import Filter
from .query import Query

__all__ = [
    "PlanNode",
    "KeywordScan",
    "Select",
    "PairwiseJoin",
    "FixedPoint",
    "PowersetJoin",
    "AnchoredSpans",
    "initial_plan",
    "explain",
]


class PlanNode:
    """Base class for logical plan operators."""

    def children(self) -> tuple["PlanNode", ...]:
        """Child operators, left to right."""
        return ()

    def label(self) -> str:
        """One-line description used by :func:`explain`."""
        raise NotImplementedError

    def walk(self) -> Iterator["PlanNode"]:
        """Yield this node and every descendant, preorder."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class KeywordScan(PlanNode):
    """Leaf: the single-node fragments containing ``term``."""

    term: str

    def label(self) -> str:
        return f"scan[keyword={self.term}]"


@dataclass(frozen=True)
class Select(PlanNode):
    """``σ_P`` applied to the child's fragment set."""

    predicate: Filter
    child: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        push = "a" if self.predicate.is_anti_monotonic else ""
        return f"σ{push}[{self.predicate!r}]"


@dataclass(frozen=True)
class PairwiseJoin(PlanNode):
    """``left ⋈ right`` (pairwise fragment join)."""

    left: PlanNode
    right: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "⋈"


@dataclass(frozen=True)
class FixedPoint(PlanNode):
    """``child+`` — closure under fragment join.

    ``bounded=True`` runs exactly ``|⊖(F)|`` rounds (Theorem 1);
    ``bounded=False`` iterates semi-naively until stable.  An optional
    anti-monotonic ``predicate`` prunes during iteration (Theorem 3).
    """

    child: PlanNode
    bounded: bool = True
    predicate: Optional[Filter] = None

    def __post_init__(self) -> None:
        if self.predicate is not None \
                and not self.predicate.is_anti_monotonic:
            raise PlanError("only anti-monotonic predicates may prune "
                            "inside a fixed point (Theorem 3)")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        mode = "bounded" if self.bounded else "semi-naive"
        pruned = (f", prune={self.predicate!r}"
                  if self.predicate is not None else "")
        return f"fixpoint[{mode}{pruned}]"


@dataclass(frozen=True)
class PowersetJoin(PlanNode):
    """``F1 ⋈* … ⋈* Fm`` by subset enumeration (pre-optimisation)."""

    operands: tuple[PlanNode, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 1:
            raise PlanError("powerset join needs at least one operand")

    def children(self) -> tuple[PlanNode, ...]:
        return self.operands

    def label(self) -> str:
        return "⋈*"


@dataclass(frozen=True)
class AnchoredSpans(PlanNode):
    """``σ_P(F1 ⋈* … ⋈* Fm)`` in one operator, with no join.

    An answer is ``span(S)`` for a set ``S`` of keyword nodes meeting
    every term, so the answers are enumerated bottom-up over the keyword
    nodes and their ancestors; ``predicate`` is the whole selection.
    """

    terms: tuple[str, ...]
    predicate: Filter

    def __post_init__(self) -> None:
        if not self.terms:
            raise PlanError("an anchored-span scan needs at least one term")

    def label(self) -> str:
        return f"anchored[{' '.join(self.terms)}; {self.predicate!r}]"


def initial_plan(query: Query) -> PlanNode:
    """The canonical unoptimised plan: ``σ_P(scan(k1) ⋈* … ⋈* scan(km))``.

    This is exactly the Definition-8 evaluation formula; the optimizer
    turns it into the Figure-5 right-hand tree.
    """
    scans: tuple[PlanNode, ...] = tuple(KeywordScan(t) for t in query.terms)
    return Select(query.predicate, PowersetJoin(scans))


def explain(plan: PlanNode, indent: str = "  ", analyze=None) -> str:
    """Render a plan as an indented operator tree (cf. Figure 5).

    With ``analyze=`` (a :class:`~repro.core.evaluator.PlanAnalysis`
    recorded while executing this plan), every operator line carries its
    measured runtime statistics — fragments in/out, joins, replayed
    fixed points, predicate checks, pushdown discards, self/total time —
    the EXPLAIN ANALYZE form of the same tree.
    """
    if analyze is not None:
        if [op.label for op in analyze.operators] \
                != [node.label() for node in plan.walk()]:
            raise PlanError("analysis does not describe this plan")
        return analyze.render(indent=indent)
    lines: list[str] = []

    def emit(node: PlanNode, level: int) -> None:
        lines.append(f"{indent * level}{node.label()}")
        for child in node.children():
            emit(child, level + 1)

    emit(plan, 0)
    return "\n".join(lines)
