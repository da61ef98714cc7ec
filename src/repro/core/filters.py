"""Selection predicates — the paper's *filters* (Definitions 3 and 11).

A filter maps a fragment to true/false; ``σ_P(F)`` keeps the fragments
satisfying ``P``.  Filters carry an ``is_anti_monotonic`` flag: a filter
``P`` is anti-monotonic iff ``P(f) = true`` implies ``P(f') = true`` for
every sub-fragment ``f' ⊆ f`` (Definition 11).  Theorem 3 lets the
optimizer push exactly these filters below join operations.

Provided filters and their anti-monotonicity:

===========================  ==================
``SizeAtMost(β)``            anti-monotonic (§3.3.1)
``HeightAtMost(h)``          anti-monotonic (§3.3.2)
``WidthAtMost(w)``           anti-monotonic (§3.3.2)
``TrueFilter``               anti-monotonic (trivially)
``And`` / ``Or`` of a.m.     anti-monotonic (§3.3)
``Not`` of a.m.              NOT anti-monotonic (§3.3)
``SizeAtLeast(β)``           NOT anti-monotonic (§3.4, first example)
``EqualDepth(k1, k2)``       NOT anti-monotonic (§3.4, Figure 7)
``ContainsKeyword(k)``       NOT anti-monotonic
===========================  ==================

Anti-monotonicity of composites is derived conservatively: a composite
claims the property only when the rules above guarantee it.  A filter
that is anti-monotonic semantically but flagged False is merely not
eligible for push-down — results stay correct.
"""

from __future__ import annotations

from functools import reduce as _reduce
from typing import Callable, Iterable, Iterator, Optional

from .fragment import Fragment
from .stats import OperationStats

__all__ = [
    "Filter",
    "TrueFilter",
    "SizeAtMost",
    "SizeAtLeast",
    "HeightAtMost",
    "WidthAtMost",
    "ContainsKeyword",
    "ExcludesKeyword",
    "EqualDepth",
    "RootDepthAtLeast",
    "TagsWithin",
    "LeafCountAtMost",
    "And",
    "Or",
    "Not",
    "PredicateFilter",
    "split_anti_monotonic",
    "necessary_bound",
    "select",
]

#: No limit on a measure of :func:`necessary_bound`.
UNBOUNDED = float("inf")


class Filter:
    """Base class for selection predicates over fragments.

    Subclasses implement :meth:`matches` and set ``is_anti_monotonic``.
    Filters compose with ``&`` (conjunction), ``|`` (disjunction) and
    ``~`` (negation); composition tracks anti-monotonicity per the
    paper's closure rules (∧ and ∨ preserve it, ¬ does not).
    """

    #: Whether Theorem 3 push-down applies to this filter.
    is_anti_monotonic: bool = False

    def matches(self, fragment: Fragment) -> bool:
        """Return True iff the fragment satisfies this predicate."""
        raise NotImplementedError

    def __call__(self, fragment: Fragment) -> bool:
        return self.matches(fragment)

    def __and__(self, other: "Filter") -> "Filter":
        return And(self, other)

    def __or__(self, other: "Filter") -> "Filter":
        return Or(self, other)

    def __invert__(self) -> "Filter":
        return Not(self)

    def describe(self) -> str:
        """Human-readable form used in plan explanations."""
        return repr(self)


class TrueFilter(Filter):
    """The always-true predicate (σ_true is the identity selection)."""

    is_anti_monotonic = True

    def matches(self, fragment: Fragment) -> bool:
        return True

    def __repr__(self) -> str:
        return "true"


class SizeAtMost(Filter):
    """``size(f) <= β`` — the paper's §3.3.1 filter.  Anti-monotonic."""

    is_anti_monotonic = True

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("size limit must be >= 1")
        self.limit = limit

    def matches(self, fragment: Fragment) -> bool:
        return fragment.size <= self.limit

    def __repr__(self) -> str:
        return f"size<={self.limit}"


class SizeAtLeast(Filter):
    """``size(f) >= β`` — §3.4's example of a non-anti-monotonic filter."""

    is_anti_monotonic = False

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("size limit must be >= 1")
        self.limit = limit

    def matches(self, fragment: Fragment) -> bool:
        return fragment.size >= self.limit

    def __repr__(self) -> str:
        return f"size>={self.limit}"


class HeightAtMost(Filter):
    """``height(f) <= h`` (§3.3.2).  Anti-monotonic.

    Height is the vertical distance between the fragment root and its
    deepest node; a single node has height 0.
    """

    is_anti_monotonic = True

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise ValueError("height limit must be >= 0")
        self.limit = limit

    def matches(self, fragment: Fragment) -> bool:
        return fragment.height <= self.limit

    def __repr__(self) -> str:
        return f"height<={self.limit}"


class WidthAtMost(Filter):
    """``width(f) <= w`` (§3.3.2).  Anti-monotonic.

    Width is measured as the preorder-rank span between the fragment's
    leftmost and rightmost nodes (DESIGN.md §4).
    """

    is_anti_monotonic = True

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise ValueError("width limit must be >= 0")
        self.limit = limit

    def matches(self, fragment: Fragment) -> bool:
        return fragment.width <= self.limit

    def __repr__(self) -> str:
        return f"width<={self.limit}"


class ContainsKeyword(Filter):
    """``keyword = k``: some fragment node carries the keyword (Def. 3).

    NOT anti-monotonic: a sub-fragment may omit the node that carried
    the keyword.
    """

    is_anti_monotonic = False

    def __init__(self, keyword: str) -> None:
        if not keyword:
            raise ValueError("keyword must be non-empty")
        self.keyword = keyword

    def matches(self, fragment: Fragment) -> bool:
        return fragment.contains_keyword(self.keyword)

    def __repr__(self) -> str:
        return f"keyword={self.keyword}"


class EqualDepth(Filter):
    """The paper's §3.4 'equal depth filter'.  NOT anti-monotonic.

    Satisfied when some fragment node carrying ``keyword1`` sits at the
    same depth as some fragment node carrying ``keyword2`` (vacuously
    true when either keyword is absent from the fragment).  This is the
    reading under which Figure 7's situation arises: a fragment can
    satisfy the filter through one keyword occurrence while a
    sub-fragment that only retains a different-depth occurrence does
    not — so the filter cannot be pushed below joins.
    """

    is_anti_monotonic = False

    def __init__(self, keyword1: str, keyword2: str) -> None:
        if not keyword1 or not keyword2:
            raise ValueError("keywords must be non-empty")
        self.keyword1 = keyword1
        self.keyword2 = keyword2

    def matches(self, fragment: Fragment) -> bool:
        doc = fragment.document
        depths1 = {doc.depth(n) for n in fragment.nodes
                   if self.keyword1 in doc.keywords(n)}
        depths2 = {doc.depth(n) for n in fragment.nodes
                   if self.keyword2 in doc.keywords(n)}
        if not depths1 or not depths2:
            return True
        return bool(depths1 & depths2)

    def __repr__(self) -> str:
        return f"equal-depth({self.keyword1},{self.keyword2})"


class ExcludesKeyword(Filter):
    """No fragment node carries ``keyword``.  Anti-monotonic.

    The negative counterpart of :class:`ContainsKeyword`: if no node of
    ``f`` carries the keyword, no node of any ``f' ⊆ f`` does either.
    Useful for blacklisting boilerplate terms from answers.
    """

    is_anti_monotonic = True

    def __init__(self, keyword: str) -> None:
        if not keyword:
            raise ValueError("keyword must be non-empty")
        self.keyword = keyword

    def matches(self, fragment: Fragment) -> bool:
        return not fragment.contains_keyword(self.keyword)

    def __repr__(self) -> str:
        return f"keyword≠{self.keyword}"


class RootDepthAtLeast(Filter):
    """The fragment root lies at document depth ≥ d.  Anti-monotonic.

    A sub-fragment's root is a descendant-or-self of the fragment's
    root, hence at the same depth or deeper — so the property is
    inherited downward.  Filters out answers hanging off the shallow
    "glue" levels of a document (e.g. the root element).
    """

    is_anti_monotonic = True

    def __init__(self, depth: int) -> None:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.depth = depth

    def matches(self, fragment: Fragment) -> bool:
        doc = fragment.document
        return doc.depth(fragment.root) >= self.depth

    def __repr__(self) -> str:
        return f"root-depth>={self.depth}"


class TagsWithin(Filter):
    """Every fragment node's tag belongs to ``allowed``.  Anti-monotonic.

    Sub-fragments use a subset of the nodes, so the universal tag
    condition is inherited.  Keeps answers inside the content-bearing
    vocabulary (``par``, ``section``, …) and away from e.g. metadata
    elements.
    """

    is_anti_monotonic = True

    def __init__(self, allowed) -> None:
        tags = frozenset(allowed)
        if not tags:
            raise ValueError("allowed tag set must be non-empty")
        self.allowed = tags

    def matches(self, fragment: Fragment) -> bool:
        doc = fragment.document
        return all(doc.tag(n) in self.allowed for n in fragment.nodes)

    def __repr__(self) -> str:
        return f"tags⊆{{{','.join(sorted(self.allowed))}}}"


class LeafCountAtMost(Filter):
    """The fragment has at most ``limit`` induced leaves.  Anti-monotonic.

    Leaves of a connected subset are pairwise incomparable, so mapping
    each leaf of a sub-fragment to any fragment leaf below it is
    injective — a sub-fragment never has more leaves than its host.
    Bounds the "breadth" of an answer independent of its node count.
    """

    is_anti_monotonic = True

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("leaf limit must be >= 1")
        self.limit = limit

    def matches(self, fragment: Fragment) -> bool:
        return len(fragment.leaves) <= self.limit

    def __repr__(self) -> str:
        return f"leaves<={self.limit}"


class And(Filter):
    """Conjunction; anti-monotonic iff both operands are (§3.3)."""

    def __init__(self, left: Filter, right: Filter) -> None:
        self.left = left
        self.right = right
        self.is_anti_monotonic = (left.is_anti_monotonic
                                  and right.is_anti_monotonic)

    def matches(self, fragment: Fragment) -> bool:
        return self.left.matches(fragment) and self.right.matches(fragment)

    def __repr__(self) -> str:
        return f"({self.left!r} ∧ {self.right!r})"


class Or(Filter):
    """Disjunction; anti-monotonic iff both operands are (§3.3)."""

    def __init__(self, left: Filter, right: Filter) -> None:
        self.left = left
        self.right = right
        self.is_anti_monotonic = (left.is_anti_monotonic
                                  and right.is_anti_monotonic)

    def matches(self, fragment: Fragment) -> bool:
        return self.left.matches(fragment) or self.right.matches(fragment)

    def __repr__(self) -> str:
        return f"({self.left!r} ∨ {self.right!r})"


class Not(Filter):
    """Negation; never claims anti-monotonicity (§3.3)."""

    is_anti_monotonic = False

    def __init__(self, inner: Filter) -> None:
        self.inner = inner

    def matches(self, fragment: Fragment) -> bool:
        return not self.inner.matches(fragment)

    def __repr__(self) -> str:
        return f"¬{self.inner!r}"


class PredicateFilter(Filter):
    """Wrap an arbitrary callable as a filter.

    The caller vouches for ``anti_monotonic``; claiming it wrongly makes
    push-down unsound, so the default is the safe False.
    """

    def __init__(self, predicate: Callable[[Fragment], bool],
                 name: str = "predicate",
                 anti_monotonic: bool = False) -> None:
        self._predicate = predicate
        self._name = name
        self.is_anti_monotonic = anti_monotonic

    def matches(self, fragment: Fragment) -> bool:
        return bool(self._predicate(fragment))

    def __repr__(self) -> str:
        return self._name


#: The anti-monotonic filters whose instance attributes are all they
#: test: what a fixed point may prune by, ``And`` / ``Or`` aside.
_VALUE_FILTERS = frozenset({
    TrueFilter, SizeAtMost, HeightAtMost, WidthAtMost, ExcludesKeyword,
    RootDepthAtLeast, TagsWithin, LeafCountAtMost})


def _value_key(predicate: Filter) -> Optional[tuple]:
    """A hashable key two pruning predicates share exactly when they
    test the same thing, or ``None`` when ``predicate`` holds a filter
    whose value is not known — a :class:`PredicateFilter`, whose
    ``repr`` is a caller-chosen name, or a subclass defined outside
    this module."""
    kind = type(predicate)
    if kind in (And, Or):
        left, right = _value_key(predicate.left), _value_key(predicate.right)
        return None if left is None or right is None \
            else (kind, left, right)
    if kind in _VALUE_FILTERS:
        return (kind, tuple(sorted(vars(predicate).items())))
    return None


def _conjuncts(predicate: Filter) -> Iterator[Filter]:
    """The operands of a (nested) ``And``, left to right."""
    if isinstance(predicate, And):
        yield from _conjuncts(predicate.left)
        yield from _conjuncts(predicate.right)
    else:
        yield predicate


def split_anti_monotonic(predicate: Filter
                         ) -> tuple[Optional[Filter], Optional[Filter]]:
    """``P`` as ``(anti-monotonic part, residual)`` with ``P = a ∧ r``.

    §3.3: ``∧`` preserves anti-monotonicity, so the anti-monotonic
    conjuncts of ``P`` together form a filter Theorem 3 may push, and
    ``σ_P = σ_r ∘ σ_a``.  Only ``And`` is taken apart — ``Or`` and
    ``Not`` stay whole, on whichever side their own flag puts them.
    Either part is ``None`` when it has no conjunct, and ``P`` itself
    is then the other.
    """
    if predicate.is_anti_monotonic:
        return predicate, None
    conjuncts = list(_conjuncts(predicate))
    pushable = [c for c in conjuncts if c.is_anti_monotonic]
    if not pushable:
        return None, predicate
    return (_reduce(And, pushable),
            _reduce(And, (c for c in conjuncts
                          if not c.is_anti_monotonic)))


def necessary_bound(predicate: Optional[Filter]
                    ) -> Optional[tuple[float, float, float]]:
    """``(max size, max height, max width)`` every fragment satisfying
    ``predicate`` stays within, or ``None`` when it implies no limit.

    A *necessary* condition, read off the predicate's shape: a
    conjunction is within the tighter of its operands' limits, a
    disjunction within the looser, anything else (``Not``, keyword and
    depth filters, callables) promises nothing.  All three measures
    only grow under fragment inclusion, so a join whose operands
    already force one past its limit can be rejected from the operands'
    labels alone (the pairwise-join and fixed-point loops do).
    """
    limits = _limits(predicate) if predicate is not None else _NO_LIMITS
    return None if limits == _NO_LIMITS else limits


_NO_LIMITS = (UNBOUNDED, UNBOUNDED, UNBOUNDED)


def _limits(predicate: Filter) -> tuple[float, float, float]:
    if isinstance(predicate, SizeAtMost):
        return (predicate.limit, UNBOUNDED, UNBOUNDED)
    if isinstance(predicate, HeightAtMost):
        return (UNBOUNDED, predicate.limit, UNBOUNDED)
    if isinstance(predicate, WidthAtMost):
        return (UNBOUNDED, UNBOUNDED, predicate.limit)
    if isinstance(predicate, (And, Or)):
        pick = min if isinstance(predicate, And) else max
        return tuple(map(pick, _limits(predicate.left),
                         _limits(predicate.right)))
    return _NO_LIMITS


def _iter_select(predicate: Filter, fragments: Iterable[Fragment],
                 stats: Optional[OperationStats] = None
                 ) -> Iterator[Fragment]:
    """``σ_P`` applied fragment by fragment — the selection loop."""
    for fragment in fragments:
        if stats is not None:
            stats.predicate_checks += 1
        if predicate.matches(fragment):
            yield fragment
        elif stats is not None:
            stats.fragments_discarded += 1


def select(predicate: Filter, fragments: Iterable[Fragment],
           stats: Optional[OperationStats] = None) -> frozenset[Fragment]:
    """``σ_P(F)``: the fragments of ``F`` satisfying ``P`` (Definition 3)."""
    return frozenset(_iter_select(predicate, fragments, stats=stats))
