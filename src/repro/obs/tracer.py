"""Span tracing for the query lifecycle.

A :class:`SpanTracer` records a tree of named, timed *spans* — one per
lifecycle phase (parse, plan, optimize, execute, rank) or per interesting
sub-step inside a phase.  Each span carries free-form attributes and,
when given an :class:`~repro.core.stats.OperationStats` tally, the
*delta* of primitive-operation counters accumulated while the span was
open, so logical work lands next to wall time in the same tree.

Spans are context managers::

    tracer = SpanTracer()
    with tracer.span("execute", strategy="pushdown", stats=stats) as sp:
        with tracer.span("scan", stats=stats):
            ...
        sp.set(answers=4)
    print(tracer.render())

Tracing off is the common case, so the disabled path is a shared
:data:`NULL_SPAN` singleton: entering/exiting it allocates nothing and
records nothing.  Code that takes an observability handle never needs an
``if tracing:`` branch.
"""

from __future__ import annotations

import json
import threading
import time
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stats import OperationStats

__all__ = ["Span", "SpanTracer", "NullTracer", "NULL_SPAN", "NULL_TRACER"]


class Span:
    """One timed, attributed node of the trace tree.

    Created by :meth:`SpanTracer.span`; becomes live between
    ``__enter__`` and ``__exit__``.  ``work`` holds the non-zero
    primitive-operation deltas measured over the span's lifetime when an
    ``OperationStats`` tally was attached.
    """

    __slots__ = ("name", "attributes", "children", "started", "ended",
                 "work", "_tracer", "_stats", "_before")

    def __init__(self, tracer: "SpanTracer", name: str,
                 attributes: dict, stats: Optional["OperationStats"]) -> None:
        self.name = name
        self.attributes = attributes
        self.children: list[Span] = []
        self.started = 0.0
        self.ended = 0.0
        self.work: dict = {}
        self._tracer = tracer
        self._stats = stats
        self._before: Optional["OperationStats"] = None

    def set(self, **attributes) -> "Span":
        """Attach or overwrite attributes on a live (or closed) span."""
        self.attributes.update(attributes)
        return self

    @property
    def duration(self) -> float:
        """Wall-clock seconds between enter and exit."""
        return max(0.0, self.ended - self.started)

    def __enter__(self) -> "Span":
        spans = self._tracer._spans
        stack = spans.stack
        if stack:
            stack[-1].children.append(self)
        else:
            spans.roots.append(self)
        stack.append(self)
        if self._stats is not None:
            self._before = self._stats.snapshot()
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.ended = time.perf_counter()
        if self._before is not None:
            delta = self._stats.delta(self._before)
            self.work = {key: value for key, value
                         in delta.as_dict().items() if value}
        stack = self._tracer._spans.stack
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        return False

    def walk(self, depth: int = 0):
        """Yield ``(span, depth)`` pairs, preorder."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self, epoch: Optional[float] = None) -> dict:
        """Nested-dict form (children inline).

        With ``epoch`` (a ``perf_counter`` reference, usually the root
        span's own ``started``), each node also records ``start_ms`` —
        its start offset from the epoch — so rehydration and timeline
        exports (Chrome trace events) keep real intra-tree timing
        instead of laying siblings out end-to-end.
        """
        record = {"name": self.name, "duration_ms": self.duration * 1000}
        if epoch is not None and self.started:
            record["start_ms"] = max(0.0, (self.started - epoch) * 1000)
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.work:
            record["work"] = dict(self.work)
        if self.children:
            record["children"] = [c.to_dict(epoch=epoch)
                                  for c in self.children]
        return record

    @classmethod
    def from_dict(cls, data: dict, tracer: "SpanTracer") -> "Span":
        """Rehydrate a closed span (tree) from its :meth:`to_dict` form.

        The reverse direction of serialization: a pool worker ships its
        span trees as plain dicts and the parent rebuilds real
        :class:`Span` objects so rendering, walking and JSONL export
        treat remote spans exactly like local ones.  Rehydrated spans
        are already closed — ``started`` is pinned to the recorded
        ``start_ms`` offset (0 when the dump predates offsets) so
        ``duration`` reproduces the recorded wall time and relative
        positions survive when present.
        """
        span = cls(tracer, data["name"],
                   dict(data.get("attributes", ())), stats=None)
        span.started = float(data.get("start_ms", 0.0)) / 1000.0
        span.ended = span.started + \
            float(data.get("duration_ms", 0.0)) / 1000.0
        span.work = dict(data.get("work", ()))
        span.children = [cls.from_dict(child, tracer)
                         for child in data.get("children", ())]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span(name={self.name!r}, "
                f"duration_ms={self.duration * 1000:.3f}, "
                f"children={len(self.children)})")


class _NullSpan:
    """The disabled span: a reusable, allocation-free context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes) -> "_NullSpan":
        return self


#: Shared no-op span; every disabled ``span()`` call returns this object.
NULL_SPAN = _NullSpan()


class _ThreadSpans(threading.local):
    """One thread's open-span stack and finished root spans."""

    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.roots: list[Span] = []


class SpanTracer:
    """Collects a forest of spans, one forest per thread.

    Span state is per thread: a span opens under the innermost open
    span *of its own thread*, so concurrent requests sharing one tracer
    never nest into each other.  A thread's roots stay until that
    thread takes them (:meth:`clear`): the CLI renders them, a pool
    worker ships and clears them after each chunk, and ``serve``
    clears them once a request is answered.

    Attributes
    ----------
    roots:
        The calling thread's top-level spans, in start order.  Nested
        ``span()`` calls attach to the innermost open span instead.
    """

    enabled = True

    def __init__(self) -> None:
        self._spans = _ThreadSpans()

    @property
    def roots(self) -> list[Span]:
        return self._spans.roots

    def span(self, name: str, stats: Optional["OperationStats"] = None,
             **attributes) -> Span:
        """A new span; use as a context manager to open/close it."""
        return Span(self, name, attributes, stats)

    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span, if any."""
        stack = self._spans.stack
        return stack[-1] if stack else None

    def clear(self) -> None:
        """Drop every span the calling thread recorded."""
        self._spans.roots.clear()
        self._spans.stack.clear()

    def attach(self, span: Span) -> None:
        """Graft an already-closed span (tree) into the current position.

        The span becomes a child of the innermost open span, or a new
        root when no span is open — how rehydrated worker span trees
        land inside the parent's ``parallel-search`` span.
        """
        parent = self.current()
        if parent is not None:
            parent.children.append(span)
        else:
            self._spans.roots.append(span)

    def adopt(self, dicts, **attributes) -> list[Span]:
        """Rehydrate serialized span trees and :meth:`attach` each one.

        ``attributes`` (e.g. ``worker="3"``) are stamped onto every
        adopted root so remote spans stay distinguishable in the merged
        tree.  Returns the adopted root spans.
        """
        adopted = []
        for data in dicts:
            span = Span.from_dict(data, self)
            if attributes:
                span.attributes.update(attributes)
            self.attach(span)
            adopted.append(span)
        return adopted

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------

    def walk(self):
        """Yield ``(span, depth)`` over the whole forest, preorder."""
        for root in self.roots:
            yield from root.walk()

    def render(self, indent: str = "  ") -> str:
        """Human-readable tree, one span per line.

        Example::

            execute strategy=pushdown          2.13ms  joins=14
              scan                             0.21ms
              strategy:pushdown                1.80ms  joins=14
        """
        entries = []
        for span, depth in self.walk():
            attrs = " ".join(f"{k}={v}" for k, v in span.attributes.items())
            label = f"{indent * depth}{span.name}" + (f" {attrs}" if attrs
                                                      else "")
            entries.append((label, span))
        width = max((len(label) for label, _ in entries), default=0) + 2
        lines = []
        for label, span in entries:
            work = "  ".join(f"{k}={v}" for k, v in span.work.items())
            line = (f"{label.ljust(width)}{span.duration * 1000:8.2f}ms"
                    + (f"  {work}" if work else ""))
            lines.append(line)
        return "\n".join(lines)

    def to_dicts(self) -> list[dict]:
        """Nested-dict form of every root span."""
        return [root.to_dict() for root in self.roots]

    def to_jsonl(self) -> str:
        """One flat JSON object per span (``depth`` preserves nesting)."""
        lines = []
        for span, depth in self.walk():
            record = {"name": span.name, "depth": depth,
                      "duration_ms": span.duration * 1000}
            if span.attributes:
                record["attributes"] = dict(span.attributes)
            if span.work:
                record["work"] = dict(span.work)
            lines.append(json.dumps(record, sort_keys=True, default=str))
        return "\n".join(lines)


class NullTracer:
    """Tracing disabled: ``span()`` hands back the shared null span."""

    enabled = False
    roots: tuple = ()

    __slots__ = ()

    def span(self, name: str, stats: Optional["OperationStats"] = None,
             **attributes) -> _NullSpan:
        return NULL_SPAN

    def current(self) -> None:
        return None

    def clear(self) -> None:
        pass

    def attach(self, span) -> None:
        pass

    def adopt(self, dicts, **attributes) -> list:
        return []

    def walk(self):
        return iter(())

    def render(self, indent: str = "  ") -> str:
        return ""

    def to_dicts(self) -> list:
        return []

    def to_jsonl(self) -> str:
        return ""


#: Shared disabled tracer.
NULL_TRACER = NullTracer()
