"""Unit tests for the span tracer."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.core.stats import OperationStats
from repro.obs.tracer import (NULL_SPAN, NULL_TRACER, NullTracer,
                              SpanTracer)


class TestSpanNesting:
    def test_single_root(self):
        tracer = SpanTracer()
        with tracer.span("root"):
            pass
        assert [s.name for s in tracer.roots] == ["root"]

    def test_children_attach_to_innermost_open_span(self):
        tracer = SpanTracer()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass
        root = tracer.roots[0]
        assert [c.name for c in root.children] == ["child", "sibling"]
        assert [c.name for c in root.children[0].children] \
            == ["grandchild"]

    def test_sequential_roots(self):
        tracer = SpanTracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]

    def test_walk_preorder_with_depths(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                with tracer.span("d"):
                    pass
        walked = [(span.name, depth) for span, depth in tracer.walk()]
        assert walked == [("a", 0), ("b", 1), ("c", 1), ("d", 2)]

    def test_current(self):
        tracer = SpanTracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_exception_closes_span_and_marks_error(self):
        tracer = SpanTracer()
        try:
            with tracer.span("root"):
                with tracer.span("failing"):
                    raise ValueError("boom")
        except ValueError:
            pass
        assert tracer.current() is None
        failing = tracer.roots[0].children[0]
        assert failing.attributes["error"] == "ValueError"

    def test_clear(self):
        tracer = SpanTracer()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.roots == []

    def test_clear_drops_only_the_calling_threads_spans(self):
        tracer = SpanTracer()
        with tracer.span("main"):
            pass
        other = threading.Thread(target=tracer.clear)
        other.start()
        other.join()
        assert [s.name for s in tracer.roots] == ["main"]


class TestPerThreadState:
    def test_concurrent_spans_never_nest_across_threads(self):
        """Two threads interleave their span opens and closes: each
        thread's spans nest only under its own, and every thread ends
        with no open span."""
        tracer = SpanTracer()
        barrier = threading.Barrier(2)
        seen = {}

        def request(name):
            for _ in range(3):
                with tracer.span(name):
                    barrier.wait()
                    with tracer.span("child"):
                        barrier.wait()
            seen[name] = (tracer.current(),
                          [(root.name, [c.name for c in root.children])
                           for root in tracer.roots])

        threads = [threading.Thread(target=request, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for name in ("a", "b"):
            assert seen[name] == (None, [(name, ["child"])] * 3)
        assert tracer.roots == []  # this thread opened none


class TestAttributesAndWork:
    def test_attribute_capture(self):
        tracer = SpanTracer()
        with tracer.span("execute", strategy="pushdown") as span:
            span.set(answers=4)
        assert tracer.roots[0].attributes == {"strategy": "pushdown",
                                              "answers": 4}

    def test_duration_positive_and_nested_bounded(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert inner.duration > 0.0
        assert inner.duration <= outer.duration

    def test_stats_delta_captured(self):
        tracer = SpanTracer()
        stats = OperationStats()
        stats.fragment_joins = 5
        with tracer.span("work", stats=stats):
            stats.fragment_joins += 3
            stats.predicate_checks += 2
        assert tracer.roots[0].work == {"fragment_joins": 3,
                                        "predicate_checks": 2}

    def test_stats_delta_zero_counters_omitted(self):
        tracer = SpanTracer()
        stats = OperationStats()
        with tracer.span("idle", stats=stats):
            pass
        assert tracer.roots[0].work == {}


class TestExporters:
    def _traced(self):
        tracer = SpanTracer()
        stats = OperationStats()
        with tracer.span("execute", strategy="pushdown", stats=stats):
            with tracer.span("scan"):
                stats.fragment_joins += 7
        return tracer

    def test_render_tree_shape(self):
        rendered = self._traced().render()
        lines = rendered.splitlines()
        assert lines[0].startswith("execute strategy=pushdown")
        assert lines[1].startswith("  scan")
        assert "ms" in lines[0]
        assert "fragment_joins=7" in lines[0]

    def test_to_dicts_nested(self):
        dicts = self._traced().to_dicts()
        assert dicts[0]["name"] == "execute"
        assert dicts[0]["children"][0]["name"] == "scan"
        assert dicts[0]["work"] == {"fragment_joins": 7}

    def test_to_jsonl_one_valid_object_per_span(self):
        lines = self._traced().to_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["execute", "scan"]
        assert [r["depth"] for r in records] == [0, 1]
        assert all("duration_ms" in r for r in records)


class TestNullTracer:
    def test_span_is_shared_singleton(self):
        assert NULL_TRACER.span("a") is NULL_SPAN
        assert NULL_TRACER.span("b", x=1) is NULL_SPAN

    def test_null_span_context_manager(self):
        with NULL_TRACER.span("anything") as span:
            assert span.set(key="value") is span

    def test_disabled_flag_and_empty_exports(self):
        assert not NullTracer.enabled
        assert NULL_TRACER.render() == ""
        assert NULL_TRACER.to_jsonl() == ""
        assert NULL_TRACER.to_dicts() == []
        assert NULL_TRACER.current() is None
        assert list(NULL_TRACER.walk()) == []

    def test_no_allocations_per_span(self):
        """The disabled path must not allocate per span."""
        span = NULL_TRACER.span
        for _ in range(3):  # warm up any lazy caches
            with span("warmup"):
                pass
        before = sys.getallocatedblocks()
        for _ in range(1000):
            with span("hot"):
                pass
        grown = sys.getallocatedblocks() - before
        assert grown <= 2
