"""Tracer/Span semantics: nesting, parentage, timing, thread safety."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import MemorySink, NULL_TRACER, Span, Tracer, as_tracer


def span_ends(sink: MemorySink) -> list[dict]:
    return [e for e in sink.events if e["type"] == "span_end"]


class TestSpanBasics:
    def test_span_emits_start_and_end(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("work", color="blue") as span:
            assert isinstance(span, Span)
        kinds = [e["type"] for e in sink.events]
        assert kinds == ["span_start", "span_end"]
        end = sink.events[1]
        assert end["name"] == "work"
        assert end["attrs"]["color"] == "blue"
        assert end["status"] == "ok"
        assert end["dur"] >= 0.0

    def test_attributes_set_inside_span_reach_the_end_event(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("work") as span:
            span.set("n", 3)
            span.annotate(status_code=200, extra="x")
        end = span_ends(sink)[0]
        assert end["attrs"] == {"n": 3, "status_code": 200, "extra": "x"}

    def test_nested_spans_link_via_thread_local_stack(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is None
        ends = {e["name"]: e for e in span_ends(sink)}
        assert ends["inner"]["parent_id"] == ends["outer"]["span_id"]
        assert ends["outer"]["parent_id"] is None

    def test_exception_marks_span_error_and_propagates(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("kaput")
        end = span_ends(sink)[0]
        assert end["status"] == "error"
        assert "kaput" in end["attrs"]["error"]
        # The stack is unwound despite the exception.
        assert tracer.current_span() is None

    def test_span_ids_are_unique_and_increasing(self):
        tracer = Tracer(MemorySink())
        ids = [tracer.span(f"s{i}").span_id for i in range(10)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 10

    def test_events_anchor_to_current_span(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.event("orphan")
        with tracer.span("host") as span:
            tracer.event("anchored", key="v")
            span.event("direct")
        events = [e for e in sink.events if e["type"] == "event"]
        assert events[0]["span_id"] is None
        assert events[1]["span_id"] == span.span_id
        assert events[1]["attrs"] == {"key": "v"}
        assert events[2]["span_id"] == span.span_id

    def test_timestamps_are_relative_and_monotone(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        ends = span_ends(sink)
        assert 0.0 <= ends[0]["t_start"] <= ends[1]["t_start"]
        assert tracer.wall_epoch > 0


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        span = NULL_TRACER.span("anything", attr=1)
        with span as s:
            s.set("k", "v")
            s.annotate(a=1)
            s.event("e")
        NULL_TRACER.event("top")
        assert NULL_TRACER.current_span() is None
        assert NULL_TRACER.enabled is False
        NULL_TRACER.close()

    def test_null_tracer_hands_out_one_shared_span(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_null_tracer_rejects_sinks(self):
        with pytest.raises(ValueError):
            NULL_TRACER.add_sink(MemorySink())

    def test_as_tracer_normalizes_none(self):
        assert as_tracer(None) is NULL_TRACER
        tracer = Tracer()
        assert as_tracer(tracer) is tracer


class TestCrossThreadParentage:
    @settings(max_examples=25, deadline=None)
    @given(
        workers=st.integers(min_value=1, max_value=6),
        depth=st.integers(min_value=1, max_value=4),
    )
    def test_concurrent_span_trees_nest_correctly(self, workers, depth):
        """Property: spans opened on fanned-out worker threads form a
        correct forest — every worker's chain is a root (never a child
        of the span open on the spawning thread), ids never collide, and
        per-thread nesting is preserved."""
        sink = MemorySink()
        tracer = Tracer(sink)
        barrier = threading.Barrier(workers)

        def work(i: int) -> None:
            barrier.wait()
            stack = []
            for level in range(depth):
                span = tracer.span(f"w{i}-d{level}")
                span.__enter__()
                stack.append(span)
            while stack:
                stack.pop().__exit__(None, None, None)

        with tracer.span("root"):
            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        ends = span_ends(sink)
        assert len(ends) == workers * depth + 1
        ids = [e["span_id"] for e in ends]
        assert len(set(ids)) == len(ids)
        by_name = {e["name"]: e for e in ends}
        for i in range(workers):
            # Chain base is a root: the spawning thread's open span
            # does not leak into the worker's stack...
            assert by_name[f"w{i}-d0"]["parent_id"] is None
            # ...and each deeper level off its own thread's previous one,
            # never off another worker's span.
            for level in range(1, depth):
                assert (
                    by_name[f"w{i}-d{level}"]["parent_id"]
                    == by_name[f"w{i}-d{level - 1}"]["span_id"]
                )
