"""End-to-end tracing of the solve pipeline.

Runs the real combined search with a tracer attached and checks the
promises the observability layer makes: complete span coverage of every
layer, a valid Chrome export, profile times that reconcile with the
always-on telemetry, and — crucially — that tracing changes nothing
about the search itself.
"""

from __future__ import annotations

import pytest

from repro.core import (
    RefinementConfig,
    SolverSettings,
    refine_partitions_bound,
)
from repro.obs import (
    MemorySink,
    PhaseProfile,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
)
from repro.solve.executor import SolveExecutor


def traced_run(ar_graph, ar_device, **settings_kwargs):
    sink = MemorySink()
    tracer = Tracer(sink)
    settings = SolverSettings(
        time_limit=10.0, tracer=tracer, **settings_kwargs
    )
    result = refine_partitions_bound(
        ar_graph,
        ar_device,
        config=RefinementConfig(gamma=1),
        settings=settings,
    )
    tracer.close()
    return result, sink.events


class TestPipelineSpans:
    def test_every_layer_contributes_spans(self, ar_graph, ar_device):
        result, events = traced_run(ar_graph, ar_device)
        assert result.feasible
        names = {e["name"] for e in events if e["type"] == "span_end"}
        for expected in (
            "refine_partitions",
            "partition_bound",
            "reduce_latency",
            "iteration",
            "solve_window",
            "template_build",
            "template_instantiate",
            "attempt:highs",
            "ilp:highs",
        ):
            assert expected in names, f"missing span {expected!r}"
        event_names = {e["name"] for e in events if e["type"] == "event"}
        assert "window_verdict" in event_names
        assert "backend_win" in event_names

    def test_iteration_count_matches_search_trace(self, ar_graph, ar_device):
        result, events = traced_run(ar_graph, ar_device)
        iteration_spans = [
            e for e in events
            if e["type"] == "span_end" and e["name"] == "iteration"
        ]
        assert len(iteration_spans) == len(result.trace)

    def test_chrome_export_of_real_run_validates(self, ar_graph, ar_device):
        _result, events = traced_run(ar_graph, ar_device)
        assert validate_chrome_trace(chrome_trace(events)) == []

    def test_profile_reconciles_with_telemetry(self, ar_graph, ar_device):
        result, events = traced_run(ar_graph, ar_device)
        profile = PhaseProfile.from_events(events)
        traced = profile.inclusive("solve_window")
        measured = result.telemetry.total_wall_time
        # Same interval, measured by two independent clocks layers apart.
        assert traced == pytest.approx(measured, rel=0.05)

    def test_attempt_spans_nest_under_their_window(
        self, ar_graph, ar_device
    ):
        _result, events = traced_run(ar_graph, ar_device)
        ends = {
            e["span_id"]: e for e in events if e["type"] == "span_end"
        }
        attempts = [
            e for e in ends.values() if e["name"].startswith("attempt:")
        ]
        assert attempts
        assert {e["name"] for e in attempts} == {"attempt:highs"}
        for attempt in attempts:
            parent = ends.get(attempt["parent_id"])
            assert parent is not None, "attempt span has no recorded parent"
            assert parent["name"] == "solve_window"

    def test_cache_hits_are_visible(self, ar_graph, ar_device):
        sink = MemorySink()
        tracer = Tracer(sink)
        settings = SolverSettings(time_limit=10.0, tracer=tracer)
        executor = SolveExecutor(settings)
        from repro.core.reduce_latency import reduce_latency

        first = reduce_latency(
            ar_graph, ar_device, 4, 640.0, 460.0, 50.0,
            settings=settings, executor=executor,
        )
        assert first.feasible
        # Identical windows replay from the cache.
        reduce_latency(
            ar_graph, ar_device, 4, 640.0, 460.0, 50.0,
            settings=settings, executor=executor,
        )
        tracer.close()
        event_names = [
            e["name"] for e in sink.events if e["type"] == "event"
        ]
        assert "cache_miss" in event_names
        assert "cache_hit" in event_names


class TestTracingIsInert:
    def test_trajectory_identical_with_and_without_tracer(
        self, ar_graph, ar_device
    ):
        plain = refine_partitions_bound(
            ar_graph,
            ar_device,
            config=RefinementConfig(gamma=1),
            settings=SolverSettings(time_limit=10.0),
        )
        traced, _events = traced_run(ar_graph, ar_device)
        assert plain.achieved == traced.achieved
        assert plain.explored_partitions == traced.explored_partitions
        assert [
            (r.num_partitions, r.iteration, r.d_max, r.d_min, r.achieved)
            for r in plain.trace
        ] == [
            (r.num_partitions, r.iteration, r.d_max, r.d_min, r.achieved)
            for r in traced.trace
        ]

    def test_default_settings_use_the_null_tracer(self, ar_graph, ar_device):
        from repro.obs import NULL_TRACER

        executor = SolveExecutor(SolverSettings())
        assert executor.tracer is NULL_TRACER
