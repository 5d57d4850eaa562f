"""Request dispatch: a served request runs the serial search, verbatim.

The service sends each whole request to one worker (a *shard* in its
events), which runs ``Refine_Partitions_Bound`` through
:meth:`TemporalPartitioner.solve`.  So a service outcome is not merely
verdict-compatible with the serial search: ``D_a``, the design, every
window record and the window count are the same.
"""

from __future__ import annotations

import pytest

from repro.core import (
    PartitionerConfig,
    PartitionRequest,
    RefinementConfig,
    SolverSettings,
    TemporalPartitioner,
)
from repro.obs import MemorySink, Tracer
from repro.service import PartitionService
from repro.taskgraph import DesignPoint, GraphValidationError, TaskGraph


def shard_config(**search_overrides) -> PartitionerConfig:
    search = RefinementConfig(time_budget=60.0, **search_overrides)
    return PartitionerConfig(
        search=search,
        solver=SolverSettings(backend="highs", time_limit=10.0),
    )


def decisions(trace) -> list[tuple]:
    """Every search decision of a trace; wall time is a measurement."""
    return [
        (
            r.num_partitions, r.d_min, r.d_max, r.iteration, r.status,
            r.backend, r.achieved, r.cache_hit, r.degraded, r.bound,
        )
        for r in trace.records
    ]


def serve(graph, device, config, tracer=None):
    with PartitionService(
        processor=device, config=config, max_workers=0, tracer=tracer
    ) as service:
        return service.submit(PartitionRequest(graph=graph)).result(
            timeout=120
        )


class TestInlineEquivalence:
    """``max_workers=0`` — the worker function runs in the caller."""

    @pytest.mark.parametrize("fixture", ["diamond_graph", "chain_graph"])
    def test_matches_serial_verdict(self, request, fixture, ar_device):
        graph = request.getfixturevalue(fixture)
        config = shard_config()
        serial = TemporalPartitioner(ar_device, config).solve(
            PartitionRequest(graph=graph)
        )
        served = serve(graph, ar_device, config)
        assert served.feasible == serial.feasible
        assert served.total_latency == serial.total_latency
        assert served.design.as_assignment() == serial.design.as_assignment()
        assert decisions(served.trace) == decisions(serial.trace)
        assert served.telemetry.total_solves == serial.telemetry.total_solves
        assert served.design.total_latency(ar_device) == pytest.approx(
            served.total_latency
        )

    def test_explored_covers_the_partition_range(
        self, diamond_graph, ar_device
    ):
        outcome = serve(diamond_graph, ar_device, shard_config())
        assert outcome.feasible
        explored = [r.num_partitions for r in outcome.trace.records]
        # The search walks N upward from the start of the range.
        assert explored[0] == outcome.partition_range.start
        assert explored == sorted(explored)
        assert outcome.num_partitions in explored

    def test_design_passes_validation_audit(self, ar_graph, ar_device):
        outcome = serve(ar_graph, ar_device, shard_config())
        assert outcome.feasible
        assert outcome.design.audit(ar_device) == []

    def test_merged_telemetry_counts_every_shard(
        self, diamond_graph, ar_device
    ):
        outcome = serve(diamond_graph, ar_device, shard_config())
        telemetry = outcome.telemetry
        # The worker ships its per-window rows: one per trace record, so
        # the percentiles are real measurements, not zeros.
        assert telemetry.total_solves == len(outcome.trace.records) > 0
        assert len(telemetry.solves) == telemetry.total_solves
        assert telemetry.wall_time_percentiles()["max"] > 0.0
        assert sum(telemetry.backend_wins.values()) > 0

    def test_trace_carries_per_bound_iterations(
        self, diamond_graph, ar_device
    ):
        outcome = serve(diamond_graph, ar_device, shard_config())
        assert outcome.trace.records  # at least one bisection iteration
        for record in outcome.trace.records:
            assert record.num_partitions >= outcome.partition_range.start
            assert record.d_min <= record.d_max

    def test_min_latency_cut_skips_hopeless_bounds(
        self, diamond_graph, ar_device
    ):
        # gamma=3 extends the explored range past the point where the
        # reconfiguration overhead alone exceeds the incumbent, so the
        # relax phase must stop at the cut instead of solving the rest.
        outcome = serve(diamond_graph, ar_device, shard_config(gamma=3))
        assert outcome.stopped_by_min_latency_cut is True
        explored = {r.num_partitions for r in outcome.trace.records}
        assert max(explored) < outcome.partition_range.stop

    def test_events_stream_dispatch_and_completion(
        self, chain_graph, ar_device
    ):
        sink = MemorySink()
        serve(chain_graph, ar_device, shard_config(), tracer=Tracer(sink))
        names = [e["name"] for e in sink.events]
        # One dispatch and one completion per request.
        assert names.count("shard_dispatched") == 1
        assert names.count("shard_completed") == 1
        assert names.index("shard_dispatched") < names.index(
            "shard_completed"
        )


@pytest.mark.slow
class TestPooledInputValidation:
    def test_pooled_invalid_graph_raises_from_the_worker(self, ar_device):
        # Validation runs in the worker, inside TemporalPartitioner.solve;
        # its error crosses the process boundary typed.
        graph = TaskGraph("oversized")
        graph.add_task(
            "t",
            [DesignPoint(latency=1.0, area=ar_device.resource_capacity * 2)],
        )
        with PartitionService(
            processor=ar_device, config=shard_config(), max_workers=1
        ) as service:
            with pytest.raises(GraphValidationError):
                service.submit(PartitionRequest(graph=graph)).result(
                    timeout=120
                )
