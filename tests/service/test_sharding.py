"""Sharded search: verdict equivalence with the serial algorithm."""

from __future__ import annotations

import pytest

from repro.core import (
    PartitionerConfig,
    RefinementConfig,
    SolverSettings,
    refine_partitions_bound,
)
from repro.obs import MemorySink, Tracer
from repro.service.sharding import solve_sharded


def shard_config(**search_overrides) -> PartitionerConfig:
    search = RefinementConfig(time_budget=60.0, **search_overrides)
    return PartitionerConfig(
        search=search,
        solver=SolverSettings(backend="highs", time_limit=10.0),
    )


class TestInlineEquivalence:
    """``max_workers=0`` — deterministic, no subprocesses."""

    @pytest.mark.parametrize("fixture", ["diamond_graph", "chain_graph"])
    def test_matches_serial_verdict(self, request, fixture, ar_device):
        graph = request.getfixturevalue(fixture)
        config = shard_config()
        serial = refine_partitions_bound(
            graph,
            ar_device,
            config=config.search,
            settings=config.solver,
        )
        sharded = solve_sharded(
            graph, ar_device, config=config, max_workers=0
        )
        assert sharded.feasible == serial.feasible
        if serial.feasible:
            assert sharded.achieved == pytest.approx(serial.achieved)
            assert sharded.design.total_latency(
                ar_device
            ) == pytest.approx(sharded.achieved)

    def test_explored_covers_the_partition_range(
        self, diamond_graph, ar_device
    ):
        result = solve_sharded(
            diamond_graph, ar_device, config=shard_config(), max_workers=0
        )
        assert result.feasible
        assert result.explored_partitions
        assert result.explored_partitions == tuple(
            sorted(result.explored_partitions)
        )

    def test_design_passes_validation_audit(self, ar_graph, ar_device):
        result = solve_sharded(
            ar_graph, ar_device, config=shard_config(), max_workers=0
        )
        assert result.feasible
        violations = result.design.audit(ar_device)
        assert violations == []

    def test_merged_telemetry_counts_every_shard(
        self, diamond_graph, ar_device
    ):
        result = solve_sharded(
            diamond_graph, ar_device, config=shard_config(), max_workers=0
        )
        assert result.telemetry is not None
        assert result.telemetry.workers_merged == len(
            result.explored_partitions
        )
        # Per-solve rows stay worker-side (shards ship only a metrics
        # snapshot), but the merged counters must show real work.
        assert sum(result.telemetry.backend_wins.values()) > 0

    def test_trace_carries_per_bound_iterations(
        self, diamond_graph, ar_device
    ):
        result = solve_sharded(
            diamond_graph, ar_device, config=shard_config(), max_workers=0
        )
        explored_in_trace = {r.num_partitions for r in result.trace.records}
        assert explored_in_trace <= set(result.explored_partitions)
        assert result.trace.records  # at least one bisection iteration

    def test_min_latency_cut_skips_hopeless_bounds(
        self, diamond_graph, ar_device
    ):
        # gamma=3 extends the explored range past the point where the
        # reconfiguration overhead alone exceeds the incumbent, so the
        # deepest bounds must be cut without solving.
        sink = MemorySink()
        result = solve_sharded(
            diamond_graph,
            ar_device,
            config=shard_config(gamma=3),
            max_workers=0,
            tracer=Tracer(sink),
        )
        events = [e for e in sink.events if e["name"] == "shard_completed"]
        assert events
        skips = [
            e
            for e in events
            if e["attrs"].get("skipped") == "min_latency_cut"
        ]
        assert skips
        assert result.stopped_by_min_latency_cut is True
        # Cut bounds never make it into the explored tuple.
        cut_ns = {e["attrs"]["num_partitions"] for e in skips}
        assert cut_ns.isdisjoint(result.explored_partitions)

    def test_events_stream_dispatch_and_completion(
        self, chain_graph, ar_device
    ):
        sink = MemorySink()
        solve_sharded(
            chain_graph,
            ar_device,
            config=shard_config(),
            max_workers=0,
            tracer=Tracer(sink),
        )
        names = [e["name"] for e in sink.events]
        assert "shard_dispatched" in names
        assert "shard_completed" in names


class TestPooledInputValidation:
    def test_pool_without_shared_bound_is_rejected(
        self, chain_graph, ar_device
    ):
        class FakePool:
            pass

        with pytest.raises(ValueError, match="bound"):
            solve_sharded(
                chain_graph,
                ar_device,
                config=shard_config(),
                pool=FakePool(),
            )
