"""Metrics across the process boundary: workers count, the parent merges.

The load-bearing acceptance property: a sharded run's merged
``MetricsSnapshot`` carries the same window/solve counters as the serial
run over the same inputs, and the run's ``RunTelemetry`` is a view of
that merged snapshot.  That only holds on workloads where the
min-latency cut never fires (the serial relax phase clips windows with
its incumbent, pooled shards bisect full windows), so these tests use
the default ``gamma=0`` range where every shard is fully evaluated.
"""

from __future__ import annotations

import pytest

from repro.core import (
    PartitionerConfig,
    RefinementConfig,
    SolverSettings,
    refine_partitions_bound,
)
from repro.obs import MetricsRegistry, MetricsSnapshot
from repro.service import wire
from repro.service.sharding import solve_sharded
from repro.service.worker import solve_shard
from repro.solve import RunTelemetry
from repro.taskgraph import io as graph_io


def shard_config(**search_overrides) -> PartitionerConfig:
    search = RefinementConfig(time_budget=60.0, **search_overrides)
    return PartitionerConfig(
        search=search,
        solver=SolverSettings(backend="highs", time_limit=10.0),
    )


class TestWireExcludesMetrics:
    def test_settings_with_registry_encode_without_it(self):
        settings = SolverSettings(metrics=MetricsRegistry())
        payload = wire._encode_settings(settings)
        assert "metrics" not in payload
        assert "tracer" not in payload

    def test_decode_ignores_a_smuggled_metrics_key(self):
        payload = wire._encode_settings(SolverSettings())
        payload["metrics"] = {"schema_version": 1, "metrics": []}
        restored = wire._decode_settings(payload)
        assert restored.metrics is None

    def test_config_round_trip_drops_metrics_only(self):
        config = PartitionerConfig(
            solver=SolverSettings(time_limit=7.0, metrics=MetricsRegistry())
        )
        restored = wire.decode_config(wire.encode_config(config))
        assert restored.solver.metrics is None
        assert restored.solver.time_limit == 7.0


class TestWorkerReports:
    def test_shard_report_carries_a_snapshot(self, diamond_graph, ar_device):
        config = shard_config()
        payload = {
            "graph": graph_io.to_dict(diamond_graph),
            "processor": wire.encode_processor(ar_device),
            "config": wire.encode_config(config),
            "num_partitions": 2,
            "delta": 10.0,
        }
        report = solve_shard(payload)
        assert report["metrics"] is not None
        snapshot = MetricsSnapshot.from_dict(report["metrics"])
        assert snapshot.total("repro_window_solves_total") > 0
        assert snapshot.total("repro_backend_wins_total") > 0
        # The snapshot is the shard's one run record: no telemetry rides
        # alongside it.
        assert "telemetry" not in report

    def test_cancelled_shard_reports_no_metrics(
        self, diamond_graph, ar_device
    ):
        import threading

        cancel = threading.Event()
        cancel.set()
        config = shard_config()
        payload = {
            "graph": graph_io.to_dict(diamond_graph),
            "processor": wire.encode_processor(ar_device),
            "config": wire.encode_config(config),
            "num_partitions": 2,
            "delta": 10.0,
        }
        report = solve_shard(payload, cancel=cancel)
        assert report["skipped"] == "cancelled"
        assert report["metrics"] is None


class TestShardedMergeEqualsSerial:
    def test_merged_counters_reconcile_with_merged_telemetry(
        self, diamond_graph, ar_device
    ):
        # The result's telemetry and the caller's registry are two views
        # of the same merged shard snapshots: they agree field by field.
        registry = MetricsRegistry()
        result = solve_sharded(
            diamond_graph,
            ar_device,
            config=shard_config(),
            max_workers=0,
            metrics=registry,
        )
        assert result.feasible
        telemetry = result.telemetry
        caller_view = RunTelemetry.from_snapshot(
            registry.snapshot(), workers_merged=telemetry.workers_merged
        )
        assert caller_view.to_dict() == telemetry.to_dict()
        assert registry.snapshot().total("repro_backend_wins_total") == sum(
            telemetry.backend_wins.values()
        )

    def test_sharded_telemetry_counts_its_windows(
        self, diamond_graph, ar_device
    ):
        # Regression: shard workers shipped counters but no per-window
        # rows, so a sharded outcome read "0 solves (cache idle)".
        registry = MetricsRegistry()
        result = solve_sharded(
            diamond_graph,
            ar_device,
            config=shard_config(),
            max_workers=0,
            metrics=registry,
        )
        telemetry = result.telemetry
        windows = registry.snapshot().total("repro_window_solves_total")
        assert telemetry.total_solves == windows
        assert telemetry.template_instantiations == windows
        assert windows > 0
        assert not telemetry.summary().startswith("0 solves")

    def test_sharded_counts_full_windows_of_every_explored_bound(
        self, diamond_graph, ar_device
    ):
        # Serial and sharded runs are verdict-compatible but not
        # trajectory-identical (the serial relax phase clips windows
        # with its incumbent; shards bisect full windows), so window
        # counters compare as >=, never ==.
        config = shard_config()
        serial_registry = MetricsRegistry()
        serial = refine_partitions_bound(
            diamond_graph,
            ar_device,
            config=config.search,
            settings=SolverSettings(
                backend="highs", time_limit=10.0, metrics=serial_registry
            ),
        )
        sharded_registry = MetricsRegistry()
        sharded = solve_sharded(
            diamond_graph,
            ar_device,
            config=config,
            max_workers=0,
            metrics=sharded_registry,
        )
        assert sharded.feasible == serial.feasible
        assert sharded_registry.snapshot().total(
            "repro_window_solves_total"
        ) >= serial_registry.snapshot().total("repro_window_solves_total")

    def test_merge_order_does_not_change_the_aggregate(
        self, diamond_graph, ar_device
    ):
        config = shard_config()
        result = solve_sharded(
            diamond_graph,
            ar_device,
            config=config,
            max_workers=0,
            metrics=MetricsRegistry(),
        )
        assert result.feasible
        # Re-run and absorb the same shard snapshots in reverse order:
        # the commutative-merge contract says the aggregate is equal.
        registry_fwd = MetricsRegistry()
        registry_rev = MetricsRegistry()
        again = solve_sharded(
            diamond_graph,
            ar_device,
            config=config,
            max_workers=0,
            metrics=registry_fwd,
        )
        assert again.feasible
        snapshot = registry_fwd.snapshot()
        registry_rev.absorb(snapshot)
        assert registry_rev.snapshot() == snapshot

    def test_no_registry_means_no_metrics_work(self, diamond_graph, ar_device):
        result = solve_sharded(
            diamond_graph, ar_device, config=shard_config(), max_workers=0
        )
        assert result.feasible  # metrics=None path stays intact


@pytest.mark.slow
class TestPooledMergeEqualsSerial:
    def test_pooled_sharded_counters_match_inline(
        self, diamond_graph, ar_device
    ):
        from repro.service import PartitionService
        from repro.core.partitioner import PartitionRequest

        config = shard_config()
        inline_registry = MetricsRegistry()
        with PartitionService(
            processor=ar_device,
            config=config,
            max_workers=0,
            metrics=inline_registry,
        ) as service:
            inline = service.solve_batch(
                [PartitionRequest(graph=diamond_graph)]
            )[0]

        pooled_registry = MetricsRegistry()
        with PartitionService(
            processor=ar_device,
            config=config,
            max_workers=2,
            metrics=pooled_registry,
        ) as service:
            pooled = service.solve_batch(
                [PartitionRequest(graph=diamond_graph)]
            )[0]

        assert pooled.feasible == inline.feasible
        a = inline_registry.snapshot()
        b = pooled_registry.snapshot()
        for name in (
            "repro_window_solves_total",
            "repro_service_requests_total",
        ):
            assert b.total(name) == a.total(name), name
        assert b.value("repro_service_requests_in_flight") == 0.0
        assert a.value("repro_service_requests_in_flight") == 0.0


class TestServiceMetrics:
    def test_request_lifecycle_counters(self, diamond_graph, ar_device):
        from repro.core.partitioner import PartitionRequest
        from repro.service import PartitionService

        registry = MetricsRegistry()
        with PartitionService(
            processor=ar_device,
            config=shard_config(),
            max_workers=0,
            metrics=registry,
        ) as service:
            outcomes = service.solve_batch(
                [PartitionRequest(graph=diamond_graph)] * 2
            )
        assert all(o.feasible for o in outcomes)
        snapshot = registry.snapshot()
        assert snapshot.value("repro_service_requests_total", "feasible") == 2
        assert snapshot.value("repro_service_requests_in_flight") == 0.0
        count, total = snapshot.histogram_stats(
            "repro_service_request_seconds"
        )
        assert count == 2
        assert total > 0.0
        wait_count, _ = snapshot.histogram_stats(
            "repro_service_queue_wait_seconds"
        )
        assert wait_count == 2

    def test_validation_failure_counts_as_error(self, ar_device):
        from repro.core.partitioner import PartitionRequest
        from repro.service import PartitionService
        from repro.taskgraph.graph import TaskGraph
        from repro.taskgraph import DesignPoint

        # One task demanding more area than the device has: validation
        # rejects the request before any shard runs.
        graph = TaskGraph("oversized")
        graph.add_task(
            "t",
            [DesignPoint(latency=1.0, area=ar_device.resource_capacity * 2)],
        )
        registry = MetricsRegistry()
        with PartitionService(
            processor=ar_device,
            config=shard_config(),
            max_workers=0,
            metrics=registry,
        ) as service:
            future = service.submit(PartitionRequest(graph=graph))
            with pytest.raises(Exception):
                future.result()
        snapshot = registry.snapshot()
        assert snapshot.value("repro_service_requests_total", "error") == 1
        assert snapshot.value("repro_service_requests_in_flight") == 0.0

    def test_cancel_all_is_counted(self, ar_device):
        from repro.service import PartitionService

        registry = MetricsRegistry()
        with PartitionService(
            processor=ar_device, max_workers=0, metrics=registry
        ) as service:
            service.cancel_all()
            service.cancel_all()
        assert (
            registry.snapshot().total("repro_service_cancellations_total")
            == 2
        )
