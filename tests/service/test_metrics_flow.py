"""Metrics across the process boundary: workers count, the parent merges.

Each request runs on one worker with a private registry; the worker
ships that registry's snapshot home and the service absorbs it.  The
load-bearing property: a served request's counters are the serial
run's counters, and the outcome's ``RunTelemetry`` reads the same
record.
"""

from __future__ import annotations

import pytest

from repro.core import (
    PartitionerConfig,
    PartitionRequest,
    RefinementConfig,
    SolverSettings,
    refine_partitions_bound,
)
from repro.obs import MetricsRegistry, MetricsSnapshot
from repro.service import PartitionService, wire
from repro.service.worker import solve_request
from repro.solve import RunTelemetry


def shard_config(**search_overrides) -> PartitionerConfig:
    search = RefinementConfig(time_budget=60.0, **search_overrides)
    return PartitionerConfig(
        search=search,
        solver=SolverSettings(backend="highs", time_limit=10.0),
    )


def request_payload(graph, device) -> dict:
    return wire.encode_request(
        PartitionRequest(graph=graph, processor=device, config=shard_config())
    )


def serve(graph, device, registry=None):
    with PartitionService(
        processor=device,
        config=shard_config(),
        max_workers=0,
        metrics=registry,
    ) as service:
        return service.submit(PartitionRequest(graph=graph)).result()


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
        report = solve_request(request_payload(diamond_graph, ar_device))
        assert set(report) == {"outcome", "metrics"}
        snapshot = MetricsSnapshot.from_dict(report["metrics"])
        assert snapshot.total("repro_window_solves_total") > 0
        assert snapshot.total("repro_backend_wins_total") > 0
        # The outcome's telemetry reads the same registry.
        telemetry = report["outcome"]["telemetry"]
        assert telemetry["total_solves"] == snapshot.total(
            "repro_window_solves_total"
        )
        assert len(telemetry["solves"]) == telemetry["total_solves"]

    def test_cancelled_shard_reports_no_metrics(
        self, diamond_graph, ar_device
    ):
        import threading

        cancel = threading.Event()
        cancel.set()
        report = solve_request(
            request_payload(diamond_graph, ar_device), cancel=cancel
        )
        # Cancelled before its first partition bound: no design, no
        # window, and a snapshot with nothing counted in any family.
        outcome = report["outcome"]
        assert outcome["feasible"] is False
        assert outcome["trace"]["records"] == []
        assert outcome["telemetry"]["total_solves"] == 0
        snapshot = MetricsSnapshot.from_dict(report["metrics"])
        assert snapshot.names()
        for name in snapshot.names():
            assert snapshot.total(name) == 0, name


class TestShardedMergeEqualsSerial:
    def test_merged_counters_reconcile_with_merged_telemetry(
        self, diamond_graph, ar_device
    ):
        # The outcome's telemetry and the caller's registry are two views
        # of the worker's one snapshot: they agree field by field.
        registry = MetricsRegistry()
        outcome = serve(diamond_graph, ar_device, registry)
        assert outcome.feasible
        telemetry = outcome.telemetry
        caller_view = RunTelemetry.from_snapshot(
            registry.snapshot(), solves=telemetry.solves
        )
        assert caller_view.to_dict() == telemetry.to_dict()
        assert registry.snapshot().total("repro_backend_wins_total") == sum(
            telemetry.backend_wins.values()
        )

    def test_sharded_telemetry_counts_its_windows(
        self, diamond_graph, ar_device
    ):
        # Regression: workers once shipped counters but no per-window
        # rows, so a served outcome read "0 solves (cache idle)".
        registry = MetricsRegistry()
        telemetry = serve(diamond_graph, ar_device, registry).telemetry
        windows = registry.snapshot().total("repro_window_solves_total")
        assert telemetry.total_solves == windows
        assert telemetry.template_instantiations == windows
        assert windows > 0
        assert not telemetry.summary().startswith("0 solves")
        assert telemetry.wall_time_percentiles()["p50"] > 0.0

    def test_served_windows_equal_serial(
        self, diamond_graph, ar_device
    ):
        # The worker runs the serial search, so its counters equal the
        # serial run's — not merely bound them.
        serial_registry = MetricsRegistry()
        serial = refine_partitions_bound(
            diamond_graph,
            ar_device,
            config=shard_config().search,
            settings=SolverSettings(
                backend="highs", time_limit=10.0, metrics=serial_registry
            ),
        )
        served_registry = MetricsRegistry()
        served = serve(diamond_graph, ar_device, served_registry)
        assert served.total_latency == serial.achieved
        for name in (
            "repro_window_solves_total",
            "repro_template_builds_total",
            "repro_backend_wins_total",
        ):
            assert served_registry.snapshot().total(
                name
            ) == serial_registry.snapshot().total(name), name

    def test_merge_order_does_not_change_the_aggregate(
        self, diamond_graph, chain_graph, ar_device
    ):
        # Two requests' worker snapshots absorbed in either order give
        # the same aggregate (the commutative-merge contract).
        first, second = (
            MetricsSnapshot.from_dict(
                solve_request(request_payload(graph, ar_device))["metrics"]
            )
            for graph in (diamond_graph, chain_graph)
        )
        forward, reverse = MetricsRegistry(), MetricsRegistry()
        forward.absorb(first)
        forward.absorb(second)
        reverse.absorb(second)
        reverse.absorb(first)
        assert forward.snapshot() == reverse.snapshot()
        assert forward.snapshot().total("repro_window_solves_total") == (
            first.total("repro_window_solves_total")
            + second.total("repro_window_solves_total")
        )

    def test_no_registry_means_no_metrics_work(self, diamond_graph, ar_device):
        with PartitionService(
            processor=ar_device, config=shard_config(), max_workers=0
        ) as service:
            assert not service.metrics.enabled
            outcome = service.submit(
                PartitionRequest(graph=diamond_graph)
            ).result()
        assert outcome.feasible  # metrics=None path stays intact


@pytest.mark.slow
class TestPooledMergeEqualsSerial:
    def test_pooled_sharded_counters_match_inline(
        self, diamond_graph, ar_device
    ):
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
        assert pooled.total_latency == inline.total_latency
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
