"""PartitionService: the async batch facade end to end."""

from __future__ import annotations

import asyncio
import warnings

import pytest

from repro.core import (
    PartitionerConfig,
    PartitioningOutcome,
    PartitionRequest,
    RefinementConfig,
    SolverSettings,
)
from repro.obs import MemorySink
from repro.service import PartitionService


def quick_config(**solver_overrides) -> PartitionerConfig:
    return PartitionerConfig(
        search=RefinementConfig(time_budget=60.0),
        solver=SolverSettings(
            backend="highs", time_limit=10.0, **solver_overrides
        ),
    )


def assert_same_outcome(got, want) -> None:
    """``got`` is ``want`` bit for bit, up to measured wall times."""
    assert got.feasible == want.feasible
    assert got.total_latency == want.total_latency
    assert got.design.as_assignment() == want.design.as_assignment()
    assert [
        (r.num_partitions, r.d_min, r.d_max, r.status, r.achieved, r.bound)
        for r in got.trace.records
    ] == [
        (r.num_partitions, r.d_min, r.d_max, r.status, r.achieved, r.bound)
        for r in want.trace.records
    ]
    assert got.telemetry.total_solves == want.telemetry.total_solves


def exit_worker(payload, cancel=None):
    """A worker entry whose process dies on every request."""
    import os

    os._exit(1)


@pytest.fixture
def inline_service(ar_device):
    service = PartitionService(
        processor=ar_device, config=quick_config(), max_workers=0
    )
    with service:
        yield service


class TestInlineService:
    def test_submit_returns_a_future_with_an_outcome(
        self, inline_service, chain_graph
    ):
        future = inline_service.submit(PartitionRequest(graph=chain_graph))
        outcome = future.result(timeout=60)
        assert isinstance(outcome, PartitioningOutcome)
        assert outcome.feasible
        assert outcome.design is not None

    def test_async_submit_batch_gathers_all(
        self, inline_service, chain_graph, diamond_graph
    ):
        async def run():
            return await inline_service.submit_batch(
                [
                    PartitionRequest(graph=chain_graph),
                    PartitionRequest(graph=diamond_graph),
                ]
            )

        outcomes = asyncio.run(run())
        assert len(outcomes) == 2
        assert all(o.feasible for o in outcomes)
        # Outcomes arrive in request order, not completion order.
        assert outcomes[0].design.graph.name == "chain"
        assert outcomes[1].design.graph.name == "diamond"

    def test_solve_batch_sync_wrapper(self, inline_service, chain_graph):
        outcomes = inline_service.solve_batch(
            [PartitionRequest(graph=chain_graph)]
        )
        assert len(outcomes) == 1 and outcomes[0].feasible

    def test_request_without_processor_anywhere_fails(self, chain_graph):
        # Resolution happens at submit time, so the mistake surfaces
        # immediately instead of inside a worker.
        with PartitionService(max_workers=0) as service:
            with pytest.raises(ValueError, match="processor"):
                service.submit(PartitionRequest(graph=chain_graph))

    def test_request_overrides_win_over_service_defaults(
        self, inline_service, chain_graph, ar_device
    ):
        import dataclasses

        bigger = dataclasses.replace(ar_device, resource_capacity=1000)
        outcome = inline_service.submit(
            PartitionRequest(graph=chain_graph, processor=bigger)
        ).result(timeout=60)
        assert outcome.feasible
        # Capacity 1000 fits the whole chain in one partition.
        assert outcome.design.num_partitions_used == 1

    def test_service_emits_request_lifecycle_events(
        self, ar_device, chain_graph
    ):
        sink = MemorySink()
        with PartitionService(
            processor=ar_device,
            config=quick_config(),
            max_workers=0,
            sinks=(sink,),
        ) as service:
            service.submit(PartitionRequest(graph=chain_graph)).result(
                timeout=60
            )
        names = [e["name"] for e in sink.events]
        assert "service_request_submitted" in names
        assert "service_request_completed" in names

    def test_no_deprecation_warnings_on_the_service_path(
        self, inline_service, chain_graph
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            outcome = inline_service.submit(
                PartitionRequest(graph=chain_graph)
            ).result(timeout=60)
        assert outcome.feasible

    def test_outcome_matches_partitioner_solve(
        self, inline_service, diamond_graph, ar_device
    ):
        from repro.core import TemporalPartitioner

        via_service = inline_service.submit(
            PartitionRequest(graph=diamond_graph)
        ).result(timeout=60)
        via_partitioner = TemporalPartitioner(
            ar_device, config=quick_config()
        ).solve(PartitionRequest(graph=diamond_graph))
        assert_same_outcome(via_service, via_partitioner)


class TestDiskCacheIntegration:
    def test_warm_cache_reproduces_outcomes_with_disk_hits(
        self, tmp_path, ar_device, chain_graph, diamond_graph
    ):
        cache_file = str(tmp_path / "solves.sqlite")
        requests = [
            PartitionRequest(graph=chain_graph),
            PartitionRequest(graph=diamond_graph),
        ]

        with PartitionService(
            processor=ar_device,
            config=quick_config(),
            max_workers=0,
            cache_path=cache_file,
        ) as cold_service:
            cold = cold_service.solve_batch(requests)

        # A brand-new service on the same cache file: every window
        # verdict should replay from disk and the outcomes must match.
        with PartitionService(
            processor=ar_device,
            config=quick_config(),
            max_workers=0,
            cache_path=cache_file,
        ) as warm_service:
            warm = warm_service.solve_batch(requests)

        total_disk_hits = sum(o.telemetry.disk_hits for o in warm)
        assert total_disk_hits > 0
        for before, after in zip(cold, warm):
            assert after.feasible == before.feasible
            assert after.total_latency == pytest.approx(
                before.total_latency
            )
            assert (
                after.design.as_assignment() == before.design.as_assignment()
            )

    def test_request_settings_keep_their_own_cache_path(
        self, tmp_path, ar_device, chain_graph
    ):
        service_cache = str(tmp_path / "service.sqlite")
        request_cache = str(tmp_path / "request.sqlite")
        with PartitionService(
            processor=ar_device,
            config=quick_config(),
            max_workers=0,
            cache_path=service_cache,
        ) as service:
            request = PartitionRequest(
                graph=chain_graph,
                config=quick_config(cache_path=request_cache),
            )
            assert service.submit(request).result(timeout=60).feasible
        # The request's explicit choice wins over the service default.
        assert (tmp_path / "request.sqlite").exists()
        assert not (tmp_path / "service.sqlite").exists()


class TestLifecycle:
    def test_submit_after_close_is_rejected(self, ar_device, chain_graph):
        service = PartitionService(
            processor=ar_device, config=quick_config(), max_workers=0
        )
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(PartitionRequest(graph=chain_graph))

    def test_close_is_idempotent(self, ar_device):
        service = PartitionService(processor=ar_device, max_workers=0)
        service.close()
        service.close()

    def test_async_context_manager(self, ar_device, chain_graph):
        async def run():
            async with PartitionService(
                processor=ar_device, config=quick_config(), max_workers=0
            ) as service:
                return await service.solve(
                    PartitionRequest(graph=chain_graph)
                )

        assert asyncio.run(run()).feasible

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            PartitionService(max_workers=-1)


@pytest.mark.slow
class TestPooledService:
    def test_pooled_batch_matches_inline(
        self, tmp_path, ar_device, chain_graph, diamond_graph
    ):
        from repro.core import TemporalPartitioner

        requests = [
            PartitionRequest(graph=chain_graph),
            PartitionRequest(graph=diamond_graph),
        ]
        with PartitionService(
            processor=ar_device, config=quick_config(), max_workers=0
        ) as inline:
            expected = inline.solve_batch(requests)
        with PartitionService(
            processor=ar_device,
            config=quick_config(),
            max_workers=2,
            cache_path=str(tmp_path / "pooled.sqlite"),
        ) as pooled:
            outcomes = pooled.solve_batch(requests)
        serial = TemporalPartitioner(ar_device, quick_config())
        for request, got, want in zip(requests, outcomes, expected):
            assert_same_outcome(got, want)
            assert_same_outcome(got, serial.solve(request))

    def test_worker_killed_once_is_retried_and_answered(
        self, ar_device, chain_graph
    ):
        import os
        import signal

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        request = PartitionRequest(graph=chain_graph)
        with PartitionService(
            processor=ar_device,
            config=quick_config(),
            max_workers=1,
            metrics=registry,
        ) as service:
            assert service.solve_batch([request])[0].feasible
            for pid in list(service._pool._processes):
                os.kill(pid, signal.SIGKILL)
            # The request meets the broken pool, is resubmitted once on
            # a respawned one, and is answered.
            assert service.submit(request).result(timeout=120).feasible
        snapshot = registry.snapshot()
        assert snapshot.value("repro_service_requests_total", "error") == 0
        assert snapshot.value("repro_service_requests_total", "feasible") == 2

    def test_worker_dying_twice_fails_only_that_request(
        self, monkeypatch, ar_device, chain_graph
    ):
        from repro.obs import MetricsRegistry
        from repro.service import ShardWorkerError

        registry = MetricsRegistry()
        request = PartitionRequest(graph=chain_graph)
        # Patched before the pool forks: the facade submits this entry
        # on both attempts, so the retry's worker dies too.
        monkeypatch.setattr(
            "repro.service.facade.solve_request", exit_worker
        )
        with PartitionService(
            processor=ar_device,
            config=quick_config(),
            max_workers=1,
            metrics=registry,
        ) as service:
            with pytest.raises(ShardWorkerError):
                service.submit(request).result(timeout=120)
            monkeypatch.undo()
            # The next ordinary request gets a fresh, healthy pool.
            assert service.submit(request).result(timeout=120).feasible
        snapshot = registry.snapshot()
        assert snapshot.value("repro_service_requests_total", "error") == 1
        assert snapshot.value("repro_service_requests_total", "feasible") == 1

    def test_cancel_all_stops_only_the_requests_in_flight(
        self, ar_device, chain_graph
    ):
        request = PartitionRequest(graph=chain_graph)
        with PartitionService(
            processor=ar_device, config=quick_config(), max_workers=0
        ) as fresh:
            expected = fresh.submit(request).result()
        with PartitionService(
            processor=ar_device, config=quick_config(), max_workers=1
        ) as service:
            assert service.submit(request).result().feasible
            in_flight = service.submit(request)
            service.cancel_all()
            in_flight.result()  # cancelled or finished; either is fine
            for _ in range(2):
                later = service.submit(request).result()
                assert later.feasible
                assert later.total_latency == pytest.approx(
                    expected.total_latency
                )
