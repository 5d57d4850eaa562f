"""Partition-as-a-service: the :class:`PartitionService` facade.

One service instance accepts many :class:`~repro.core.partitioner
.PartitionRequest`\\ s concurrently and answers each with a
:class:`~repro.core.partitioner.PartitioningOutcome`::

    from repro.service import PartitionService
    from repro import PartitionRequest
    from repro.arch import time_multiplexed

    async with PartitionService(
        processor=time_multiplexed(), max_workers=4,
        cache_path="solves.sqlite",
    ) as service:
        outcomes = await service.submit_batch(
            [PartitionRequest(graph=g) for g in graphs]
        )

Three layers compose here:

* **asyncio facade** — :meth:`submit` returns a
  :class:`concurrent.futures.Future` (await it via :meth:`solve`, or
  batch-gather via :meth:`submit_batch`); request coordination runs in
  a small thread pool so the event loop never blocks on a solve;
* **process-pool sharding** — each request's partition bounds are
  evaluated by :func:`repro.service.sharding.solve_sharded` over a
  shared :class:`~concurrent.futures.ProcessPoolExecutor`, with the
  per-request best-latency bound ``D_a`` in a manager proxy so workers
  prune each other, and a cooperative cancellation event
  (:meth:`cancel_all`); ``max_workers=0`` runs every shard inline —
  deterministic, no subprocesses;
* **persistent solve cache** — ``cache_path`` points every worker (and
  the inline path) at one :class:`repro.solve.disk_cache.DiskSolveCache`
  SQLite file, so verdicts are shared across workers, requests and
  service restarts under the monotone window-reuse rules.

Progress streams through :mod:`repro.obs`: pass ``sinks`` (e.g. a
:class:`~repro.obs.JsonlSink`) or a ready-made ``tracer`` and the
service emits ``service_request_*`` / ``shard_*`` events alongside the
usual solve spans of the inline path.  Pass a
:class:`~repro.obs.MetricsRegistry` as ``metrics`` and the service
additionally counts requests (``repro_service_requests_total``,
in-flight gauge, queue-wait and end-to-end latency histograms) and
absorbs every shard worker's counters into the same registry — one
scrape sees the whole fleet.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable, Sequence

from repro.arch.processor import ReconfigurableProcessor
from repro.core import bounds
from repro.core.partitioner import (
    PartitionerConfig,
    PartitioningOutcome,
    PartitionRequest,
)
from repro.obs.metrics import as_metrics
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.service.sharding import solve_sharded
from repro.taskgraph.validate import validate_graph

__all__ = ["PartitionService", "ShardWorkerError"]


class ShardWorkerError(RuntimeError):
    """A shard worker process died while serving this request.

    Only the request that met the dead worker fails; the service drops
    the broken pool and the next request runs on a fresh one.
    """


class PartitionService:
    """Async batch facade over the sharded partition search."""

    def __init__(
        self,
        processor: ReconfigurableProcessor | None = None,
        config: PartitionerConfig | None = None,
        max_workers: int | None = None,
        cache_path: str | None = None,
        sinks: Sequence = (),
        tracer: Tracer | None = None,
        metrics=None,
    ) -> None:
        """``processor``/``config`` are defaults for requests that omit
        them; ``max_workers`` sizes the shard pool (``None`` — the CPU
        count; ``0`` — inline, deterministic, no subprocesses);
        ``cache_path`` is threaded into every request's solver settings
        unless they already name their own disk cache; ``metrics`` is an
        optional :class:`~repro.obs.MetricsRegistry` that collects
        service-level counters and absorbs every shard worker's
        snapshot (``None`` — metrics disabled, no overhead).
        """
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        self.processor = processor
        self.config = config
        self.max_workers = max_workers
        self.cache_path = cache_path
        if tracer is not None:
            self.tracer = tracer
        elif sinks:
            # Composition root: the service is where the user's sinks
            # are wired into the library, like the CLI's entry points.
            self.tracer = Tracer(*sinks)  # repro-lint: ignore[RL003]
        else:
            self.tracer = NULL_TRACER
        self.metrics = as_metrics(metrics)
        self._m_requests = self.metrics.counter(
            "repro_service_requests_total",
            "Requests the service finished, by outcome.",
            ("outcome",),
        )
        self._m_in_flight = self.metrics.gauge(
            "repro_service_requests_in_flight",
            "Requests accepted but not yet answered.",
        )
        self._m_queue_wait = self.metrics.histogram(
            "repro_service_queue_wait_seconds",
            "Time between submission and a coordinator picking the "
            "request up.",
        )
        self._m_request_seconds = self.metrics.histogram(
            "repro_service_request_seconds",
            "End-to-end request latency (coordination plus solve).",
        )
        self._m_cancellations = self.metrics.counter(
            "repro_service_cancellations_total",
            "cancel_all() invocations observed by the service.",
        )
        self._request_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._closed = False
        self._pool: ProcessPoolExecutor | None = None
        self._manager = None
        self._cancel = None
        # One coordinator thread per in-flight request; they spend their
        # time waiting on shard futures, so a generous cap is cheap.
        self._coordinators = ThreadPoolExecutor(
            max_workers=max(4, max_workers),
            thread_name_prefix="partition-service",
        )

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self):
        """The live ``(pool, manager, cancel event)``, spawned on demand."""
        with self._lock:
            if self._closed:
                raise RuntimeError("PartitionService is closed")
            if self.max_workers == 0:
                return None, None, None
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers
                )
                self._manager = multiprocessing.Manager()
                self._cancel = self._manager.Event()
            return self._pool, self._manager, self._cancel

    def _discard_pool(self, pool) -> None:
        """Shut down ``pool`` and its manager if they are still the live
        ones, so the next :meth:`_ensure_pool` spawns fresh workers."""
        with self._lock:
            if self._pool is not pool:
                return  # another request already discarded it
            manager = self._manager
            self._pool = self._manager = self._cancel = None
        pool.shutdown(wait=False, cancel_futures=True)
        manager.shutdown()

    def close(self) -> None:
        """Shut down the worker pool and coordinator threads."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, manager = self._pool, self._manager
            self._pool = self._manager = self._cancel = None
        self._coordinators.shutdown(wait=True)
        if pool is not None:
            pool.shutdown(wait=True)
        if manager is not None:
            manager.shutdown()
        self.tracer.close()

    def cancel_all(self) -> None:
        """Cooperatively stop every in-flight shard.

        Workers observe the event between bisection trials and return
        their current state; pending shards come back ``skipped``.  Only
        the requests in flight are stopped: a fresh event is swapped in
        first, so later requests run uncancelled.
        """
        with self._lock:
            cancel = self._cancel
            if cancel is not None:
                self._cancel = self._manager.Event()
        if cancel is not None:
            cancel.set()
        self._m_cancellations.inc()
        self.tracer.event("service_cancelled")

    def __enter__(self) -> "PartitionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    async def __aenter__(self) -> "PartitionService":
        return self

    async def __aexit__(self, *exc) -> None:
        await asyncio.to_thread(self.close)

    # -- submission ----------------------------------------------------------

    def _resolve(
        self, request: PartitionRequest
    ) -> tuple[ReconfigurableProcessor, PartitionerConfig]:
        processor = request.processor or self.processor
        if processor is None:
            raise ValueError(
                "request has no processor and the service has no default"
            )
        config = request.config or self.config or PartitionerConfig()
        if self.cache_path is not None and config.solver.cache_path is None:
            config = dataclasses.replace(
                config,
                solver=dataclasses.replace(
                    config.solver, cache_path=self.cache_path
                ),
            )
        return processor, config

    def submit(self, request: PartitionRequest) -> "Future[PartitioningOutcome]":
        """Accept one request; returns a concurrent future.

        Usable from synchronous code directly (``future.result()``) or
        from asyncio via ``asyncio.wrap_future`` — which is exactly what
        :meth:`solve` does.
        """
        processor, config = self._resolve(request)
        request_id = next(self._request_ids)
        self.tracer.event(
            "service_request_submitted",
            request_id=request_id,
            graph=request.graph.name,
            tasks=len(request.graph.task_names),
        )
        self._m_in_flight.inc()
        return self._coordinators.submit(
            self._run_request,
            request_id,
            request,
            processor,
            config,
            time.perf_counter(),
        )

    async def solve(self, request: PartitionRequest) -> PartitioningOutcome:
        """Await one request's outcome."""
        return await asyncio.wrap_future(self.submit(request))

    async def submit_batch(
        self, requests: Iterable[PartitionRequest]
    ) -> list[PartitioningOutcome]:
        """Submit many requests concurrently; outcomes in input order.

        All requests are accepted before any is awaited, so they share
        the worker pool (and the disk cache) from the start.
        """
        futures = [self.submit(request) for request in requests]
        return list(
            await asyncio.gather(
                *(asyncio.wrap_future(f) for f in futures)
            )
        )

    def solve_batch(
        self, requests: Iterable[PartitionRequest]
    ) -> list[PartitioningOutcome]:
        """Synchronous :meth:`submit_batch` (CLI and script callers)."""
        futures = [self.submit(request) for request in requests]
        return [f.result() for f in futures]

    # -- per-request coordination -------------------------------------------

    def _run_request(
        self,
        request_id: int,
        request: PartitionRequest,
        processor: ReconfigurableProcessor,
        config: PartitionerConfig,
        submitted: float | None = None,
    ) -> PartitioningOutcome:
        start = time.perf_counter()
        if submitted is not None:
            self._m_queue_wait.observe(max(start - submitted, 0.0))
        outcome_label = "error"
        try:
            outcome = self._solve_request(
                request_id, request, processor, config, start
            )
            outcome_label = "feasible" if outcome.feasible else "infeasible"
            return outcome
        finally:
            self._m_in_flight.dec()
            self._m_requests.labels(outcome_label).inc()
            self._m_request_seconds.observe(time.perf_counter() - start)

    def _solve_request(
        self,
        request_id: int,
        request: PartitionRequest,
        processor: ReconfigurableProcessor,
        config: PartitionerConfig,
        start: float,
    ) -> PartitioningOutcome:
        if config.validate:
            report = validate_graph(
                request.graph,
                resource_capacity=processor.resource_capacity,
            )
            report.raise_if_failed()
        pool, manager, cancel = self._ensure_pool()
        if pool is None:
            bound = bound_lock = None
        else:
            # The incumbent bound D_a is per request (different graphs
            # do not share latencies); cancellation reaches every
            # request in flight when cancel_all() runs.
            bound = manager.Value("d", float("inf"))
            bound_lock = manager.Lock()
        try:
            result = solve_sharded(
                request.graph,
                processor,
                config=config,
                max_workers=self.max_workers,
                pool=pool,
                bound=bound,
                bound_lock=bound_lock,
                cancel=cancel,
                tracer=self.tracer if self.tracer.enabled else None,
                metrics=self.metrics if self.metrics.enabled else None,
            )
        except BrokenProcessPool as exc:
            self._discard_pool(pool)
            self.tracer.event("shard_pool_broken", request_id=request_id)
            raise ShardWorkerError(
                f"request {request_id}: a shard worker died ({exc})"
            ) from exc
        prange = bounds.partition_range(
            request.graph,
            processor,
            alpha=config.search.alpha,
            gamma=config.search.gamma,
        )
        outcome = PartitioningOutcome(
            design=result.design,
            total_latency=result.achieved,
            trace=result.trace,
            partition_range=prange,
            delta=result.delta,
            stopped_by_min_latency_cut=result.stopped_by_min_latency_cut,
            stopped_by_time=result.stopped_by_time,
            degraded=result.degraded,
            telemetry=result.telemetry,
            scenario=config.formulation.scenario,
        )
        self.tracer.event(
            "service_request_completed",
            request_id=request_id,
            feasible=outcome.feasible,
            total_latency=outcome.total_latency,
            degraded=outcome.degraded,
            wall_time=time.perf_counter() - start,
        )
        return outcome
