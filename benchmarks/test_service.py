"""Smoke benchmark of the partition service (worker pool + disk cache).

Three passes over one mixed batch of five requests (AR filter, reduced
DCT, and three synthetic graphs; different deltas and processors):

1. **serial** — each request solved one after another through
   :class:`TemporalPartitioner`, the reference path.
2. **pooled, cold** — the same batch through a
   :class:`PartitionService` with a 4-worker process pool and a fresh
   disk cache.  Each worker runs one whole request's serial search, and
   requests run side by side, so on parallel hardware the batch wall
   time must beat the serial pass (on a single-core host the gate moves
   to the warm replay — there is nothing for the pool to run on).  Every
   outcome must equal the serial one: same ``D_a``, same design.
3. **pooled, warm** — a brand-new service on the same cache file: the
   disk hit count must be nonzero and every outcome identical to the
   cold pass (the monotone reuse rules replay verdicts, never guess).

Writes ``benchmarks/results/BENCH_service.json``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from conftest import RESULTS_DIR, SOLVE_LIMIT
from repro.arch import ReconfigurableProcessor
from repro.core import (
    PartitionerConfig,
    PartitionRequest,
    RefinementConfig,
    SolverSettings,
    TemporalPartitioner,
)
from repro.service import PartitionService
from repro.taskgraph import ar_filter, dct_4x4, generators

WORKERS = 4

#: The worker pool can only beat the serial wall time when the
#: machine actually runs workers in parallel.  On a single-core host
#: (CI containers, constrained sandboxes) the pool adds overhead with
#: nothing to amortize it, so the speed gate moves to the warm-cache
#: replay instead; the JSON records which gate applied.
PARALLEL_HARDWARE = (os.cpu_count() or 1) >= 2


def build_batch() -> tuple[ReconfigurableProcessor, list[PartitionRequest]]:
    """Five mixed requests: different graphs, deltas and processors."""
    default_device = ReconfigurableProcessor(
        400.0, 128.0, 20.0, name="ar_device"
    )

    def config(delta: float | None = None) -> PartitionerConfig:
        return PartitionerConfig(
            search=RefinementConfig(delta=delta, time_budget=120.0),
            solver=SolverSettings.fast(time_limit=SOLVE_LIMIT),
        )

    requests = [
        PartitionRequest(graph=ar_filter(), config=config(delta=10.0)),
        PartitionRequest(
            graph=dct_4x4(rows=2),
            processor=ReconfigurableProcessor(
                576.0, 2048.0, 30.0, name="R576"
            ),
            # The paper's coarse Table 6/8 tolerance keeps the reduced
            # DCT's windows out of the undecidable band.
            config=config(delta=800.0),
        ),
        PartitionRequest(
            graph=generators.fork_join_graph(
                branches=3, branch_length=2, seed=5
            ),
            config=config(delta=25.0),
        ),
        PartitionRequest(
            graph=generators.layered_graph(
                num_levels=3, tasks_per_level=2, seed=7
            ),
            config=config(delta=25.0),
        ),
        PartitionRequest(
            graph=generators.series_parallel_graph(depth=2, seed=11),
            config=config(delta=25.0),
        ),
    ]
    return default_device, requests


def outcome_summary(outcome) -> dict:
    return {
        "feasible": outcome.feasible,
        "total_latency": outcome.total_latency,
        "num_partitions": outcome.num_partitions,
        "degraded": outcome.degraded,
    }


def test_pooled_batch_equals_serial_beats_it_and_warm_cache_replays():
    device, requests = build_batch()

    # Pass 1: the reference, one request at a time.
    start = time.perf_counter()
    serial = [
        TemporalPartitioner(
            request.processor or device, request.config
        ).solve(PartitionRequest(graph=request.graph))
        for request in requests
    ]
    serial_wall = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        cache_path = str(Path(tmp) / "solves.sqlite")

        # Pass 2: a worker pool, cold disk cache.
        start = time.perf_counter()
        with PartitionService(
            processor=device, max_workers=WORKERS, cache_path=cache_path
        ) as service:
            cold = service.solve_batch(requests)
        cold_wall = time.perf_counter() - start

        # Pass 3: new service, same cache file — warm replay.
        start = time.perf_counter()
        with PartitionService(
            processor=device, max_workers=WORKERS, cache_path=cache_path
        ) as service:
            warm = service.solve_batch(requests)
        warm_wall = time.perf_counter() - start

    warm_disk_hits = sum(o.telemetry.disk_hits for o in warm)

    payload = {
        "experiment": {
            "batch_size": len(requests),
            "workers": WORKERS,
            "solve_limit": SOLVE_LIMIT,
            "graphs": [r.graph.name for r in requests],
        },
        "serial": {
            "wall_time": serial_wall,
            "outcomes": [outcome_summary(o) for o in serial],
        },
        "pooled_cold": {
            "wall_time": cold_wall,
            "outcomes": [outcome_summary(o) for o in cold],
        },
        "pooled_warm": {
            "wall_time": warm_wall,
            "disk_hits": warm_disk_hits,
            "outcomes": [outcome_summary(o) for o in warm],
        },
        "speedup_vs_serial": serial_wall / cold_wall if cold_wall else None,
        "warm_speedup_vs_serial": (
            serial_wall / warm_wall if warm_wall else None
        ),
        "parallel_hardware": PARALLEL_HARDWARE,
        "cpu_count": os.cpu_count(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_service.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # Every pass solves every request, nothing degraded.
    for outcomes in (serial, cold, warm):
        assert all(o.feasible for o in outcomes)
        assert not any(o.degraded for o in outcomes)

    # The pool must beat the serial reference on the batch — where the
    # hardware can actually run the workers side by side.  Single-core
    # hosts gate on the warm replay instead (same file, second pass):
    # the disk cache must carry the batch below the serial wall time.
    if PARALLEL_HARDWARE:
        assert cold_wall < serial_wall, (
            f"pooled batch ({cold_wall:.2f}s) not faster than serial "
            f"({serial_wall:.2f}s) on {os.cpu_count()} cores"
        )
    else:
        assert warm_wall < serial_wall, (
            f"warm replay ({warm_wall:.2f}s) not faster than serial "
            f"({serial_wall:.2f}s)"
        )

    # The warm pass replays from disk and reproduces the cold outcomes.
    assert warm_disk_hits > 0
    for before, after in zip(cold, warm):
        assert after.feasible == before.feasible
        assert after.total_latency == before.total_latency
        assert (
            after.design.as_assignment() == before.design.as_assignment()
        )

    # Identity with the serial reference: each worker runs the serial
    # search, so the pooled outcome is the serial one — same D_a, same
    # design.
    for request, reference, outcome in zip(requests, serial, cold):
        assert outcome.feasible == reference.feasible
        assert outcome.total_latency == reference.total_latency, (
            f"{request.graph.name}: pooled {outcome.total_latency} vs "
            f"serial {reference.total_latency}"
        )
        assert (
            outcome.design.as_assignment()
            == reference.design.as_assignment()
        ), request.graph.name
