"""Overhead audit of the metrics layer.

Two promises are checked against the paper's two workloads (the AR
filter of Table 1 and the 4x4 DCT of Table 3):

1. **Always-on metrics are cheap.**  The executor records every run
   into a real :class:`~repro.obs.MetricsRegistry` — the caller's, or a
   private one when none is configured — because its ``RunTelemetry``
   is read from it; there is no no-op path left.  A microbenchmark
   prices one real-registry update, the metered twin run counts how
   many metric updates an average search iteration performs (from its
   own snapshot: every counter increment, gauge set and histogram
   observation leaves a sample), and the product must stay under 2% of
   the measured per-iteration wall time.  The search trajectory must
   also be identical with and without a caller registry attached —
   metrics may observe the search but never steer it.  (Identity is
   asserted up to the first timeout-decided window: rows concluded by
   the wall clock rather than by a solver verdict are legitimately
   run-dependent.)
2. **Metrics are honest.**  The per-window rows and the counters agree
   exactly: window solves and cache hits counted in the registry match
   the rows, and the telemetry view reports the same numbers.

Writes ``benchmarks/results/BENCH_metrics_overhead.json``.
"""

from __future__ import annotations

import json
import time

from conftest import EXPERIMENT_BUDGET, RESULTS_DIR, SOLVE_LIMIT
from repro.arch import ReconfigurableProcessor
from repro.core import RefinementConfig, SolverSettings, refine_partitions_bound
from repro.obs import MetricsRegistry
from repro.taskgraph import ar_filter, dct_4x4

CASES = [
    {
        "name": "ar_filter",
        "graph": ar_filter,
        "processor": lambda: ReconfigurableProcessor(400.0, 128.0, 20.0),
        "delta": 0.1,
    },
    {
        "name": "dct_4x4",
        "graph": dct_4x4,
        "processor": lambda: ReconfigurableProcessor(576.0, 2048.0, 30.0),
        "delta": 200.0,
    },
]

MAX_METRICS_OVERHEAD = 0.02


def run_case(case, metrics=None):
    settings = SolverSettings(time_limit=SOLVE_LIMIT, metrics=metrics)
    start = time.perf_counter()
    result = refine_partitions_bound(
        case["graph"](),
        case["processor"](),
        RefinementConfig(
            delta=case["delta"], gamma=1, time_budget=EXPERIMENT_BUDGET
        ),
        settings=settings,
    )
    wall = time.perf_counter() - start
    return result, wall


def trajectory(result):
    return [
        (r.num_partitions, r.iteration, r.d_max, r.d_min, r.achieved)
        for r in result.trace
    ]


def conclusive_prefix(result) -> int:
    """Rows before the first verdict decided by the wall clock."""
    for index, record in enumerate(result.trace):
        if record.degraded or record.backend == "":
            return index
    return len(result.trace)


def update_cost(rounds: int = 200_000) -> float:
    """Seconds per real-registry metric update, priced like the call
    sites: a ``labels()`` resolution plus the locked update itself."""
    registry = MetricsRegistry()
    counter = registry.counter("probe_total", "probe", ("a",))
    histogram = registry.histogram("probe_seconds", "probe")
    start = time.perf_counter()
    for i in range(rounds):
        counter.labels("x").inc()
        histogram.observe(0.1)
    return (time.perf_counter() - start) / (2 * rounds)


def updates_recorded(snapshot) -> float:
    """How many metric updates a run performed, from its snapshot.

    Counter values count their increments (all hot-path counters step
    by 1); histogram counts count their observations; gauge writes are
    bounded by the cut-pool counter that accompanies each ``set``.
    """
    updates = 0.0
    for name in snapshot.names():
        family = snapshot.family(name)
        if family["kind"] == "histogram":
            updates += sum(
                count for _, _, count in family["samples"].values()
            )
        else:
            updates += sum(abs(v) for v in family["samples"].values())
    return updates


def test_metrics_overhead():
    per_update = update_cost()
    payload = {
        "solve_limit": SOLVE_LIMIT,
        "update_cost_us": round(per_update * 1e6, 4),
        "max_metrics_overhead": MAX_METRICS_OVERHEAD,
        "cases": {},
    }

    for case in CASES:
        plain, plain_wall = run_case(case)
        assert plain.feasible, f"{case['name']} must be partitionable"

        registry = MetricsRegistry()
        metered, metered_wall = run_case(case, metrics=registry)
        snapshot = registry.snapshot()

        # Metrics never steer the search: identical up to the first
        # window decided by the wall clock instead of a solver verdict.
        comparable = min(
            conclusive_prefix(plain), conclusive_prefix(metered)
        )
        fully_conclusive = (
            comparable == len(plain.trace) == len(metered.trace)
        )
        assert (
            trajectory(plain)[:comparable]
            == trajectory(metered)[:comparable]
        ), f"{case['name']}: metrics changed the search trajectory"
        if fully_conclusive:
            assert trajectory(plain) == trajectory(metered)

        # The honest rows and the window/cache counters agree exactly.
        telemetry = metered.telemetry
        windows = snapshot.total("repro_window_solves_total")
        cache_hits = snapshot.total("repro_solve_cache_hits_total")
        assert windows == len(telemetry.solves) == telemetry.total_solves
        assert cache_hits == telemetry.cache_hits == sum(
            row.cache_hit for row in telemetry.solves
        )

        # Price the always-on path: metric updates per iteration
        # (measured on the metered twin) times the real update cost,
        # relative to the per-iteration wall time.
        updates = updates_recorded(snapshot)
        iterations = len(plain.trace)
        updates_per_iteration = updates / max(iterations, 1)
        seconds_per_iteration = plain_wall / max(iterations, 1)
        metrics_overhead = (
            updates_per_iteration * per_update / seconds_per_iteration
        )
        assert metrics_overhead < MAX_METRICS_OVERHEAD, (
            f"{case['name']}: metrics overhead "
            f"{metrics_overhead:.2%} exceeds {MAX_METRICS_OVERHEAD:.0%}"
        )

        payload["cases"][case["name"]] = {
            "final_latency": plain.achieved,
            "iterations": iterations,
            "conclusive_iterations_compared": comparable,
            "fully_conclusive": fully_conclusive,
            "wall_time_off": round(plain_wall, 3),
            "wall_time_on": round(metered_wall, 3),
            "enabled_overhead": (
                round(metered_wall / plain_wall - 1.0, 4)
                if plain_wall > 0
                else None
            ),
            "metric_updates": int(updates),
            "updates_per_iteration": round(updates_per_iteration, 2),
            "metrics_overhead": round(metrics_overhead, 6),
            "window_solves_counted": int(
                snapshot.total("repro_window_solves_total")
            ),
            "cache_hits_counted": int(
                snapshot.total("repro_solve_cache_hits_total")
            ),
        }

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_metrics_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
