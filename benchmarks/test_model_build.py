"""Model-preparation benchmark: fresh builds vs incremental templates.

The bisection search of ``Reduce_Latency`` prepares one ILP per
iteration.  The fresh path rebuilds the expression model, compiles it to
standard form and hashes it for the solve cache — every iteration.  The
template path (:class:`repro.core.formulation.ModelTemplate`) does all
three once and then patches two right-hand sides per window.

This benchmark replays the *actual* window trajectory of a search on the
paper's two task graphs (AR filter, 4x4 DCT) through both preparation
paths and times them.  That both paths yield array-identical models —
so the template path changes nothing but the clock — is property-tested
in ``tests/core/test_template_equivalence.py``.

Writes ``benchmarks/results/BENCH_model_build.json``.
"""

from __future__ import annotations

import json
import time

from conftest import RESULTS_DIR, SOLVE_LIMIT
from repro.arch import ReconfigurableProcessor
from repro.core import ModelTemplate, SolverSettings, bounds, build_model, reduce_latency
from repro.solve import SolveExecutor, fingerprint_model
from repro.taskgraph import ar_filter, dct_4x4

#: Search tolerances chosen to yield a healthy number of bisection
#: iterations within the quick-mode budget.
CASES = {
    "ar_filter": {
        "graph": ar_filter,
        "processor": lambda: ReconfigurableProcessor(
            400, 128, 20.0, name="ar_device"
        ),
        "delta": 0.1,
        "prep_repeats": 20,
    },
    "dct_4x4": {
        "graph": dct_4x4,
        "processor": lambda: ReconfigurableProcessor(
            576.0, 2048.0, 30.0, name="R576"
        ),
        "delta": 200.0,
        "prep_repeats": 5,
    },
}


def run_search(case):
    graph = case["graph"]()
    processor = case["processor"]()
    settings = SolverSettings(time_limit=SOLVE_LIMIT)
    executor = SolveExecutor(settings)
    n = bounds.min_area_partitions(graph, processor.resource_capacity)
    result = None
    for _ in range(8):  # escalate past infeasible partition bounds
        result = reduce_latency(
            graph,
            processor,
            n,
            bounds.max_latency(graph, n, processor.reconfiguration_time),
            bounds.min_latency(graph, n, processor.reconfiguration_time),
            case["delta"],
            settings=settings,
            executor=executor,
        )
        if result.feasible:
            break
        n += 1
    assert result is not None and result.feasible
    return result, graph, processor, n


def best_of(repeats, run):
    """Minimum wall time over ``repeats`` runs — robust to scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def time_fresh_prep(graph, processor, n, windows, options, repeats):
    """Per-iteration cost of the pre-template path: build+compile+hash."""

    def trajectory():
        for d_max, d_min in windows:
            tp = build_model(graph, processor, n, d_max, d_min, options)
            tp.model.compile()
            fingerprint_model(tp)

    return best_of(repeats, trajectory) / len(windows)


def time_template_prep(graph, processor, n, windows, options, repeats):
    """Per-iteration cost of the template path, one-time build included."""

    def trajectory():
        template = ModelTemplate(graph, processor, n, options)
        for d_max, d_min in windows:
            fingerprint_model(template.instantiate(d_min, d_max))

    return best_of(repeats, trajectory) / len(windows)


def test_template_prep_speedup():
    payload: dict = {"solve_limit": SOLVE_LIMIT, "cases": {}}
    speedups = []

    for name, case in CASES.items():
        templated, graph, processor, n = run_search(case)
        templated_windows = [
            (r.d_max, r.d_min) for r in templated.trace
        ]

        # Replay the real trajectory through both preparation paths.
        # The executor attaches the guiding objective before building;
        # reproduce its effective options for a faithful cost model.
        options = SolveExecutor(
            SolverSettings(time_limit=SOLVE_LIMIT)
        )._effective_options(None)
        repeats = case["prep_repeats"]
        fresh_per_iter = time_fresh_prep(
            graph, processor, n, templated_windows, options, repeats
        )
        template_per_iter = time_template_prep(
            graph, processor, n, templated_windows, options, repeats
        )
        speedup = fresh_per_iter / template_per_iter
        speedups.append(speedup)

        payload["cases"][name] = {
            "num_partitions": n,
            "delta": case["delta"],
            "iterations": len(templated_windows),
            "windows": templated_windows,
            "final_latency_templated": templated.achieved,
            "fresh_prep_s_per_iter": fresh_per_iter,
            "template_prep_s_per_iter": template_per_iter,
            "prep_speedup": round(speedup, 2),
            "template_builds": templated.telemetry.template_builds,
            "template_instantiations": (
                templated.telemetry.template_instantiations
            ),
        }

    payload["min_prep_speedup"] = round(min(speedups), 2)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_model_build.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # Acceptance: at least a 3x reduction in per-iteration model
    # preparation time on every case (one-time template build included).
    assert min(speedups) >= 3.0, payload
