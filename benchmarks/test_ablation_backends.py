"""Ablation C: solver backends on the same partitioning questions.

Compares scipy/HiGHS, the from-scratch branch & bound (both LP engines),
and the problem-specific CP backtracking on the AR filter.  All must
agree on feasibility and — since the AR design space is tiny — land on
the same optimal latency when driven by the iterative search.
"""

import time

from repro.core import (
    RefinementConfig,
    SolverSettings,
    bounds,
    cp_solve,
    refine_partitions_bound,
)
from repro.experiments import TextTable, ar_processor
from repro.ilp import model as ilp_model
from repro.ilp.branch_and_bound import solve_with_bnb
from repro.taskgraph import ar_filter


def run_backend(graph, processor, backend):
    start = time.perf_counter()
    result = refine_partitions_bound(
        graph,
        processor,
        config=RefinementConfig(delta=10.0, gamma=1),
        settings=SolverSettings(backend=backend, time_limit=30.0),
    )
    return result, time.perf_counter() - start


def own_simplex_bnb(form, **options):
    """Branch & bound with node relaxations on the own simplex."""
    return solve_with_bnb(form, **options, lp_engine="own")


def test_backends_agree(benchmark, artifact_writer, monkeypatch):
    graph = ar_filter()
    processor = ar_processor()

    def run_all():
        rows = {}
        rows["highs"] = run_backend(graph, processor, "highs")
        rows["bnb/scipy-lp"] = run_backend(graph, processor, "bnb")
        with monkeypatch.context() as patch:
            patch.setitem(ilp_model._BACKENDS, "bnb", own_simplex_bnb)
            rows["bnb/own-simplex"] = run_backend(graph, processor, "bnb")
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # CP answers the same feasibility question at the best-found bound.
    reference = rows["highs"][0]
    n = reference.design.num_partitions_used
    start = time.perf_counter()
    cp_design = cp_solve(
        graph, processor, n,
        bounds.max_latency(graph, n, processor.reconfiguration_time),
    )
    cp_time = time.perf_counter() - start

    table = TextTable(
        "Ablation C: backend comparison on the AR filter",
        ("backend", "latency (ns)", "ILP solves", "wall time (s)"),
    )
    for name, (result, elapsed) in rows.items():
        table.add_row(
            name, result.achieved, len(result.trace), round(elapsed, 2)
        )
    table.add_row(
        "cp (feasibility only)",
        None if cp_design is None else cp_design.total_latency(processor),
        0,
        round(cp_time, 4),
    )
    artifact_writer("ablation_backends.txt", table.render())

    latencies = {
        name: result.achieved for name, (result, _t) in rows.items()
    }
    assert all(lat is not None for lat in latencies.values())
    # All ILP backends converge to the same (optimal) AR latency.
    assert len({round(lat, 6) for lat in latencies.values()}) == 1
    assert cp_design is not None
    assert cp_design.is_valid(processor)
