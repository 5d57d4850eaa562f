"""Regeneration of every table in the paper's evaluation section.

========  ==================================================================
Table 1   AR filter: the iterative procedure matches the optimal ILP
Table 2   design points of the DCT task kinds
Table 3   DCT, ``R_max=576``, small ``C_T``, ``delta=200``
Table 4   DCT, ``R_max=576``, ``C_T=10 ms``, ``alpha=0``
Table 5   DCT, ``R_max=1024``, ``delta=800``, small ``C_T``, ``alpha=1``
Table 6   DCT, ``R_max=1024``, ``delta=800``, ``C_T=10 ms``, ``alpha=0``
Table 7   DCT, ``R_max=1024``, ``delta=100``, small ``C_T``, ``alpha=1``
Table 8   DCT, ``R_max=1024``, ``delta=100``, ``C_T=10 ms``, ``alpha=0``
========  ==================================================================

Each function returns the rendered :class:`TextTable` plus the raw result
objects so tests and benches can assert on the numbers, not the text.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.processor import ReconfigurableProcessor
from repro.core import (
    FormulationOptions,
    RefinementConfig,
    SolverSettings,
    refine_partitions_bound,
    solve_optimal,
)
from repro.experiments.runner import (
    LARGE_CT,
    SMALL_CT,
    DctExperiment,
    ExperimentResult,
    add_trace_rows,
    run_experiment,
)
from repro.report import TextTable
from repro.taskgraph.library import (
    DCT_T1_POINTS,
    DCT_T2_POINTS,
    ar_filter,
    dct_4x4,
)

__all__ = [
    "Table1Result",
    "table1_ar_filter",
    "table2_design_points",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "DCT_EXPERIMENTS",
    "ar_processor",
]


def ar_processor() -> ReconfigurableProcessor:
    """The device used for the AR-filter study (Table 1)."""
    return ReconfigurableProcessor(
        resource_capacity=400,
        memory_capacity=128,
        reconfiguration_time=20.0,
        name="ar_device",
    )


@dataclass
class Table1Result:
    """Iterative vs optimal on the AR filter."""

    iterative_latency: float
    optimal_latency: float
    iterative_solves: int
    table: TextTable

    @property
    def matches(self) -> bool:
        return abs(self.iterative_latency - self.optimal_latency) < 1e-6


def table1_ar_filter(
    settings: SolverSettings | None = None,
) -> Table1Result:
    """Table 1: the iterative procedure reaches the optimal latency."""
    graph = ar_filter()
    processor = ar_processor()
    settings = settings or SolverSettings()
    config = RefinementConfig(alpha=0, gamma=1, delta=10.0)
    iterative = refine_partitions_bound(
        graph, processor, config=config, settings=settings
    )
    optimal = solve_optimal(graph, processor)
    if iterative.achieved is None or optimal.latency is None:
        raise RuntimeError("AR filter study unexpectedly infeasible")

    table = TextTable(
        title=(
            "Table 1: AR filter, iterative search vs optimal ILP "
            f"(R_max={processor.resource_capacity:g}, "
            f"C_T={processor.reconfiguration_time:g} ns, delta=10)"
        ),
        columns=("N", "I", "D_min (ns)", "D_max (ns)", "D_a (ns)"),
    )
    t_o_note = add_trace_rows(
        table, iterative.trace, processor.reconfiguration_time
    )
    table.footer = (
        f"iterative D_a = {iterative.achieved:,.0f} ns; "
        f"optimal = {optimal.latency:,.0f} ns "
        f"({'match' if abs(iterative.achieved - optimal.latency) < 1e-6 else 'MISMATCH'})"
        + t_o_note
    )
    return Table1Result(
        iterative_latency=iterative.achieved,
        optimal_latency=optimal.latency,
        iterative_solves=len(iterative.trace),
        table=table,
    )


def table2_design_points() -> TextTable:
    """Table 2: the design points of the two DCT task kinds."""
    table = TextTable(
        title="Table 2: design points for DCT tasks",
        columns=("Task", "Design point", "Module set", "Area", "Latency (ns)"),
    )
    for kind, points in (("T1", DCT_T1_POINTS), ("T2", DCT_T2_POINTS)):
        for dp in points:
            table.add_row(
                kind, dp.name, str(dp.module_set), dp.area, dp.latency
            )
    graph = dct_4x4()
    table.footer = (
        f"32 tasks (16 x T1, 16 x T2); sum(min area) = "
        f"{graph.total_min_area():,.0f}, sum(max area) = "
        f"{graph.total_max_area():,.0f}, serial worst case = "
        f"{graph.total_max_latency():,.0f} ns"
    )
    return table


def _dct_experiment(
    table: str,
    resource_capacity: float,
    reconfiguration_time: float,
    delta: float,
    alpha: int,
    settings: SolverSettings | None,
    time_budget: float | None,
) -> ExperimentResult:
    experiment = DctExperiment(
        table=table,
        resource_capacity=resource_capacity,
        reconfiguration_time=reconfiguration_time,
        delta=delta,
        alpha=alpha,
        gamma=1,
        solver=settings or SolverSettings(),
        time_budget=time_budget,
    )
    # Symmetry breaking only removes permutations of interchangeable DCT
    # tasks; it changes no latency but makes infeasibility proofs tractable.
    options = FormulationOptions(symmetry_breaking=True)
    return run_experiment(experiment, dct_4x4(), options=options)


def table3(settings=None, time_budget=600.0) -> ExperimentResult:
    """DCT, R_max=576, C_T=30 ns, delta=200, alpha=0, gamma=1."""
    return _dct_experiment(
        "Table 3", 576, SMALL_CT, 200.0, 0, settings, time_budget
    )


def table4(settings=None, time_budget=600.0) -> ExperimentResult:
    """DCT, R_max=576, C_T=10 ms, delta=200, alpha=0, gamma=1."""
    return _dct_experiment(
        "Table 4", 576, LARGE_CT, 200.0, 0, settings, time_budget
    )


def table5(settings=None, time_budget=600.0) -> ExperimentResult:
    """DCT, R_max=1024, C_T=30 ns, delta=800, alpha=1, gamma=1."""
    return _dct_experiment(
        "Table 5", 1024, SMALL_CT, 800.0, 1, settings, time_budget
    )


def table6(settings=None, time_budget=600.0) -> ExperimentResult:
    """DCT, R_max=1024, C_T=10 ms, delta=800, alpha=0, gamma=1."""
    return _dct_experiment(
        "Table 6", 1024, LARGE_CT, 800.0, 0, settings, time_budget
    )


def table7(settings=None, time_budget=600.0) -> ExperimentResult:
    """DCT, R_max=1024, C_T=30 ns, delta=100, alpha=1, gamma=1."""
    return _dct_experiment(
        "Table 7", 1024, SMALL_CT, 100.0, 1, settings, time_budget
    )


def table8(settings=None, time_budget=600.0) -> ExperimentResult:
    """DCT, R_max=1024, C_T=10 ms, delta=100, alpha=0, gamma=1."""
    return _dct_experiment(
        "Table 8", 1024, LARGE_CT, 100.0, 0, settings, time_budget
    )


#: All six DCT sweeps, keyed by paper table number.
DCT_EXPERIMENTS = {
    3: table3,
    4: table4,
    5: table5,
    6: table6,
    7: table7,
    8: table8,
}
