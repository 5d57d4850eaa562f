"""Parameter sweeps: the paper's Section 2 motivating experiment.

The area-latency trade-off argument of Section 2: with a reconfiguration
time far above task latencies, minimizing the number of temporal
partitions minimizes overall latency; with a tiny one, *increasing* the
partition count can win because larger (faster) design points fit.
:func:`reconfiguration_sweep` runs the combined search across a range of
``C_T`` values and reports the chosen partition counts and latencies, so
the crossover is measurable instead of anecdotal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.processor import ReconfigurableProcessor
from repro.core import (
    FormulationOptions,
    RefinementConfig,
    SolverSettings,
    refine_partitions_bound,
)
from repro.core.heuristics import greedy_partition
from repro.report import TextTable
from repro.taskgraph.graph import TaskGraph

__all__ = ["SweepPoint", "reconfiguration_sweep", "sweep_table"]


@dataclass(frozen=True)
class SweepPoint:
    """Result of the search at one reconfiguration time."""

    reconfiguration_time: float
    partitions: int | None
    total_latency: float | None
    execution_latency: float | None
    greedy_partitions: int
    greedy_latency: float


def reconfiguration_sweep(
    graph: TaskGraph,
    base_processor: ReconfigurableProcessor,
    reconfiguration_times: tuple[float, ...],
    config: RefinementConfig | None = None,
    settings: SolverSettings | None = None,
    options: FormulationOptions | None = None,
) -> list[SweepPoint]:
    """Run the combined search at each ``C_T`` and collect the outcomes.

    The greedy min-area baseline is evaluated alongside: its partition
    count is ``C_T``-independent, which is exactly why it loses at the
    extremes.
    """
    config = config or RefinementConfig(gamma=1, delta_fraction=0.03)
    settings = settings or SolverSettings(time_limit=15.0)
    points: list[SweepPoint] = []
    for c_t in reconfiguration_times:
        processor = base_processor.with_reconfiguration_time(c_t)
        result = refine_partitions_bound(
            graph, processor, config=config, settings=settings,
            options=options,
        )
        greedy = greedy_partition(graph, processor, "min_area").design
        points.append(
            SweepPoint(
                reconfiguration_time=c_t,
                partitions=(
                    None
                    if result.design is None
                    else result.design.num_partitions_used
                ),
                total_latency=result.achieved,
                execution_latency=(
                    None
                    if result.design is None
                    else result.design.execution_latency()
                ),
                greedy_partitions=greedy.num_partitions_used,
                greedy_latency=greedy.total_latency(processor),
            )
        )
    return points


def sweep_table(points: list[SweepPoint], title: str) -> TextTable:
    """Render sweep results in the crossover-study format."""
    table = TextTable(
        title,
        (
            "C_T (ns)",
            "ILP N",
            "ILP latency (ns)",
            "ILP exec (ns)",
            "greedy N",
            "greedy latency (ns)",
        ),
    )
    for point in points:
        table.add_row(
            point.reconfiguration_time,
            point.partitions,
            point.total_latency,
            point.execution_latency,
            point.greedy_partitions,
            point.greedy_latency,
        )
    return table
