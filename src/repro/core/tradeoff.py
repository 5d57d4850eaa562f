"""The partition-count/latency trade-off curve (Section 2, quantified).

``Refine_Partitions_Bound`` returns the single best design; this module
maps the whole curve ``N -> best achievable latency at exactly <= N
partitions`` by running the latency refinement independently at each
bound.  The curve is the paper's area-latency trade-off made concrete:

* for small ``C_T`` it typically *decreases* then flattens (more
  partitions buy faster design points until dependencies dominate),
* for large ``C_T`` it *increases* almost linearly (each partition costs
  a reconfiguration), which is why the search collapses to ``N_min^l``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.processor import ReconfigurableProcessor
from repro.core import bounds
from repro.core.families import get_scenario
from repro.core.formulation import FormulationOptions
from repro.core.reduce_latency import SolverSettings, reduce_latency
from repro.core.solution import PartitionedDesign
from repro.report import TextTable
from repro.taskgraph.graph import TaskGraph

__all__ = ["TradeoffPoint", "TradeoffCurve", "partition_latency_curve"]


@dataclass(frozen=True)
class TradeoffPoint:
    """Best-found design at one partition bound."""

    num_partitions: int
    total_latency: float | None
    execution_latency: float | None
    ilp_solves: int

    @property
    def feasible(self) -> bool:
        return self.total_latency is not None


@dataclass
class TradeoffCurve:
    """The N -> latency curve plus the designs behind it."""

    points: list[TradeoffPoint] = field(default_factory=list)
    designs: dict[int, PartitionedDesign] = field(default_factory=dict)

    def best(self) -> TradeoffPoint | None:
        feasible = [p for p in self.points if p.feasible]
        if not feasible:
            return None
        return min(feasible, key=lambda p: p.total_latency)

    def table(self, title: str = "Partition/latency trade-off") -> TextTable:
        table = TextTable(
            title,
            ("N", "total latency (ns)", "execution (ns)", "ILP solves"),
        )
        for point in self.points:
            table.add_row(
                point.num_partitions,
                point.total_latency,
                point.execution_latency,
                point.ilp_solves,
            )
        best = self.best()
        if best is not None:
            table.footer = (
                f"best: {best.total_latency:,.0f} ns at "
                f"N = {best.num_partitions}"
            )
        return table


def partition_latency_curve(
    graph: TaskGraph,
    processor: ReconfigurableProcessor,
    partition_counts: range | list[int] | None = None,
    delta: float | None = None,
    options: FormulationOptions | None = None,
    settings: SolverSettings | None = None,
) -> TradeoffCurve:
    """Best-found latency per partition bound, independently per ``N``.

    Unlike ``Refine_Partitions_Bound`` — which carries the incumbent
    across bounds and stops early — every bound gets the full
    ``Reduce_Latency`` treatment, so the curve is comparable point to
    point (at the cost of more solves).
    """
    settings = settings or SolverSettings(time_limit=15.0)
    options = options or FormulationOptions()
    device = get_scenario(options.scenario).device(processor, options)
    c_t = device.reconfiguration_time
    if partition_counts is None:
        prange = bounds.partition_range(graph, device)
        partition_counts = range(prange.lower_bound, prange.stop + 1)
    curve = TradeoffCurve()
    for n in partition_counts:
        d_max = bounds.max_latency(graph, n, c_t)
        d_min = bounds.min_latency(graph, n, c_t)
        tolerance = delta if delta is not None else 0.02 * d_max
        result = reduce_latency(
            graph, processor, n, d_max, d_min, tolerance,
            options=options, settings=settings,
        )
        if result.feasible:
            curve.designs[n] = result.design
            curve.points.append(
                TradeoffPoint(
                    num_partitions=n,
                    total_latency=result.achieved,
                    execution_latency=result.design.execution_latency(),
                    ilp_solves=len(result.trace),
                )
            )
        else:
            curve.points.append(
                TradeoffPoint(
                    num_partitions=n,
                    total_latency=None,
                    execution_latency=None,
                    ilp_solves=len(result.trace),
                )
            )
    return curve
