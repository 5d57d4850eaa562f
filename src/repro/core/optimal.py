"""Solve the combined problem to proven optimality (the Table 1 oracle).

The paper validates its iterative procedure by solving small instances
(the AR filter) to optimality with CPLEX and showing both latencies agree;
for the DCT the optimal solve "could not get even a single feasible
solution in the same run time".  This module provides that oracle: the
same ILP with the objective ``min sum(d_p) + C_T * eta`` attached, swept
over a range of partition bounds, with per-solve budgets so the DCT-scale
failure mode can be reproduced rather than suffered.

Each bound is one ``gap=0`` minimize window of a :class:`SolveExecutor`,
so the oracle answers the search's model on the scenario's device.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.arch.processor import ReconfigurableProcessor
from repro.core import bounds
from repro.core.families import get_scenario
from repro.core.formulation import FormulationOptions
from repro.core.reduce_latency import SolverSettings
from repro.core.solution import PartitionedDesign
from repro.ilp import SolveStatus
from repro.solve.executor import SolveExecutor, WindowOutcome
from repro.taskgraph.graph import TaskGraph

__all__ = ["OptimalResult", "solve_optimal"]

#: Relative slack between a window's dual bound and its design's
#: latency that still proves the design optimal.  A ``gap=0`` HiGHS
#: solve stops at an absolute gap of 1e-6 (its ``mip_abs_gap``), and the
#: latency is read back from the rounded design, not the objective.
_GAP_TOL = 1e-6


def _settled(record: WindowOutcome) -> bool:
    """Proven empty, or its design's latency meets its dual bound."""
    if record.achieved is None or record.bound is None:
        return record.status is SolveStatus.INFEASIBLE
    slack = _GAP_TOL * max(1.0, record.achieved)
    return record.bound >= record.achieved - slack


@dataclass
class OptimalResult:
    """Best design over all attempted partition bounds, and each bound's
    window record (``attempts``), in order."""

    design: PartitionedDesign | None
    latency: float | None
    attempts: list[WindowOutcome] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.design is not None

    @property
    def proven_optimal(self) -> bool:
        """Every attempted bound is settled (proven empty, or its design
        meets its dual bound): only then is the best-over-N value a true
        optimum for the explored range."""
        return bool(self.attempts) and all(map(_settled, self.attempts))


def solve_optimal(
    graph: TaskGraph,
    processor: ReconfigurableProcessor,
    partition_counts: range | list[int] | None = None,
    options: FormulationOptions | None = None,
    time_limit_per_solve: float | None = 120.0,
    node_limit: int | None = None,
) -> OptimalResult:
    """Minimize total latency exactly, over the given partition bounds.

    When ``partition_counts`` is ``None`` the paper's full explored range
    ``[N_min^l, N_min^u]`` is used.  Each bound gets its own ILP because
    the reconfiguration overhead term ``C_T * eta`` makes solutions at
    different ``N`` directly comparable — the best objective over all
    bounds is the overall optimum.
    """
    opts = replace(options or FormulationOptions(), minimize_latency=True)
    device = get_scenario(opts.scenario).device(processor, opts)
    c_t = device.reconfiguration_time
    if partition_counts is None:
        prange = bounds.partition_range(graph, device)
        partition_counts = range(prange.lower_bound, prange.upper_seed + 1)

    # A greedy design is no optimum, so the fallback stays off.
    executor = SolveExecutor(SolverSettings(
        time_limit=time_limit_per_solve,
        node_limit=node_limit,
        heuristic_fallback=False,
    ))
    result = OptimalResult(design=None, latency=None)
    for n in partition_counts:
        record = executor.solve_window(
            graph, processor, n, bounds.max_latency(graph, n, c_t), 0.0,
            opts, gap=0.0,
        )
        result.attempts.append(record)
        if record.feasible and (
            result.latency is None or record.achieved < result.latency
        ):
            result.design, result.latency = record.design, record.achieved
    return result
