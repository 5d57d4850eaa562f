"""A problem-specific backtracking solver (extension / ablation backend).

The paper solves the combined problem exclusively through ILP.  As an
ablation, this module solves the *same* constraint-satisfaction question —
"is there an assignment of tasks to at most ``N`` ordered partitions and
design points meeting area, memory and latency budgets?" — with a direct
backtracking search using constraint propagation:

* tasks are assigned in topological order, so the temporal-order
  constraint holds by construction (a task's earliest partition is the
  maximum partition of its predecessors),
* per-partition area, per-boundary memory and per-partition latency are
  maintained incrementally and pruned monotonically: all three can only
  grow as tasks are added, so exceeding a budget prunes the subtree,
* design points are tried smallest-area first (feasibility-friendly),
  partitions earliest first.

``benchmarks/test_ablation_backends.py`` compares this against the ILP
backends; on the paper's instances the CP search is competitive for
feasibility queries but — unlike the ILP — provides no latency lower
bounds, which the iterative procedure does not need.

Note the solver answers the ``<= d_max`` question only; the window's
``d_min`` bound exists in the ILP purely to steer the paper's bisection
bookkeeping and excludes no true design (see DESIGN.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.arch.processor import ReconfigurableProcessor
from repro.core.solution import PartitionedDesign, Placement
from repro.taskgraph.graph import TaskGraph

__all__ = ["CpStats", "cp_solve"]


@dataclass
class CpStats:
    """Search effort counters filled by :func:`cp_solve`."""

    nodes: int = 0
    backtracks: int = 0
    wall_time: float = 0.0
    timed_out: bool = False
    #: The search stopped at ``node_limit`` nodes, not exhaustively.
    node_limited: bool = False


def cp_solve(
    graph: TaskGraph,
    processor: ReconfigurableProcessor,
    num_partitions: int,
    d_max: float,
    include_env_memory: bool = True,
    node_limit: int | None = None,
    time_limit: float | None = None,
    stats: CpStats | None = None,
    tracer=None,
) -> PartitionedDesign | None:
    """First assignment with total latency ``<= d_max``, or ``None``.

    ``d_max`` includes the reconfiguration overhead (``eta * C_T``),
    matching the ILP's equation (9).  ``node_limit`` caps the search
    nodes (``None``: 2,000,000).  ``tracer``
    (:class:`repro.obs.Tracer`) receives periodic ``cp_checkpoint``
    events with the node and backtrack counters.
    """
    if num_partitions < 1:
        raise ValueError("need at least one partition")
    stats = stats if stats is not None else CpStats()
    node_limit = 2_000_000 if node_limit is None else node_limit
    start = time.perf_counter()
    deadline = None if time_limit is None else start + time_limit
    checkpoint_every = 10_000
    next_checkpoint = checkpoint_every

    order = graph.topological_order()
    n = num_partitions
    c_t = processor.reconfiguration_time
    r_max = processor.resource_capacity
    m_max = processor.memory_capacity

    # Mutable search state, undone explicitly on backtrack.
    partition_of: dict[str, int] = {}
    point_of: dict[str, object] = {}
    finish: dict[str, float] = {}          # finish time within own partition
    area = [0.0] * (n + 1)                  # 1-based
    d_p = [0.0] * (n + 1)
    memory = [0.0] * (n + 1)                # occupancy at boundary p
    extra_used: dict[str, list[float]] = {
        kind: [0.0] * (n + 1) for kind, _cap in processor.extra_capacities
    }
    extra_caps = dict(processor.extra_capacities)

    def memory_deltas(name: str, p: int) -> list[tuple[int, float]]:
        """Boundary increments caused by placing ``name`` in ``p``."""
        deltas: list[tuple[int, float]] = []
        for pred in graph.predecessors(name):
            p_src = partition_of[pred]
            volume = graph.data_volume(pred, name)
            if volume and p_src < p:
                for boundary in range(p_src + 1, p + 1):
                    deltas.append((boundary, volume))
        if include_env_memory:
            volume_in = graph.env_input(name)
            if volume_in:
                for boundary in range(1, p + 1):
                    deltas.append((boundary, volume_in))
            volume_out = graph.env_output(name)
            if volume_out:
                for boundary in range(p + 1, n + 1):
                    deltas.append((boundary, volume_out))
        return deltas

    def latency_lower_bound() -> float:
        """Sound bound: current partition latencies can only grow."""
        used = max(partition_of.values(), default=0)
        return sum(d_p[1 : n + 1]) + used * c_t

    def out_of_budget() -> bool:
        if stats.nodes >= node_limit:
            stats.node_limited = True
            return True
        if deadline is not None and time.perf_counter() > deadline:
            stats.timed_out = True
            return True
        return False

    def place(index: int) -> bool:
        nonlocal next_checkpoint
        if index == len(order):
            return True
        if out_of_budget():
            return False
        name = order[index]
        task = graph.task(name)
        earliest = max(
            (partition_of[pred] for pred in graph.predecessors(name)),
            default=1,
        )
        points = sorted(task.design_points, key=lambda dp: (dp.area, dp.latency))
        for p in range(earliest, n + 1):
            deltas = memory_deltas(name, p)
            if any(
                memory[boundary] + volume > m_max + 1e-9
                for boundary, volume in deltas
            ):
                continue
            for point in points:
                if area[p] + point.area > r_max + 1e-9:
                    continue
                if any(
                    extra_used[kind][p] + point.resource_usage(kind)
                    > extra_caps[kind] + 1e-9
                    for kind in extra_used
                ):
                    continue
                stats.nodes += 1
                if tracer is not None and stats.nodes >= next_checkpoint:
                    next_checkpoint += checkpoint_every
                    tracer.event(
                        "cp_checkpoint",
                        nodes=stats.nodes,
                        backtracks=stats.backtracks,
                        depth=index,
                    )
                arrival = max(
                    (
                        finish[pred]
                        for pred in graph.predecessors(name)
                        if partition_of[pred] == p
                    ),
                    default=0.0,
                )
                new_finish = arrival + point.latency
                old_dp = d_p[p]
                # Tentatively apply.
                partition_of[name] = p
                point_of[name] = point
                finish[name] = new_finish
                area[p] += point.area
                for kind in extra_used:
                    extra_used[kind][p] += point.resource_usage(kind)
                d_p[p] = max(d_p[p], new_finish)
                for boundary, volume in deltas:
                    memory[boundary] += volume
                if latency_lower_bound() <= d_max + 1e-9 and place(index + 1):
                    return True
                # Undo.
                stats.backtracks += 1
                for boundary, volume in deltas:
                    memory[boundary] -= volume
                d_p[p] = old_dp
                for kind in extra_used:
                    extra_used[kind][p] -= point.resource_usage(kind)
                area[p] -= point.area
                del finish[name]
                del point_of[name]
                del partition_of[name]
                if out_of_budget():
                    return False
        return False

    found = place(0)
    stats.wall_time = time.perf_counter() - start
    if not found:
        return None
    placements = {
        name: Placement(partition_of[name], point_of[name])
        for name in order
    }
    return PartitionedDesign(graph, placements)
