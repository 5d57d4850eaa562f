#!/usr/bin/env python3
"""Diagnosing infeasible partitioning problems.

A partitioning request can fail for very different reasons — too little
area per configuration, a memory budget that cannot hold the crossing
data, a latency window below physics, or pure packing fragmentation.
``repro.core.diagnose_infeasibility`` tells them apart by relaxation
probing.  This example walks through all four.  It diagnoses only a
window the solver proved empty: one that timed out has no cause to find.

Run with::

    python examples/diagnose_infeasible.py
"""

from repro.arch import ReconfigurableProcessor
from repro.core import SolverSettings, build_model, diagnose_infeasibility
from repro.core.bounds import max_latency
from repro.ilp import SolveStatus
from repro.solve import SolveExecutor
from repro.taskgraph import DesignPoint, TaskGraph

def show(title, graph, processor, partitions, d_max):
    record = SolveExecutor(SolverSettings(time_limit=20)).solve_window(
        graph, processor, partitions, d_max, 0.0
    )
    print(f"--- {title}")
    print(f"    N={partitions}, R_max={processor.resource_capacity:g}, "
          f"M_max={processor.memory_capacity:g}, d_max={d_max:g}")
    if record.feasible:
        print(f"    feasible: latency {record.achieved:,.0f} ns\n")
        return
    if record.status is not SolveStatus.INFEASIBLE:
        # A window that timed out is not proven empty: nothing to diagnose.
        print(f"    unknown: no verdict within 20 s ({record.status.value})\n")
        return
    report = diagnose_infeasibility(
        build_model(graph, processor, partitions, d_max)
    )
    print(f"    infeasible -> {report.message}")
    for family, restored in sorted(report.detail.items()):
        print(f"      {family:<16}{'CULPRIT' if restored else 'ok'}")
    print()

def chain(area, volume=5, env_in=0.0):
    graph = TaskGraph("chain")
    graph.add_task("a", (DesignPoint(area, 100, name="dp1"),))
    graph.add_task("b", (DesignPoint(area, 100, name="dp1"),))
    graph.add_edge("a", "b", volume)
    if env_in:
        graph.set_env_input("a", env_in)
    return graph

def main() -> None:
    # 1. Area: two 300-unit tasks on a 400-unit device, one partition.
    show("not enough area in one configuration",
         chain(300), ReconfigurableProcessor(400, 1000, 10), 1, 1e9)

    # 2. Latency: the window is below the 210 ns minimum.
    show("latency window below the critical path",
         chain(100), ReconfigurableProcessor(400, 1000, 10), 1, 50.0)

    # 3. Memory: host input alone exceeds M_max.
    show("environment data exceeds on-board memory",
         chain(100, env_in=500),
         ReconfigurableProcessor(400, 50, 10), 2,
         max_latency(chain(100, env_in=500), 2, 10))

    # 4. Fragmentation: three 200-unit tasks, two 390-unit partitions.
    graph = TaskGraph("frag")
    prev = None
    for i in range(3):
        graph.add_task(f"t{i}", (DesignPoint(200, 10, name="dp1"),))
        if prev:
            graph.add_edge(prev, f"t{i}", 1)
        prev = f"t{i}"
    show("packing fragmentation (LP feasible, ILP not)",
         graph, ReconfigurableProcessor(390, 1000, 10), 2,
         max_latency(graph, 2, 10))

if __name__ == "__main__":
    main()
