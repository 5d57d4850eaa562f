#!/usr/bin/env python3
"""When on-board memory is the binding constraint.

Unlike classic resource-constrained scheduling, the paper's formulation
carries an explicit memory constraint: every value crossing a temporal
partition boundary occupies on-board memory until consumed.  This example
builds a fork-join graph with heavy inter-task traffic and shrinks
``M_max`` until partitioning must *co-locate* communicating tasks, then
until the problem becomes infeasible.

Run with::

    python examples/memory_constrained.py
"""

from repro import (
    PartitionerConfig,
    PartitionRequest,
    RefinementConfig,
    SolverSettings,
    TemporalPartitioner,
)
from repro.arch import ReconfigurableProcessor
from repro.experiments import TextTable
from repro.taskgraph import fork_join_graph

def main() -> None:
    graph = fork_join_graph(branches=3, branch_length=2, seed=3, max_volume=40)
    print(f"workload: {graph.name} ({len(graph)} tasks, {graph.num_edges} edges)")
    traffic = sum(volume for _s, _d, volume in graph.edges)
    print(f"total inter-task traffic: {traffic:g} units\n")

    table = TextTable(
        title="Effect of the memory budget M_max",
        columns=("M_max", "feasible", "N", "latency (ns)", "peak memory"),
    )
    for m_max in (4096, 256, 128, 64, 32, 8):
        processor = ReconfigurableProcessor(
            resource_capacity=600,
            memory_capacity=m_max,
            reconfiguration_time=50.0,
            name=f"m{m_max}",
        )
        partitioner = TemporalPartitioner(
            processor,
            PartitionerConfig(
                search=RefinementConfig(gamma=2, delta_fraction=0.05,
                                        time_budget=60.0),
                solver=SolverSettings(time_limit=10.0),
            ),
        )
        outcome = partitioner.solve(PartitionRequest(graph=graph))
        if outcome.feasible:
            table.add_row(
                m_max,
                True,
                outcome.num_partitions,
                outcome.total_latency,
                outcome.design.peak_memory(),
            )
        else:
            table.add_row(m_max, False, None, None, None)
    print(table.render())
    print(
        "\nAs M_max shrinks the partitioner co-locates communicating "
        "tasks (peak memory\ntracks the budget) until no partitioning "
        "fits and the search reports infeasible."
    )

if __name__ == "__main__":
    main()
