"""Regeneration of the paper's figure content.

Figures 1 and 2 are the algorithms themselves (implemented in
:mod:`repro.core.reduce_latency` / ``refine_partitions``); the remaining
figures are worked examples that this module reconstructs as executable
artifacts:

* **Figure 3** — how the ``w`` variables model data transfer across
  partition boundaries: a five-task example is partitioned by hand, the
  analytic boundary occupancy is computed, and the ILP (with the
  assignment pinned) is solved to show its ``w`` variables reproduce the
  same crossings.
* **Figure 4** — per-partition latency: three paths (350/400/150 ns) in
  partition 1 give ``d_1 = 400``; partition 2 holds a 300 ns path.
* **Figures 5 and 6** — the AR-filter and DCT task graphs, exported as
  Graphviz DOT with design-point annotations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.processor import ReconfigurableProcessor
from repro.core.formulation import FormulationOptions, build_model
from repro.core.solution import PartitionedDesign
from repro.report import TextTable
from repro.taskgraph.designpoint import DesignPoint
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.io import to_dot
from repro.taskgraph.library import ar_filter, dct_4x4

__all__ = [
    "Fig3Result",
    "figure3_memory_model",
    "Fig4Result",
    "figure4_partition_latency",
    "figure5_ar_graph",
    "figure6_dct_graph",
]


def _single_point(area: float, latency: float) -> tuple[DesignPoint, ...]:
    return (DesignPoint(area=area, latency=latency, name="dp1"),)


@dataclass
class Fig3Result:
    """Figure 3 reconstruction: crossings analytically and via the ILP."""

    design: PartitionedDesign
    analytic_memory: dict[int, float]       # boundary -> data units
    ilp_w: dict[tuple[int, str, str], float]
    table: TextTable

    @property
    def consistent(self) -> bool:
        """ILP crossings reproduce the analytic boundary occupancy."""
        graph = self.design.graph
        for boundary, expected in self.analytic_memory.items():
            if boundary == 1:
                continue  # no w variables exist for the first partition
            from_w = sum(
                graph.data_volume(src, dst) * value
                for (p, src, dst), value in self.ilp_w.items()
                if p == boundary
            )
            if abs(from_w - expected) > 1e-6:
                return False
        return True


def figure3_memory_model() -> Fig3Result:
    """Rebuild Figure 3's crossing example and check the ``w`` semantics."""
    graph = TaskGraph("fig3")
    for name in ("t1", "t2", "t3", "t4", "t5"):
        graph.add_task(name, _single_point(100, 50))
    graph.add_edge("t1", "t3", 4)
    graph.add_edge("t2", "t3", 6)
    graph.add_edge("t1", "t4", 2)   # crosses two boundaries
    graph.add_edge("t3", "t5", 8)
    graph.add_edge("t4", "t5", 3)

    assignment = {"t1": 1, "t2": 1, "t3": 2, "t4": 3, "t5": 3}
    design = PartitionedDesign.from_labels(
        graph, {name: (p, "dp1") for name, p in assignment.items()}
    )
    analytic = {
        p: design.memory_at_boundary(p, include_env=False)
        for p in range(1, 4)
    }

    # Pin the assignment inside the ILP and read back the w variables.
    processor = ReconfigurableProcessor(
        resource_capacity=300, memory_capacity=64, reconfiguration_time=10
    )
    tp = build_model(
        graph,
        processor,
        num_partitions=3,
        d_max=1e9,
        options=FormulationOptions(two_sided_w=True),
    )
    for name, partition in assignment.items():
        tp.model.add_constr(
            tp.model.variable(f"Y[{name},{partition},1]") >= 1,
            name=f"pin[{name}]",
        )
    solution = tp.solve(backend="highs", first_feasible=True)
    if not solution.status.has_solution:
        raise RuntimeError("figure 3 pinned model unexpectedly infeasible")
    ilp_w = {
        (p, src, dst): solution.values[f"w[{p},{src},{dst}]"]
        for p in (2, 3)
        for src, dst, _v in graph.edges
    }

    table = TextTable(
        title="Figure 3: data transfer across temporal partition boundaries",
        columns=("Boundary p", "Crossing edges", "Memory (units)"),
    )
    for p in range(2, 4):
        crossing = [
            f"{src}->{dst} ({volume:g})"
            for src, dst, volume in graph.edges
            if assignment[src] < p <= assignment[dst]
        ]
        table.add_row(p, ", ".join(crossing), analytic[p])
    return Fig3Result(design, analytic, ilp_w, table)


@dataclass
class Fig4Result:
    """Figure 4 reconstruction: per-partition path latencies."""

    design: PartitionedDesign
    d1: float
    d2: float
    table: TextTable


def figure4_partition_latency() -> Fig4Result:
    """Rebuild Figure 4: d_1 = max(350, 400, 150) = 400, d_2 = 300."""
    graph = TaskGraph("fig4")
    graph.add_task("a1", _single_point(50, 100))
    graph.add_task("a2", _single_point(50, 250))
    graph.add_task("b1", _single_point(50, 150))
    graph.add_task("b2", _single_point(50, 250))
    graph.add_task("c1", _single_point(50, 150))
    graph.add_task("x", _single_point(50, 300))
    graph.add_edge("a1", "a2", 1)
    graph.add_edge("b1", "b2", 1)
    graph.add_edge("a2", "x", 1)
    graph.add_edge("b2", "x", 1)
    graph.add_edge("c1", "x", 1)

    design = PartitionedDesign.from_labels(
        graph,
        {
            "a1": (1, "dp1"),
            "a2": (1, "dp1"),
            "b1": (1, "dp1"),
            "b2": (1, "dp1"),
            "c1": (1, "dp1"),
            "x": (2, "dp1"),
        },
    )
    d1 = design.partition_latency(1)
    d2 = design.partition_latency(2)
    table = TextTable(
        title="Figure 4: latency of a temporal partition = longest mapped path",
        columns=("Partition", "Paths (ns)", "d_p (ns)"),
    )
    table.add_row(1, "a1+a2=350, b1+b2=400, c1=150", d1)
    table.add_row(2, "x=300", d2)
    return Fig4Result(design, d1, d2, table)


def figure5_ar_graph() -> str:
    """Figure 5: the AR-filter task graph as DOT."""
    return to_dot(ar_filter())


def figure6_dct_graph() -> str:
    """Figure 6: the DCT task graph as DOT."""
    return to_dot(dct_4x4())
