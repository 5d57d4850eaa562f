"""Unit tests for PartitionedDesign: latency, memory, audit."""

import pytest

from repro.arch import ReconfigurableProcessor
from repro.core import PartitionedDesign, Placement
from repro.taskgraph import DesignPoint, TaskGraph


def proc(r=1000, m=1000, c_t=10.0):
    return ReconfigurableProcessor(r, m, c_t)


def fig4_graph():
    """The Figure 4 example: three paths in partition 1, one in 2."""
    graph = TaskGraph("fig4")
    latencies = {"a1": 100, "a2": 250, "b1": 150, "b2": 250, "c1": 150,
                 "x": 300}
    for name, latency in latencies.items():
        graph.add_task(name, (DesignPoint(50, latency, name="dp1"),))
    graph.add_edge("a1", "a2", 1)
    graph.add_edge("b1", "b2", 1)
    graph.add_edge("a2", "x", 1)
    graph.add_edge("b2", "x", 1)
    graph.add_edge("c1", "x", 1)
    return graph


def fig4_design():
    graph = fig4_graph()
    assignment = {n: (1, "dp1") for n in ("a1", "a2", "b1", "b2", "c1")}
    assignment["x"] = (2, "dp1")
    return PartitionedDesign.from_labels(graph, assignment)


class TestConstruction:
    def test_missing_placement_rejected(self):
        graph = fig4_graph()
        with pytest.raises(ValueError):
            PartitionedDesign(graph, {})

    def test_unknown_task_rejected(self):
        graph = fig4_graph()
        placements = {
            t.name: Placement(1, t.design_points[0]) for t in graph
        }
        placements["ghost"] = Placement(1, graph.task("x").design_points[0])
        with pytest.raises(ValueError):
            PartitionedDesign(graph, placements)

    def test_partition_indices_one_based(self):
        with pytest.raises(ValueError):
            Placement(0, DesignPoint(1, 1))

    def test_round_trip_via_labels(self):
        design = fig4_design()
        assignment = design.as_assignment()
        rebuilt = PartitionedDesign.from_labels(design.graph, assignment)
        assert rebuilt.as_assignment() == assignment

    def test_equality_is_by_placement_on_the_same_graph(self):
        design = fig4_design()
        rebuilt = PartitionedDesign.from_labels(
            design.graph, design.as_assignment()
        )
        assert rebuilt == design
        moved = dict(design.placements)
        moved["x"] = Placement(3, design.design_point_of("x"))
        assert PartitionedDesign(design.graph, moved) != design
        # Another graph object with the same tasks is another design.
        assert fig4_design() != design
        with pytest.raises(TypeError):
            hash(design)


class TestLatency:
    def test_figure4_partition_latencies(self):
        design = fig4_design()
        assert design.partition_latency(1) == pytest.approx(400.0)
        assert design.partition_latency(2) == pytest.approx(300.0)

    def test_empty_partition_zero_latency(self):
        design = fig4_design()
        assert design.partition_latency(7) == 0.0

    def test_execution_and_total(self):
        design = fig4_design()
        assert design.execution_latency() == pytest.approx(700.0)
        assert design.total_latency(proc(c_t=10)) == pytest.approx(720.0)

    def test_eta(self):
        design = fig4_design()
        assert design.num_partitions_used == 2
        assert design.partitions() == (1, 2)

    def test_compacted_renumbers(self):
        graph = fig4_graph()
        assignment = {n: (2, "dp1") for n in ("a1", "a2", "b1", "b2", "c1")}
        assignment["x"] = (5, "dp1")
        design = PartitionedDesign.from_labels(graph, assignment)
        compact = design.compacted()
        assert compact.partitions() == (1, 2)
        assert compact.partition_of("x") == 2


class TestMemory:
    def test_boundary_occupancy_counts_span(self):
        graph = TaskGraph("span")
        for name in ("p", "q", "r"):
            graph.add_task(name, (DesignPoint(10, 10, name="dp1"),))
        graph.add_edge("p", "r", 5)   # spans partitions 1 -> 3
        graph.add_edge("p", "q", 3)
        design = PartitionedDesign.from_labels(
            graph, {"p": (1, "dp1"), "q": (2, "dp1"), "r": (3, "dp1")}
        )
        assert design.memory_at_boundary(2, include_env=False) == 8
        assert design.memory_at_boundary(3, include_env=False) == 5

    def test_env_terms(self):
        graph = TaskGraph("env")
        graph.add_task("a", (DesignPoint(10, 10, name="dp1"),))
        graph.add_task("b", (DesignPoint(10, 10, name="dp1"),))
        graph.add_edge("a", "b", 0)
        graph.set_env_input("b", 7)
        graph.set_env_output("a", 2)
        design = PartitionedDesign.from_labels(
            graph, {"a": (1, "dp1"), "b": (2, "dp1")}
        )
        # Boundary 1: b's input waits (7); a has not produced yet.
        assert design.memory_at_boundary(1) == 7
        # Boundary 2: b's input still waiting + a's output buffered.
        assert design.memory_at_boundary(2) == 9
        assert design.memory_at_boundary(2, include_env=False) == 0

    def test_peak_memory(self):
        design = fig4_design()
        assert design.peak_memory(include_env=False) == 3.0


class TestAudit:
    def test_valid_design_passes(self):
        assert fig4_design().audit(proc()) == []

    def test_order_violation_detected(self):
        graph = fig4_graph()
        assignment = {n: (2, "dp1") for n in ("a1", "a2", "b1", "b2", "c1")}
        assignment["x"] = (1, "dp1")    # consumer before producers
        design = PartitionedDesign.from_labels(graph, assignment)
        violations = design.audit(proc())
        assert any(v.kind == "order" for v in violations)

    def test_resource_violation_detected(self):
        design = fig4_design()
        tiny = proc(r=100)
        violations = design.audit(tiny)
        assert any(v.kind == "resource" for v in violations)

    def test_memory_violation_detected(self):
        design = fig4_design()
        tiny = proc(m=1)
        violations = design.audit(tiny)
        assert any(v.kind == "memory" for v in violations)

    def test_foreign_design_point_detected(self):
        graph = fig4_graph()
        placements = {
            t.name: Placement(1, t.design_points[0]) for t in graph
        }
        placements["x"] = Placement(2, DesignPoint(1, 1, name="alien"))
        design = PartitionedDesign(graph, placements)
        violations = design.audit(proc())
        assert any(v.kind == "structure" for v in violations)

    def test_is_valid_helper(self):
        assert fig4_design().is_valid(proc())
        assert not fig4_design().is_valid(proc(r=100))


class TestSummary:
    def test_summary_mentions_partitions_and_latency(self):
        text = fig4_design().summary(proc())
        assert "partition 1" in text
        assert "partition 2" in text
        assert "total latency" in text
