"""The workflows documented in docs/cookbook.md must keep working.

Each test is a (budget-trimmed) executable version of one cookbook
recipe; if a recipe's API drifts, this file fails before a user does.
"""

import pytest

from repro import (
    PartitionerConfig,
    PartitionRequest,
    RefinementConfig,
    SolverSettings,
    TemporalPartitioner,
)
from repro.arch import ReconfigurableProcessor, simulate
from repro.core import (
    build_model,
    diagnose_infeasibility,
    utilization_report,
)
from repro.hls import estimate_task, vector_product_dfg
from repro.ilp import lp_string
from repro.taskgraph import DesignPoint, TaskGraph, cluster_chains


@pytest.fixture
def device():
    return ReconfigurableProcessor(
        resource_capacity=512, memory_capacity=256,
        reconfiguration_time=50.0,
    )


@pytest.fixture
def fft_graph():
    graph = TaskGraph("my_design")
    graph.add_task("fft", (
        DesignPoint(area=220, latency=900, name="serial"),
        DesignPoint(area=410, latency=480, name="radix4"),
    ))
    graph.add_task("eq", (DesignPoint(area=150, latency=300, name="only"),))
    graph.add_edge("fft", "eq", data_units=64)
    graph.set_env_input("fft", 64)
    graph.set_env_output("eq", 64)
    return graph


def partitioner_for(device):
    return TemporalPartitioner(
        device,
        PartitionerConfig(
            search=RefinementConfig(gamma=1, delta=25.0, time_budget=60.0),
            solver=SolverSettings(time_limit=15.0),
        ),
    )


class TestCookbookRecipes:
    def test_partition_hand_written_tables(self, device, fft_graph):
        outcome = partitioner_for(device).solve(PartitionRequest(graph=fft_graph))
        assert outcome.feasible
        assert "partition" in outcome.design.summary(device)

    def test_hls_derived_design_points(self):
        graph = TaskGraph("from_hls")
        estimate_task(graph, "dot", vector_product_dfg(8, data_width=12))
        points = graph.task("dot").design_points
        assert len(points) >= 2

    def test_diagnose_recipe(self, fft_graph, device):
        tp = build_model(fft_graph, device, num_partitions=1, d_max=100.0)
        solution = tp.solve(first_feasible=True)
        assert not solution.status.has_solution
        message = diagnose_infeasibility(tp).message
        assert message

    def test_cluster_and_expand_recipe(self, device, fft_graph):
        clustering = cluster_chains(fft_graph)
        outcome = partitioner_for(device).solve(
            PartitionRequest(graph=clustering.graph)
        )
        assert outcome.feasible
        design = clustering.expand(outcome.design)
        assert set(design.placements) == {"fft", "eq"}
        assert design.audit(device) == []

    def test_trace_and_chart_recipe(self, device, fft_graph):
        outcome = partitioner_for(device).solve(PartitionRequest(graph=fft_graph))
        rows = [
            record.row(device.reconfiguration_time)
            for record in outcome.trace
        ]
        assert rows
        assert "|" in outcome.trace.convergence_chart()

    def test_audit_and_replay_recipe(self, device, fft_graph):
        outcome = partitioner_for(device).solve(PartitionRequest(graph=fft_graph))
        assert outcome.design.audit(device) == []
        report = simulate(outcome.design, device)
        assert abs(report.makespan - outcome.total_latency) < 1e-9
        table = utilization_report(outcome.design, device).table()
        assert "Partition utilization" in table.render()

    def test_lp_export_recipe(self, device, fft_graph, tmp_path):
        tp = build_model(fft_graph, device, num_partitions=2, d_max=5_000.0)
        text = lp_string(tp.model)
        assert text.startswith("\\ Model:")
        path = tmp_path / "model.lp"
        path.write_text(text)
        assert path.stat().st_size > 100
