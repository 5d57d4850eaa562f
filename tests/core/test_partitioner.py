"""Unit tests for the TemporalPartitioner facade."""

import pytest

from repro import (
    PartitionerConfig,
    PartitionRequest,
    RefinementConfig,
    SolverSettings,
    TemporalPartitioner,
)
from repro.arch import ReconfigurableProcessor, simulate
from repro.taskgraph import DesignPoint, GraphValidationError, TaskGraph


def quick_config(**search_kwargs):
    search_kwargs.setdefault("delta", 10.0)
    return PartitionerConfig(
        search=RefinementConfig(**search_kwargs),
        solver=SolverSettings(time_limit=15.0),
    )


class TestFacade:
    def test_end_to_end_on_ar(self, ar_graph, ar_device):
        partitioner = TemporalPartitioner(ar_device, quick_config(gamma=1))
        outcome = partitioner.solve(PartitionRequest(graph=ar_graph))
        assert outcome.feasible
        assert outcome.num_partitions == outcome.design.num_partitions_used
        assert outcome.execution_latency == pytest.approx(
            outcome.design.execution_latency()
        )
        # The simulator agrees with the reported latency.
        report = simulate(outcome.design, ar_device)
        assert report.makespan == pytest.approx(outcome.total_latency)

    def test_validation_rejects_cyclic_graph(self, ar_device):
        graph = TaskGraph("cyclic")
        graph.add_task("a", (DesignPoint(10, 10),))
        graph.add_task("b", (DesignPoint(10, 10),))
        graph.add_edge("a", "b", 1)
        graph.add_edge("b", "a", 1)
        partitioner = TemporalPartitioner(ar_device, quick_config())
        with pytest.raises(GraphValidationError):
            partitioner.solve(PartitionRequest(graph=graph))

    def test_validation_rejects_oversized_task(self, ar_device):
        graph = TaskGraph("big")
        graph.add_task("huge", (DesignPoint(10_000, 10),))
        partitioner = TemporalPartitioner(ar_device, quick_config())
        with pytest.raises(GraphValidationError):
            partitioner.solve(PartitionRequest(graph=graph))

    def test_validation_can_be_disabled(self, ar_device):
        graph = TaskGraph("big")
        graph.add_task("huge", (DesignPoint(10_000, 10),))
        config = PartitionerConfig(
            search=RefinementConfig(delta=10.0),
            solver=SolverSettings(time_limit=5.0),
            validate=False,
        )
        partitioner = TemporalPartitioner(ar_device, config)
        outcome = partitioner.solve(PartitionRequest(graph=graph))   # no exception
        assert not outcome.feasible

    def test_default_config(self, ar_graph, ar_device):
        partitioner = TemporalPartitioner(ar_device)
        outcome = partitioner.solve(PartitionRequest(graph=ar_graph))
        assert outcome.feasible

    def test_bounds_for(self, ar_graph, ar_device):
        partitioner = TemporalPartitioner(ar_device)
        d_max, d_min = partitioner.bounds_for(ar_graph, 3)
        assert d_max > d_min > 0

    def test_outcome_carries_partition_range(self, ar_graph, ar_device):
        partitioner = TemporalPartitioner(ar_device, quick_config(gamma=1))
        outcome = partitioner.solve(PartitionRequest(graph=ar_graph))
        assert outcome.partition_range.lower_bound == 3
        assert outcome.partition_range.upper_seed == 4

    def test_infeasible_outcome_accessors(self, ar_device):
        graph = TaskGraph("stuck")
        graph.add_task("a", (DesignPoint(300, 10),))
        graph.add_task("b", (DesignPoint(300, 10),))
        graph.add_edge("a", "b", 9999)   # cannot cross: memory is 128
        config = quick_config()
        partitioner = TemporalPartitioner(
            ReconfigurableProcessor(400, 128, 20), config
        )
        outcome = partitioner.solve(PartitionRequest(graph=graph))
        assert not outcome.feasible
        assert outcome.num_partitions is None
        assert outcome.execution_latency is None
