"""Integration tests: full pipeline, HLS -> graph -> partition -> replay."""

import pytest

from repro import (
    PartitionerConfig,
    PartitionRequest,
    RefinementConfig,
    SolverSettings,
    TemporalPartitioner,
)
from repro.arch import ReconfigurableProcessor, simulate, time_multiplexed
from repro.core import greedy_partition, solve_optimal
from repro.hls import estimate_task, vector_product_dfg
from repro.taskgraph import TaskGraph, layered_graph, load_json, save_json


def quick(processor, **search):
    search.setdefault("delta_fraction", 0.05)
    search.setdefault("time_budget", 60.0)
    return TemporalPartitioner(
        processor,
        PartitionerConfig(
            search=RefinementConfig(**search),
            solver=SolverSettings(time_limit=15.0),
        ),
    )


class TestHlsToPartition:
    def test_estimated_pipeline_partitions_and_replays(self):
        graph = TaskGraph("mini_pipeline")
        estimate_task(graph, "front", vector_product_dfg(3))
        estimate_task(graph, "mid", vector_product_dfg(4))
        estimate_task(graph, "back", vector_product_dfg(3, data_width=12))
        graph.add_edge("front", "mid", 4)
        graph.add_edge("mid", "back", 4)
        graph.set_env_input("front", 8)
        graph.set_env_output("back", 4)

        processor = time_multiplexed(
            resource_capacity=220, memory_capacity=64
        )
        outcome = quick(processor, gamma=1).solve(PartitionRequest(graph=graph))
        assert outcome.feasible
        assert outcome.design.audit(processor) == []
        report = simulate(outcome.design, processor)
        assert report.makespan == pytest.approx(outcome.total_latency)


class TestSerializedWorkflow:
    def test_partition_graph_loaded_from_json(self, tmp_path, ar_graph,
                                              ar_device):
        path = tmp_path / "ar.json"
        save_json(ar_graph, path)
        loaded = load_json(path)
        outcome = quick(ar_device, delta=10.0, gamma=1).solve(PartitionRequest(graph=loaded))
        assert outcome.feasible
        assert outcome.total_latency == pytest.approx(510.0)


class TestIlpBeatsGreedy:
    def test_ilp_never_worse_than_greedy_baselines(self, ar_graph,
                                                   ar_device):
        outcome = quick(ar_device, delta=10.0, gamma=1).solve(PartitionRequest(graph=ar_graph))
        for policy in ("min_area", "balanced", "min_latency"):
            result = greedy_partition(ar_graph, ar_device, policy)
            if result.memory_feasible:
                greedy_latency = result.design.total_latency(ar_device)
                assert outcome.total_latency <= greedy_latency + 1e-6

    def test_ilp_matches_oracle_on_synthetic_graph(self):
        graph = layered_graph(2, 2, seed=11)
        processor = ReconfigurableProcessor(700, 512, 40)
        outcome = quick(processor, gamma=2, delta=5.0).solve(PartitionRequest(graph=graph))
        oracle = solve_optimal(graph, processor, time_limit_per_solve=60.0)
        assert outcome.feasible and oracle.feasible
        if oracle.proven_optimal:
            # delta=5 on latencies of hundreds: near-exact convergence.
            assert outcome.total_latency <= oracle.latency + 5.0 + 1e-6


class TestReconfigurationRegimes:
    def test_large_ct_uses_fewer_partitions_than_small_ct(self):
        graph = layered_graph(3, 2, seed=5)
        base = ReconfigurableProcessor(500, 512, 0.0)
        small = quick(base.with_reconfiguration_time(1.0), gamma=2)
        large = quick(base.with_reconfiguration_time(1e6), gamma=2)
        small_outcome = small.solve(PartitionRequest(graph=graph))
        large_outcome = large.solve(PartitionRequest(graph=graph))
        assert small_outcome.feasible and large_outcome.feasible
        assert (
            large_outcome.num_partitions <= small_outcome.num_partitions
        ) or large_outcome.total_latency < small_outcome.total_latency
