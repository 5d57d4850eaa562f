"""Failure injection: malformed inputs and hostile budgets.

Every failure mode must surface as a typed exception or a clean
infeasible/limited outcome — never a crash or a silently wrong answer.
"""

import pytest

from repro import (
    PartitionerConfig,
    PartitionRequest,
    RefinementConfig,
    SolverSettings,
    TemporalPartitioner,
)
from repro.arch import ReconfigurableProcessor
from repro.core import SolverSettings as CoreSolverSettings
from repro.core import bounds, reduce_latency
from repro.ilp import SolveStatus
from repro.taskgraph import (
    DesignPoint,
    GraphValidationError,
    TaskGraph,
    dct_4x4,
)


def device(r=400, m=128, c_t=20.0):
    return ReconfigurableProcessor(r, m, c_t)


class TestHostileGraphs:
    def test_cyclic_graph_rejected_before_solving(self):
        graph = TaskGraph("cycle")
        graph.add_task("a", (DesignPoint(10, 10),))
        graph.add_task("b", (DesignPoint(10, 10),))
        graph.add_edge("a", "b", 1)
        graph.add_edge("b", "a", 1)
        with pytest.raises(GraphValidationError):
            TemporalPartitioner(device()).solve(PartitionRequest(graph=graph))

    def test_task_larger_than_any_device(self):
        graph = TaskGraph("giant")
        graph.add_task("g", (DesignPoint(10_000, 10),))
        with pytest.raises(GraphValidationError) as err:
            TemporalPartitioner(device()).solve(PartitionRequest(graph=graph))
        assert "exceeds the device capacity" in str(err.value)

    def test_disconnected_components_still_partition(self):
        graph = TaskGraph("islands")
        for i in range(4):
            graph.add_task(f"t{i}", (DesignPoint(100, 10, name="dp1"),))
        graph.add_edge("t0", "t1", 1)
        graph.add_edge("t2", "t3", 1)
        graph.set_env_input("t0", 1)
        graph.set_env_input("t2", 1)
        outcome = TemporalPartitioner(
            device(),
            PartitionerConfig(
                search=RefinementConfig(delta=10.0),
                solver=SolverSettings(time_limit=15.0),
            ),
        ).solve(PartitionRequest(graph=graph))
        assert outcome.feasible

    def test_single_task_graph(self):
        graph = TaskGraph("solo")
        graph.add_task("only", (DesignPoint(100, 42, name="dp1"),))
        outcome = TemporalPartitioner(device()).solve(PartitionRequest(graph=graph))
        assert outcome.feasible
        assert outcome.num_partitions == 1
        assert outcome.total_latency == pytest.approx(42 + 20)


class TestHostileBudgets:
    def test_memory_zero_forces_single_partition_or_infeasible(self):
        graph = TaskGraph("mem0")
        graph.add_task("a", (DesignPoint(100, 10, name="dp1"),))
        graph.add_task("b", (DesignPoint(100, 10, name="dp1"),))
        graph.add_edge("a", "b", 5)
        processor = ReconfigurableProcessor(250, 0, 10)
        outcome = TemporalPartitioner(
            processor,
            PartitionerConfig(
                search=RefinementConfig(delta=5.0),
                solver=SolverSettings(time_limit=10.0),
            ),
        ).solve(PartitionRequest(graph=graph))
        # Both tasks fit one partition: feasible with zero memory.
        assert outcome.feasible
        assert outcome.num_partitions == 1

    def test_zero_time_budget_returns_cleanly(self, ar_graph):
        outcome = TemporalPartitioner(
            device(),
            PartitionerConfig(
                search=RefinementConfig(delta=10.0, time_budget=0.0),
            ),
        ).solve(PartitionRequest(graph=ar_graph))
        # Either it squeezed one solve in or it reports the stop cleanly.
        assert outcome.feasible or outcome.stopped_by_time

    def test_tiny_solver_time_limit_degrades_to_heuristic(self):
        graph = dct_4x4()
        processor = ReconfigurableProcessor(576, 2048, 30)
        d_max = bounds.max_latency(graph, 8, 30)
        d_min = bounds.min_latency(graph, 8, 30)
        result = reduce_latency(
            graph, processor, 8, d_max, d_min, delta=200.0,
            settings=CoreSolverSettings(
                time_limit=1e-3, use_lp_bound=False
            ),
        )
        # The budget is too small for any backend, but the executor falls
        # back to the greedy heuristics: a valid design, flagged degraded.
        assert result.feasible
        assert result.degraded
        assert result.design.audit(processor) == []

    def test_tiny_time_limit_without_fallback_is_infeasible(self):
        graph = dct_4x4()
        processor = ReconfigurableProcessor(576, 2048, 30)
        d_max = bounds.max_latency(graph, 8, 30)
        d_min = bounds.min_latency(graph, 8, 30)
        result = reduce_latency(
            graph, processor, 8, d_max, d_min, delta=200.0,
            settings=CoreSolverSettings(
                time_limit=1e-3, use_lp_bound=False,
                heuristic_fallback=False,
            ),
        )
        # Opting out of the fallback restores the paper's pragmatic
        # convention: a timed-out window counts as infeasible.
        assert not result.feasible

    def test_solver_statuses_on_budget_exhaustion(self):
        from repro.core import build_model

        graph = dct_4x4()
        processor = ReconfigurableProcessor(576, 2048, 30)
        tp = build_model(
            graph, processor, 8, bounds.max_latency(graph, 8, 30)
        )
        solution = tp.solve(backend="highs", time_limit=1e-3)
        assert solution.status in (
            SolveStatus.TIME_LIMIT,
            SolveStatus.FEASIBLE,
            SolveStatus.NODE_LIMIT,
        )


class TestDesignPointEdgeCases:
    def test_identical_design_points(self):
        graph = TaskGraph("dup")
        graph.add_task(
            "a",
            (
                DesignPoint(100, 10, name="dp1"),
                DesignPoint(100, 10, name="dp2"),
            ),
        )
        outcome = TemporalPartitioner(device()).solve(PartitionRequest(graph=graph))
        assert outcome.feasible

    def test_extreme_area_latency_ratio(self):
        graph = TaskGraph("extreme")
        graph.add_task(
            "a",
            (
                DesignPoint(1, 1e9, name="tiny_slow"),
                DesignPoint(399, 1e-3, name="big_fast"),
            ),
        )
        outcome = TemporalPartitioner(device()).solve(PartitionRequest(graph=graph))
        assert outcome.feasible
        # The fast point wins: reconfiguration (20) dominates latency.
        assert outcome.design.design_point_of("a").name == "big_fast"
