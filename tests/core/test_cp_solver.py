"""Unit tests for the backtracking (CP) solver."""

import pytest

from repro.arch import ReconfigurableProcessor
from repro.core import CpStats, bounds, cp_solve
from repro.taskgraph import DesignPoint, TaskGraph


def proc(r=400, m=128, c_t=20.0):
    return ReconfigurableProcessor(r, m, c_t)


class TestFeasibility:
    def test_finds_valid_design(self, ar_graph):
        processor = proc()
        d_max = bounds.max_latency(ar_graph, 3, 20.0)
        design = cp_solve(ar_graph, processor, 3, d_max)
        assert design is not None
        assert design.is_valid(processor)
        assert design.total_latency(processor) <= d_max + 1e-6

    def test_respects_d_max(self, ar_graph):
        processor = proc()
        design = cp_solve(ar_graph, processor, 4, 520.0)
        if design is not None:
            assert design.total_latency(processor) <= 520.0 + 1e-6

    def test_infeasible_when_area_too_small(self, ar_graph):
        processor = proc()
        assert cp_solve(ar_graph, processor, 1, 1e9) is None

    def test_infeasible_when_latency_too_tight(self, ar_graph):
        processor = proc()
        # Below MinLatency(3): provably impossible.
        d_min = bounds.min_latency(ar_graph, 3, 20.0)
        assert cp_solve(ar_graph, processor, 3, d_min * 0.5) is None

    def test_memory_constraint_respected(self):
        graph = TaskGraph("mem")
        graph.add_task("p", (DesignPoint(300, 10, name="dp1"),))
        graph.add_task("q", (DesignPoint(300, 10, name="dp1"),))
        graph.add_edge("p", "q", 50)
        tight = ReconfigurableProcessor(400, 10, 10)
        # Splitting is forced by area but forbidden by memory.
        assert cp_solve(graph, tight, 2, 1e9) is None

    def test_env_memory_can_be_excluded(self):
        graph = TaskGraph("env")
        graph.add_task("a", (DesignPoint(300, 10, name="dp1"),))
        graph.add_task("b", (DesignPoint(300, 10, name="dp1"),))
        graph.add_edge("a", "b", 1)
        graph.set_env_input("a", 100)
        processor = ReconfigurableProcessor(400, 5, 10)
        assert cp_solve(graph, processor, 2, 1e9) is None
        relaxed = cp_solve(
            graph, processor, 2, 1e9, include_env_memory=False
        )
        assert relaxed is not None

    def test_invalid_partition_count(self, ar_graph):
        with pytest.raises(ValueError):
            cp_solve(ar_graph, proc(), 0, 1e9)


class TestBudgets:
    def test_stats_populated(self, ar_graph):
        stats = CpStats()
        cp_solve(ar_graph, proc(), 3, 1e9, stats=stats)
        assert stats.nodes > 0
        assert stats.wall_time > 0

    def test_node_limit(self, dct_graph):
        processor = ReconfigurableProcessor(576, 4096, 30)
        stats = CpStats()
        # Tight latency makes the search big; the limit must stop it.
        cp_solve(
            dct_graph, processor, 10, 4000.0, node_limit=500, stats=stats
        )
        assert stats.nodes <= 600

    def test_node_limit_zero_is_a_zero_budget(self, ar_graph):
        stats = CpStats()
        d_max = bounds.max_latency(ar_graph, 3, 20.0)
        design = cp_solve(
            ar_graph, proc(), 3, d_max, node_limit=0, stats=stats
        )
        assert design is None
        assert stats.node_limited
        assert stats.nodes == 0

    def test_time_limit(self, dct_graph):
        processor = ReconfigurableProcessor(576, 4096, 30)
        stats = CpStats()
        cp_solve(
            dct_graph, processor, 10, 4000.0, time_limit=0.2, stats=stats
        )
        assert stats.timed_out
        assert stats.wall_time < 5.0


class TestAgreementWithIlp:
    def test_cp_and_ilp_agree_on_feasibility(self, diamond_graph):
        from repro.core import build_model

        processor = ReconfigurableProcessor(250, 1000, 10)
        for d_max in (80.0, 120.0, 1000.0):
            cp_design = cp_solve(diamond_graph, processor, 3, d_max)
            tp = build_model(diamond_graph, processor, 3, d_max)
            ilp = tp.solve(backend="highs", first_feasible=True)
            assert (cp_design is not None) == ilp.status.has_solution
