"""Unit tests for the optimality oracle."""

import pytest

from repro.arch import ReconfigurableProcessor
from repro.core import (
    FormulationOptions,
    RefinementConfig,
    SolverSettings,
    refine_partitions_bound,
    solve_optimal,
)
from repro.ilp import SolveStatus
from repro.solve import SolveExecutor


class TestSolveOptimal:
    def test_ar_filter_optimum(self, ar_graph, ar_device):
        result = solve_optimal(ar_graph, ar_device)
        assert result.feasible
        assert result.proven_optimal
        assert result.latency == pytest.approx(510.0)
        assert result.design.is_valid(ar_device)
        assert [a.achieved for a in result.attempts] == pytest.approx(
            [550.0, 510.0]
        )

    def test_iterative_matches_optimal(self, ar_graph, ar_device):
        """The paper's Table 1 claim."""
        iterative = refine_partitions_bound(
            ar_graph,
            ar_device,
            config=RefinementConfig(delta=10.0, gamma=1),
            settings=SolverSettings(time_limit=15.0),
        )
        optimal = solve_optimal(ar_graph, ar_device)
        assert iterative.achieved == pytest.approx(optimal.latency)

    def test_explicit_partition_counts(self, ar_graph, ar_device):
        result = solve_optimal(ar_graph, ar_device, [3])
        assert len(result.attempts) == 1
        assert result.attempts[0].num_partitions == 3

    def test_infeasible_bound_recorded(self, ar_graph, ar_device):
        result = solve_optimal(ar_graph, ar_device, [1])
        assert not result.feasible
        assert result.attempts[0].status is SolveStatus.INFEASIBLE
        # A run whose only attempt is proven infeasible is still "proven".
        assert result.proven_optimal

    def test_best_over_multiple_bounds(self, ar_graph, ar_device):
        result = solve_optimal(ar_graph, ar_device, [3, 4, 5])
        latencies = [
            a.achieved for a in result.attempts if a.achieved is not None
        ]
        assert result.latency == min(latencies)

    def test_node_limit_degrades_gracefully(self, ar_graph, ar_device):
        result = solve_optimal(
            ar_graph, ar_device, [3], node_limit=1
        )
        # Either solved at the root or stopped early; never crashes, and
        # proven_optimal reflects whether the dual bound met the design.
        attempt = result.attempts[0]
        if attempt.bound is not None and attempt.bound == pytest.approx(
            attempt.achieved, rel=1e-6
        ):
            assert result.proven_optimal
        else:
            assert not result.proven_optimal

    def test_large_ct_prefers_fewer_partitions(self, ar_graph):
        processor = ReconfigurableProcessor(400, 128, 1e6)
        result = solve_optimal(ar_graph, processor)
        assert result.design.num_partitions_used == 3  # the minimum

    def test_slot_scenario_answers_the_slot_model(self, ar_graph):
        # Two slots of 400 area units each, one slot's C_T per partition:
        # the slot optimum at N=3 is 520 ns, not the whole-device 440.
        result = solve_optimal(
            ar_graph, ReconfigurableProcessor(800, 256, 20), [3],
            options=FormulationOptions(scenario="slot_coresident"),
        )
        assert result.proven_optimal
        assert result.latency == pytest.approx(520.0)
        design = result.design
        assert all(
            design.partition_area(p) <= 400 for p in design.partitions()
        )

    def test_options_reach_the_executor_whole(
        self, monkeypatch, ar_graph, ar_device
    ):
        seen = []
        template_for = SolveExecutor.template_for

        def recording(self, *args, **kwargs):
            template = template_for(self, *args, **kwargs)
            seen.append(template.options)
            return template

        monkeypatch.setattr(SolveExecutor, "template_for", recording)
        solve_optimal(
            ar_graph, ar_device, [3],
            options=FormulationOptions(symmetry_breaking=True),
        )
        assert seen
        assert all(o.symmetry_breaking and o.minimize_latency for o in seen)
