"""Budget-exhaustion behaviour of the from-scratch solvers."""

import numpy as np
import pytest

from repro.ilp import Model, SolveStatus
from repro.ilp.simplex import solve_lp


def big_knapsack(n=18):
    m = Model("bigks")
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    weights = [3 + (i * 7) % 11 for i in range(n)]
    values = [5 + (i * 5) % 13 for i in range(n)]
    m.add_constr(sum(w * x for w, x in zip(weights, xs)) <= 40)
    m.set_objective(-sum(v * x for v, x in zip(values, xs)))
    return m


class TestBnbLimits:
    def test_node_limit_with_incumbent_reports_feasible(self):
        m = big_knapsack()
        solution = m.solve(backend="bnb", node_limit=30)
        # The diving heuristic finds an incumbent quickly, so a truncated
        # search still returns something usable.
        if solution.status.has_solution:
            assert solution.status is SolveStatus.FEASIBLE
            assert m.check_point(solution.values) == []
        else:
            assert solution.status is SolveStatus.NODE_LIMIT

    @pytest.mark.parametrize("backend", ["highs", "bnb"])
    def test_node_limit_zero_is_a_zero_budget(self, backend):
        # 0 caps the search at no nodes, as HiGHS reads it; only None
        # selects a backend's default limit.
        solution = big_knapsack(12).solve(backend=backend, node_limit=0)
        assert solution.status is SolveStatus.NODE_LIMIT
        assert solution.iterations == 0

    def test_time_limit_zero(self):
        m = big_knapsack()
        solution = m.solve(backend="bnb", time_limit=0.0)
        assert solution.status in (
            SolveStatus.TIME_LIMIT,
            SolveStatus.FEASIBLE,
        )

    def test_bound_gap_sane_on_truncated_search(self):
        m = big_knapsack()
        solution = m.solve(backend="bnb", node_limit=50)
        if solution.status.has_solution and solution.bound is not None:
            assert solution.bound <= solution.objective + 1e-6


class TestSimplexLimits:
    def test_iteration_limit_reports_error(self):
        n = 12
        rng = np.random.default_rng(3)
        a_ub = rng.uniform(0, 1, size=(20, n))
        b_ub = rng.uniform(5, 10, size=20)
        c = rng.uniform(-1, 1, size=n)
        result = solve_lp(
            c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0),
            np.zeros(n), np.full(n, 10.0),
            max_iters=1,
        )
        assert result.status in (SolveStatus.ERROR, SolveStatus.OPTIMAL)

    def test_time_limit_respected(self):
        n = 30
        rng = np.random.default_rng(4)
        a_ub = rng.uniform(0, 1, size=(60, n))
        b_ub = rng.uniform(5, 10, size=60)
        c = rng.uniform(-1, 1, size=n)
        result = solve_lp(
            c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0),
            np.zeros(n), np.full(n, 10.0),
            time_limit=0.0,
        )
        assert result.status is SolveStatus.TIME_LIMIT


class TestHighsLimits:
    def test_node_limit_reaches_every_milp_call(self):
        # scipy's milp pops ``node_limit`` out of the options it is
        # handed, and HiGHS reports a node-limit stop with the code of a
        # solve error; the no-presolve retry used to run unlimited.
        from repro.arch import ReconfigurableProcessor
        from repro.core.formulation import FormulationOptions, ModelTemplate
        from repro.taskgraph import generators

        graph = generators.fork_join_graph(
            branches=3, branch_length=2, seed=5
        )
        template = ModelTemplate(
            graph,
            ReconfigurableProcessor(400.0, 128.0, 20.0),
            6,
            FormulationOptions(minimize_latency=True, symmetry_breaking=True),
        )
        model = template.instantiate(560.0, 600.0)
        solution = model.solve(
            backend="highs", first_feasible=True, node_limit=1,
            time_limit=60.0,
        )
        assert solution.iterations <= 1
        assert solution.status in (SolveStatus.NODE_LIMIT, SolveStatus.FEASIBLE)

    def test_bound_includes_the_objective_constant(self):
        m = Model("shifted")
        x = m.add_integer("x", lb=0, ub=10)
        y = m.add_integer("y", lb=0, ub=10)
        m.add_constr(2 * x + 3 * y >= 7)
        m.set_objective(x + y + 100)
        solution = m.solve(backend="highs")
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == 103
        assert solution.bound == pytest.approx(solution.objective)
