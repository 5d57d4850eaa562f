"""Tests for the solver backend registry."""

import pytest
from scipy import optimize

from repro.ilp import (
    CompiledModel,
    Model,
    Solution,
    SolveStatus,
    register_backend,
)


class TestRegistry:
    def test_custom_backend_dispatch(self):
        calls = {}

        def stub(model, **options):
            calls["options"] = options
            return Solution(
                SolveStatus.FEASIBLE,
                objective=42.0,
                values={v.name: 0.0 for v in model.variables},
            )

        register_backend("stub-test", stub)
        m = Model()
        m.add_var("x", ub=1)
        solution = m.solve(
            backend="stub-test", first_feasible=True, time_limit=5.0
        )
        assert solution.objective == 42.0
        assert calls["options"]["first_feasible"] is True
        assert calls["options"]["time_limit"] == 5.0

    def test_custom_backend_maximize_negation(self):
        def stub(model, **options):
            return Solution(SolveStatus.OPTIMAL, objective=-10.0)

        register_backend("stub-max", stub)
        m = Model()
        x = m.add_var("x", ub=1)
        from repro.ilp import ObjectiveSense

        m.set_objective(x, sense=ObjectiveSense.MAXIMIZE)
        solution = m.solve(backend="stub-max")
        # Backends report in minimization direction; solve() flips back.
        assert solution.objective == 10.0

    def test_wall_time_measured_by_dispatcher(self):
        def stub(model, **options):
            return Solution(SolveStatus.OPTIMAL, objective=0.0)

        register_backend("stub-time", stub)
        m = Model()
        m.add_var("x", ub=1)
        solution = m.solve(backend="stub-time")
        assert solution.wall_time >= 0.0

    def test_model_solve_hands_backends_the_compiled_form(self):
        received = []

        def stub(form, **options):
            received.append(form)
            return Solution(SolveStatus.OPTIMAL, objective=0.0)

        register_backend("stub-compiled", stub)
        m = Model()
        m.add_var("x", ub=1)
        m.solve(backend="stub-compiled")
        assert isinstance(received[0], CompiledModel)
        assert received[0] is m.compile()


def knapsack_model() -> Model:
    m = Model()
    x = m.add_binary("x")
    y = m.add_binary("y")
    m.add_constr(2 * x + 3 * y <= 4)
    m.set_objective(-(x + 2 * y))
    return m


class TestBuiltinKeywords:
    """The built-in adapters name every keyword they read: anything else
    is a caller mistake and raises instead of being ignored."""

    @pytest.mark.parametrize(
        "option",
        [{"warm_start": {"x": 1.0}}, {"root_cuts": 3}],
        ids=["warm_start", "root_cuts"],
    )
    @pytest.mark.parametrize("backend", ["bnb", "highs"])
    def test_unknown_keyword_raises(self, backend, option):
        with pytest.raises(TypeError):
            knapsack_model().solve(backend=backend, **option)

    def test_highs_solve_error_falls_back_with_bnb_keywords(
        self, monkeypatch
    ):
        # scipy status 4 ("solve error") twice: the adapter hands the
        # model to the branch & bound, which takes no ``mip_rel_gap``.
        failed = optimize.OptimizeResult(
            status=4, message="Solve error", x=None
        )
        monkeypatch.setattr(optimize, "milp", lambda **kwargs: failed)
        solution = knapsack_model().solve(
            backend="highs", time_limit=5.0, node_limit=100, mip_rel_gap=0.1
        )
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == -2.0
