"""Unit tests for the Model container and its compiled form."""

import math

import numpy as np
import pytest

from repro.ilp import (
    BackendNotAvailableError,
    Model,
    ModelError,
    ObjectiveSense,
    SolveStatus,
    VarType,
)


def small_model():
    m = Model("small")
    x = m.add_var("x", ub=4)
    y = m.add_binary("y")
    m.add_constr(x + 2 * y <= 5, name="cap")
    m.add_constr(x - y >= 0, name="link")
    m.set_objective(-x - 3 * y)
    return m, x, y


class TestConstruction:
    def test_duplicate_names_rejected(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(ModelError):
            m.add_var("x")

    def test_foreign_variable_rejected(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_var("x")
        with pytest.raises(ModelError):
            m2.add_constr(x <= 1)

    def test_non_constraint_rejected(self):
        m = Model()
        with pytest.raises(ModelError):
            m.add_constr(True)  # accidental bool from chained comparison

    def test_bad_objective_sense(self):
        m = Model()
        x = m.add_var("x")
        with pytest.raises(ModelError):
            m.set_objective(x, sense="sideways")

    def test_counts(self):
        m, _x, _y = small_model()
        assert m.num_vars == 2
        assert m.num_integer_vars == 1
        assert m.num_constraints == 2

    def test_variable_lookup(self):
        m, x, _y = small_model()
        assert m.variable("x") is x
        with pytest.raises(KeyError):
            m.variable("nope")

    def test_add_integer(self):
        m = Model()
        k = m.add_integer("k", lb=2, ub=9)
        assert k.vtype is VarType.INTEGER
        assert (k.lb, k.ub) == (2, 9)


class TestCompiledForm:
    def test_shapes_and_masks(self):
        m, _x, _y = small_model()
        form = m.compile()
        assert form.a_ub.shape == (2, 2)     # GE row is negated into UB
        assert form.a_eq.shape[0] == 0
        assert list(form.is_integral) == [False, True]
        assert form.lb.tolist() == [0.0, 0.0]
        assert form.ub.tolist() == [4.0, 1.0]

    def test_ge_rows_are_negated(self):
        m = Model()
        x = m.add_var("x")
        m.add_constr(x >= 3)
        form = m.compile()
        assert form.a_ub[0, 0] == -1.0
        assert form.b_ub[0] == -3.0

    def test_eq_rows_separate(self):
        m = Model()
        x = m.add_var("x")
        m.add_constr(x.to_expr() == 2)
        form = m.compile()
        assert form.a_eq.shape == (1, 1)
        assert form.b_eq[0] == 2.0

    def test_maximize_negates_objective(self):
        m = Model()
        x = m.add_var("x", ub=1)
        m.set_objective(5 * x, sense=ObjectiveSense.MAXIMIZE)
        form = m.compile()
        assert form.c[0] == -5.0

    def test_objective_constant_carried(self):
        m = Model()
        x = m.add_var("x", ub=1)
        m.set_objective(x + 7)
        form = m.compile()
        assert form.c0 == 7.0
        assert form.objective_at(np.array([1.0])) == 8.0


class TestSolveDispatch:
    def test_unknown_backend(self):
        m, _x, _y = small_model()
        with pytest.raises(BackendNotAvailableError):
            m.solve(backend="cplex")

    @pytest.mark.parametrize("backend", ["highs", "bnb"])
    def test_milp_backends_agree(self, backend):
        m, _x, _y = small_model()
        solution = m.solve(backend=backend)
        assert solution.status.has_solution
        assert solution.objective == pytest.approx(-6.0)  # x=3, y=1

    def test_maximize_round_trip(self):
        m = Model()
        x = m.add_var("x", ub=3)
        m.set_objective(2 * x, sense=ObjectiveSense.MAXIMIZE)
        solution = m.solve(backend="highs")
        assert solution.objective == pytest.approx(6.0)

    def test_check_point_flags_violations(self):
        m, _x, _y = small_model()
        violated = m.check_point({"x": 10.0, "y": 0.5})
        kinds = {c.name for c in violated}
        assert "cap" in kinds
        assert any(name and name.startswith("bound[") for name in kinds)

    def test_check_point_accepts_solution(self):
        m, _x, _y = small_model()
        solution = m.solve(backend="highs")
        assert m.check_point(solution.values) == []

    def test_solution_value_accessor(self):
        m, _x, _y = small_model()
        solution = m.solve(backend="highs")
        assert solution.value("x") == pytest.approx(3.0)
        assert bool(solution)

    def test_infeasible_solution_is_falsy(self):
        m = Model()
        x = m.add_var("x", ub=1)
        m.add_constr(x >= 2)
        solution = m.solve(backend="highs")
        assert solution.status is SolveStatus.INFEASIBLE
        assert not solution
        assert math.isnan(solution.objective)
