"""Unit tests for the conservative presolver."""

import pytest

from repro.ilp import Model, presolve


class TestSingletonRows:
    def test_le_singleton_tightens_upper_bound(self):
        m = Model()
        x = m.add_var("x", ub=10)
        m.add_constr(2 * x <= 6)
        result = presolve(m)
        assert not result.proven_infeasible
        assert result.rows_removed == 1
        assert result.model.variable("x").ub == pytest.approx(3.0)

    def test_ge_singleton_tightens_lower_bound(self):
        m = Model()
        x = m.add_var("x", ub=10)
        m.add_constr(x >= 4)
        result = presolve(m)
        assert result.model.variable("x").lb == pytest.approx(4.0)

    def test_negative_coefficient_flips_direction(self):
        m = Model()
        x = m.add_var("x", ub=10)
        m.add_constr(-x <= -4)      # i.e. x >= 4
        result = presolve(m)
        assert result.model.variable("x").lb == pytest.approx(4.0)

    def test_eq_singleton_fixes_variable(self):
        m = Model()
        x = m.add_var("x", ub=10)
        m.add_constr(x.to_expr() == 5)
        result = presolve(m)
        assert result.fixed_variables == {"x": pytest.approx(5.0)}


    def test_integer_bounds_stay_integral(self):
        # min x1 s.t. 2 x0 >= 1, x0 + x1 >= 1: x0 = 1, x1 = 0.  A bound
        # of 0.5 on binary x0 made HiGHS answer 1.
        m = Model()
        x0, x1 = m.add_binary("x0"), m.add_binary("x1")
        m.add_constr(2 * x0 >= 1)
        m.add_constr(x0 + x1 >= 1)
        m.set_objective(x1.to_expr())
        result = presolve(m)
        assert result.model.variable("x0").lb == 1.0
        assert result.model.solve(backend="highs").objective == 0.0

    def test_fractional_integer_equality_is_infeasible(self):
        m = Model()
        x = m.add_integer("x", lb=0, ub=5)
        m.add_constr(2 * x == 3)
        assert presolve(m).proven_infeasible


class TestRedundancyAndInfeasibility:
    def test_redundant_row_removed(self):
        m = Model()
        x = m.add_var("x", ub=1)
        y = m.add_var("y", ub=1)
        m.add_constr(x + y <= 5)    # can never bind
        result = presolve(m)
        assert result.rows_removed == 1
        assert result.model.num_constraints == 0

    def test_binding_row_kept(self):
        m = Model()
        x = m.add_var("x", ub=4)
        y = m.add_var("y", ub=4)
        m.add_constr(x + y <= 5)
        result = presolve(m)
        assert result.model.num_constraints == 1

    def test_infeasible_le_detected(self):
        m = Model()
        x = m.add_var("x", lb=2, ub=4)
        y = m.add_var("y", lb=2, ub=4)
        m.add_constr(x + y <= 3)
        result = presolve(m)
        assert result.proven_infeasible
        assert result.model is None

    def test_infeasible_bounds_from_singletons(self):
        m = Model()
        x = m.add_var("x", ub=10)
        m.add_constr(x <= 2)
        m.add_constr(x >= 5)
        result = presolve(m)
        assert result.proven_infeasible

    def test_infeasible_eq_detected(self):
        m = Model()
        x = m.add_var("x", ub=1)
        y = m.add_var("y", ub=1)
        m.add_constr(x + y == 5)
        result = presolve(m)
        assert result.proven_infeasible


class TestEquivalence:
    def test_reduced_model_has_same_optimum(self):
        m = Model()
        x = m.add_var("x", ub=10)
        y = m.add_var("y", ub=10)
        m.add_constr(x <= 4)               # singleton
        m.add_constr(x + y <= 100)         # redundant
        m.add_constr(x + 2 * y <= 12)
        m.set_objective(-(x + y))
        result = presolve(m)
        original = m.solve(backend="highs")
        reduced = result.model.solve(backend="highs")
        assert reduced.objective == pytest.approx(original.objective)

    def test_objective_preserved(self):
        m = Model()
        x = m.add_var("x", ub=2)
        m.set_objective(3 * x + 1)
        result = presolve(m)
        solution = result.model.solve(backend="highs")
        assert solution.objective == pytest.approx(1.0)  # x = 0
