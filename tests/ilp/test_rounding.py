"""Unit tests for the primal rounding/diving heuristics."""

import numpy as np
import pytest

from repro.ilp import Model
from repro.ilp.rounding import (
    dive,
    fractionality,
    is_integral,
    most_fractional_index,
    round_nearest,
)
from repro.ilp.scipy_backend import solve_relaxation
from repro.ilp.status import SolveStatus


def form_of(model):
    return model.compile()


class TestIsIntegral:
    def test_all_integral(self):
        x = np.array([1.0, 2.0, 0.5])
        mask = np.array([True, True, False])
        assert is_integral(x, mask)

    def test_fractional_detected(self):
        x = np.array([1.2, 2.0])
        mask = np.array([True, True])
        assert not is_integral(x, mask)

    def test_empty_mask(self):
        assert is_integral(np.array([0.7]), np.array([False]))


class TestFractionality:
    def test_values(self):
        x = np.array([1.25, 2.0, 3.5])
        mask = np.array([True, True, True])
        assert fractionality(x, mask) == pytest.approx([0.25, 0.0, 0.5])

    def test_most_fractional_picks_half(self):
        x = np.array([1.1, 2.5, 0.9])
        mask = np.array([True, True, True])
        assert most_fractional_index(x, mask) == 1

    def test_no_fractional_returns_none(self):
        x = np.array([1.0, 2.0])
        mask = np.array([True, True])
        assert most_fractional_index(x, mask) is None

    def test_tie_break_by_weights(self):
        x = np.array([0.5, 1.5])
        mask = np.array([True, True])
        weights = np.array([1.0, 100.0])
        assert most_fractional_index(x, mask, weights) == 1


class TestRoundNearest:
    def test_feasible_rounding_accepted(self):
        m = Model()
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_constr(x + y <= 2)
        form = form_of(m)
        rounded = round_nearest(form, np.array([0.6, 0.4]))
        assert rounded is not None
        assert rounded.tolist() == [1.0, 0.0]

    def test_infeasible_rounding_rejected(self):
        m = Model()
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_constr(x + y <= 1)
        form = form_of(m)
        assert round_nearest(form, np.array([0.6, 0.6])) is None


class TestDive:
    def test_dive_finds_feasible_point(self):
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(4)]
        m.add_constr(sum(xs) <= 2)
        m.set_objective(-sum((i + 1) * x for i, x in enumerate(xs)))
        form = form_of(m)

        def solve_node(lb, ub):
            status, x, objective, _ = solve_relaxation(
                form, extra_lb=lb, extra_ub=ub
            )
            return status, x, objective

        status, x0, _obj, _ = solve_relaxation(form)
        assert status is SolveStatus.OPTIMAL
        result = dive(form, x0, form.lb, form.ub, solve_node)
        assert result is not None
        x, objective = result
        assert is_integral(x, form.is_integral)
        assert float(x.sum()) <= 2 + 1e-9
