"""Unit and property tests for the from-scratch two-phase simplex."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ilp import Model, SolveStatus
from repro.ilp.simplex import solve_lp
from repro.ilp.scipy_backend import solve_relaxation


def arrays(*rows):
    return np.array(rows, dtype=float)


def empty(n):
    return np.zeros((0, n)), np.zeros(0)


class TestSolveLp:
    def test_simple_maximization(self):
        # min -x - 2y st x + y <= 4, x <= 3, y <= 2 -> (2, 2), obj -6.
        a_ub, b_ub = arrays([1, 1]), np.array([4.0])
        a_eq, b_eq = empty(2)
        result = solve_lp(
            np.array([-1.0, -2.0]), a_ub, b_ub, a_eq, b_eq,
            np.zeros(2), np.array([3.0, 2.0]),
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-6.0)
        assert result.x == pytest.approx([2.0, 2.0])

    def test_equality_constraints(self):
        # min x + y st x + y == 5, x <= 2 -> obj 5.
        a_eq, b_eq = arrays([1, 1]), np.array([5.0])
        a_ub, b_ub = empty(2)
        result = solve_lp(
            np.ones(2), a_ub, b_ub, a_eq, b_eq,
            np.zeros(2), np.array([2.0, np.inf]),
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(5.0)

    def test_infeasible(self):
        # x <= 1 and x >= 2 (as -x <= -2).
        a_ub = arrays([1.0], [-1.0])
        b_ub = np.array([1.0, -2.0])
        a_eq, b_eq = empty(1)
        result = solve_lp(
            np.array([1.0]), a_ub, b_ub, a_eq, b_eq,
            np.zeros(1), np.array([np.inf]),
        )
        assert result.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        a_ub, b_ub = empty(1)
        a_eq, b_eq = empty(1)
        result = solve_lp(
            np.array([-1.0]), a_ub, b_ub, a_eq, b_eq,
            np.zeros(1), np.array([np.inf]),
        )
        assert result.status is SolveStatus.UNBOUNDED

    def test_negative_lower_bounds(self):
        # min x with x in [-5, 5].
        a_ub, b_ub = empty(1)
        a_eq, b_eq = empty(1)
        result = solve_lp(
            np.array([1.0]), a_ub, b_ub, a_eq, b_eq,
            np.array([-5.0]), np.array([5.0]),
        )
        assert result.objective == pytest.approx(-5.0)

    def test_free_variable_split(self):
        # min x st x >= -7 encoded via a row, x totally free in bounds.
        a_ub = arrays([-1.0])
        b_ub = np.array([7.0])
        a_eq, b_eq = empty(1)
        result = solve_lp(
            np.array([1.0]), a_ub, b_ub, a_eq, b_eq,
            np.array([-np.inf]), np.array([np.inf]),
        )
        assert result.objective == pytest.approx(-7.0)

    def test_mirror_variable(self):
        # min -x with x <= 3 and lb = -inf: optimum at 3.
        a_ub, b_ub = empty(1)
        a_eq, b_eq = empty(1)
        result = solve_lp(
            np.array([-1.0]), a_ub, b_ub, a_eq, b_eq,
            np.array([-np.inf]), np.array([3.0]),
        )
        assert result.objective == pytest.approx(-3.0)

    def test_degenerate_problem(self):
        # Multiple redundant rows meeting at one vertex.
        a_ub = arrays([1, 0], [1, 0], [0, 1], [1, 1])
        b_ub = np.array([1.0, 1.0, 1.0, 2.0])
        a_eq, b_eq = empty(2)
        result = solve_lp(
            np.array([-1.0, -1.0]), a_ub, b_ub, a_eq, b_eq,
            np.zeros(2), np.full(2, np.inf),
        )
        assert result.objective == pytest.approx(-2.0)

    def test_empty_variable_domain(self):
        a_ub, b_ub = empty(1)
        a_eq, b_eq = empty(1)
        with pytest.raises(ValueError):
            solve_lp(
                np.array([1.0]), a_ub, b_ub, a_eq, b_eq,
                np.array([2.0]), np.array([1.0]),
            )


@st.composite
def random_lp(draw):
    """A random bounded-feasible LP: bounds keep it bounded, x=lb feasible?

    Feasibility is not guaranteed; the property below compares statuses
    with scipy either way.
    """
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 5))
    # Snap near-zero draws to exact zero: at magnitudes below the solvers'
    # feasibility tolerances (e.g. 0.5*x <= -6e-08 with x >= 0), simplex
    # and HiGHS legitimately disagree on feasible-vs-infeasible.
    finite = st.floats(-10, 10, allow_nan=False, width=32).map(
        lambda v: 0.0 if abs(v) < 1e-6 else v
    )
    c = draw(st.lists(finite, min_size=n, max_size=n))
    rows = draw(
        st.lists(
            st.lists(finite, min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    rhs = draw(st.lists(finite, min_size=m, max_size=m))
    lb = draw(st.lists(st.floats(-5, 0, allow_nan=False, width=32),
                       min_size=n, max_size=n))
    width = draw(st.lists(st.floats(0, 10, allow_nan=False, width=32),
                          min_size=n, max_size=n))
    ub = [l + w for l, w in zip(lb, width)]
    return (
        np.array(c), np.array(rows).reshape(m, n), np.array(rhs),
        np.array(lb), np.array(ub),
    )


class TestAgainstScipy:
    @given(random_lp())
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_linprog(self, lp):
        c, a_ub, b_ub, lb, ub = lp
        n = len(c)
        ours = solve_lp(
            c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), lb, ub
        )

        from scipy import optimize
        ref = optimize.linprog(
            c,
            A_ub=a_ub if len(b_ub) else None,
            b_ub=b_ub if len(b_ub) else None,
            bounds=np.column_stack([lb, ub]),
            method="highs",
        )
        if ref.status == 0:
            assert ours.status is SolveStatus.OPTIMAL
            assert ours.objective == pytest.approx(ref.fun, abs=1e-5, rel=1e-5)
        elif ref.status == 2:
            assert ours.status is SolveStatus.INFEASIBLE


class TestBackendAdapter:
    def test_simplex_backend_on_model(self):
        m = Model()
        x = m.add_var("x", ub=10)
        y = m.add_var("y", ub=10)
        m.add_constr(x + y <= 12)
        m.add_constr(x - y <= 2)
        m.set_objective(-(x + 2 * y))
        solution = m.solve(backend="simplex")
        assert solution.status is SolveStatus.OPTIMAL
        assert m.check_point(solution.values) == []

    def test_relaxation_helper_matches_simplex(self):
        m = Model()
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_constr(x + y <= 1)
        m.set_objective(-(x + y))
        form = m.compile()
        status, _x, objective, _n = solve_relaxation(form)
        assert status is SolveStatus.OPTIMAL
        simplex_solution = m.solve(backend="simplex")
        assert simplex_solution.objective == pytest.approx(objective)


class TestBasisWarmStart:
    """Crash onto a previous optimal basis; fall back cold on garbage."""

    def _problem(self, rhs=4.0):
        # min -x - 2y st x + y <= rhs, x <= 3, y <= 2.
        a_ub, b_ub = arrays([1, 1]), np.array([float(rhs)])
        a_eq, b_eq = empty(2)
        return (
            np.array([-1.0, -2.0]), a_ub, b_ub, a_eq, b_eq,
            np.zeros(2), np.array([3.0, 2.0]),
        )

    def test_warm_resolve_matches_cold(self):
        cold = solve_lp(*self._problem(rhs=4.0))
        assert cold.status is SolveStatus.OPTIMAL
        assert cold.basis is not None
        # Patch the RHS (the shape of a window re-solve) and restart
        # from the previous optimal basis.
        warm = solve_lp(*self._problem(rhs=4.5), start_basis=cold.basis)
        reference = solve_lp(*self._problem(rhs=4.5))
        assert warm.status is SolveStatus.OPTIMAL
        assert warm.warm
        assert warm.objective == pytest.approx(reference.objective)
        assert warm.x == pytest.approx(reference.x)

    def test_same_problem_warm_restart(self):
        cold = solve_lp(*self._problem())
        warm = solve_lp(*self._problem(), start_basis=cold.basis)
        assert warm.status is SolveStatus.OPTIMAL
        assert warm.warm
        assert warm.objective == pytest.approx(cold.objective)

    def test_garbage_basis_falls_back_cold(self):
        # Out-of-range column indices: the crash must refuse and the
        # cold phase I must still produce the right answer.
        bad = np.array([999, 998])
        result = solve_lp(*self._problem(), start_basis=bad)
        assert result.status is SolveStatus.OPTIMAL
        assert not result.warm
        assert result.objective == pytest.approx(-6.0)

    def test_mismatched_shape_basis_falls_back_cold(self):
        cold = solve_lp(*self._problem())
        bad = np.append(cold.basis, 0)
        result = solve_lp(*self._problem(), start_basis=bad)
        assert result.status is SolveStatus.OPTIMAL
        assert not result.warm
        assert result.objective == pytest.approx(-6.0)
