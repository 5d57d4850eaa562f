"""Property-based cross-checks between the ILP backends.

The from-scratch stack (simplex + branch & bound) and scipy's HiGHS are
independent implementations; on random models they must agree on
feasibility and optimal objective value.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ilp import Model, VarType


@st.composite
def random_milp(draw):
    """A small random MILP with bounded variables (always bounded)."""
    n = draw(st.integers(1, 4))
    m_rows = draw(st.integers(0, 4))
    model = Model("prop")
    variables = []
    for i in range(n):
        vtype = draw(
            st.sampled_from(
                [VarType.BINARY, VarType.INTEGER, VarType.CONTINUOUS]
            )
        )
        ub = 1 if vtype is VarType.BINARY else draw(st.integers(1, 6))
        variables.append(
            model.add_var(f"x{i}", ub=ub, vtype=vtype)
        )
    coef = st.integers(-4, 4)
    for r in range(m_rows):
        coefs = [draw(coef) for _ in range(n)]
        rhs = draw(st.integers(-5, 15))
        sense = draw(st.sampled_from(["le", "ge"]))
        expr = sum(c * v for c, v in zip(coefs, variables))
        if isinstance(expr, int):      # all-zero row
            continue
        model.add_constr(expr <= rhs if sense == "le" else expr >= rhs)
    obj = [draw(coef) for _ in range(n)]
    expr = sum(c * v for c, v in zip(obj, variables))
    if not isinstance(expr, int):
        model.set_objective(expr)
    return model


class TestBackendAgreement:
    @given(random_milp())
    @settings(max_examples=40, deadline=None)
    def test_bnb_agrees_with_highs(self, model):
        ours = model.solve(backend="bnb")
        ref = model.solve(backend="highs")
        assert ours.status.has_solution == ref.status.has_solution
        if ref.status.has_solution:
            assert ours.objective == pytest.approx(ref.objective, abs=1e-6)
            # And the point itself must satisfy the model.
            assert model.check_point(ours.values) == []

    @given(random_milp())
    @settings(max_examples=25, deadline=None)
    def test_bnb_own_simplex_engine_agrees(self, model):
        ours = model.solve(backend="bnb", lp_engine="own")
        ref = model.solve(backend="highs")
        assert ours.status.has_solution == ref.status.has_solution
        if ref.status.has_solution:
            assert ours.objective == pytest.approx(ref.objective, abs=1e-5)

    @given(random_milp())
    @settings(max_examples=25, deadline=None)
    def test_first_feasible_points_are_feasible(self, model):
        solution = model.solve(backend="bnb", first_feasible=True)
        if solution.status.has_solution:
            assert model.check_point(solution.values) == []
