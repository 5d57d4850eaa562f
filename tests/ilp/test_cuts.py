"""Tests for knapsack cover cuts."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ilp import Model
from repro.ilp.cuts import CoverCut, apply_cuts, find_cover_cuts


def knapsack_arrays(weights, capacity):
    a_ub = np.array([weights], dtype=float)
    b_ub = np.array([float(capacity)])
    is_binary = np.ones(len(weights), dtype=bool)
    return a_ub, b_ub, is_binary


class TestSeparation:
    def test_violated_cover_found(self):
        # x* = (0.9, 0.9, 0.9), weights (4, 4, 4), capacity 10:
        # any two fit, three do not -> cover {0,1,2}: sum x <= 2,
        # violated by 0.7.
        a_ub, b_ub, is_binary = knapsack_arrays([4, 4, 4], 10)
        cuts = find_cover_cuts(
            a_ub, b_ub, is_binary, np.array([0.9, 0.9, 0.9])
        )
        assert len(cuts) == 1
        assert cuts[0].cover == (0, 1, 2)
        assert cuts[0].violation(np.array([0.9, 0.9, 0.9])) == (
            pytest.approx(0.7)
        )

    def test_integer_point_never_separated(self):
        a_ub, b_ub, is_binary = knapsack_arrays([4, 4, 4], 10)
        cuts = find_cover_cuts(
            a_ub, b_ub, is_binary, np.array([1.0, 1.0, 0.0])
        )
        assert cuts == []

    def test_rows_with_negative_coefficients_skipped(self):
        a_ub = np.array([[4.0, -4.0, 4.0]])
        b_ub = np.array([10.0])
        is_binary = np.ones(3, dtype=bool)
        assert find_cover_cuts(
            a_ub, b_ub, is_binary, np.array([0.9, 0.9, 0.9])
        ) == []

    def test_non_binary_columns_skipped(self):
        a_ub, b_ub, _ = knapsack_arrays([4, 4, 4], 10)
        is_binary = np.array([True, True, False])
        assert find_cover_cuts(
            a_ub, b_ub, is_binary, np.array([0.9, 0.9, 0.9])
        ) == []

    def test_cover_is_minimal(self):
        # Weights (6, 5, 4), cap 10: {0,1} is already a cover; greedy
        # must not return a superset.
        a_ub, b_ub, is_binary = knapsack_arrays([6, 5, 4], 10)
        cuts = find_cover_cuts(
            a_ub, b_ub, is_binary, np.array([0.95, 0.95, 0.95])
        )
        assert cuts
        cover = cuts[0].cover
        weights = [6, 5, 4]
        total = sum(weights[j] for j in cover)
        assert total > 10
        for j in cover:
            assert total - weights[j] <= 10


class TestValidity:
    @given(
        st.lists(st.integers(1, 9), min_size=3, max_size=6),
        st.integers(5, 25),
    )
    @settings(max_examples=60, deadline=None)
    def test_cuts_never_remove_integer_points(self, weights, capacity):
        a_ub, b_ub, is_binary = knapsack_arrays(weights, capacity)
        x_star = np.full(len(weights), 0.9)
        cuts = find_cover_cuts(a_ub, b_ub, is_binary, x_star)
        for bits in itertools.product([0, 1], repeat=len(weights)):
            point = np.array(bits, dtype=float)
            if float(a_ub[0] @ point) <= capacity + 1e-9:
                for cut in cuts:
                    assert cut.violation(point) <= 1e-9


class TestApplyAndSolve:
    def test_apply_appends_rows(self):
        m = Model("ks")
        xs = [m.add_binary(f"x{i}") for i in range(3)]
        m.add_constr(sum(4 * x for x in xs) <= 10)
        cut = CoverCut(row_index=0, cover=(0, 1, 2))
        cut_form = apply_cuts(m.compile(), [cut])
        assert cut_form.a_ub.shape == (2, 3)
        assert cut_form.b_ub[-1] == 2.0
        assert cut_form.a_ub[-1].tolist() == [1.0, 1.0, 1.0]

    def test_bnb_with_root_cuts_same_optimum(self):
        m = Model("ks")
        xs = [m.add_binary(f"x{i}") for i in range(6)]
        weights = [4, 4, 4, 5, 5, 5]
        values = [7, 7, 7, 8, 8, 8]
        m.add_constr(sum(w * x for w, x in zip(weights, xs)) <= 13)
        m.set_objective(-sum(v * x for v, x in zip(values, xs)))
        plain = m.solve(backend="bnb")
        cut = m.solve(backend="bnb", root_cuts=3)
        assert cut.objective == pytest.approx(plain.objective)
        assert m.check_point(cut.values) == []

    def test_root_cuts_do_not_hurt_node_count(self):
        m = Model("ks2")
        xs = [m.add_binary(f"x{i}") for i in range(10)]
        weights = [3 + (i % 4) for i in range(10)]
        m.add_constr(sum(w * x for w, x in zip(weights, xs)) <= 17)
        m.set_objective(-sum((i + 2) * x for i, x in enumerate(xs)))
        plain = m.solve(backend="bnb")
        cut = m.solve(backend="bnb", root_cuts=5)
        assert cut.objective == pytest.approx(plain.objective)


class TestValidityRandomPoints:
    @given(
        st.lists(st.integers(1, 9), min_size=3, max_size=6),
        st.integers(5, 25),
        st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_cuts_from_random_fractional_points_valid(
        self, weights, capacity, fractions
    ):
        # Every cut separated from *any* fractional point must hold at
        # every integer point of the knapsack — the soundness property
        # the branch & bound's root cuts rely on.
        a_ub, b_ub, is_binary = knapsack_arrays(weights, capacity)
        x_star = np.array(fractions[: len(weights)])
        cuts = find_cover_cuts(a_ub, b_ub, is_binary, x_star)
        for bits in itertools.product([0, 1], repeat=len(weights)):
            point = np.array(bits, dtype=float)
            if float(a_ub[0] @ point) <= capacity + 1e-9:
                for cut in cuts:
                    assert cut.violation(point) <= 1e-9


class TestRowRestriction:
    def test_cuts_only_from_requested_rows(self):
        # Two separable rows; restricting to row 0 must never emit a
        # cut derived from row 1.
        a_ub = np.array([[4.0, 4.0, 4.0], [5.0, 5.0, 5.0]])
        b_ub = np.array([10.0, 12.0])
        is_binary = np.ones(3, dtype=bool)
        x_star = np.array([0.9, 0.9, 0.9])
        unrestricted = find_cover_cuts(a_ub, b_ub, is_binary, x_star)
        assert {c.row_index for c in unrestricted} == {0, 1}
        restricted = find_cover_cuts(
            a_ub, b_ub, is_binary, x_star, rows=[0]
        )
        assert restricted
        assert all(c.row_index == 0 for c in restricted)
