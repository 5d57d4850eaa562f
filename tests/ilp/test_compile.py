"""The sparse compiled standard form: correctness, views, fingerprints."""

import numpy as np
import pytest

from repro.ilp import (
    Model,
    ModelError,
    SolveStatus,
    VarType,
    compile_model,
    solve_compiled,
)


def mixed_model() -> Model:
    """A small model exercising LE, GE and EQ rows plus MAXIMIZE."""
    m = Model("mixed")
    x = m.add_var("x", ub=4, vtype=VarType.INTEGER)
    y = m.add_binary("y")
    z = m.add_var("z", lb=-1.0, ub=3.0)
    m.add_constr(2 * x + y <= 7, name="cap")
    m.add_constr(x + z >= 1, name="floor")
    m.add_constr(y + z == 2, name="link")
    m.set_objective(3 * x + 2 * y - z, sense="maximize")
    return m


class TestCompileCorrectness:
    def test_matches_dense_standard_form(self):
        compiled = compile_model(mixed_model())
        # 2x + y <= 7; x + z >= 1 negated; y + z == 2; maximize negated.
        assert compiled.a_ub.tolist() == [[2, 1, 0], [-1, 0, -1]]
        assert compiled.b_ub.tolist() == [7, -1]
        assert compiled.a_eq.tolist() == [[0, 1, 1]]
        assert compiled.b_eq.tolist() == [2]
        assert compiled.c.tolist() == [-3, -2, 1]
        assert compiled.c0 == 0.0
        assert compiled.ub_names == ("cap", "floor")
        assert compiled.eq_names == ("link",)
        assert compiled.lb.tolist() == [0, 0, -1]
        assert compiled.ub.tolist() == [4, 1, 3]
        assert compiled.is_integral.tolist() == [True, True, False]

    def test_ge_row_is_negated(self):
        compiled = compile_model(mixed_model())
        kind, row = compiled.row_position("floor")
        assert kind == "ub"
        assert compiled.b_ub[row] == -1.0  # x + z >= 1  ->  -x - z <= -1

    def test_csr_views_match_dense(self):
        compiled = compile_model(mixed_model())
        assert np.array_equal(compiled.a_ub_csr().toarray(), compiled.a_ub)
        assert np.array_equal(compiled.a_eq_csr().toarray(), compiled.a_eq)

    def test_var_index_is_insertion_order(self):
        compiled = compile_model(mixed_model())
        assert compiled.var_index == {"x": 0, "y": 1, "z": 2}

    def test_model_compile_is_cached(self):
        model = mixed_model()
        assert model.compile() is model.compile()

    def test_mutation_invalidates_compile_cache(self):
        model = mixed_model()
        first = model.compile()
        model.add_var("extra")
        assert model.compile() is not first


class TestIncrementalViews:
    def test_with_b_ub_patches_only_rhs(self):
        base = compile_model(mixed_model())
        kind, row = base.row_position("cap")
        patched = base.with_b_ub({row: 5.0})
        assert patched.b_ub[row] == 5.0
        assert base.b_ub[row] == 7.0  # original untouched
        # Structure and view caches are shared, not copied.
        assert patched.ub_data is base.ub_data
        assert patched.a_ub_csr() is base.a_ub_csr()

    def test_truncate_drops_trailing_rows_zero_copy(self):
        base = compile_model(mixed_model())
        short = base.truncate_ub_rows(base.num_ub_rows - 1)
        assert short.num_ub_rows == base.num_ub_rows - 1
        assert short.ub_names == base.ub_names[:-1]
        assert short.b_ub.base is base.b_ub  # numpy slice view
        assert np.array_equal(short.a_ub, base.a_ub[:-1])

    def test_truncate_bounds_checked(self):
        base = compile_model(mixed_model())
        with pytest.raises(ValueError):
            base.truncate_ub_rows(base.num_ub_rows + 1)


class TestFingerprint:
    def test_stable_across_identical_builds(self):
        assert (
            compile_model(mixed_model()).fingerprint()
            == compile_model(mixed_model()).fingerprint()
        )

    def test_rhs_change_alters_digest(self):
        base = compile_model(mixed_model())
        kind, row = base.row_position("cap")
        patched = base.with_b_ub({row: 5.0})
        assert base.fingerprint() != patched.fingerprint()

    def test_skip_rows_makes_digest_window_invariant(self):
        base = compile_model(mixed_model())
        kind, row = base.row_position("cap")
        patched = base.with_b_ub({row: 5.0})
        skip = ("cap",)
        assert base.fingerprint(skip) == patched.fingerprint(skip)


class TestModelIncrementalEdits:
    def test_set_rhs_patches_cached_compiled_without_recompiling(self):
        model = mixed_model()
        compiled = model.compile()
        model.set_rhs("cap", 6.0)
        kind, row = compiled.row_position("cap")
        patched = model.compile()
        assert patched.b_ub[row] == 6.0
        # No recompilation: every structure array is shared verbatim;
        # only the RHS vector was copied.
        assert patched.ub_data is compiled.ub_data
        assert patched.eq_data is compiled.eq_data
        assert patched.variables is compiled.variables
        # Previously-handed-out compiled forms are never retargeted:
        # the old handle still describes the old model.
        assert compiled.b_ub[row] == 7.0

    def test_set_rhs_negates_ge_rows(self):
        model = mixed_model()
        compiled = model.compile()
        model.set_rhs("floor", 2.0)
        kind, row = compiled.row_position("floor")
        assert model.compile().b_ub[row] == -2.0

    def test_set_rhs_patches_equality_rows(self):
        model = mixed_model()
        compiled = model.compile()
        model.set_rhs("link", 3.0)
        kind, row = compiled.row_position("link")
        assert kind == "eq"
        patched = model.compile()
        assert patched.b_eq[row] == 3.0
        assert patched.ub_data is compiled.ub_data

    def test_set_rhs_unknown_name(self):
        with pytest.raises(ModelError):
            mixed_model().set_rhs("nope", 1.0)

    def test_remove_constr(self):
        model = mixed_model()
        removed = model.remove_constr("cap")
        assert removed.name == "cap"
        assert all(c.name != "cap" for c in model.constraints)
        with pytest.raises(ModelError):
            model.remove_constr("cap")


class TestSolveCompiled:
    @pytest.mark.parametrize("backend", ["highs", "bnb"])
    def test_matches_model_solve(self, backend):
        model = mixed_model()
        direct = model.solve(backend=backend)
        compiled = solve_compiled(model.compile(), backend=backend)
        assert direct.status is SolveStatus.OPTIMAL
        assert compiled.status is SolveStatus.OPTIMAL
        assert compiled.objective == pytest.approx(direct.objective)
        assert compiled.values == pytest.approx(direct.values)

    def test_simplex_relaxation(self):
        model = mixed_model()
        direct = model.solve(backend="simplex")
        compiled = solve_compiled(model.compile(), backend="simplex")
        assert compiled.objective == pytest.approx(direct.objective)


class TestFrozenArrays:
    """Compiled arrays are read-only: aliased siblings fail loudly."""

    def test_every_array_is_read_only(self):
        compiled = compile_model(mixed_model())
        for attr in (
            "c", "ub_indptr", "ub_indices", "ub_data", "b_ub",
            "eq_indptr", "eq_indices", "eq_data", "b_eq",
            "lb", "ub", "is_integral",
        ):
            assert not getattr(compiled, attr).flags.writeable, attr

    def test_in_place_write_raises(self):
        compiled = compile_model(mixed_model())
        with pytest.raises(ValueError):
            compiled.b_ub[0] = 99.0  # repro-lint: ignore[RL001]
        with pytest.raises(ValueError):
            compiled.ub_data[0] = 99.0  # repro-lint: ignore[RL001]

    def test_sibling_rhs_copies_are_read_only_too(self):
        compiled = compile_model(mixed_model())
        kind, row = compiled.row_position("cap")
        sibling = compiled.with_b_ub({row: 5.0})
        with pytest.raises(ValueError):
            sibling.b_ub[row] = 1.0  # repro-lint: ignore[RL001]
        truncated = compiled.truncate_ub_rows(1)
        with pytest.raises(ValueError):
            truncated.b_ub[0] = 1.0  # repro-lint: ignore[RL001]

    def test_dense_views_are_read_only(self):
        compiled = compile_model(mixed_model())
        with pytest.raises(ValueError):
            compiled.a_ub[0, 0] = 1.0
        with pytest.raises(ValueError):
            compiled.a_eq[0, 0] = 1.0


class TestPointFeasible:
    def path_row_form(self):
        """``300 a + 200 b <= d``: a path's latencies against ``d[p]``."""
        m = Model("path")
        a = m.add_binary("a")
        b = m.add_binary("b")
        d = m.add_var("d", ub=1000.0)
        m.add_constr(300 * a + 200 * b - d <= 0, name="pathlat")
        m.add_constr(a + b == 2, name="both")
        return compile_model(m)

    def test_absolute_tolerance_is_the_default(self):
        form = self.path_row_form()
        assert form.point_feasible(np.array([1.0, 1.0, 500.0]))
        assert not form.point_feasible(np.array([1.0, 1.0, 500.0 - 2e-6]))

    def test_tolerance_widens_every_row_alike(self):
        form = self.path_row_form()
        # Short by 2e-6 on the path row: inside a 1e-5 slack, not 1e-3 short.
        assert form.point_feasible(np.array([1.0, 1.0, 500.0 - 2e-6]), tol=1e-5)
        assert not form.point_feasible(
            np.array([1.0, 1.0, 500.0 - 1e-3]), tol=1e-5
        )
        assert not form.point_feasible(np.array([1.0, 0.0, 500.0]), tol=1e-5)
