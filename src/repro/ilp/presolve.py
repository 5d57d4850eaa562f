"""Lightweight presolve reductions for MILP models.

Applied (optionally) before handing a model to a backend.  The reductions
are deliberately conservative — each preserves the exact feasible set:

* **bound tightening from singleton rows**: a row with one variable is a
  bound, not a constraint,
* **activity-based row removal**: a row whose worst-case activity already
  satisfies the right-hand side is redundant,
* **activity-based infeasibility detection**: a row whose best-case
  activity cannot reach the right-hand side proves infeasibility,
* **binary fixing propagation**: variables whose tightened bounds collapse
  to a point are fixed.

The analysis runs on the sparse compiled standard form
(:class:`repro.ilp.compile.CompiledModel`) — activity bounds are numpy
reductions over the CSR arrays rather than per-constraint walks over
``dict``-of-terms expressions.  ``>=`` rows arrive pre-normalized to
``<=`` (negated), so only two row kinds exist here.

The temporal-partitioning formulation benefits mostly from the redundancy
filter (path-latency rows for short paths are dominated by longer ones) —
see ``benchmarks/test_ablation_order_constraints.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ilp.compile import CompiledModel, ensure_compiled
from repro.ilp.expr import LinExpr
from repro.ilp.model import Model, ObjectiveSense

__all__ = ["PresolveResult", "presolve"]


@dataclass
class PresolveResult:
    """Outcome of :func:`presolve`."""

    model: Model | None            # reduced model; None when proven infeasible
    proven_infeasible: bool = False
    rows_removed: int = 0
    bounds_tightened: int = 0
    fixed_variables: dict[str, float] = field(default_factory=dict)


def _row_activity(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    row: int,
    lb: np.ndarray,
    ub: np.ndarray,
) -> tuple[float, float]:
    """Smallest and largest value the row's LHS can take within bounds."""
    lo, hi = indptr[row], indptr[row + 1]
    cols = indices[lo:hi]
    coefs = data[lo:hi]
    low_ends = np.where(coefs >= 0, lb[cols], ub[cols])
    high_ends = np.where(coefs >= 0, ub[cols], lb[cols])
    return float(coefs @ low_ends), float(coefs @ high_ends)


def presolve(model, max_rounds: int = 5, tracer=None) -> PresolveResult:
    """Return a reduced, equivalent model (or a proof of infeasibility).

    ``model`` may be a :class:`repro.ilp.model.Model` or an already
    compiled :class:`repro.ilp.compile.CompiledModel`.  A ``tracer``
    (:class:`repro.obs.Tracer`) records the reductions in a
    ``presolve`` span.
    """
    from repro.obs.tracer import as_tracer

    with as_tracer(tracer).span("presolve") as span:
        result = _presolve(model, max_rounds)
        span.annotate(
            proven_infeasible=result.proven_infeasible,
            rows_removed=result.rows_removed,
            bounds_tightened=result.bounds_tightened,
            fixed_variables=len(result.fixed_variables),
        )
    return result


def _presolve(model, max_rounds: int) -> PresolveResult:
    compiled: CompiledModel = ensure_compiled(model)
    lb = compiled.lb.astype(float).copy()
    ub = compiled.ub.astype(float).copy()
    num_ub = compiled.num_ub_rows
    num_eq = compiled.num_eq_rows
    # (kind, row): kind 0 = inequality (<=), kind 1 = equality.
    active: list[tuple[int, int]] = [(0, i) for i in range(num_ub)] + [
        (1, i) for i in range(num_eq)
    ]
    rows_removed = 0
    bounds_tightened = 0

    def row_slice(kind: int, row: int):
        if kind == 0:
            lo, hi = compiled.ub_indptr[row], compiled.ub_indptr[row + 1]
            return (
                compiled.ub_indices[lo:hi],
                compiled.ub_data[lo:hi],
                float(compiled.b_ub[row]),
            )
        lo, hi = compiled.eq_indptr[row], compiled.eq_indptr[row + 1]
        return (
            compiled.eq_indices[lo:hi],
            compiled.eq_data[lo:hi],
            float(compiled.b_eq[row]),
        )

    for _ in range(max_rounds):
        changed = False
        kept: list[tuple[int, int]] = []
        for kind, row in active:
            cols, coefs, rhs = row_slice(kind, row)
            if len(cols) == 1:
                # Singleton row: fold into the variable's bounds.
                j = int(cols[0])
                coef = float(coefs[0])
                limit = rhs / coef
                upper_limit = lower_limit = limit
                if compiled.is_integral[j]:
                    # An integer variable's bounds stay integral (HiGHS
                    # misreads a fractional bound on one).
                    upper_limit = math.floor(limit + 1e-9)
                    lower_limit = math.ceil(limit - 1e-9)
                # An inequality tightens one side; an equality both.
                tighten_upper = [coef > 0] if kind == 0 else [True, False]
                for upper in tighten_upper:
                    if upper:
                        if upper_limit < ub[j] - 1e-12:
                            ub[j] = upper_limit
                            bounds_tightened += 1
                            changed = True
                    else:
                        if lower_limit > lb[j] + 1e-12:
                            lb[j] = lower_limit
                            bounds_tightened += 1
                            changed = True
                rows_removed += 1
                continue

            low_ends = np.where(coefs >= 0, lb[cols], ub[cols])
            high_ends = np.where(coefs >= 0, ub[cols], lb[cols])
            low = float(coefs @ low_ends)
            high = float(coefs @ high_ends)
            if kind == 0:
                if high <= rhs + 1e-12:
                    rows_removed += 1
                    changed = True
                    continue
                if low > rhs + 1e-9:
                    return PresolveResult(None, proven_infeasible=True)
            else:
                if low > rhs + 1e-9 or high < rhs - 1e-9:
                    return PresolveResult(None, proven_infeasible=True)
            kept.append((kind, row))
        active = kept
        if not changed:
            break

    if np.any(lb > ub + 1e-9):
        return PresolveResult(None, proven_infeasible=True)

    fixed = {
        var.name: float(lb[j])
        for j, var in enumerate(compiled.variables)
        if math.isclose(lb[j], ub[j], abs_tol=1e-9)
    }

    reduced = Model("presolved")
    var_list = []
    for j, var in enumerate(compiled.variables):
        var_list.append(
            reduced.add_var(
                var.name, lb=float(lb[j]), ub=float(ub[j]), vtype=var.vtype
            )
        )
    for kind, row in active:
        cols, coefs, rhs = row_slice(kind, row)
        expr = LinExpr(
            {var_list[int(j)]: float(c) for j, c in zip(cols, coefs)}
        )
        name = (
            compiled.ub_names[row] if kind == 0 else compiled.eq_names[row]
        )
        if kind == 0:
            reduced.add_constr(expr <= rhs, name=name)
        else:
            reduced.add_constr(expr == rhs, name=name)
    # The compiled objective is stored in minimization direction; restore
    # the original sense so the reduced model reports like the input.
    c, c0 = compiled.c, compiled.c0
    sense = ObjectiveSense.MINIMIZE
    if compiled.maximize:
        c, c0 = -c, -c0
        sense = ObjectiveSense.MAXIMIZE
    objective = LinExpr(
        {var_list[j]: float(c[j]) for j in np.flatnonzero(c)}, float(c0)
    )
    reduced.set_objective(objective, sense=sense)
    return PresolveResult(
        reduced,
        rows_removed=rows_removed,
        bounds_tightened=bounds_tightened,
        fixed_variables=fixed,
    )
