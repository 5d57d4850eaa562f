"""Adapters from the compiled model form to scipy solvers.

Two entry points:

* :func:`solve_with_highs` — full MILP solve via :func:`scipy.optimize.milp`
  (the HiGHS branch-and-cut engine).  This is the production default
  backend, playing the role CPLEX played in the paper.
* :func:`solve_relaxation` — LP relaxation via :func:`scipy.optimize.linprog`,
  used by the from-scratch branch & bound when configured with
  ``lp_engine="scipy"``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from repro.ilp.status import Solution, SolveStatus

__all__ = ["solve_with_highs", "solve_relaxation"]


def _bounds(form) -> optimize.Bounds:
    return optimize.Bounds(lb=form.lb, ub=form.ub)


def _linear_constraints(form) -> list[optimize.LinearConstraint]:
    a_ub, a_eq = form.a_ub_csr(), form.a_eq_csr()
    constraints = []
    if a_ub.shape[0]:
        constraints.append(
            optimize.LinearConstraint(
                a_ub,
                -np.inf * np.ones(a_ub.shape[0]),
                form.b_ub,
            )
        )
    if a_eq.shape[0]:
        constraints.append(
            optimize.LinearConstraint(a_eq, form.b_eq, form.b_eq)
        )
    return constraints


#: HiGHS's ``kSolutionLimit`` model status: the MIP stopped at its node
#: limit.  scipy has no code for it and reports it as status 4, the same
#: code as a solve error, so it is told apart by the status number that
#: scipy copies into ``result.message``.
_HIGHS_NODE_LIMIT = "HiGHS Status 16:"


def solve_with_highs(
    form,
    *,
    first_feasible: bool = False,
    time_limit: float | None = None,
    node_limit: int | None = None,
    mip_rel_gap: float | None = None,
    tracer=None,
) -> Solution:
    """Solve a MILP with scipy's HiGHS engine.

    Honors ``first_feasible`` by setting a HiGHS MIP gap so large that the
    search stops as soon as an incumbent exists, which reproduces the
    paper's use of CPLEX as a constraint-satisfaction engine.  Otherwise
    ``mip_rel_gap`` (when given) is the relative gap at which HiGHS
    stops a minimization.

    ``form`` is a :class:`repro.ilp.compile.CompiledModel`; its sparse
    rows are handed to HiGHS without densification.

    ``node_limit`` caps the branch-and-bound nodes; a solve stopped by
    it ends ``FEASIBLE`` when it holds an incumbent and ``NODE_LIMIT``
    otherwise.  The returned ``bound`` is HiGHS's dual bound plus the
    objective constant, so it is on the scale of ``objective``; it is
    ``None`` when scipy reports none (a timeout without an incumbent).

    ``tracer`` is used only by the solve-error fallback, which hands the
    model to :func:`repro.ilp.branch_and_bound.solve_with_bnb` with the
    limits above.
    """
    milp_options: dict = {}
    if time_limit is not None:
        milp_options["time_limit"] = float(time_limit)
    if node_limit is not None:
        milp_options["node_limit"] = int(node_limit)
    if first_feasible:
        # Accept any incumbent: a relative gap of 1e20 terminates HiGHS as
        # soon as a primal solution is known.
        milp_options["mip_rel_gap"] = 1e20
    elif mip_rel_gap is not None:
        milp_options["mip_rel_gap"] = float(mip_rel_gap)

    def run(**extra):
        # A fresh options dict per call: milp pops ``node_limit`` out of
        # the dict it is handed.
        return optimize.milp(
            c=form.c,
            constraints=_linear_constraints(form),
            integrality=form.is_integral.astype(int),
            bounds=_bounds(form),
            options={**milp_options, **extra},
        )

    result = run()
    node_limited = _HIGHS_NODE_LIMIT in (result.message or "")
    if result.status == 4 and not node_limited:
        # HiGHS occasionally aborts with "Solve error" (status 4) on
        # models its presolve mishandles; re-running without presolve
        # solves most of them cleanly.
        result = run(presolve=False)
        node_limited = _HIGHS_NODE_LIMIT in (result.message or "")
    if result.status == 4 and not node_limited:
        # Still erroring: hand the model to the native branch & bound
        # instead of reporting ERROR for a perfectly well-posed MILP
        # (scipy's vendored HiGHS has rare MIP-transform failures).
        from repro.ilp.branch_and_bound import solve_with_bnb

        return solve_with_bnb(
            form,
            first_feasible=first_feasible,
            time_limit=time_limit,
            node_limit=node_limit,
            tracer=tracer,
        )

    iterations = int(getattr(result, "mip_node_count", 0) or 0)
    if result.status == 0:
        status = SolveStatus.OPTIMAL
    elif result.status == 2:
        status = SolveStatus.INFEASIBLE
    elif result.status == 3:
        status = SolveStatus.UNBOUNDED
    elif (result.status == 1 or node_limited) and result.x is not None:
        # Time or node limit with an incumbent.
        status = SolveStatus.FEASIBLE
    elif node_limited:
        status = SolveStatus.NODE_LIMIT
    elif result.status == 1:
        status = (
            SolveStatus.TIME_LIMIT
            if time_limit is not None
            else SolveStatus.NODE_LIMIT
        )
    else:
        status = SolveStatus.ERROR

    if first_feasible and status is SolveStatus.OPTIMAL:
        # With the huge gap the "optimum" is merely the first incumbent.
        status = SolveStatus.FEASIBLE

    values: dict[str, float] = {}
    objective = math.nan
    if result.x is not None:
        x = np.asarray(result.x, dtype=float)
        # HiGHS can return values a hair outside bounds / integrality.
        x = np.clip(x, form.lb, form.ub)
        x[form.is_integral] = np.round(x[form.is_integral])
        values = form.values_to_dict(x)
        objective = form.objective_at(x)
    bound = getattr(result, "mip_dual_bound", None)
    if bound is not None and math.isfinite(bound):
        # HiGHS sees ``form.c`` only; the constant is added back here,
        # as ``objective_at`` does for the objective.
        bound = float(bound) + form.c0
    else:
        bound = None
    return Solution(
        status=status,
        objective=objective,
        values=values,
        iterations=iterations,
        bound=bound,
    )


def solve_relaxation(
    form,
    extra_lb: np.ndarray | None = None,
    extra_ub: np.ndarray | None = None,
    time_limit: float | None = None,
) -> tuple[SolveStatus, np.ndarray | None, float, int]:
    """Solve the LP relaxation of a compiled model with scipy ``linprog``.

    ``extra_lb``/``extra_ub`` override the form's bounds (used for branch
    & bound node bounds).  Returns ``(status, x, objective, iterations)``
    with the objective in the minimization direction and *excluding* the
    constant term ``form.c0``.  The sparse rows of ``form`` (a
    :class:`repro.ilp.compile.CompiledModel`) are solved as they are.
    """
    lb = form.lb if extra_lb is None else extra_lb
    ub = form.ub if extra_ub is None else extra_ub
    if np.any(lb > ub + 1e-12):
        return SolveStatus.INFEASIBLE, None, math.nan, 0
    lp_options: dict = {"presolve": True}
    if time_limit is not None:
        lp_options["time_limit"] = float(time_limit)
    a_ub, a_eq = form.a_ub_csr(), form.a_eq_csr()
    result = optimize.linprog(
        c=form.c,
        A_ub=a_ub if a_ub.shape[0] else None,
        b_ub=form.b_ub if a_ub.shape[0] else None,
        A_eq=a_eq if a_eq.shape[0] else None,
        b_eq=form.b_eq if a_eq.shape[0] else None,
        bounds=np.column_stack([lb, ub]),
        method="highs",
        options=lp_options,
    )
    iterations = int(getattr(result, "nit", 0) or 0)
    if result.status == 0:
        return (
            SolveStatus.OPTIMAL,
            np.asarray(result.x, dtype=float),
            float(result.fun),
            iterations,
        )
    if result.status == 2:
        return SolveStatus.INFEASIBLE, None, math.nan, iterations
    if result.status == 3:
        return SolveStatus.UNBOUNDED, None, -math.inf, iterations
    if result.status == 1:
        return SolveStatus.TIME_LIMIT, None, math.nan, iterations
    return SolveStatus.ERROR, None, math.nan, iterations
