"""From-scratch branch & bound for mixed-integer linear programs.

Together with :mod:`repro.ilp.simplex` this forms the self-contained MILP
solver of the reproduction (no CPLEX, no PuLP).  Design:

* depth-first search with a last-in-first-out stack — DFS reaches integer
  leaves quickly, which suits the constraint-satisfaction usage pattern of
  the paper (``SolveModel()`` returns the first feasible point),
* LP relaxations per node, solved either by our own two-phase simplex
  (``lp_engine="own"``) or by scipy/HiGHS (``lp_engine="scipy"``, default),
* most-fractional branching with objective-coefficient tie-breaking,
* LP diving (:func:`repro.ilp.rounding.dive`) at the root and every
  ``dive_every`` explored nodes to find incumbents early,
* node pruning by bound against the incumbent, with the standard integer
  rounding of bounds when all objective coefficients are integral.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.ilp import rounding
from repro.ilp.scipy_backend import solve_relaxation
from repro.ilp.simplex import solve_lp
from repro.ilp.status import Solution, SolveStatus

__all__ = ["BnbOptions", "BnbResult", "branch_and_bound", "solve_with_bnb"]


@dataclass
class BnbOptions:
    """Tuning knobs of the branch & bound."""

    lp_engine: str = "scipy"        # "scipy" or "own"
    first_feasible: bool = False    # stop at the first incumbent
    node_limit: int = 200_000
    time_limit: float | None = None
    int_tol: float = 1e-6
    gap_tol: float = 1e-9           # absolute optimality gap
    dive_every: int = 50            # run the diving heuristic every N nodes
    dive_resolves: int = 25
    #: Optional :class:`repro.obs.Tracer`: a ``bnb_checkpoint`` event
    #: (nodes, incumbent, bound, stack depth) is emitted every
    #: ``checkpoint_every`` explored nodes.
    tracer: object | None = None
    checkpoint_every: int = 1000


@dataclass
class BnbResult:
    """Raw outcome of :func:`branch_and_bound`."""

    status: SolveStatus
    x: np.ndarray | None
    objective: float
    nodes: int
    best_bound: float = -math.inf


@dataclass
class _Node:
    lb: np.ndarray
    ub: np.ndarray
    depth: int
    parent_bound: float


def branch_and_bound(form, options: BnbOptions | None = None) -> BnbResult:
    """Minimize a compiled MILP (:class:`repro.ilp.compile.CompiledModel`).

    The returned objective excludes the form's constant ``c0`` (callers
    add it back), matching :func:`solve_relaxation`.
    """
    options = options or BnbOptions()
    deadline = (
        time.perf_counter() + options.time_limit
        if options.time_limit is not None
        else None
    )

    def out_of_time() -> bool:
        return deadline is not None and time.perf_counter() > deadline

    # Basis reuse across node LPs (own engine only): the canonical
    # structure is identical at every node — only bound *values* change —
    # so each LP can crash onto the previous node's optimal basis.
    last_basis: np.ndarray | None = None

    def solve_node(lb, ub):
        nonlocal last_basis
        # The budget binds *inside* the node loop too: no LP (including a
        # diving re-solve) starts once it is spent, and scipy LPs inherit
        # whatever wall clock remains so one long relaxation cannot
        # overshoot the deadline.
        if out_of_time():
            return SolveStatus.TIME_LIMIT, None, math.nan
        if options.lp_engine == "own":
            result = solve_lp(
                form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, lb, ub,
                start_basis=last_basis,
            )
            if result.status is SolveStatus.OPTIMAL:
                last_basis = result.basis
            return result.status, result.x, result.objective
        remaining = None
        if deadline is not None:
            remaining = max(deadline - time.perf_counter(), 1e-3)
        status, x, objective, _ = solve_relaxation(
            form, extra_lb=lb, extra_ub=ub, time_limit=remaining
        )
        return status, x, objective

    mask = form.is_integral
    # When the objective has only integer coefficients on integer variables
    # and none on continuous ones, LP bounds can be rounded up.
    integral_objective = bool(
        np.all(form.c[~mask] == 0.0)
        and np.all(form.c[mask] == np.round(form.c[mask]))
    )

    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf
    nodes_explored = 0
    best_bound = -math.inf

    def register(x: np.ndarray, objective: float) -> None:
        nonlocal incumbent_x, incumbent_obj
        if objective < incumbent_obj - options.gap_tol:
            incumbent_x = x.copy()
            incumbent_obj = objective

    root = _Node(
        lb=form.lb.astype(float).copy(),
        ub=form.ub.astype(float).copy(),
        depth=0,
        parent_bound=-math.inf,
    )
    stack: list[_Node] = [root]
    status_on_exit = SolveStatus.OPTIMAL

    while stack:
        if out_of_time():
            status_on_exit = SolveStatus.TIME_LIMIT
            break
        if nodes_explored >= options.node_limit:
            status_on_exit = SolveStatus.NODE_LIMIT
            break
        node = stack.pop()
        if node.parent_bound >= incumbent_obj - options.gap_tol:
            continue
        status, x, objective = solve_node(node.lb, node.ub)
        nodes_explored += 1
        if (
            options.tracer is not None
            and nodes_explored % options.checkpoint_every == 0
        ):
            options.tracer.event(
                "bnb_checkpoint",
                nodes=nodes_explored,
                incumbent=(
                    incumbent_obj if math.isfinite(incumbent_obj) else None
                ),
                best_bound=best_bound if math.isfinite(best_bound) else None,
                stack_depth=len(stack),
            )
        if status is SolveStatus.INFEASIBLE:
            continue
        if status is SolveStatus.UNBOUNDED:
            return BnbResult(
                SolveStatus.UNBOUNDED, None, -math.inf, nodes_explored
            )
        if status is SolveStatus.TIME_LIMIT:
            # The budget expired between the loop check and the node LP.
            status_on_exit = SolveStatus.TIME_LIMIT
            break
        if status is not SolveStatus.OPTIMAL or x is None:
            status_on_exit = SolveStatus.ERROR
            break

        bound = objective
        if integral_objective:
            bound = math.ceil(objective - options.gap_tol)
        if node.depth == 0:
            best_bound = bound
        if bound >= incumbent_obj - options.gap_tol:
            continue

        branch_index = rounding.most_fractional_index(
            x, mask, weights=form.c
        )
        if branch_index is None:
            register(x, objective)
            if options.first_feasible:
                break
            continue

        run_dive = (
            node.depth == 0 or nodes_explored % options.dive_every == 0
        )
        if run_dive:
            dived = rounding.dive(
                form,
                x,
                node.lb,
                node.ub,
                lambda lb, ub: solve_node(lb, ub),
                max_resolves=options.dive_resolves,
            )
            if dived is not None:
                dive_x, dive_obj = dived
                register(dive_x, dive_obj - form.c0)
                if options.first_feasible and incumbent_x is not None:
                    break

        value = x[branch_index]
        floor_ub = node.ub.copy()
        floor_ub[branch_index] = math.floor(value + options.int_tol)
        ceil_lb = node.lb.copy()
        ceil_lb[branch_index] = math.ceil(value - options.int_tol)
        down = _Node(node.lb.copy(), floor_ub, node.depth + 1, bound)
        up = _Node(ceil_lb, node.ub.copy(), node.depth + 1, bound)
        # Explore the branch nearest the LP value first (LIFO: push last).
        if value - math.floor(value) <= 0.5:
            stack.append(up)
            stack.append(down)
        else:
            stack.append(down)
            stack.append(up)

    if incumbent_x is None:
        if status_on_exit in (SolveStatus.TIME_LIMIT, SolveStatus.NODE_LIMIT):
            return BnbResult(
                status_on_exit, None, math.nan, nodes_explored, best_bound
            )
        return BnbResult(
            SolveStatus.INFEASIBLE, None, math.nan, nodes_explored, best_bound
        )

    finished = not stack and status_on_exit is SolveStatus.OPTIMAL
    if options.first_feasible and not finished:
        status = SolveStatus.FEASIBLE
    elif finished:
        status = SolveStatus.OPTIMAL
    else:
        status = SolveStatus.FEASIBLE
    return BnbResult(
        status, incumbent_x, incumbent_obj, nodes_explored, best_bound
    )


def solve_with_bnb(
    form,
    *,
    first_feasible: bool = False,
    time_limit: float | None = None,
    node_limit: int | None = None,
    lp_engine: str = "scipy",
    tracer=None,
) -> Solution:
    """Backend adapter: branch & bound on a compiled model.

    Node relaxations run off the arrays of ``form`` (a
    :class:`repro.ilp.compile.CompiledModel`; sparse via scipy, dense via
    the own simplex) without per-solve matrix rebuilds.  ``node_limit``
    caps the explored nodes; only ``None`` selects the default.
    """
    bnb_options = BnbOptions(
        lp_engine=lp_engine,
        first_feasible=bool(first_feasible),
        node_limit=200_000 if node_limit is None else int(node_limit),
        time_limit=time_limit,
        tracer=tracer,
    )
    result = branch_and_bound(form, bnb_options)
    values: dict[str, float] = {}
    objective = math.nan
    if result.x is not None:
        x = result.x.copy()
        x[form.is_integral] = np.round(x[form.is_integral])
        values = form.values_to_dict(x)
        objective = form.objective_at(x)
    bound = result.best_bound + form.c0 if math.isfinite(result.best_bound) else None
    return Solution(
        status=result.status,
        objective=objective,
        values=values,
        iterations=result.nodes,
        bound=bound,
    )
