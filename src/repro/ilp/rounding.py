"""Primal heuristics used inside the from-scratch branch & bound.

Two cheap heuristics operate on an LP-relaxation point:

* :func:`round_nearest` — round every integral variable to the nearest
  integer and accept the point if it satisfies all rows.
* :func:`dive` — iteratively fix the *most decided* fractional variable to
  its nearest integer and re-solve the LP, up to a fixed number of
  re-solves.  This is the classic "diving" heuristic and finds feasible
  points for the temporal-partitioning models very quickly, which matters
  because the paper's procedure only ever asks for feasibility.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ilp.status import SolveStatus

__all__ = ["is_integral", "round_nearest", "dive"]

_INT_TOL = 1e-6


def is_integral(x: np.ndarray, mask: np.ndarray, tol: float = _INT_TOL) -> bool:
    """``True`` when every masked entry of ``x`` is integer within ``tol``."""
    if not mask.any():
        return True
    vals = x[mask]
    return bool(np.all(np.abs(vals - np.round(vals)) <= tol))


def round_nearest(form, x: np.ndarray) -> np.ndarray | None:
    """Round integral entries of ``x``; return the point if it is feasible."""
    candidate = x.copy()
    candidate[form.is_integral] = np.round(candidate[form.is_integral])
    candidate = np.clip(candidate, form.lb, form.ub)
    if form.point_feasible(candidate):
        return candidate
    return None


def dive(
    form,
    x: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    solve_node,
    max_resolves: int = 25,
) -> tuple[np.ndarray, float] | None:
    """LP diving: repeatedly fix the least-fractional variable and re-solve.

    Parameters
    ----------
    form:
        The :class:`repro.ilp.compile.CompiledModel` being solved.
    x:
        Current LP point to start diving from.
    lb, ub:
        Node bounds (copied, never mutated).
    solve_node:
        Callable ``(lb, ub) -> (status, x, objective)`` solving the LP
        relaxation under the given bounds.
    max_resolves:
        Budget of LP re-solves before giving up.

    Returns
    -------
    ``(x, objective)`` for an integer-feasible point, or ``None``.
    """
    lb = lb.copy()
    ub = ub.copy()
    current = x.copy()
    for _ in range(max_resolves):
        rounded = round_nearest(form, current)
        if rounded is not None and is_integral(rounded, form.is_integral):
            return rounded, form.objective_at(rounded)
        frac = np.abs(
            current[form.is_integral]
            - np.round(current[form.is_integral])
        )
        fractional_positions = np.flatnonzero(frac > _INT_TOL)
        if fractional_positions.size == 0:
            # Integral but infeasible after clipping: dead end.
            return None
        integral_indices = np.flatnonzero(form.is_integral)
        # Fix the variable closest to an integer (least fractional): this
        # perturbs the LP least and keeps feasibility likely.
        pick = integral_indices[
            fractional_positions[np.argmin(frac[fractional_positions])]
        ]
        target = float(np.round(current[pick]))
        target = min(max(target, lb[pick]), ub[pick])
        lb[pick] = ub[pick] = target
        status, current, _objective = solve_node(lb, ub)
        if status is not SolveStatus.OPTIMAL or current is None:
            return None
    if current is not None and is_integral(current, form.is_integral):
        candidate = round_nearest(form, current)
        if candidate is not None:
            return candidate, form.objective_at(candidate)
    return None


def fractionality(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Distance of each masked entry from its nearest integer (0 elsewhere)."""
    out = np.zeros_like(x)
    vals = x[mask]
    out[mask] = np.abs(vals - np.round(vals))
    return out


def most_fractional_index(
    x: np.ndarray, mask: np.ndarray, weights: np.ndarray | None = None
) -> int | None:
    """Index of the masked entry farthest from integrality, or ``None``.

    ``weights`` breaks ties (larger weight preferred); the branch & bound
    passes absolute objective coefficients so that decisions with latency
    impact are branched early.
    """
    frac = fractionality(x, mask)
    fractional = frac > _INT_TOL
    if not fractional.any():
        return None
    score = np.where(fractional, 0.5 - np.abs(frac - 0.5), -math.inf)
    if weights is not None:
        score = score + 1e-3 * np.where(fractional, np.abs(weights), 0.0)
    return int(np.argmax(score))
