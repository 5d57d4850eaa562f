"""A dense two-phase primal simplex solver built from scratch on numpy.

This is the self-contained LP engine of the reproduction (the paper used
CPLEX; this module plus :mod:`repro.ilp.branch_and_bound` replaces it when
scipy is not trusted or not wanted).  It favours clarity and robustness
over speed:

* general bounds are reduced to the canonical form ``A x = b, x >= 0`` by
  shifting / mirroring / splitting variables and adding explicit
  upper-bound rows,
* phase I minimizes the sum of artificial variables added to every row,
* Dantzig pricing with an automatic switch to Bland's rule after a pivot
  budget guards against cycling,
* all pivoting happens on a dense tableau, which is perfectly adequate for
  the model sizes this repository solves with it (hundreds of columns).

The scipy ``linprog``/HiGHS backends remain available for large models and
as an independent oracle in the test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.ilp.status import Solution, SolveStatus

__all__ = ["LpResult", "solve_lp", "solve_with_simplex"]

_TOL = 1e-9


@dataclass(frozen=True)
class LpResult:
    """Raw result of :func:`solve_lp` (values in the original variables).

    ``basis`` is the optimal simplex basis — canonical column indices
    (structural + slack space), one per row — usable as ``start_basis``
    for a later :func:`solve_lp` call on the *same canonical structure*
    (identical bounds-finiteness pattern and row count; RHS and bound
    values may differ).  ``warm`` reports whether a supplied
    ``start_basis`` was successfully crashed onto, skipping phase I.
    """

    status: SolveStatus
    x: np.ndarray | None
    objective: float
    iterations: int
    basis: np.ndarray | None = None
    warm: bool = False


class _Canonical:
    """Reduction of an LP with general bounds to ``A x = b, x >= 0``.

    Keeps enough bookkeeping to map a canonical solution vector back to the
    original variable space.
    """

    def __init__(self, n_orig: int) -> None:
        self.n_orig = n_orig
        # Per original variable: (kind, column(s), offset)
        #   kind "shift":  x = offset + u[col]
        #   kind "mirror": x = offset - u[col]
        #   kind "split":  x = u[col_plus] - u[col_minus]
        self.mapping: list[tuple] = []
        self.num_cols = 0
        # Upper-bound rows expressed on canonical columns: (col, cap).
        self.caps: list[tuple[int, float]] = []

    def new_col(self) -> int:
        col = self.num_cols
        self.num_cols += 1
        return col

    def add_variable(self, lb: float, ub: float) -> None:
        if lb > ub:
            raise ValueError(f"empty variable domain [{lb}, {ub}]")
        if math.isfinite(lb):
            col = self.new_col()
            self.mapping.append(("shift", col, lb))
            if math.isfinite(ub):
                self.caps.append((col, ub - lb))
        elif math.isfinite(ub):
            col = self.new_col()
            self.mapping.append(("mirror", col, ub))
        else:
            plus, minus = self.new_col(), self.new_col()
            self.mapping.append(("split", (plus, minus), 0.0))

    def expand_row(self, row: np.ndarray) -> np.ndarray:
        """Rewrite a row on original variables onto canonical columns."""
        out = np.zeros(self.num_cols)
        for j, coef in enumerate(row):
            if coef == 0.0:
                continue
            kind, cols, _offset = self.mapping[j]
            if kind == "shift":
                out[cols] += coef
            elif kind == "mirror":
                out[cols] -= coef
            else:
                plus, minus = cols
                out[plus] += coef
                out[minus] -= coef
        return out

    def row_offset(self, row: np.ndarray) -> float:
        """Constant contributed to the row's LHS by shifts/mirrors."""
        total = 0.0
        for j, coef in enumerate(row):
            if coef == 0.0:
                continue
            kind, _cols, offset = self.mapping[j]
            if kind in ("shift", "mirror"):
                total += coef * offset
        return total

    def restore(self, u: np.ndarray) -> np.ndarray:
        x = np.zeros(self.n_orig)
        for j, (kind, cols, offset) in enumerate(self.mapping):
            if kind == "shift":
                x[j] = offset + u[cols]
            elif kind == "mirror":
                x[j] = offset - u[cols]
            else:
                plus, minus = cols
                x[j] = u[plus] - u[minus]
        return x


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot the dense tableau on (row, col) and update the basis."""
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])
    basis[row] = col


def _price(
    reduced: np.ndarray, allowed: int, bland: bool
) -> int | None:
    """Pick the entering column (or ``None`` when optimal)."""
    candidates = np.flatnonzero(reduced[:allowed] < -_TOL)
    if candidates.size == 0:
        return None
    if bland:
        return int(candidates[0])
    return int(candidates[np.argmin(reduced[candidates])])


def _ratio_test(
    tableau: np.ndarray, col: int, basis: np.ndarray
) -> int | None:
    """Pick the leaving row by minimum ratio (ties by smallest basis index)."""
    column = tableau[:, col]
    rhs = tableau[:, -1]
    rows = np.flatnonzero(column > _TOL)
    if rows.size == 0:
        return None
    ratios = rhs[rows] / column[rows]
    best = ratios.min()
    tied = rows[np.flatnonzero(ratios <= best + _TOL)]
    return int(tied[np.argmin(basis[tied])])


def _crash_basis(
    tableau: np.ndarray,
    basis: np.ndarray,
    start_basis: np.ndarray,
    artificial_start: int,
) -> bool:
    """Try to pivot the tableau onto ``start_basis``, replacing phase I.

    ``start_basis`` holds canonical column indices (structural + slack
    space) from a previous optimal solve of the same canonical structure.
    Each desired column is greedily pivoted onto a row still held by an
    artificial.  Succeeds only when every artificial leaves the basis and
    the resulting RHS is primal feasible; on any failure the tableau and
    basis are restored untouched so the cold phase I can run.
    """
    if start_basis.shape != basis.shape:
        return False
    if np.any(start_basis < 0) or np.any(start_basis >= artificial_start):
        return False
    snapshot_tableau = tableau.copy()
    snapshot_basis = basis.copy()
    for col in start_basis:
        col = int(col)
        if col in basis:
            continue
        candidates = np.flatnonzero(
            (basis >= artificial_start)
            & (np.abs(tableau[:, col]) > 1e-7)
        )
        if candidates.size == 0:
            continue
        _pivot(tableau, basis, int(candidates[0]), col)
    rhs = tableau[:, -1]
    if np.all(basis < artificial_start) and np.all(rhs >= -1e-9):
        np.clip(rhs, 0.0, None, out=rhs)
        return True
    tableau[:] = snapshot_tableau
    basis[:] = snapshot_basis
    return False


def _run_simplex(
    tableau: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    cost0: float,
    allowed: int,
    max_iters: int,
    deadline: float | None,
) -> tuple[str, int]:
    """Run simplex iterations in place.

    Returns ``(outcome, iterations)`` with outcome in ``{"optimal",
    "unbounded", "iteration_limit", "time_limit"}``.  ``allowed`` restricts
    pricing to the first *allowed* columns (used in phase II to keep
    artificial columns out of the basis).
    """
    m = tableau.shape[0]
    iterations = 0
    bland_after = max(200, 20 * m)
    while iterations < max_iters:
        if deadline is not None and time.perf_counter() > deadline:
            return "time_limit", iterations
        # Reduced costs: c_j - c_B . B^-1 A_j, computed from the tableau.
        cb = cost[basis]
        reduced = cost[: tableau.shape[1] - 1] - cb @ tableau[:, :-1]
        col = _price(reduced, allowed, bland=iterations >= bland_after)
        if col is None:
            return "optimal", iterations
        row = _ratio_test(tableau, col, basis)
        if row is None:
            return "unbounded", iterations
        _pivot(tableau, basis, row, col)
        iterations += 1
    return "iteration_limit", iterations


def solve_lp(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    max_iters: int = 20_000,
    time_limit: float | None = None,
    start_basis: np.ndarray | None = None,
) -> LpResult:
    """Minimize ``c @ x`` subject to the given rows and bounds.

    All arguments are dense numpy arrays; ``a_ub``/``a_eq`` may have zero
    rows.  Returns an :class:`LpResult` whose ``x`` is in the original
    variable space.

    ``start_basis`` may carry the optimal basis of a previous solve with
    the same canonical structure (same rows and bounds-finiteness
    pattern; only RHS / bound *values* changed — e.g. successive branch
    & bound node LPs).  When the basis can be crashed onto and is primal
    feasible for the new RHS, phase I is skipped entirely; otherwise the
    solver silently falls back to a cold start.
    """
    deadline = (
        time.perf_counter() + time_limit if time_limit is not None else None
    )
    n = len(c)
    canonical = _Canonical(n)
    for j in range(n):
        canonical.add_variable(float(lb[j]), float(ub[j]))

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    senses: list[str] = []
    for row, b in zip(a_ub, b_ub):
        rows.append(canonical.expand_row(row))
        rhs.append(float(b) - canonical.row_offset(row))
        senses.append("<=")
    for row, b in zip(a_eq, b_eq):
        rows.append(canonical.expand_row(row))
        rhs.append(float(b) - canonical.row_offset(row))
        senses.append("==")
    for col, cap in canonical.caps:
        bound_row = np.zeros(canonical.num_cols)
        bound_row[col] = 1.0
        rows.append(bound_row)
        rhs.append(cap)
        senses.append("<=")

    n_cols = canonical.num_cols
    n_slack = sum(1 for s in senses if s == "<=")
    m = len(rows)

    # Assemble [A | slacks | artificials | b] with b >= 0.
    total = n_cols + n_slack + m
    tableau = np.zeros((m, total + 1))
    slack_at = n_cols
    for i, (row, b, sense) in enumerate(zip(rows, rhs, senses)):
        tableau[i, :n_cols] = row
        if sense == "<=":
            tableau[i, slack_at] = 1.0
            slack_at += 1
        tableau[i, -1] = b
        if tableau[i, -1] < 0:
            tableau[i, :-1] *= -1.0
            tableau[i, -1] *= -1.0
        tableau[i, n_cols + n_slack + i] = 1.0
    basis = np.array(
        [n_cols + n_slack + i for i in range(m)], dtype=np.intp
    )

    artificial_start = n_cols + n_slack
    warm = False
    if start_basis is not None:
        warm = _crash_basis(
            tableau, basis, np.asarray(start_basis, dtype=np.intp),
            artificial_start,
        )

    if warm:
        iters1 = 0
    else:
        # Phase I: minimize the sum of artificials.
        phase1_cost = np.zeros(total)
        phase1_cost[n_cols + n_slack :] = 1.0
        outcome, iters1 = _run_simplex(
            tableau,
            basis,
            phase1_cost,
            0.0,
            allowed=total,
            max_iters=max_iters,
            deadline=deadline,
        )
        if outcome == "time_limit":
            return LpResult(SolveStatus.TIME_LIMIT, None, math.nan, iters1)
        if outcome == "iteration_limit":
            return LpResult(SolveStatus.ERROR, None, math.nan, iters1)
        infeasibility = float(phase1_cost[basis] @ tableau[:, -1])
        if infeasibility > 1e-7:
            return LpResult(SolveStatus.INFEASIBLE, None, math.nan, iters1)

        # Drive any artificial still in the basis out (degenerate rows),
        # or accept it at value zero when its row has no eligible pivot.
        for i in range(m):
            if basis[i] >= artificial_start:
                eligible = np.flatnonzero(
                    np.abs(tableau[i, :artificial_start]) > _TOL
                )
                if eligible.size:
                    _pivot(tableau, basis, i, int(eligible[0]))

    # Phase II: original objective on canonical columns.
    phase2_cost = np.zeros(total)
    for j in range(n):
        kind, cols, _offset = canonical.mapping[j]
        if kind == "shift":
            phase2_cost[cols] += c[j]
        elif kind == "mirror":
            phase2_cost[cols] -= c[j]
        else:
            plus, minus = cols
            phase2_cost[plus] += c[j]
            phase2_cost[minus] -= c[j]
    outcome, iters2 = _run_simplex(
        tableau,
        basis,
        phase2_cost,
        0.0,
        allowed=artificial_start,
        max_iters=max_iters,
        deadline=deadline,
    )
    iterations = iters1 + iters2
    if outcome == "time_limit":
        return LpResult(SolveStatus.TIME_LIMIT, None, math.nan, iterations)
    if outcome == "iteration_limit":
        return LpResult(SolveStatus.ERROR, None, math.nan, iterations)
    if outcome == "unbounded":
        return LpResult(SolveStatus.UNBOUNDED, None, -math.inf, iterations)

    u = np.zeros(total)
    u[basis] = tableau[:, -1]
    x = canonical.restore(u[:n_cols])
    objective = float(c @ x)
    return LpResult(
        SolveStatus.OPTIMAL, x, objective, iterations,
        basis=basis.copy(), warm=warm,
    )


def solve_with_simplex(form, **options) -> Solution:
    """Backend adapter: solve the model's *LP relaxation* with our simplex.

    Integrality markers are ignored; this backend exists for pure-LP use
    and as the relaxation engine inside the from-scratch branch & bound.
    ``form`` is a :class:`repro.ilp.compile.CompiledModel`; its cached
    dense views are used (the tableau algorithm is dense by construction).
    """
    result = solve_lp(
        form.c,
        form.a_ub,
        form.b_ub,
        form.a_eq,
        form.b_eq,
        form.lb,
        form.ub,
        max_iters=options.get("max_iters", 20_000),
        time_limit=options.get("time_limit"),
    )
    tracer = options.get("tracer")
    if tracer is not None:
        tracer.event(
            "simplex_done",
            status=result.status.value,
            pivots=result.iterations,
        )
    values: dict[str, float] = {}
    objective = math.nan
    if result.status is SolveStatus.OPTIMAL and result.x is not None:
        values = form.values_to_dict(result.x)
        objective = result.objective + form.c0
    return Solution(
        status=result.status,
        objective=objective,
        values=values,
        iterations=result.iterations,
    )
