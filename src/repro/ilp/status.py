"""Solve statuses and solution value objects shared by all backends."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["SolveStatus", "Solution"]


class SolveStatus(enum.Enum):
    """Outcome of a solve call.

    The distinction between ``OPTIMAL`` and ``FEASIBLE`` matters for this
    reproduction: the paper's iterative procedure deliberately asks the ILP
    solver only for *a* constraint-satisfying point (``FEASIBLE``), never for
    a proven optimum, and tightens constraints between calls instead.
    """

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """``True`` when a (possibly sub-optimal) assignment is available."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass(frozen=True)
class Solution:
    """An assignment of values to variables produced by a backend.

    Attributes
    ----------
    status:
        Outcome of the solve.
    objective:
        Objective value at the returned point (``float('nan')`` when no
        point is available).
    values:
        Mapping from variable *name* to value.  Only populated when
        ``status.has_solution``.
    iterations:
        Backend-specific work measure (simplex pivots or B&B nodes).
    wall_time:
        Seconds spent inside the backend.
    bound:
        Best proven dual bound at termination, when the backend computes
        one; ``None`` otherwise.
    """

    status: SolveStatus
    objective: float = float("nan")
    values: Mapping[str, float] = field(default_factory=dict)
    iterations: int = 0
    wall_time: float = 0.0
    bound: float | None = None

    def __bool__(self) -> bool:
        return self.status.has_solution

    def value(self, name: str) -> float:
        """Return the value of variable ``name``.

        Raises
        ------
        KeyError
            If the solution carries no assignment (infeasible solve) or the
            variable name is unknown.
        """
        return self.values[name]
