"""Infeasibility diagnosis for temporal-partitioning models.

When ``SolveModel()`` reports infeasible, the paper's algorithms react
(raise ``D_min``, escalate ``N``) but a *user* usually wants to know
**why** a configuration has no solution: not enough area?  too little
memory?  a latency window below what the device can reach?

:func:`diagnose_infeasibility` answers that by relaxation probing: each
constraint *family* of the formulation (resource, memory, latency window,
temporal order) is dropped in turn and the LP relaxation re-solved.  A
family whose removal restores feasibility is a *culprit*.  LP relaxations
keep the probe cheap: LP-feasible ⊇ ILP-feasible, so

* an LP-infeasible reduced model proves the remaining families alone
  are contradictory, and
* culprit sets are reported with that caveat (`certain=False` when only
  the integer model is infeasible, i.e. the full LP was feasible).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.formulation import TemporalPartitioningModel
from repro.ilp.model import Model
from repro.ilp.scipy_backend import solve_relaxation
from repro.ilp.status import SolveStatus

__all__ = ["InfeasibilityReport", "diagnose_infeasibility"]

#: Constraint-name prefixes of each relaxable family.
_FAMILIES: dict[str, tuple[str, ...]] = {
    "resource": ("resource", "eta_area_cut"),
    "memory": ("memory",),
    "latency_window": ("latency_ub", "latency_lb"),
    "order": ("order", "w["),
}


@dataclass
class InfeasibilityReport:
    """Outcome of :func:`diagnose_infeasibility`."""

    lp_infeasible: bool
    culprits: list[str] = field(default_factory=list)
    detail: dict[str, bool] = field(default_factory=dict)
    certain: bool = True

    @property
    def message(self) -> str:
        if not self.lp_infeasible:
            return (
                "the LP relaxation is feasible; infeasibility stems from "
                "integrality (packing/fragmentation), not from any single "
                "constraint family"
            )
        if not self.culprits:
            return (
                "no single constraint family explains the infeasibility; "
                "at least two families conflict jointly"
            )
        families = ", ".join(self.culprits)
        return f"removing any of [{families}] restores LP feasibility"


def _without_families(model: Model, prefixes: tuple[str, ...]) -> Model:
    """Copy ``model`` minus constraints whose names match any prefix."""
    reduced = Model(f"{model.name}_minus_{prefixes[0]}")
    mapping = {}
    for var in model.variables:
        mapping[var.name] = reduced.add_var(
            var.name, lb=var.lb, ub=var.ub, vtype=var.vtype
        )
    from repro.ilp.expr import LinExpr, Sense

    for constr in model.constraints:
        name = constr.name or ""
        if any(name.startswith(prefix) for prefix in prefixes):
            continue
        expr = LinExpr(
            {mapping[v.name]: c for v, c in constr.expr.terms.items()}
        )
        if constr.sense is Sense.LE:
            reduced.add_constr(expr <= constr.rhs, name=constr.name)
        elif constr.sense is Sense.GE:
            reduced.add_constr(expr >= constr.rhs, name=constr.name)
        else:
            reduced.add_constr(expr == constr.rhs, name=constr.name)
    return reduced


def _lp_feasible(model: Model) -> bool:
    status, _x, _obj, _n = solve_relaxation(model.compile())
    return status is SolveStatus.OPTIMAL or status is SolveStatus.UNBOUNDED


def diagnose_infeasibility(
    tp_model: TemporalPartitioningModel,
) -> InfeasibilityReport:
    """Explain why a temporal-partitioning model has no solution.

    Call after a solve returned ``INFEASIBLE``.  Returns which constraint
    families, when individually removed, make the *LP relaxation*
    feasible again.  When the full LP is already feasible the integer
    model fails on packing/integrality and the report says so
    (``certain=False`` culprit attribution is impossible by relaxation).
    """
    model = tp_model.model
    if _lp_feasible(model):
        return InfeasibilityReport(lp_infeasible=False, certain=False)

    culprits: list[str] = []
    detail: dict[str, bool] = {}
    for family, prefixes in _FAMILIES.items():
        reduced = _without_families(model, prefixes)
        restored = _lp_feasible(reduced)
        detail[family] = restored
        if restored:
            culprits.append(family)
    return InfeasibilityReport(
        lp_infeasible=True, culprits=culprits, detail=detail
    )
