"""LP sensitivity: what would a bigger device buy?

Solving the *linear relaxation* of the minimize-latency model yields dual
values (shadow prices) on the capacity rows: the marginal latency
reduction per extra unit of ``R_max`` in a partition, or per extra unit
of ``M_max``.  The duals are exact for the relaxation and a useful
first-order signal for the integer problem — a partition whose resource
row carries a large dual is the one to target when floorplanning a
bigger FPGA (the paper's R=576 vs R=1024 sweep is exactly such a what-if,
answered there by brute force).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from repro.core.formulation import TemporalPartitioningModel
from repro.report import TextTable

__all__ = ["SensitivityReport", "capacity_shadow_prices"]


@dataclass
class SensitivityReport:
    """Shadow prices of the capacity constraints (LP relaxation).

    Prices are in latency units per capacity unit; 0 means the row does
    not bind at the LP optimum.  ``lp_latency`` is the relaxation's
    optimal total latency (a lower bound for the integer problem).
    """

    lp_latency: float
    resource_prices: dict[int, float] = field(default_factory=dict)
    memory_prices: dict[int, float] = field(default_factory=dict)

    @property
    def binding_resource_partitions(self) -> tuple[int, ...]:
        """Partitions whose resource row binds (nonzero dual).

        HiGHS reports duals of binding ``<=`` rows as negative values in
        a minimization, so binding is detected by magnitude.
        """
        return tuple(
            p for p, price in sorted(self.resource_prices.items())
            if abs(price) > 1e-9
        )

    def table(self) -> TextTable:
        table = TextTable(
            "Capacity shadow prices (LP relaxation)",
            ("partition", "d(latency)/d(R_max)", "d(latency)/d(M_max)"),
        )
        partitions = sorted(
            set(self.resource_prices) | set(self.memory_prices)
        )
        for p in partitions:
            table.add_row(
                p,
                round(self.resource_prices.get(p, 0.0), 6),
                round(self.memory_prices.get(p, 0.0), 6),
            )
        table.footer = (
            f"LP latency bound: {self.lp_latency:,.1f} ns; a negative "
            "price means one extra capacity unit lowers the bound by "
            "that much"
        )
        return table


def _row_partition(name: str | None, prefix: str) -> int | None:
    """Extract the partition index from names like ``resource[3]``."""
    if not name or not name.startswith(prefix + "["):
        return None
    try:
        return int(name[len(prefix) + 1 : name.index("]")])
    except ValueError:
        return None


def capacity_shadow_prices(
    tp_model: TemporalPartitioningModel,
) -> SensitivityReport | None:
    """Duals of the resource/memory rows at the LP optimum.

    The model should carry the latency objective
    (``FormulationOptions(minimize_latency=True)``); without an objective
    the duals are all zero and meaningless.  Returns ``None`` when the LP
    relaxation is infeasible or unbounded.
    """
    form = tp_model.model.compile()
    result = optimize.linprog(
        c=form.c,
        A_ub=form.a_ub_csr() if form.num_ub_rows else None,
        b_ub=form.b_ub if form.num_ub_rows else None,
        A_eq=form.a_eq_csr() if form.num_eq_rows else None,
        b_eq=form.b_eq if form.num_eq_rows else None,
        bounds=np.column_stack([form.lb, form.ub]),
        method="highs",
    )
    if result.status != 0:
        return None
    marginals = np.asarray(result.ineqlin.marginals)

    report = SensitivityReport(lp_latency=float(result.fun) + form.c0)
    # ``ub_names`` names the <= rows in the order the duals come back.
    for name, dual in zip(form.ub_names, marginals):
        partition = _row_partition(name, "resource")
        if partition is not None:
            report.resource_prices[partition] = float(dual)
            continue
        partition = _row_partition(name, "memory")
        if partition is not None:
            report.memory_prices[partition] = float(dual)
    return report
