"""Knapsack cover cuts for binary rows.

A row ``Σ a_j x_j ≤ b`` with ``a_j > 0`` over binary variables admits
*cover inequalities*: for any cover ``C`` (a set with ``Σ_{j∈C} a_j > b``)
every integer point satisfies ``Σ_{j∈C} x_j ≤ |C| − 1``.  Separating a
violated cover for a fractional LP point is a knapsack problem; the
standard greedy (sort by ``(1 − x_j*)``) finds good covers fast.

The temporal-partitioning resource rows (6) are exactly of this form
(areas are positive, the ``Y`` are binary), so cover cuts tighten the
packing relaxation — the weak spot identified by the infeasibility
diagnosis ("fragmentation" cases).  The from-scratch branch & bound can
apply a round of cuts at the root (``BnbOptions.root_cuts``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.ilp.compile import CompiledModel

__all__ = ["CoverCut", "find_cover_cuts", "apply_cuts"]

_EPS = 1e-9


@dataclass(frozen=True)
class CoverCut:
    """A cover inequality ``Σ_{j∈cover} x_j ≤ len(cover) − 1``.

    ``family`` names the constraint family (row-group id, see
    :class:`repro.ilp.compile.RowGroup`) of the row the cut was
    separated from — i.e. which family the cut strengthens.  The paper
    scenario separates from the ``resource`` family (equation (6)); the
    slot scenario from ``slot_resource``.
    """

    row_index: int
    cover: tuple[int, ...]          # column indices
    family: str = "resource"

    @property
    def rhs(self) -> float:
        return float(len(self.cover) - 1)

    def violation(self, x: np.ndarray) -> float:
        return float(x[list(self.cover)].sum() - self.rhs)


def _minimal_cover(
    coefficients: np.ndarray,
    rhs: float,
    x_star: np.ndarray,
    columns: np.ndarray,
) -> tuple[int, ...] | None:
    """Greedy separation: build a cover maximizing LP violation.

    Picks columns in increasing ``1 − x*`` order until the weights exceed
    ``rhs``, then strips redundant members to make the cover minimal.
    """
    order = columns[np.argsort(1.0 - x_star[columns])]
    picked: list[int] = []
    weight = 0.0
    for j in order:
        picked.append(int(j))
        weight += coefficients[j]
        if weight > rhs + _EPS:
            break
    else:
        return None  # all columns together do not exceed rhs: no cover
    # Make minimal: drop members whose removal keeps it a cover.
    for j in sorted(picked, key=lambda col: coefficients[col]):
        if weight - coefficients[j] > rhs + _EPS:
            picked.remove(j)
            weight -= coefficients[j]
    return tuple(sorted(picked))


def find_cover_cuts(
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    is_binary: np.ndarray,
    x_star: np.ndarray,
    max_cuts: int = 50,
    min_violation: float = 1e-4,
    rows: "Sequence[int] | None" = None,
    family: str = "resource",
) -> list[CoverCut]:
    """Separate violated cover inequalities at the LP point ``x_star``.

    Only rows whose support is entirely positive-coefficient binary
    columns are considered (exactly the resource rows of the
    temporal-partitioning model).  ``rows`` restricts separation to the
    given row indices (e.g. one constraint family's span, see
    :meth:`repro.ilp.compile.CompiledModel.row_group`).  ``family``
    stamps each cut with the constraint-family id those rows belong to.
    """
    cuts: list[CoverCut] = []
    candidates = range(a_ub.shape[0]) if rows is None else rows
    for i in candidates:
        i = int(i)
        row = a_ub[i]
        support = np.flatnonzero(np.abs(row) > _EPS)
        if support.size < 2:
            continue
        if np.any(row[support] <= 0) or not np.all(is_binary[support]):
            continue
        # Consider only columns with fractional value worth covering.
        interesting = support[x_star[support] > _EPS]
        if interesting.size < 2:
            continue
        cover = _minimal_cover(row, float(b_ub[i]), x_star, interesting)
        if cover is None:
            continue
        cut = CoverCut(row_index=i, cover=cover, family=family)
        if cut.violation(x_star) >= min_violation:
            cuts.append(cut)
            if len(cuts) >= max_cuts:
                break
    return cuts


def apply_cuts(form: "CompiledModel", cuts: list[CoverCut]) -> "CompiledModel":
    """The compiled sibling of ``form`` with the cut rows appended."""
    if not cuts:
        return form
    return form.with_ub_rows(
        [(cut.cover, [1.0] * len(cut.cover), cut.rhs) for cut in cuts]
    )
