"""Iteration traces of the search procedures.

The paper reports its results as tables whose *rows are iterations*: each
row shows the partition bound ``N``, the iteration number ``I``, the
latency window ``[D_min, D_max]`` given to the ILP, and either the
achieved latency ``D_a`` or "Inf." (infeasible).  This module captures
exactly that, so the experiment harness can print paper-shaped tables
directly from a search run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.solve.executor import WindowOutcome

__all__ = ["SearchTrace"]


@dataclass
class SearchTrace:
    """The search's window records, in order: one per ILP call.

    Each entry is the executor's :class:`WindowOutcome` with its
    ``iteration`` stamped by ``Reduce_Latency``, plus one record
    (``backend=""``, not degraded) for each window the LP/packing bound
    emptied before any solve.
    """

    records: list[WindowOutcome] = field(default_factory=list)

    def add(self, record: WindowOutcome) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[WindowOutcome]) -> None:
        self.records.extend(records)

    def __iter__(self) -> Iterator[WindowOutcome]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def total_solves(self) -> int:
        return len(self.records)

    @property
    def total_wall_time(self) -> float:
        return sum(r.wall_time for r in self.records)

    @property
    def degraded(self) -> bool:
        """Some window fell back past the backend's budget."""
        return any(r.degraded for r in self.records)

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {"records": [r.to_trace_dict() for r in self.records]}

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchTrace":
        return cls(
            records=[
                WindowOutcome.from_trace_dict(r)
                for r in payload.get("records", [])
            ]
        )

    def for_partitions(self, num_partitions: int) -> list[WindowOutcome]:
        return [
            r for r in self.records if r.num_partitions == num_partitions
        ]

    def partition_counts(self) -> tuple[int, ...]:
        seen: list[int] = []
        for record in self.records:
            if record.num_partitions not in seen:
                seen.append(record.num_partitions)
        return tuple(seen)

    def best(self) -> WindowOutcome | None:
        feasible = [r for r in self.records if r.feasible]
        if not feasible:
            return None
        return min(feasible, key=lambda r: r.achieved)

    def convergence_chart(self, width: int = 60) -> str:
        """ASCII view of the bisection: window per iteration, incumbent.

        One line per record: ``-`` spans the latency window handed to the
        solver, ``*`` marks the achieved latency (``x`` for infeasible
        probes at the window's upper end).  Useful for eyeballing how the
        search narrows — the textual analogue of a convergence plot.
        """
        if not self.records:
            return "(empty trace)"
        low = min(r.d_min for r in self.records)
        high = max(r.d_max for r in self.records)
        span = max(high - low, 1e-12)

        def column(value: float) -> int:
            position = int((value - low) / span * (width - 1))
            return min(max(position, 0), width - 1)

        lines = []
        for record in self.records:
            cells = [" "] * width
            start, end = column(record.d_min), column(record.d_max)
            for i in range(start, end + 1):
                cells[i] = "-"
            if record.feasible:
                cells[column(record.achieved)] = "*"
            else:
                cells[end] = "x"
            label = f"N={record.num_partitions:<3}I={record.iteration:<3}"
            lines.append(f"{label}|{''.join(cells)}|")
        return "\n".join(lines)
