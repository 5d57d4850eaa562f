"""Partitioned designs: the output of the temporal partitioner.

A :class:`PartitionedDesign` maps every task to a (1-based) temporal
partition and a chosen design point.  It knows how to compute the
quantities the paper reasons about:

* ``d_p`` — the latency of partition ``p``: the longest chain of
  dependent tasks placed in ``p`` (paper, Figure 4; because the temporal
  order constraint makes each global path's intersection with a partition
  contiguous, this equals the longest path of the induced subgraph),
* ``eta`` — the number of partitions actually used,
* the overall latency ``sum(d_p) + eta * C_T`` (equations (9)-(10)),
* per-boundary memory occupancy (equation (3) semantics),

and how to *audit* itself against a graph + processor, which is how every
solver result in this repository is independently verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.arch.processor import ReconfigurableProcessor
from repro.taskgraph.designpoint import DesignPoint
from repro.taskgraph.graph import TaskGraph

__all__ = ["Placement", "PartitionedDesign", "ConstraintViolation"]


@dataclass(frozen=True)
class Placement:
    """Where one task went: partition index (1-based) and design point."""

    partition: int
    design_point: DesignPoint

    def __post_init__(self) -> None:
        if self.partition < 1:
            raise ValueError("partition indices are 1-based")


@dataclass(frozen=True)
class ConstraintViolation:
    """One audited constraint violation (kind, location, amount)."""

    kind: str          # "resource" | "memory" | "order" | "structure"
    where: str         # partition / boundary / edge description
    amount: float
    detail: str = ""

    def __str__(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.kind} violation at {self.where}: {self.amount:g}{extra}"


class PartitionedDesign:
    """An assignment of every task to a partition and design point."""

    def __init__(
        self,
        graph: TaskGraph,
        placements: Mapping[str, Placement],
    ) -> None:
        self.graph = graph
        self.placements = dict(placements)
        missing = set(graph.task_names) - set(self.placements)
        extra = set(self.placements) - set(graph.task_names)
        if missing:
            raise ValueError(f"tasks without placement: {sorted(missing)}")
        if extra:
            raise ValueError(f"placements for unknown tasks: {sorted(extra)}")

    # -- convenience constructors ------------------------------------------

    @staticmethod
    def from_labels(
        graph: TaskGraph,
        assignment: Mapping[str, tuple[int, str]],
    ) -> "PartitionedDesign":
        """Build from ``task -> (partition, design_point_label)``."""
        placements = {
            name: Placement(partition, graph.task(name).design_point(label))
            for name, (partition, label) in assignment.items()
        }
        return PartitionedDesign(graph, placements)

    # -- structure -------------------------------------------------------------

    def partition_of(self, task: str) -> int:
        return self.placements[task].partition

    def design_point_of(self, task: str) -> DesignPoint:
        return self.placements[task].design_point

    @property
    def num_partitions_used(self) -> int:
        """``eta`` — the highest partition index any task occupies."""
        return max(p.partition for p in self.placements.values())

    def partitions(self) -> tuple[int, ...]:
        """Sorted distinct partition indices in use."""
        return tuple(sorted({p.partition for p in self.placements.values()}))

    def tasks_in(self, partition: int) -> tuple[str, ...]:
        return tuple(
            name
            for name in self.graph.task_names
            if self.placements[name].partition == partition
        )

    def compacted(self) -> "PartitionedDesign":
        """Renumber partitions to remove empty ones (1..eta dense)."""
        used = self.partitions()
        renumber = {old: new for new, old in enumerate(used, start=1)}
        placements = {
            name: Placement(renumber[pl.partition], pl.design_point)
            for name, pl in self.placements.items()
        }
        return PartitionedDesign(self.graph, placements)

    # -- latency (Figure 4 semantics) --------------------------------------------

    def partition_latency(self, partition: int) -> float:
        """``d_p``: longest dependent chain among tasks placed in ``p``."""
        members = set(self.tasks_in(partition))
        if not members:
            return 0.0
        finish: dict[str, float] = {}
        for name in self.graph.topological_order():
            if name not in members:
                continue
            arrival = max(
                (
                    finish[pred]
                    for pred in self.graph.predecessors(name)
                    if pred in members
                ),
                default=0.0,
            )
            finish[name] = arrival + self.placements[name].design_point.latency
        return max(finish.values())

    def execution_latency(self) -> float:
        """``sum(d_p)`` over used partitions (no reconfiguration cost)."""
        return sum(self.partition_latency(p) for p in self.partitions())

    def total_latency(self, processor: ReconfigurableProcessor) -> float:
        """Overall design latency: ``sum(d_p) + eta * C_T``."""
        return self.execution_latency() + processor.reconfiguration_overhead(
            self.num_partitions_used
        )

    # -- area and memory -------------------------------------------------------------

    def partition_area(self, partition: int) -> float:
        return sum(
            self.placements[name].design_point.area
            for name in self.tasks_in(partition)
        )

    def partition_resource_usage(self, partition: int, kind: str) -> float:
        """Usage of one extra resource type within ``partition``."""
        return sum(
            self.placements[name].design_point.resource_usage(kind)
            for name in self.tasks_in(partition)
        )

    def memory_at_boundary(
        self, partition: int, include_env: bool = True
    ) -> float:
        """Data live while partition ``p`` is resident (equation (3)).

        Counts edges whose producer ran strictly before ``p`` and whose
        consumer runs in ``p`` or later.  With ``include_env``, host input
        for tasks not yet executed (partition >= p) and host output of
        tasks already executed (partition < p) are buffered too.
        """
        total = 0.0
        for src, dst, volume in self.graph.edges:
            if (
                self.placements[src].partition < partition
                <= self.placements[dst].partition
            ):
                total += volume
        if include_env:
            for name, volume in self.graph.env_inputs.items():
                if self.placements[name].partition >= partition:
                    total += volume
            for name, volume in self.graph.env_outputs.items():
                if self.placements[name].partition < partition:
                    total += volume
        return total

    def peak_memory(self, include_env: bool = True) -> float:
        """Maximum boundary occupancy over all used partitions."""
        return max(
            self.memory_at_boundary(p, include_env)
            for p in range(1, self.num_partitions_used + 1)
        )

    # -- audit ------------------------------------------------------------------------

    def audit(
        self,
        processor: ReconfigurableProcessor,
        include_env_memory: bool = True,
    ) -> list[ConstraintViolation]:
        """Check every architectural and structural constraint.

        Returns an empty list when the design is valid.  This is the
        independent oracle used against solver outputs: it shares no code
        with the ILP formulation.
        """
        violations: list[ConstraintViolation] = []
        for src, dst, _volume in self.graph.edges:
            if self.placements[src].partition > self.placements[dst].partition:
                violations.append(
                    ConstraintViolation(
                        kind="order",
                        where=f"edge {src}->{dst}",
                        amount=(
                            self.placements[src].partition
                            - self.placements[dst].partition
                        ),
                        detail="producer placed after consumer",
                    )
                )
        for partition in self.partitions():
            area = self.partition_area(partition)
            if area > processor.resource_capacity + 1e-9:
                violations.append(
                    ConstraintViolation(
                        kind="resource",
                        where=f"partition {partition}",
                        amount=area - processor.resource_capacity,
                        detail=f"area {area:g} > R_max "
                        f"{processor.resource_capacity:g}",
                    )
                )
        for kind, capacity in processor.extra_capacities:
            for partition in self.partitions():
                usage = self.partition_resource_usage(partition, kind)
                if usage > capacity + 1e-9:
                    violations.append(
                        ConstraintViolation(
                            kind="resource",
                            where=f"partition {partition}",
                            amount=usage - capacity,
                            detail=f"{kind} usage {usage:g} > capacity "
                            f"{capacity:g}",
                        )
                    )
        for partition in range(1, self.num_partitions_used + 1):
            occupancy = self.memory_at_boundary(partition, include_env_memory)
            if occupancy > processor.memory_capacity + 1e-9:
                violations.append(
                    ConstraintViolation(
                        kind="memory",
                        where=f"boundary of partition {partition}",
                        amount=occupancy - processor.memory_capacity,
                        detail=f"live data {occupancy:g} > M_max "
                        f"{processor.memory_capacity:g}",
                    )
                )
        for name, placement in self.placements.items():
            if placement.design_point not in self.graph.task(name).design_points:
                violations.append(
                    ConstraintViolation(
                        kind="structure",
                        where=f"task {name}",
                        amount=1.0,
                        detail="design point does not belong to the task",
                    )
                )
        return violations

    def is_valid(
        self,
        processor: ReconfigurableProcessor,
        include_env_memory: bool = True,
    ) -> bool:
        return not self.audit(processor, include_env_memory)

    # -- reporting ------------------------------------------------------------------

    def summary(self, processor: ReconfigurableProcessor | None = None) -> str:
        """Human-readable multi-line description of the design."""
        lines = [f"PartitionedDesign of {self.graph.name!r}:"]
        for partition in self.partitions():
            tasks = self.tasks_in(partition)
            area = self.partition_area(partition)
            latency = self.partition_latency(partition)
            detail = ", ".join(
                f"{t}[{self.placements[t].design_point.label()}]"
                for t in tasks
            )
            lines.append(
                f"  partition {partition}: area={area:g} "
                f"latency={latency:g}  {detail}"
            )
        if processor is not None:
            lines.append(
                f"  total latency: {self.total_latency(processor):g} "
                f"(execution {self.execution_latency():g} + "
                f"{self.num_partitions_used} x C_T "
                f"{processor.reconfiguration_time:g})"
            )
        return "\n".join(lines)

    def design_point_label(self, task: str) -> str:
        """Round-trippable label of ``task``'s chosen design point.

        Unlike ``DesignPoint.label()`` alone, unnamed points resolve to
        their positional ``dp<i>`` fallback — the same label
        ``Task.design_point`` matches on — so the result always survives
        a :meth:`from_labels` round trip (serialization, disk cache,
        process boundary).
        """
        chosen = self.placements[task].design_point
        for index, dp in enumerate(self.graph.task(task).design_points, 1):
            if dp == chosen:
                return dp.label(index)
        return chosen.label()

    def as_assignment(self) -> dict[str, tuple[int, str]]:
        """Inverse of :meth:`from_labels` (JSON-friendly)."""
        return {
            name: (pl.partition, self.design_point_label(name))
            for name, pl in self.placements.items()
        }

    def __eq__(self, other: object) -> bool:
        """Same graph object and the same placement of every task."""
        if not isinstance(other, PartitionedDesign):
            return NotImplemented
        return self.graph is other.graph and self.placements == other.placements

    __hash__ = None  # mutable placements; equality is by value

    def __repr__(self) -> str:
        return (
            f"PartitionedDesign(tasks={len(self.placements)}, "
            f"eta={self.num_partitions_used})"
        )
