"""The public facade: :class:`TemporalPartitioner`.

Wraps validation, bounds, the combined ILP formulation and the two-level
iterative search behind one call::

    from repro import PartitionRequest, TemporalPartitioner
    from repro.arch import time_multiplexed
    from repro.taskgraph import dct_4x4

    partitioner = TemporalPartitioner(time_multiplexed(resource_capacity=576))
    outcome = partitioner.solve(PartitionRequest(graph=dct_4x4()))
    print(outcome.design.summary(partitioner.processor))

:meth:`TemporalPartitioner.solve` on a :class:`PartitionRequest` is the
one entry point.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.arch.processor import ReconfigurableProcessor
from repro.core import bounds
from repro.core.formulation import FormulationOptions
from repro.core.reduce_latency import SolverSettings
from repro.core.refine_partitions import (
    RefinementConfig,
    RefinementResult,
    refine_partitions_bound,
)
from repro.core.solution import PartitionedDesign
from repro.core.trace import SearchTrace
from repro.solve.telemetry import RunTelemetry
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.validate import validate_graph

__all__ = [
    "OUTCOME_SCHEMA_VERSION",
    "PartitionerConfig",
    "PartitionRequest",
    "PartitioningOutcome",
    "TemporalPartitioner",
]

#: Wire-format version of :meth:`PartitioningOutcome.to_dict`.
#:
#: * 1 — implicit (payloads without a ``schema_version`` key): summary
#:   fields plus the design as a placement table keyed by design-point
#:   *name* (empty for unnamed points).
#: * 2 — explicit versioning; design-point labels are the round-trippable
#:   ``dp<i>`` fallbacks for unnamed points; ``partition_bounds`` carries
#:   the full :class:`repro.core.bounds.PartitionRange`; the search trace
#:   serializes via ``include_trace``; :meth:`PartitioningOutcome
#:   .from_dict` restores an outcome from the payload.
#: * 3 — adds ``scenario``, the id of the registered formulation
#:   scenario that produced the design (``paper_oneshot`` for every
#:   pre-v3 payload).
OUTCOME_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class PartitionerConfig:
    """All user-facing parameters in one object.

    ``search`` carries the paper's algorithm parameters (``alpha``,
    ``gamma``, ``delta``, time budget); ``formulation`` the ILP modeling
    choices; ``solver`` the backend selection and per-solve budgets.
    """

    search: RefinementConfig = field(default_factory=RefinementConfig)
    formulation: FormulationOptions = field(
        default_factory=FormulationOptions
    )
    solver: SolverSettings = field(default_factory=SolverSettings)
    validate: bool = True


@dataclass(frozen=True, kw_only=True)
class PartitionRequest:
    """One partitioning problem, fully described.

    Bundles what to partition (``graph``), where to run it
    (``processor``) and how to search (``config``).  ``processor`` and
    ``config`` default to the :class:`TemporalPartitioner`'s own when
    ``None``, so a request can be as small as
    ``PartitionRequest(graph=g)`` — or carry per-call overrides without
    mutating the partitioner.  Fields are keyword-only; derive variants
    with :meth:`replace` instead of rebuilding from scratch.
    """

    graph: TaskGraph
    processor: ReconfigurableProcessor | None = None
    config: PartitionerConfig | None = None

    def replace(self, **changes) -> "PartitionRequest":
        """A copy with ``changes`` applied (per-call overrides)::

            request.replace(processor=bigger_device)
        """
        return dataclasses.replace(self, **changes)


@dataclass(kw_only=True)
class PartitioningOutcome:
    """Everything a caller may want to know about one partitioning run.

    Fields are keyword-only: construct as
    ``PartitioningOutcome(design=..., total_latency=..., ...)``.  The
    outcome is self-describing — ``feasible``, ``degraded`` and
    ``telemetry`` answer "did it work, can I trust it, what did it cost"
    without digging through the trace, and :meth:`to_dict` serializes the
    lot for JSON reports.
    """

    design: PartitionedDesign | None
    total_latency: float | None       # incl. reconfiguration overhead
    trace: SearchTrace
    partition_range: bounds.PartitionRange
    delta: float
    stopped_by_min_latency_cut: bool
    stopped_by_time: bool
    #: At least one window solve exhausted the backend's budget and fell
    #: back to the greedy heuristics — the design is valid but possibly
    #: weaker than an exhaustive search would return.
    degraded: bool = False
    #: Execution-layer metrics (per-solve stats, backend wins, cache hit
    #: rate); ``None`` only for outcomes built outside the normal path.
    telemetry: RunTelemetry | None = None
    #: Id of the formulation scenario the design was solved under (see
    #: :mod:`repro.core.families`).
    scenario: str = "paper_oneshot"

    @property
    def feasible(self) -> bool:
        return self.design is not None

    @property
    def num_partitions(self) -> int | None:
        return None if self.design is None else self.design.num_partitions_used

    @property
    def execution_latency(self) -> float | None:
        return None if self.design is None else self.design.execution_latency()

    def to_dict(
        self,
        include_solves: bool = False,
        include_trace: bool = False,
    ) -> dict:
        """JSON-serializable summary (design as placement table).

        ``include_solves`` forwards to
        :meth:`repro.solve.RunTelemetry.to_dict` — per-solve records are
        verbose, so they are off by default.  ``include_trace`` adds the
        full per-iteration :class:`~repro.core.trace.SearchTrace` (the
        paper-table rows); :meth:`from_dict` restores it.
        """
        design = None
        if self.design is not None:
            design = {
                name: {
                    "partition": placement.partition,
                    "design_point": self.design.design_point_label(name),
                }
                for name, placement in sorted(self.design.placements.items())
            }
        payload = {
            "schema_version": OUTCOME_SCHEMA_VERSION,
            "scenario": self.scenario,
            "feasible": self.feasible,
            "degraded": self.degraded,
            "total_latency": self.total_latency,
            "execution_latency": self.execution_latency,
            "num_partitions": self.num_partitions,
            "partition_range": [
                self.partition_range.start,
                self.partition_range.stop,
            ],
            "partition_bounds": {
                "lower_bound": self.partition_range.lower_bound,
                "upper_seed": self.partition_range.upper_seed,
                "start": self.partition_range.start,
                "stop": self.partition_range.stop,
            },
            "delta": self.delta,
            "stopped_by_min_latency_cut": self.stopped_by_min_latency_cut,
            "stopped_by_time": self.stopped_by_time,
            "iterations": len(self.trace),
            "design": design,
            "telemetry": (
                None
                if self.telemetry is None
                else self.telemetry.to_dict(include_solves=include_solves)
            ),
        }
        if include_trace:
            payload["trace"] = self.trace.to_dict()
        return payload

    @classmethod
    def from_dict(
        cls, payload: dict, graph: TaskGraph | None = None
    ) -> "PartitioningOutcome":
        """Restore an outcome from a :meth:`to_dict` payload.

        Accepts schema versions 1 through 3 (version 1 payloads predate
        the ``schema_version`` key; pre-v3 payloads default ``scenario``
        to ``paper_oneshot``).  The design is only reconstructed when
        the originating ``graph`` is supplied — placements reference
        design points by label, which live on the graph's tasks; without
        it the summary fields round-trip and ``design`` stays ``None``.
        """
        version = int(payload.get("schema_version", 1))
        if version > OUTCOME_SCHEMA_VERSION:
            raise ValueError(
                f"outcome payload has schema_version {version}; "
                f"this build reads up to {OUTCOME_SCHEMA_VERSION}"
            )
        bounds_payload = payload.get("partition_bounds")
        if bounds_payload is not None:
            prange = bounds.PartitionRange(
                lower_bound=int(bounds_payload["lower_bound"]),
                upper_seed=int(bounds_payload["upper_seed"]),
                start=int(bounds_payload["start"]),
                stop=int(bounds_payload["stop"]),
            )
        else:
            start, stop = payload["partition_range"]
            prange = bounds.PartitionRange(
                lower_bound=int(start),
                upper_seed=int(stop),
                start=int(start),
                stop=int(stop),
            )
        design = None
        design_payload = payload.get("design")
        if design_payload is not None and graph is not None:
            design = PartitionedDesign.from_labels(
                graph,
                {
                    name: (
                        int(entry["partition"]),
                        str(entry["design_point"]),
                    )
                    for name, entry in design_payload.items()
                },
            )
        trace_payload = payload.get("trace")
        trace = (
            SearchTrace.from_dict(trace_payload)
            if trace_payload is not None
            else SearchTrace()
        )
        telemetry_payload = payload.get("telemetry")
        telemetry = (
            RunTelemetry.from_dict(telemetry_payload)
            if telemetry_payload is not None
            else None
        )
        return cls(
            design=design,
            total_latency=payload.get("total_latency"),
            trace=trace,
            partition_range=prange,
            delta=float(payload.get("delta", 0.0)),
            stopped_by_min_latency_cut=bool(
                payload.get("stopped_by_min_latency_cut", False)
            ),
            stopped_by_time=bool(payload.get("stopped_by_time", False)),
            degraded=bool(payload.get("degraded", False)),
            telemetry=telemetry,
            scenario=str(payload.get("scenario", "paper_oneshot")),
        )


class TemporalPartitioner:
    """Combined temporal partitioning and design space exploration."""

    def __init__(
        self,
        processor: ReconfigurableProcessor,
        config: PartitionerConfig | None = None,
    ) -> None:
        self.processor = processor
        self.config = config or PartitionerConfig()

    def solve(
        self, request: PartitionRequest, should_stop=None
    ) -> PartitioningOutcome:
        """Canonical entry point: solve one :class:`PartitionRequest`.

        ``should_stop`` is an optional cooperative-cancellation probe,
        forwarded to :func:`~repro.core.refine_partitions
        .refine_partitions_bound`: once it returns ``True`` the search
        stops and the outcome carries its incumbent.

        Raises
        ------
        repro.taskgraph.GraphValidationError
            When the graph is structurally unusable (cycles, or a task
            whose smallest design point exceeds the device capacity).
        """
        processor = request.processor or self.processor
        config = request.config or self.config
        if config.validate:
            report = validate_graph(
                request.graph, resource_capacity=processor.resource_capacity
            )
            report.raise_if_failed()
        result: RefinementResult = refine_partitions_bound(
            request.graph,
            processor,
            config=config.search,
            options=config.formulation,
            settings=config.solver,
            should_stop=should_stop,
        )
        prange = bounds.partition_range(
            request.graph,
            processor,
            alpha=config.search.alpha,
            gamma=config.search.gamma,
        )
        return PartitioningOutcome(
            design=result.design,
            total_latency=result.achieved,
            trace=result.trace,
            partition_range=prange,
            delta=result.delta,
            stopped_by_min_latency_cut=result.stopped_by_min_latency_cut,
            stopped_by_time=result.stopped_by_time,
            degraded=result.degraded,
            telemetry=result.telemetry,
            scenario=config.formulation.scenario,
        )

    def bounds_for(self, graph: TaskGraph, num_partitions: int) -> tuple[float, float]:
        """(D_max, D_min) for ``num_partitions`` — convenience accessor."""
        c_t = self.processor.reconfiguration_time
        return (
            bounds.max_latency(graph, num_partitions, c_t),
            bounds.min_latency(graph, num_partitions, c_t),
        )
