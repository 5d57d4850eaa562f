"""Wire format for crossing the process boundary.

The service runs each request in a worker *process*
(:mod:`repro.service.worker`).  Work is described to workers as plain
JSON-able dicts — graphs through the versioned
:mod:`repro.taskgraph.io` schema, everything else through the explicit
encoders here — instead of pickling live library objects.  That keeps
the boundary inspectable (the CLI's ``batch`` mode reads the same
payloads from disk), independent of pickle's import-path coupling, and
honest about what transfers: a :class:`~repro.obs.tracer.Tracer` or a
:class:`~repro.obs.MetricsRegistry` never silently crosses — both are
dropped, and workers report through the returned outcome and metrics
snapshot.  No deadline crosses either: the search's ``time_budget``
starts on the worker's clock when it starts the request.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.arch.processor import ReconfigurableProcessor
from repro.core.formulation import FormulationOptions
from repro.core.partitioner import PartitionerConfig, PartitionRequest
from repro.core.reduce_latency import SolverSettings
from repro.core.refine_partitions import RefinementConfig
from repro.taskgraph import io as graph_io

__all__ = [
    "decode_config",
    "decode_processor",
    "decode_request",
    "encode_config",
    "encode_processor",
    "encode_request",
]


def encode_processor(processor: ReconfigurableProcessor) -> dict[str, Any]:
    return {
        "resource_capacity": processor.resource_capacity,
        "memory_capacity": processor.memory_capacity,
        "reconfiguration_time": processor.reconfiguration_time,
        "name": processor.name,
        "extra_capacities": [
            [kind, capacity] for kind, capacity in processor.extra_capacities
        ],
    }


def decode_processor(payload: dict[str, Any]) -> ReconfigurableProcessor:
    return ReconfigurableProcessor(
        resource_capacity=float(payload["resource_capacity"]),
        memory_capacity=float(payload["memory_capacity"]),
        reconfiguration_time=float(payload["reconfiguration_time"]),
        name=str(payload.get("name", "processor")),
        extra_capacities=tuple(
            (str(kind), float(capacity))
            for kind, capacity in payload.get("extra_capacities", [])
        ),
    )


#: ``SolverSettings`` fields that never cross the process boundary:
#: the tracer (sinks hold open files and locks) and the metrics
#: registry (locks; workers report back a mergeable snapshot instead).
_LOCAL_SETTINGS_FIELDS = frozenset({"tracer", "metrics"})


def _encode_settings(settings: SolverSettings) -> dict[str, Any]:
    # Field-wise, not asdict: tracer and metrics are process-local and
    # never cross the boundary.
    payload = {
        f.name: getattr(settings, f.name)
        for f in dataclasses.fields(settings)
        if f.name not in _LOCAL_SETTINGS_FIELDS
    }
    payload["extra"] = dict(settings.extra)
    return payload


def _decode_settings(payload: dict[str, Any]) -> SolverSettings:
    known = {f.name for f in dataclasses.fields(SolverSettings)}
    kwargs = {
        k: v
        for k, v in payload.items()
        if k in known and k not in _LOCAL_SETTINGS_FIELDS
    }
    return SolverSettings(**kwargs)


def encode_config(config: PartitionerConfig) -> dict[str, Any]:
    return {
        "search": dataclasses.asdict(config.search),
        "formulation": dataclasses.asdict(config.formulation),
        "solver": _encode_settings(config.solver),
        "validate": config.validate,
    }


def decode_config(payload: dict[str, Any]) -> PartitionerConfig:
    return PartitionerConfig(
        search=RefinementConfig(**payload.get("search", {})),
        formulation=FormulationOptions(**payload.get("formulation", {})),
        solver=_decode_settings(payload.get("solver", {})),
        validate=bool(payload.get("validate", True)),
    )


def encode_request(request: PartitionRequest) -> dict[str, Any]:
    """A :class:`PartitionRequest` as a plain JSON-able dict."""
    return {
        "graph": graph_io.to_dict(request.graph),
        "processor": (
            None
            if request.processor is None
            else encode_processor(request.processor)
        ),
        "config": (
            None if request.config is None else encode_config(request.config)
        ),
    }


def decode_request(payload: dict[str, Any]) -> PartitionRequest:
    return PartitionRequest(
        graph=graph_io.from_dict(payload["graph"]),
        processor=(
            None
            if payload.get("processor") is None
            else decode_processor(payload["processor"])
        ),
        config=(
            None
            if payload.get("config") is None
            else decode_config(payload["config"])
        ),
    )
