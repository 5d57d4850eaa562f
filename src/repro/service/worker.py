"""The worker-process side of the service.

:func:`solve_request` is the one function a
:class:`concurrent.futures.ProcessPoolExecutor` worker runs: one whole
request, decoded from the wire format of :mod:`repro.service.wire` and
solved by the serial search — :meth:`repro.core.partitioner
.TemporalPartitioner.solve`, that is ``Refine_Partitions_Bound`` with
its linked partition bounds (the relax phase opens each ``N`` at the
incumbent ``D_a`` and stops at the min-latency cut).  The service's
outcome is therefore the serial outcome, bit for bit.

``cancel`` is the service's cooperative cancellation event (a manager
proxy; ``None`` inline).  The search polls it before each partition
bound and before each bisection trial and, once it is set, returns its
incumbent — batch shutdown stops workers at the next window boundary
instead of killing processes mid-solve.

The search's ``time_budget`` starts when this function starts the
request.  Everything returned is a plain dict — the outcome in its
``to_dict`` schema and the snapshot of a private metrics registry — no
pickled library objects cross back.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.core.partitioner import TemporalPartitioner
from repro.obs.metrics import MetricsRegistry
from repro.service import wire

__all__ = ["solve_request"]


def solve_request(payload: dict[str, Any], cancel=None) -> dict[str, Any]:
    """Solve one wire-encoded request in this process.

    ``payload`` is :func:`repro.service.wire.encode_request` output with
    ``processor`` and ``config`` resolved (the service fills in its
    defaults before dispatch).

    Returns ``{"outcome": ..., "metrics": ...}``: the outcome as
    ``to_dict(include_trace=True)`` (restored with
    :meth:`PartitioningOutcome.from_dict`, which refills the telemetry
    rows from the trace) and the snapshot of the registry this
    request's executor counted into.
    """
    request = wire.decode_request(payload)
    # Settings never carry a registry across the wire, so the executor
    # counts into a private one; its snapshot travels home as a dict.
    registry = MetricsRegistry()
    config = dataclasses.replace(
        request.config,
        solver=dataclasses.replace(request.config.solver, metrics=registry),
    )
    outcome = TemporalPartitioner(request.processor, config).solve(
        request.replace(config=config),
        should_stop=None if cancel is None else cancel.is_set,
    )
    return {
        "outcome": outcome.to_dict(include_trace=True),
        "metrics": registry.snapshot().to_dict(),
    }
