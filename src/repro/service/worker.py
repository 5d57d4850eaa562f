"""The worker-process side of the sharded search.

:func:`solve_shard` is the one function a
:class:`concurrent.futures.ProcessPoolExecutor` worker runs: one
partition bound ``N`` of ``Refine_Partitions_Bound``'s outer loop,
evaluated end to end (its full ``Reduce_Latency`` bisection) against a
payload decoded from the wire format of :mod:`repro.service.wire`.

Workers cooperate through three manager proxies:

``bound`` / ``bound_lock``
    The shared best latency ``D_a``.  Read before the shard starts —
    skipping the shard outright when even ``MinLatency(N)`` strictly
    loses to it (the paper's min-latency cut, applied across
    processes) — and written after every feasible result.  It never
    clips the shard's opening window: every shard that runs bisects its
    full ``[MinLatency(N), MaxLatency(N)]`` window, so its result does
    not depend on sibling timing and the merged outcome is
    deterministic.
``cancel``
    Cooperative cancellation.  Checked at shard start and polled between
    bisection trials via :func:`repro.core.reduce_latency.reduce_latency`'s
    ``should_stop`` hook — batch shutdown stops workers at the next
    window boundary instead of killing processes mid-solve.

The shard's ``should_stop`` also re-reads ``bound``: a sibling's better
incumbent retroactively prunes this shard once its whole window
``[MinLatency(N), ...]`` strictly loses to it — pruning saves solver
time but can never change which shard wins.  Everything returned is a
plain dict (assignment labels, trace rows, a metrics snapshot) — no
pickled library objects cross back.
"""

from __future__ import annotations

import math
import time
from typing import Any

from repro.core.partitioner import PartitionerConfig
from repro.core.refine_partitions import (
    evaluate_partition_bound,
    partition_bound_window,
)
from repro.service import wire
from repro.solve.executor import SolveExecutor

__all__ = ["solve_shard"]


def _shared_bound(bound, bound_lock) -> float | None:
    """Read the cross-worker incumbent ``D_a`` (``None`` when unset)."""
    if bound is None:
        return None
    with bound_lock:
        value = float(bound.value)
    return value if math.isfinite(value) else None


def _offer_bound(bound, bound_lock, achieved: float) -> None:
    """Lower the shared incumbent to ``achieved`` if it improves it."""
    if bound is None:
        return
    with bound_lock:
        if achieved < float(bound.value):
            bound.value = float(achieved)


def solve_shard(
    payload: dict[str, Any],
    bound=None,
    bound_lock=None,
    cancel=None,
) -> dict[str, Any]:
    """Evaluate one partition bound ``N`` in this process.

    ``payload`` carries the wire-encoded graph, processor and config
    plus ``num_partitions``, ``delta`` and an optional
    ``remaining_time`` (seconds of the batch's budget left when the
    shard was dispatched; re-anchored on this process's clock).

    Returns a plain-dict shard report: feasibility, achieved latency,
    the design as a ``from_labels`` assignment, the iteration trace and
    the snapshot of this shard's metrics registry (its one run record;
    the coordinator derives the run's telemetry from the merged
    snapshots).
    """
    graph = wire.decode_request(
        {"graph": payload["graph"], "processor": None, "config": None}
    ).graph
    processor = wire.decode_processor(payload["processor"])
    config: PartitionerConfig = wire.decode_config(payload["config"])
    num_partitions = int(payload["num_partitions"])
    delta = float(payload["delta"])
    remaining = payload.get("remaining_time")
    deadline = (
        time.perf_counter() + float(remaining)
        if remaining is not None
        else None
    )

    def report(**fields: Any) -> dict[str, Any]:
        base = {
            "num_partitions": num_partitions,
            "feasible": False,
            "achieved": None,
            "assignment": None,
            "skipped": None,
            "trace": None,
            "metrics": None,
        }
        base.update(fields)
        return base

    if cancel is not None and cancel.is_set():
        return report(skipped="cancelled")

    d_max, d_min = partition_bound_window(graph, processor, num_partitions)
    incumbent = _shared_bound(bound, bound_lock)
    if incumbent is not None and d_min > incumbent:
        # Even the fastest schedule at N partitions strictly loses to a
        # sibling's incumbent: the paper's min-latency cut, applied
        # before this shard spends any solver time.  The comparison is
        # strict — and the incumbent never clips the opening window —
        # so pruning only ever removes shards that provably cannot
        # improve (or tie) the final result: the merged outcome stays
        # deterministic no matter how sibling timing falls.
        return report(skipped="min_latency_cut")

    def should_stop() -> bool:
        if cancel is not None and cancel.is_set():
            return True
        current = _shared_bound(bound, bound_lock)
        return current is not None and d_min > current

    # Settings never carry a registry across the wire, so the executor
    # counts into a private one; its snapshot travels home as a dict.
    executor = SolveExecutor(config.solver)
    result = evaluate_partition_bound(
        graph,
        processor,
        num_partitions,
        d_max,
        d_min,
        delta,
        options=config.formulation,
        settings=config.solver,
        deadline=deadline,
        executor=executor,
        should_stop=should_stop,
        phase="shard",
    )
    if result.feasible:
        _offer_bound(bound, bound_lock, result.achieved)
    return report(
        feasible=result.feasible,
        achieved=result.achieved,
        assignment=(
            None if result.design is None else result.design.as_assignment()
        ),
        trace=result.trace.to_dict(),
        metrics=executor.metrics.snapshot().to_dict(),
    )
