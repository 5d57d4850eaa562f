"""The coordinator of the sharded partition-space search.

:func:`solve_sharded` is ``Refine_Partitions_Bound`` re-shaped for a
worker pool: instead of walking partition bounds one at a time
(escalate until feasible, then relax), every ``N`` of the explored
range becomes an independent *shard* evaluated by
:func:`repro.service.worker.solve_shard` — in worker processes when a
pool is given, inline (sequentially, in ``N`` order) when
``max_workers=0``.

The serial algorithm's two couplings between bounds survive as shared
state rather than loop order:

* the incumbent ``D_a`` that the relax phase feeds forward becomes the
  manager-shared ``bound`` value — a shard whose whole window strictly
  loses to a sibling's incumbent skips itself at start (the paper's
  min-latency cut, ``MinLatency(N) > D_a``) or prunes itself mid-search
  via ``should_stop``; the incumbent never clips a running shard's
  window, so pruning saves solver time without ever changing which
  shard wins;
* the min-latency cut that ends the relax phase becomes that per-shard
  skip decision, applied at shard start instead of loop exit.

Escalation past the explored range (the serial loop's response to an
infeasible ``N_start``) is preserved: when a whole wave comes back
infeasible, the next wave continues at higher ``N``, bounded by
``RefinementConfig.infeasible_escalation_limit``.

Sharded results are *verdict-compatible* with the serial search — every
returned design is feasible and audited, and the achieved latency lands
in the same ``delta`` band — but not trajectory-identical: shards bisect
full windows the serial relax phase clips with its incumbent.  The
merged outcome itself is deterministic (pruning only removes shards
that provably cannot win), and the serial path through
:func:`repro.core.refine_partitions.refine_partitions_bound` is
untouched (and property-tested to stay bit-identical).
"""

from __future__ import annotations

import math
import time
from typing import Any

from repro.arch.processor import ReconfigurableProcessor
from repro.core import bounds
from repro.core.partitioner import PartitionerConfig
from repro.core.refine_partitions import RefinementResult
from repro.core.solution import PartitionedDesign
from repro.core.trace import SearchTrace
from repro.obs.metrics import MetricsSnapshot, as_metrics
from repro.obs.tracer import as_tracer
from repro.service import wire
from repro.service.worker import solve_shard
from repro.solve.telemetry import RunTelemetry
from repro.taskgraph import io as graph_io
from repro.taskgraph.graph import TaskGraph

__all__ = ["solve_sharded"]


class _InlineValue:
    """``multiprocessing.Manager().Value`` stand-in for inline mode."""

    def __init__(self, value: float) -> None:
        self.value = value


class _InlineLock:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


def solve_sharded(
    graph: TaskGraph,
    processor: ReconfigurableProcessor,
    config: PartitionerConfig | None = None,
    max_workers: int = 2,
    pool=None,
    bound=None,
    bound_lock=None,
    cancel=None,
    tracer=None,
    metrics=None,
) -> RefinementResult:
    """Run the partition-space search with one worker per bound ``N``.

    ``pool`` is a :class:`concurrent.futures.ProcessPoolExecutor` (the
    service shares one across a batch); ``bound``/``bound_lock``/
    ``cancel`` are manager proxies for the cross-worker incumbent and
    cooperative cancellation.  With ``max_workers=0`` everything runs
    inline in this process — deterministic, no multiprocessing — using
    local stand-ins for the shared state.

    Each shard ships its worker-local metrics snapshot home; their
    commutative merge is the run's record, and the result's telemetry a
    view of it (without per-window rows, so percentiles read zero).
    ``metrics``, an optional :class:`repro.obs.MetricsRegistry`, absorbs
    the merged snapshot so one scrape sees the whole fleet.
    """
    config = config or PartitionerConfig()
    tracer = as_tracer(tracer)
    metrics = as_metrics(metrics)
    search = config.search
    c_t = processor.reconfiguration_time
    prange = bounds.partition_range(
        graph, processor, alpha=search.alpha, gamma=search.gamma
    )
    delta = search.resolve_delta(
        bounds.max_latency(graph, prange.start, c_t)
    )
    start_stamp = time.perf_counter()
    deadline = (
        start_stamp + search.time_budget
        if search.time_budget is not None
        else None
    )

    inline = pool is None
    if inline:
        bound = _InlineValue(math.inf)
        bound_lock = _InlineLock()
        cancel = None
    else:
        if bound is None or bound_lock is None:
            raise ValueError(
                "pooled solve_sharded needs manager-backed bound and "
                "bound_lock proxies"
            )

    base_payload: dict[str, Any] = {
        "graph": graph_io.to_dict(graph),
        "processor": wire.encode_processor(processor),
        "config": wire.encode_config(config),
        "delta": delta,
    }

    def shard_payload(num_partitions: int) -> dict[str, Any]:
        payload = dict(base_payload)
        payload["num_partitions"] = num_partitions
        if deadline is not None:
            payload["remaining_time"] = max(
                deadline - time.perf_counter(), 0.0
            )
        return payload

    def run_wave(shard_ns: list[int]) -> list[dict[str, Any]]:
        """Evaluate one wave of bounds; returns reports in ``N`` order."""
        if inline:
            reports = []
            for n in shard_ns:
                tracer.event("shard_dispatched", num_partitions=n, inline=True)
                reports.append(
                    solve_shard(
                        shard_payload(n), bound, bound_lock, cancel
                    )
                )
            return reports
        futures = []
        for n in shard_ns:
            tracer.event("shard_dispatched", num_partitions=n, inline=False)
            futures.append(
                pool.submit(
                    solve_shard, shard_payload(n), bound, bound_lock, cancel
                )
            )
        return [f.result() for f in futures]

    def time_expired() -> bool:
        return deadline is not None and time.perf_counter() > deadline

    reports: list[dict[str, Any]] = []
    wave = list(prange)
    escalated = 0
    stopped_by_time = False
    while True:
        wave_reports = run_wave(wave)
        for report in wave_reports:
            tracer.event(
                "shard_completed",
                num_partitions=report["num_partitions"],
                feasible=report["feasible"],
                achieved=report["achieved"],
                skipped=report["skipped"],
            )
        reports.extend(wave_reports)
        if any(r["feasible"] for r in reports):
            break
        if time_expired():
            stopped_by_time = True
            break
        if cancel is not None and cancel.is_set():
            break
        # The whole range was infeasible: escalate past it, one wave of
        # higher bounds at a time (the serial loop's N += 1, batched),
        # up to the same safety limit the serial search honors.
        remaining = search.infeasible_escalation_limit - escalated
        if remaining <= 0:
            tracer.event("escalation_limit_reached", escalations=escalated)
            break
        next_n = wave[-1] + 1
        wave = list(
            range(next_n, next_n + min(max(max_workers, 1), remaining))
        )
        escalated += len(wave)

    # -- merge ---------------------------------------------------------------

    reports.sort(key=lambda r: r["num_partitions"])
    trace = SearchTrace()
    explored: list[int] = []
    merged = MetricsSnapshot.empty()
    best_report: dict[str, Any] | None = None
    any_cut = False
    for report in reports:
        if report["skipped"] == "min_latency_cut":
            any_cut = True
        if report["trace"] is not None:
            # A shard that ran ships its trace and its metrics snapshot.
            trace.extend(SearchTrace.from_dict(report["trace"]))
            explored.append(report["num_partitions"])
            merged = merged.merge(MetricsSnapshot.from_dict(report["metrics"]))
        if report["feasible"] and (
            best_report is None
            or report["achieved"] < best_report["achieved"]
        ):
            best_report = report

    if metrics.enabled:
        metrics.absorb(merged)

    design = None
    achieved = None
    if best_report is not None:
        design = PartitionedDesign.from_labels(
            graph,
            {
                name: (int(partition), str(label))
                for name, (partition, label) in best_report[
                    "assignment"
                ].items()
            },
        )
        achieved = float(best_report["achieved"])
    return RefinementResult(
        design=design,
        achieved=achieved,
        trace=trace,
        explored_partitions=tuple(explored),
        delta=delta,
        stopped_by_min_latency_cut=any_cut,
        stopped_by_time=stopped_by_time,
        telemetry=RunTelemetry.from_snapshot(
            merged, workers_merged=len(explored)
        ),
    )
