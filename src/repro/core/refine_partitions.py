"""Algorithm ``Refine_Partitions_Bound`` — partition-space exploration.

This is Figure 2 of the paper: the outer loop around
:func:`repro.core.reduce_latency.reduce_latency`.

1. Start at ``N = N_min^l + alpha`` partitions.  While the partition bound
   is infeasible, increase ``N`` by one (the paper's Table 4 shows exactly
   this: 8 partitions infeasible, 9 succeeds), up to ``max(|T|, start)``:
   no design needs more partitions than tasks.
2. Once a solution exists with latency ``D_a``, relax ``N`` one step at a
   time up to ``N_min^u + gamma``.  Each relaxation first checks the cheap
   cut ``MinLatency(N) >= D_a``: if even the critical path on the fastest
   design points (plus the now-larger reconfiguration overhead) cannot
   beat the incumbent, the search stops — with a large ``C_T`` this fires
   immediately, which is why the paper's large-overhead experiments never
   relax ``N``.
3. Otherwise re-run the latency refinement with the incumbent as the new
   upper bound, keeping the better result.

The range, the windows and the cut read the scenario's device: one
partition's capacity and ``C_T``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.arch.processor import ReconfigurableProcessor
from repro.core import bounds
from repro.core.families import get_scenario
from repro.core.formulation import FormulationOptions
from repro.core.reduce_latency import (
    ReduceLatencyResult,
    SolverSettings,
    _executor_for,
    reduce_latency,
)
from repro.core.solution import PartitionedDesign
from repro.core.trace import SearchTrace
from repro.solve.executor import SolveExecutor
from repro.solve.telemetry import RunTelemetry
from repro.taskgraph.graph import TaskGraph

__all__ = [
    "RefinementConfig",
    "RefinementResult",
    "refine_partitions_bound",
]


@dataclass(frozen=True)
class RefinementConfig:
    """User parameters of the partition-space search (paper, Section 3.2.2).

    Attributes
    ----------
    alpha:
        *Starting Partition Relaxation* — offset above ``N_min^l`` where
        the search begins.
    gamma:
        *Ending Partition Relaxation* — how far past ``N_min^u`` to keep
        relaxing once solutions exist.
    delta:
        Latency tolerance handed to ``Reduce_Latency``.  When ``None``,
        ``delta_fraction * MaxLatency(N_start)`` is used, following the
        paper's advice to set the tolerance to a small percentage of the
        worst-case latency.
    delta_fraction:
        See ``delta``.
    time_budget:
        Overall wall-clock budget in seconds (the paper's
        ``TimeExpired()`` guard); ``None`` disables it.
    """

    alpha: int = 0
    gamma: int = 0
    delta: float | None = None
    delta_fraction: float = 0.02
    time_budget: float | None = None

    def resolve_delta(self, d_max_at_start: float) -> float:
        if self.delta is not None:
            if self.delta <= 0:
                raise ValueError("delta must be positive")
            return self.delta
        return max(self.delta_fraction * d_max_at_start, 1e-9)


@dataclass
class RefinementResult:
    """Outcome of the full combined search."""

    design: PartitionedDesign | None
    achieved: float | None            # total latency incl. reconfiguration
    trace: SearchTrace                # all iterations, all partition bounds
    explored_partitions: tuple[int, ...]
    delta: float
    stopped_by_min_latency_cut: bool = False
    stopped_by_time: bool = False
    #: Execution-layer metrics for the whole run (one shared
    #: :class:`repro.solve.SolveExecutor` serves every window solve).
    telemetry: RunTelemetry | None = None

    @property
    def feasible(self) -> bool:
        return self.design is not None

    @property
    def degraded(self) -> bool:
        """Some window solve fell back to the greedy heuristics after the
        backend exhausted its budget; the result is still valid but may
        be weaker than an exhaustive search would have found."""
        return self.trace.degraded


def refine_partitions_bound(
    graph: TaskGraph,
    processor: ReconfigurableProcessor,
    config: RefinementConfig | None = None,
    options: FormulationOptions | None = None,
    settings: SolverSettings | None = None,
    executor: SolveExecutor | None = None,
    should_stop=None,
) -> RefinementResult:
    """Run Algorithm ``Refine_Partitions_Bound`` (Figure 2).

    One :class:`repro.solve.SolveExecutor` serves every window solve of
    the run, so the solve cache, the model templates (one compiled base
    model per partition bound, window rows patched per iteration) and
    the telemetry span both phases.  Pass ``executor`` to share them
    across runs too (e.g. a warm-cache replay).  The solver settings are
    ``executor.settings``; ``settings`` only builds the executor when
    none is passed, and passing both with different values raises
    ``ValueError``.

    ``should_stop`` is an optional cooperative-cancellation probe (the
    service wires ``cancel_all()`` here).  It is polled before each
    partition bound and, through ``reduce_latency``, before each
    bisection trial; once it returns ``True`` the search returns its
    incumbent (``None`` when no bound was feasible yet).  ``None`` — the
    default — leaves the trajectory bit-identical.
    """
    config = config or RefinementConfig()
    options = options or FormulationOptions()
    executor = _executor_for(settings, executor)
    tracer = executor.tracer
    deadline = (
        time.perf_counter() + config.time_budget
        if config.time_budget is not None
        else None
    )

    def time_expired() -> bool:
        return deadline is not None and time.perf_counter() > deadline

    def stop_requested(phase: str) -> bool:
        if should_stop is not None and should_stop():
            tracer.event("cancelled", phase=phase)
            return True
        return False

    device = get_scenario(options.scenario).device(processor, options)
    c_t = device.reconfiguration_time
    prange = bounds.partition_range(
        graph, device, alpha=config.alpha, gamma=config.gamma
    )
    n = prange.start
    delta = config.resolve_delta(bounds.max_latency(graph, n, c_t))

    trace = SearchTrace()
    explored: list[int] = []

    with tracer.span(
        "refine_partitions",
        n_start=prange.start,
        n_stop=prange.stop,
        delta=float(delta),
    ) as root_span:

        def run_reduce(
            num_partitions, d_max, d_min, phase, incumbent=None
        ) -> ReduceLatencyResult:
            with tracer.span(
                "partition_bound",
                num_partitions=num_partitions,
                phase=phase,
                d_min=float(d_min),
                d_max=float(d_max),
            ) as sp:
                result = reduce_latency(
                    graph,
                    processor,
                    num_partitions,
                    d_max,
                    d_min,
                    delta,
                    options=options,
                    deadline=deadline,
                    executor=executor,
                    should_stop=should_stop,
                    incumbent=incumbent,
                )
                sp.annotate(feasible=result.feasible, achieved=result.achieved)
            trace.extend(result.trace)
            explored.append(num_partitions)
            return result

        def no_design(**flags) -> RefinementResult:
            root_span.annotate(feasible=False, **flags)
            return RefinementResult(
                None, None, trace, tuple(explored), delta,
                telemetry=executor.telemetry, **flags,
            )

        # Phase 1: find the first feasible partition bound.  No design
        # needs more partitions than tasks: one feasible at N > |T| keeps
        # its feasibility with its (at most |T|) non-empty partitions
        # renumbered in order, so the escalation ends at |T|.
        n_cap = max(len(graph), prange.start)
        if stop_requested("escalate"):
            return no_design()
        result = run_reduce(
            n,
            bounds.max_latency(graph, n, c_t),
            bounds.min_latency(graph, n, c_t),
            phase="escalate",
        )
        while not result.feasible:
            if time_expired():
                tracer.event("time_budget_expired", phase="escalate")
                return no_design(stopped_by_time=True)
            if stop_requested("escalate"):
                return no_design()
            if n >= n_cap:
                tracer.event(
                    "escalation_limit_reached",
                    num_partitions=n,
                    escalations=n - prange.start,
                )
                return no_design()
            n += 1
            result = run_reduce(
                n,
                bounds.max_latency(graph, n, c_t),
                bounds.min_latency(graph, n, c_t),
                phase="escalate",
            )

        best_design = result.design
        best_latency = result.achieved
        stopped_by_cut = False
        stopped_by_time = False

        # Phase 2: relax N while better solutions remain possible.
        # Each relaxation opens a window at the incumbent's latency, so
        # with ``SolverSettings.incumbent_reuse`` the incumbent itself
        # answers that opening solve on a cache miss.  It is offered
        # nowhere else: the bisection trials always undercut it.
        carry = executor.settings.incumbent_reuse
        while n < prange.stop:
            if time_expired():
                tracer.event("time_budget_expired", phase="relax")
                stopped_by_time = True
                break
            if stop_requested("relax"):
                break
            n += 1
            d_min = bounds.min_latency(graph, n, c_t)
            if d_min >= best_latency:
                # Even the fastest possible schedule at N partitions loses
                # to the incumbent: no relaxation can help (large-C_T
                # early exit).
                tracer.event(
                    "min_latency_cut",
                    num_partitions=n,
                    min_latency=d_min,
                    incumbent=best_latency,
                )
                stopped_by_cut = True
                break
            result = run_reduce(
                n, best_latency, d_min, phase="relax",
                incumbent=(best_design, best_latency) if carry else None,
            )
            if result.feasible and result.achieved < best_latency:
                best_design = result.design
                best_latency = result.achieved

        root_span.annotate(
            feasible=best_design is not None,
            achieved=best_latency,
            explored=len(explored),
            stopped_by_min_latency_cut=stopped_by_cut,
            stopped_by_time=stopped_by_time,
        )
        return RefinementResult(
            design=best_design,
            achieved=best_latency,
            trace=trace,
            explored_partitions=tuple(explored),
            delta=delta,
            stopped_by_min_latency_cut=stopped_by_cut,
            stopped_by_time=stopped_by_time,
            telemetry=executor.telemetry,
        )
