"""Experiment definitions and execution.

Each of the paper's DCT experiments (Tables 3-8) is one run of the
combined search with a specific ``(R_max, C_T, delta, alpha, gamma)``
tuple.  :class:`DctExperiment` captures that tuple; :func:`run_experiment`
executes it and packages the iteration trace in table-ready form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.arch.processor import ReconfigurableProcessor
from repro.core import (
    FormulationOptions,
    RefinementConfig,
    SolverSettings,
    refine_partitions_bound,
)
from repro.core.refine_partitions import RefinementResult
from repro.core.trace import SearchTrace
from repro.report import TextTable
from repro.taskgraph.graph import TaskGraph

__all__ = ["DctExperiment", "ExperimentResult", "run_experiment"]

#: Small reconfiguration overhead (time-multiplexed FPGA regime), ns.
SMALL_CT = 30.0
#: Large reconfiguration overhead (WILDFORCE regime): 10 ms in ns.
LARGE_CT = 10e6


@dataclass(frozen=True)
class DctExperiment:
    """Parameters of one paper experiment."""

    table: str                       # e.g. "Table 3"
    resource_capacity: float
    reconfiguration_time: float
    delta: float
    alpha: int = 0
    gamma: int = 1
    memory_capacity: float = 2048.0
    solver: SolverSettings = field(default_factory=SolverSettings)
    time_budget: float | None = 600.0

    def processor(self) -> ReconfigurableProcessor:
        return ReconfigurableProcessor(
            resource_capacity=self.resource_capacity,
            memory_capacity=self.memory_capacity,
            reconfiguration_time=self.reconfiguration_time,
            name=f"R{self.resource_capacity:g}_CT{self.reconfiguration_time:g}",
        )

    def config(self) -> RefinementConfig:
        return RefinementConfig(
            alpha=self.alpha,
            gamma=self.gamma,
            delta=self.delta,
            time_budget=self.time_budget,
        )


@dataclass
class ExperimentResult:
    """Search outcome plus table-ready presentation."""

    experiment: DctExperiment
    result: RefinementResult
    wall_time: float

    @property
    def best_latency(self) -> float | None:
        return self.result.achieved

    @property
    def best_partitions(self) -> int | None:
        if self.result.design is None:
            return None
        return self.result.design.num_partitions_used

    @property
    def iterations(self) -> int:
        return len(self.result.trace)

    @property
    def telemetry(self):
        """Execution-layer metrics of the run (``RunTelemetry | None``)."""
        return self.result.telemetry

    @property
    def degraded(self) -> bool:
        return self.result.degraded

    def table(self, include_overhead: bool = False) -> TextTable:
        """The paper-shaped iteration table.

        By default latency columns exclude the ``N * C_T`` overhead
        ("Bound (without N x C_T)") exactly as the paper prints them.
        """
        c_t = (
            0.0
            if include_overhead
            else self.experiment.reconfiguration_time
        )
        exp = self.experiment
        table = TextTable(
            title=(
                f"{exp.table}: DCT, R_max={exp.resource_capacity:g}, "
                f"C_T={exp.reconfiguration_time:g} ns, "
                f"delta={exp.delta:g}, alpha={exp.alpha}, gamma={exp.gamma}"
            ),
            columns=("N", "I", "D_min (ns)", "D_max (ns)", "D_a (ns)"),
        )
        t_o_note = add_trace_rows(table, self.result.trace, c_t)
        best = self.result.trace.best()
        if best is None:
            note = "infeasible"
        else:
            # In the columns' convention (the bound N, overhead as the
            # columns print it), then the total and the partitions used.
            n, _i, _lo, _hi, achieved = best.row(c_t)
            note = (
                f"best D_a = {achieved:,.0f} ns at N = {n}; total "
                f"{self.best_latency:,.0f} ns on {self.best_partitions} "
                f"partitions used ({self.iterations} ILP solves, "
                f"{self.wall_time:.1f}s)"
            )
        if self.result.stopped_by_min_latency_cut:
            note += "; stopped early: MinLatency(N) >= D_a"
        if self.result.trace.used_fallback:
            note += "; degraded: heuristic fallback used"
        table.footer = note + t_o_note
        return table


def add_trace_rows(table: TextTable, trace: SearchTrace, c_t: float) -> str:
    """Add one ``(N, I, D_min, D_max, D_a)`` row per window of ``trace``.

    ``D_a`` reads ``Inf.`` only for a window proven empty; an unknown
    window (timed out or crashed, :attr:`WindowOutcome.unknown`) reads
    ``T/O``.  Returns the footer note counting the ``T/O`` rows, or
    ``""`` when there are none.
    """
    unknown = 0
    for record in trace:
        n, i, d_min, d_max, achieved = record.row(c_t)
        if record.unknown:
            unknown += 1
            achieved = "T/O"
        table.add_row(n, i, round(d_min, 1), round(d_max, 1), achieved)
    if not unknown:
        return ""
    return f"; {unknown} T/O rows (timed out or crashed, not proven empty)"


def run_experiment(
    experiment: DctExperiment,
    graph: TaskGraph,
    options: FormulationOptions | None = None,
    tracer=None,
) -> ExperimentResult:
    """Execute one experiment on ``graph`` and collect its trace.

    ``tracer`` (:class:`repro.obs.Tracer`) wraps the run in an
    ``experiment`` span; it is installed on the solver settings, so the
    whole pipeline below records into it.
    """
    settings = experiment.solver
    if tracer is not None:
        from dataclasses import replace as _replace

        settings = _replace(settings, tracer=tracer)
    from repro.obs.tracer import as_tracer

    start = time.perf_counter()
    with as_tracer(tracer).span(
        "experiment",
        table=experiment.table,
        r_max=experiment.resource_capacity,
        c_t=experiment.reconfiguration_time,
        delta=experiment.delta,
    ):
        result = refine_partitions_bound(
            graph,
            experiment.processor(),
            config=experiment.config(),
            options=options,
            settings=settings,
        )
    return ExperimentResult(
        experiment=experiment,
        result=result,
        wall_time=time.perf_counter() - start,
    )
