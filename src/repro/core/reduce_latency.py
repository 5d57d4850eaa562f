"""Algorithm ``Reduce_Latency`` — latency refinement by binary subdivision.

This is Figure 1 of the paper.  For a fixed partition bound ``N`` and a
latency window ``[D_min, D_max]`` it repeatedly

1. asks the ILP for *any* constraint-satisfying solution in the window,
2. on success, pulls the upper bound down to the achieved latency and
   bisects the remaining window,
3. on failure, pushes the lower bound up to the tried upper bound,

until the window is narrower than the *latency tolerance* ``delta`` or
the incumbent sits within ``delta`` of the lower bound.  With
``SolverSettings.dual_bound`` the trials after the first window are
gap-limited minimize solves instead, whose dual bounds lift the lower
bound (see ``docs/solving.md``, "Dual-bound trials").  The tolerance
trades solution quality against run time: the paper's Tables 5 vs 7 (and
6 vs 8) show ``delta = 100`` finding better solutions than
``delta = 800`` at the cost of more iterations — our ablation benchmark
reproduces that trade-off.

Each window question is executed by the solver execution layer
(:class:`repro.solve.SolveExecutor`): backend dispatch, solve
memoization, deadline enforcement and graceful degradation all live
there, not in this algorithm (see ``docs/solving.md``).  The executor
also holds the run's :class:`repro.core.formulation.ModelTemplate`s, so
across the bisection's iterations the constraint system is built and
compiled once and each window costs two right-hand-side patches (see
``docs/architecture.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.arch.processor import ReconfigurableProcessor
from repro.core import bounds
from repro.core.formulation import (
    FormulationOptions,
    lp_latency_lower_bound,
)
from repro.core.solution import PartitionedDesign
from repro.core.trace import SearchTrace
from repro.ilp.status import SolveStatus
from repro.solve.executor import SolveExecutor, WindowOutcome
from repro.solve.telemetry import RunTelemetry
from repro.taskgraph.graph import TaskGraph

__all__ = ["SolverSettings", "ReduceLatencyResult", "reduce_latency"]


@dataclass(frozen=True)
class SolverSettings:
    """How each ``SolveModel()`` call is executed.

    Attributes
    ----------
    backend:
        The one backend that answers every window solve, inline:
        ``"highs"`` or ``"bnb"`` (ILP backends) or ``"cp"`` (the
        problem-specific backtracker).
    time_limit:
        Per-solve wall-clock budget, enforced on the backend.  A solve
        that exhausts it without an incumbent is treated as infeasible by
        the search — the same pragmatic convention the paper applies to
        CPLEX runs — unless the greedy fallback produces a certificate
        (see ``heuristic_fallback``).
    use_lp_bound:
        Tighten ``D_min`` before the bisection starts, with both the
        LP-relaxation latency bound
        (:func:`repro.core.formulation.lp_latency_lower_bound`) and the
        combinatorial packing bound
        (:func:`repro.core.bounds.packing_min_latency`).  Windows below
        either bound are provably empty, so this removes the
        time-limited infeasibility probes — on area-tight instances the
        packing bound is the decisive one: it refutes by arithmetic the
        deep windows the MILP solver cannot refute within any practical
        budget.  An extension over the paper; disable to reproduce the
        paper's exact bound bookkeeping (Ablation E compares both).
        Applied identically on plain and accelerated paths, so it never
        perturbs trajectory identity.
    guide_with_objective:
        Attach the latency objective even in constraint-satisfaction mode
        so the MILP heuristics aim low; the first incumbent is still
        accepted as-is (the paper's semantics).
    enable_cache:
        Memoize window verdicts by model fingerprint
        (:mod:`repro.solve.cache`), reusing feasibility certificates and
        emptiness proofs across the run's near-identical ILPs.
    heuristic_fallback:
        When the backend times out, fall back to the greedy
        level-packing heuristics and mark the outcome ``degraded=True``
        instead of silently reporting infeasibility.
    incumbent_reuse:
        Carry the last feasible assignment across windows: before any
        backend starts, the previous incumbent is checked against the
        new window's rows (one sparse matrix-vector product); if it
        still fits, the window is answered SAT with zero solver work,
        otherwise it is installed as a validated MILP warm start.
        Sound under the monotone window rules: the check is a full
        feasibility certificate, never a guess.
    symmetry_breaking:
        Force :attr:`FormulationOptions.symmetry_breaking` on for every
        window model prepared by the executor (lexicographic
        partition-index ordering over interchangeable tasks, added at
        template-compile time).
    dual_bound:
        Replace the bisection's midpoint trials with gap-limited
        *minimize* trials (``backend="highs"`` only; ``bnb`` and ``cp``
        keep the midpoint rule).  After the first window, each trial
        minimizes latency on ``[D_min, D_a - delta]`` until HiGHS's
        gap is at most ``delta``: a design becomes the new ``D_a`` and
        the solver's dual bound raises ``D_min``; an ``INFEASIBLE``
        verdict ends the partition bound, proven within ``delta``; a
        trial that ends with neither sends the partition bound back to
        the midpoint rule.  ``D_a`` stays within ``delta`` of the
        default search's, but the windows asked differ.
    cache_path:
        When set, back the in-process solve cache with the persistent
        :class:`repro.solve.disk_cache.DiskSolveCache` at this path
        (SQLite).  Verdicts survive the process and are shared by every
        executor — and every *worker process* of the service —
        pointed at the same file; the monotone reuse rules apply
        unchanged.  ``None`` (the default) keeps the cache in memory
        only, the previous behavior.
    analyze:
        Pre-solve model analysis mode (:mod:`repro.analysis`).
        ``"off"`` — the default — skips the analyzer entirely;
        ``"warn"`` runs both the structural and paper-conformance passes
        on every prepared window model, records the findings in
        telemetry and tracer events, and continues; ``"strict"``
        additionally raises
        :class:`repro.analysis.ModelAnalysisError` before any backend
        attempt when the report contains errors.  The diagnostic
        catalog lives in ``docs/analysis.md``.
    tracer:
        Optional :class:`repro.obs.Tracer` recording spans and events
        for every layer of the run (search iterations, window solves,
        backend attempts, model preparation).  ``None`` — the default —
        routes all instrumentation to the no-op
        :data:`repro.obs.NULL_TRACER`; :class:`RunTelemetry` stays the
        cheap always-on aggregate either way.  Excluded from equality
        so settings compare by solver behavior, which tracing never
        changes.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` accumulating
        labeled counters/gauges/histograms across runs (windows solved,
        per-backend attempts, cache tiers, solve-duration histograms).
        ``None`` — the default — gives each
        :class:`repro.solve.SolveExecutor` a private registry (its
        :class:`RunTelemetry` is read from it); one registry shared by
        several runs makes their telemetry cumulative.  Threaded like
        ``tracer``: excluded from equality, never crosses the service
        wire boundary (service workers count into a private registry and
        ship a mergeable :class:`repro.obs.MetricsSnapshot` home).
        Scrape it with ``repro-tp serve --metrics-port`` or render it
        with :func:`repro.obs.render_promtext`.
    """

    backend: str = "highs"
    time_limit: float | None = 60.0
    node_limit: int | None = None
    use_lp_bound: bool = True
    guide_with_objective: bool = True
    enable_cache: bool = True
    heuristic_fallback: bool = True
    incumbent_reuse: bool = False
    symmetry_breaking: bool = False
    dual_bound: bool = False
    cache_path: str | None = None
    analyze: str = "off"
    extra: dict = field(default_factory=dict)
    tracer: "object | None" = field(default=None, repr=False, compare=False)
    metrics: "object | None" = field(default=None, repr=False, compare=False)

    # -- presets -------------------------------------------------------------
    #
    # Service callers pick a profile instead of hand-assembling nine
    # keywords.  Each preset is *exactly* a hand-built SolverSettings
    # (property-tested field for field in tests/solve/test_presets.py);
    # keyword overrides are forwarded to the constructor and win over
    # the preset's choices.

    #: The acceleration switches the presets toggle as a group.
    ACCELERATION_FLAGS = (
        "incumbent_reuse",
        "symmetry_breaking",
        "dual_bound",
    )

    @classmethod
    def fast(cls, **overrides) -> "SolverSettings":
        """Lowest wall time: HiGHS alone with every acceleration on.

        Enables all of :data:`ACCELERATION_FLAGS` (cross-window
        incumbent carry, symmetry breaking, dual-bound trials) and
        solves each window with the default ``backend``.  ``D_a`` within
        ``delta`` of the default search; iteration-level traces differ.
        """
        base: dict = {flag: True for flag in cls.ACCELERATION_FLAGS}
        base.update(overrides)
        return cls(**base)

    @classmethod
    def paper_exact(cls, **overrides) -> "SolverSettings":
        """The paper's bookkeeping, bit for bit.

        Disables every extension that could change the search
        trajectory relative to Kaul & Vemuri's procedure: no LP/packing
        bound tightening, no objective guidance in satisfaction mode,
        no acceleration flags, and no greedy fallback — a budget-
        exhausted solve reads as infeasible, the paper's convention for
        CPLEX timeouts.  (The solve cache stays on: it is
        trajectory-preserving.)
        """
        base: dict = {
            "use_lp_bound": False,
            "guide_with_objective": False,
            "heuristic_fallback": False,
        }
        base.update({flag: False for flag in cls.ACCELERATION_FLAGS})
        base.update(overrides)
        return cls(**base)

    @classmethod
    def debug(cls, **overrides) -> "SolverSettings":
        """Fail loudly, hide nothing.

        Strict pre-solve analysis (malformed models raise before any
        backend runs), no solve cache (every window truly solves), and
        no greedy fallback (budget exhaustion surfaces instead of
        degrading).  Pair with ``tracer=...`` for the full span tree.
        """
        base: dict = {
            "analyze": "strict",
            "enable_cache": False,
            "heuristic_fallback": False,
        }
        base.update(overrides)
        return cls(**base)


@dataclass
class ReduceLatencyResult:
    """Outcome of one :func:`reduce_latency` run (one partition bound)."""

    num_partitions: int
    design: PartitionedDesign | None
    achieved: float | None           # total latency incl. reconfiguration
    trace: SearchTrace
    telemetry: RunTelemetry | None = None

    @property
    def feasible(self) -> bool:
        return self.design is not None

    @property
    def degraded(self) -> bool:
        """Some window fell back past the backend's budget."""
        return self.trace.degraded


def reduce_latency(
    graph: TaskGraph,
    processor: ReconfigurableProcessor,
    num_partitions: int,
    d_max: float,
    d_min: float,
    delta: float,
    options: FormulationOptions | None = None,
    settings: SolverSettings | None = None,
    deadline: float | None = None,
    executor: SolveExecutor | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> ReduceLatencyResult:
    """Run Algorithm ``Reduce_Latency(N, D_max, D_min)`` (Figure 1).

    Parameters
    ----------
    num_partitions:
        The partition bound ``N``.
    d_max, d_min:
        Latency window *including* the ``N * C_T`` overhead, as produced
        by :func:`repro.core.bounds.max_latency` / ``min_latency`` or by
        the outer partition-space search.
    delta:
        Latency tolerance: the unexplored window the caller accepts.
    deadline:
        Absolute ``time.perf_counter()`` stamp after which no further ILP
        is started (the paper's ``TimeExpired()``); also clips the
        backend's per-solve budget.
    executor:
        The execution layer to solve through.  Passing one shares its
        solve cache and telemetry across calls (the outer search does
        this); when ``None`` a fresh executor is built from ``settings``.
    should_stop:
        Optional cooperative-cancellation probe, polled wherever the
        deadline is (before each bisection trial).  The service's
        ``cancel_all()`` reaches running requests through it (via
        :func:`~repro.core.refine_partitions.refine_partitions_bound`)
        without killing processes.
        ``None`` — the default — changes nothing: the search trajectory
        is bit-identical to a run without the parameter.
    """
    if delta <= 0:
        raise ValueError("latency tolerance delta must be positive")
    options = options or FormulationOptions()
    settings = settings or SolverSettings()
    if executor is None:
        executor = SolveExecutor(settings)
    # The executor's tracer is the run's tracer: sharing an executor
    # across calls keeps every span in one tree.
    tracer = executor.tracer
    trace = SearchTrace()
    iteration = 1

    with tracer.span(
        "reduce_latency",
        num_partitions=num_partitions,
        d_min=float(d_min),
        d_max=float(d_max),
        delta=float(delta),
    ) as rl_span:

        def result(design, achieved) -> ReduceLatencyResult:
            rl_span.annotate(
                feasible=design is not None,
                achieved=achieved,
                iterations=len(trace),
                degraded=trace.degraded,
            )
            return ReduceLatencyResult(
                num_partitions,
                design,
                achieved,
                trace,
                telemetry=executor.telemetry,
            )

        if settings.use_lp_bound:
            # Extension: windows below the LP-relaxation latency bound or
            # the combinatorial packing bound are provably empty; raising
            # D_min to the tighter of the two keeps every bisection trial
            # in the region where solutions may exist.
            with tracer.span("lp_bound", num_partitions=num_partitions) as sp:
                lp_bound = lp_latency_lower_bound(
                    graph, processor, num_partitions, options
                )
                sp.annotate(bound=lp_bound)
            with tracer.span(
                "packing_bound", num_partitions=num_partitions
            ) as sp:
                packing = bounds.packing_min_latency(
                    graph, processor, num_partitions
                )
                sp.annotate(bound=packing)
            tightened = max(lp_bound, packing)
            if tightened > d_max:
                tracer.event(
                    "bound_prunes_window",
                    lp_bound=lp_bound,
                    packing_bound=packing,
                    d_max=d_max,
                )
                trace.add(
                    WindowOutcome(
                        design=None,
                        achieved=None,
                        status=SolveStatus.INFEASIBLE,
                        backend="",
                        wall_time=0.0,
                        num_partitions=num_partitions,
                        d_min=d_min,
                        d_max=d_max,
                        iteration=iteration,
                    )
                )
                return result(None, None)
            d_min = max(d_min, tightened)

        def solve(
            window_max: float, window_min: float, gap: float | None = None
        ) -> WindowOutcome:
            nonlocal iteration
            with tracer.span(
                "iteration",
                iteration=iteration,
                num_partitions=num_partitions,
                d_min=float(window_min),
                d_max=float(window_max),
            ):
                outcome = executor.solve_window(
                    graph,
                    processor,
                    num_partitions,
                    window_max,
                    window_min,
                    options,
                    deadline=deadline,
                    gap=gap,
                )
            trace.add(replace(outcome, iteration=iteration))
            iteration += 1
            return outcome

        # First call on the full window.
        first = solve(d_max, d_min)
        if first.design is None:
            return result(None, None)
        achieved = first.achieved
        best = first.design
        gap_trials = settings.dual_bound and settings.backend == "highs"

        while (d_max - d_min >= delta) and (achieved - d_min >= delta):
            if deadline is not None and time.perf_counter() > deadline:
                tracer.event("deadline_expired", phase="bisection")
                break
            if should_stop is not None and should_stop():
                tracer.event("cancelled", phase="bisection")
                break
            if gap_trials:
                # Extension (dual_bound): minimize below the incumbent
                # until the solver's gap is under delta.
                candidate = solve(achieved - delta, d_min, gap=delta)
                if candidate.design is not None:
                    achieved = candidate.achieved
                    best = candidate.design
                    d_max = achieved
                    if candidate.bound is not None:
                        # No design in the window lies below the bound.
                        d_min = max(d_min, candidate.bound)
                elif candidate.status is SolveStatus.INFEASIBLE:
                    break  # nothing below achieved - delta: within delta
                else:
                    # Neither a design nor a proof (a timeout): this N
                    # goes back to the midpoint rule.
                    gap_trials = False
                continue
            # Bisect, then keep halving until the trial bound undercuts the
            # incumbent — otherwise the solve could return the same solution.
            trial = (d_max + d_min) / 2.0
            while trial >= achieved:
                trial = (trial + d_min) / 2.0
            candidate = solve(trial, d_min)
            if candidate.design is None:
                d_min = trial
            else:
                achieved = candidate.achieved
                best = candidate.design
                d_max = achieved
        return result(best, achieved)
