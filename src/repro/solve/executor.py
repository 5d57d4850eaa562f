"""The solver execution layer: one place where window solves happen.

:class:`SolveExecutor` sits between the search algorithms of
:mod:`repro.core` and the solver backends of :mod:`repro.ilp`.  Every
``FormModel + SolveModel`` step of the paper's procedures goes through
:meth:`SolveExecutor.solve_window`, which layers, in order:

1. **incremental model preparation** — one
   :class:`repro.core.formulation.ModelTemplate` per
   ``(graph, processor, N, options)`` is built, compiled to sparse
   standard form and fingerprinted *once*; every window solve then
   instantiates it by patching the two latency-row right-hand sides,
2. **memoization** — the model is fingerprinted (a tuple composition on
   the template path — no hashing) and the
   :class:`repro.solve.cache.SolveCache` consulted before any backend
   runs (exact replays and window-monotone verdict reuse),
3. **deadline policy** — the per-solve budget is the minimum of the
   settings' ``time_limit`` and whatever remains of the search's overall
   deadline; an already-expired deadline skips the backends entirely,
4. **portfolio execution** — the configured backends race in worker
   threads (:func:`repro.solve.portfolio.race_backends`); the first
   conclusive verdict wins and cooperative backends are cancelled,
5. **graceful degradation** — when every backend exhausts its budget,
   the greedy level-packing heuristics are tried as a last resort and
   the outcome is marked ``degraded=True`` instead of raising or
   silently reporting infeasibility,
6. **instrumentation** — every step is counted in one
   :class:`repro.obs.MetricsRegistry`; :attr:`SolveExecutor.telemetry`
   is a :class:`repro.solve.telemetry.RunTelemetry` view of it.

One executor instance is created per ``Refine_Partitions_Bound`` run (or
handed in by the caller to share the cache across runs).
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.analyzer import ANALYZE_MODES
from repro.ilp.status import SolveStatus
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import as_tracer
from repro.solve.cache import SolveCache, SolveCacheProtocol, TieredSolveCache
from repro.solve.fingerprint import ModelFingerprint, fingerprint_model
from repro.solve.portfolio import AttemptFn, SolveAttempt, race_backends
from repro.solve.telemetry import RunTelemetry, SolveStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.arch.processor import ReconfigurableProcessor
    from repro.core.formulation import FormulationOptions, ModelTemplate
    from repro.core.reduce_latency import SolverSettings
    from repro.core.solution import PartitionedDesign
    from repro.taskgraph.graph import TaskGraph

__all__ = ["WindowOutcome", "SolveExecutor", "KNOWN_BACKENDS"]

#: Backends the executor knows how to drive.  ``highs`` and ``bnb`` are
#: ILP backends solving the built model; ``cp`` is the problem-specific
#: backtracker, raced at the graph level.
KNOWN_BACKENDS = ("highs", "bnb", "cp")

#: Greedy fallback policies, tried in this order (feasibility-friendly
#: first).
_FALLBACK_POLICIES = ("min_area", "balanced", "min_latency", "max_area")


@dataclass(frozen=True)
class WindowOutcome:
    """Verdict of one window solve, however it was produced."""

    design: "PartitionedDesign | None"
    achieved: float | None          # total latency incl. overhead
    status: SolveStatus
    backend: str                    # winner, "cache", or "heuristic:<p>"
    wall_time: float
    iterations: int = 0
    cache_hit: bool = False
    degraded: bool = False

    @property
    def feasible(self) -> bool:
        return self.design is not None


class SolveExecutor:
    """Executes window solves with caching, racing, deadlines, telemetry."""

    def __init__(
        self,
        settings: "SolverSettings | None" = None,
        cache: SolveCacheProtocol | None = None,
    ) -> None:
        if settings is None:
            from repro.core.reduce_latency import SolverSettings

            settings = SolverSettings()
        self.settings = settings
        #: The run's tracer (``settings.tracer`` or the no-op
        #: :data:`repro.obs.NULL_TRACER`).  Search drivers trace through
        #: this attribute so a shared executor keeps one span tree.
        self.tracer = as_tracer(settings.tracer)
        #: The run's one record of counters (:attr:`telemetry` reads it):
        #: ``settings.metrics``, else a private registry.  The caches
        #: built here and the backend races count into it too; a cache
        #: passed in counts into the registry it was built with.
        metrics = settings.metrics
        self.metrics = metrics if metrics and metrics.enabled else MetricsRegistry()
        self._register_metrics()
        if cache is not None:
            self.cache = cache
        elif not settings.enable_cache:
            self.cache = None
        elif settings.cache_path:
            from repro.solve.disk_cache import DiskSolveCache

            self.cache = TieredSolveCache(
                SolveCache(metrics=self.metrics),
                DiskSolveCache(settings.cache_path, metrics=self.metrics),
            )
        else:
            self.cache = SolveCache(metrics=self.metrics)
        #: One row per concluded window solve, in order.
        self._solves: list[SolveStats] = []
        self.analyze_mode = settings.analyze
        if self.analyze_mode not in ANALYZE_MODES:
            raise ValueError(
                f"unknown analyze mode {self.analyze_mode!r}; "
                f"known: {ANALYZE_MODES}"
            )
        # Templates keyed by object identity of graph/processor (plus N
        # and the *effective* options).  The template itself holds strong
        # references to both objects, so a live entry's ids cannot be
        # recycled.
        self._templates: dict[
            tuple[int, int, int, "FormulationOptions"], "ModelTemplate"
        ] = {}
        # Cross-window acceleration state (see docs/solving.md).  The
        # incumbent map holds the best feasible design seen per
        # (graph, processor, options); the processor is pinned in the
        # value (and the graph via the design) so the id-based key can
        # never be recycled under a live entry.
        self.incumbent_reuse = settings.incumbent_reuse
        self.primal_first = settings.primal_first
        self._incumbents: dict[
            tuple[int, int, "FormulationOptions"],
            tuple["PartitionedDesign", float, "ReconfigurableProcessor"],
        ] = {}
        #: Packing bounds per (graph, processor, N); the value pins both
        #: objects so the id-based key can never be recycled live.
        self._packing_bounds: dict[
            tuple[int, int, int],
            tuple["TaskGraph", "ReconfigurableProcessor", float],
        ] = {}
        self._validate_backends()

    def _register_metrics(self) -> None:
        """Pre-resolve the executor's metric families (see
        docs/observability.md for the catalog)."""
        m = self.metrics
        self._m_windows = m.counter(
            "repro_window_solves_total",
            "Window solves concluded, by producing backend and status.",
            ("backend", "status"),
        )
        self._m_window_seconds = m.histogram(
            "repro_window_solve_seconds",
            "End-to-end wall time of one window solve.",
        )
        self._m_primal_hits = m.counter(
            "repro_primal_hits_total",
            "Windows answered by the primal-first pipeline, by stage.",
            ("stage",),
        )
        self._m_incumbent_reuses = m.counter(
            "repro_incumbent_reuses_total",
            "Windows answered by re-validating the carried incumbent.",
        )
        self._m_template_builds = m.counter(
            "repro_template_builds_total",
            "Model templates built (one per graph/N/options structure).",
        )
        self._m_backend_timeouts = m.counter(
            "repro_backend_timeouts_total",
            "Backend attempts that exhausted their budget in a race "
            "nobody won.",
            ("backend",),
        )
        self._m_analyses = m.counter(
            "repro_model_analyses_total",
            "Pre-solve analyzer passes run on window models.",
        )
        self._m_diagnostics = m.counter(
            "repro_analysis_diagnostics_total",
            "Analyzer findings across all passes, by severity.",
            ("severity",),
        )

    @property
    def telemetry(self) -> RunTelemetry:
        """A fresh view of :attr:`metrics` and the window rows so far.

        Executors sharing one registry see cumulative counters; in a
        multi-backend race, ``backend_wall`` includes stragglers that
        finished after the race was decided.
        """
        return RunTelemetry.from_snapshot(
            self.metrics.snapshot(), solves=self._solves
        )

    def _validate_backends(self) -> None:
        for name in self.backends:
            if name not in KNOWN_BACKENDS:
                raise ValueError(
                    f"unknown solve backend {name!r}; "
                    f"known: {KNOWN_BACKENDS}"
                )

    @property
    def backends(self) -> tuple[str, ...]:
        """The backends a window solve will run (portfolio or solo)."""
        if self.settings.portfolio:
            return tuple(self.settings.portfolio)
        return (self.settings.backend,)

    # -- model preparation ---------------------------------------------------

    def _effective_options(self, options) -> "FormulationOptions":
        """The formulation options a window solve actually builds with.

        Centralized so the template cache and the fingerprints see the
        same options object: with
        ``guide_with_objective`` the latency objective is attached here,
        once, rather than ad hoc at each call site.
        """
        from dataclasses import replace as _replace

        from repro.core.formulation import FormulationOptions

        options = options or FormulationOptions()
        if self.settings.guide_with_objective and not options.minimize_latency:
            options = _replace(options, minimize_latency=True)
        if self.settings.symmetry_breaking and not options.symmetry_breaking:
            options = _replace(options, symmetry_breaking=True)
        return options

    def template_for(
        self,
        graph: "TaskGraph",
        processor: "ReconfigurableProcessor",
        num_partitions: int,
        options: "FormulationOptions | None" = None,
    ) -> "ModelTemplate":
        """The shared :class:`ModelTemplate` for one model structure.

        Built (and compiled, and fingerprinted) on first use, then
        reused by every window solve of the same
        ``(graph, processor, N, options)`` — across all iterations of a
        ``Reduce_Latency`` bisection and across the partition bounds of
        ``Refine_Partitions_Bound`` that revisit a structure.
        """
        from repro.core.formulation import ModelTemplate

        options = self._effective_options(options)
        key = (id(graph), id(processor), num_partitions, options)
        template = self._templates.get(key)
        if template is None:
            with self.tracer.span(
                "template_build", num_partitions=num_partitions
            ):
                template = ModelTemplate(
                    graph, processor, num_partitions, options,
                    tracer=self.tracer,
                )
            self._templates[key] = template
            self._m_template_builds.inc()
        return template

    # -- the one entry point -------------------------------------------------

    def solve_window(
        self,
        graph: "TaskGraph",
        processor: "ReconfigurableProcessor",
        num_partitions: int,
        d_max: float,
        d_min: float,
        options: "FormulationOptions | None" = None,
        deadline: float | None = None,
    ) -> WindowOutcome:
        """Answer "is there a design in ``[d_min, d_max]`` at ``N``?".

        ``deadline`` is an absolute ``time.perf_counter()`` stamp (the
        search's overall budget); the per-backend budget is clipped to
        whatever remains of it.

        Model preparation is incremental: the window is instantiated
        from the shared :class:`ModelTemplate` (two RHS patches on the
        pre-compiled sparse form) instead of rebuilding the ILP from
        expressions; the result is array-identical to what
        :func:`repro.core.formulation.build_model` produces.

        With ``settings.incumbent_reuse`` every feasible verdict —
        whoever produced it — is remembered per ``(graph, processor,
        options)`` and offered to the next window, first as a zero-work
        feasibility certificate, then as a validated MILP warm start.
        """
        outcome = self._solve_window(
            graph, processor, num_partitions, d_max, d_min, options,
            deadline,
        )
        if self.incumbent_reuse and outcome.design is not None:
            key = (
                id(graph), id(processor), self._effective_options(options),
            )
            held = self._incumbents.get(key)
            if held is None or (
                outcome.achieved is not None and outcome.achieved < held[1]
            ):
                self._incumbents[key] = (
                    outcome.design,
                    float(outcome.achieved),
                    processor,
                )
        return outcome

    def _solve_window(
        self,
        graph: "TaskGraph",
        processor: "ReconfigurableProcessor",
        num_partitions: int,
        d_max: float,
        d_min: float,
        options: "FormulationOptions | None" = None,
        deadline: float | None = None,
    ) -> WindowOutcome:
        start = time.perf_counter()
        tracer = self.tracer
        with tracer.span(
            "solve_window",
            num_partitions=num_partitions,
            d_min=float(d_min),
            d_max=float(d_max),
        ):
            options = self._effective_options(options)
            template = self.template_for(
                graph, processor, num_partitions, options
            )
            with tracer.span("template_instantiate"):
                tp_model = template.instantiate(d_min, d_max)

            if self.analyze_mode != "off":
                self._analyze(tp_model)

            fp: ModelFingerprint | None = None
            if self.cache is not None:
                fp = fingerprint_model(tp_model)
                hit = self.cache.lookup(fp, graph=graph)
                if hit is not None:
                    tracer.event(
                        "cache_hit",
                        rule=hit.rule,
                        tier=getattr(hit, "tier", "memory"),
                        feasible=hit.verdict.feasible,
                    )
                    return self._from_cache(
                        hit, num_partitions, d_min, d_max, start
                    )
                tracer.event("cache_miss")

            # Incumbent carry-over: check the previous feasible design
            # against this window's rows before any backend runs.
            warm_values = None
            if self.incumbent_reuse:
                reused, warm_values = self._try_incumbent(
                    tp_model, graph, processor, num_partitions,
                    d_min, d_max, fp, start,
                )
                if reused is not None:
                    return reused

            budget = self._remaining_budget(deadline)
            if budget is not None and budget <= 0.0:
                # The overall deadline is already spent: degrade
                # immediately.
                tracer.event("deadline_expired", phase="pre_solve")
                return self._degrade(
                    graph, processor, num_partitions, d_max, d_min,
                    options, fp, start, timed_out=True,
                )

            # Primal-first stage: LP relaxation + rounding/diving under a
            # small budget; the paper's procedure only needs feasibility.
            if self.primal_first and tp_model.compiled is not None:
                probe_start = time.perf_counter()
                probed = self._primal_probe(
                    tp_model, graph, processor, options,
                    num_partitions, d_min, d_max, fp, budget, start,
                )
                if probed is not None:
                    return probed
                if budget is not None:
                    budget -= time.perf_counter() - probe_start
                    if budget <= 0.0:
                        tracer.event(
                            "deadline_expired", phase="post_primal"
                        )
                        return self._degrade(
                            graph, processor, num_partitions, d_max, d_min,
                            options, fp, start, timed_out=True,
                        )

            attempts = self._build_attempts(
                tp_model, graph, processor, num_partitions, d_max, options,
                budget, warm_values=warm_values,
            )
            winner, completed = race_backends(
                attempts, tracer=tracer, metrics=self.metrics
            )
            for attempt in completed:
                # Count budget exhaustion only when the race as a whole
                # was inconclusive — a loser cancelled mid-race also
                # reports TIME_LIMIT, but nothing actually timed out then.
                if winner is None and attempt.status in (
                    SolveStatus.TIME_LIMIT,
                    SolveStatus.NODE_LIMIT,
                ):
                    self._m_backend_timeouts.labels(attempt.backend).inc()
                    tracer.event(
                        "backend_timeout",
                        backend=attempt.backend,
                        status=attempt.status.value,
                        wall_time=attempt.wall_time,
                    )
                elif winner is not None and attempt is winner:
                    tracer.event(
                        "backend_win",
                        backend=attempt.backend,
                        status=attempt.status.value,
                        wall_time=attempt.wall_time,
                        contenders=len(attempts),
                    )
                else:
                    tracer.event(
                        "backend_loss",
                        backend=attempt.backend,
                        status=attempt.status.value,
                        wall_time=attempt.wall_time,
                        cancelled=attempt.status
                        in (SolveStatus.TIME_LIMIT, SolveStatus.NODE_LIMIT),
                    )

            if winner is not None and winner.design is not None:
                achieved = winner.design.total_latency(processor)
                if fp is not None:
                    self.cache.store_feasible(
                        fp, winner.design, achieved, backend=winner.backend
                    )
                return self._conclude(
                    winner.design, achieved, winner.status, winner.backend,
                    num_partitions, d_min, d_max, start,
                    iterations=winner.iterations,
                )
            if winner is not None:  # proven INFEASIBLE (or UNBOUNDED)
                if fp is not None and winner.status is SolveStatus.INFEASIBLE:
                    self.cache.store_infeasible(fp, backend=winner.backend)
                return self._conclude(
                    None, None, winner.status, winner.backend,
                    num_partitions, d_min, d_max, start,
                    iterations=winner.iterations,
                )

            # Every backend ran out of budget (or crashed): degrade.
            return self._degrade(
                graph, processor, num_partitions, d_max, d_min,
                options, fp, start, timed_out=True,
            )

    # -- pre-solve analysis --------------------------------------------------

    #: Per-pass cap on ``analyzer_diagnostic`` tracer events; the full
    #: report is still counted in the metrics and summarized on the span.
    _MAX_DIAGNOSTIC_EVENTS = 20

    def _analyze(self, tp_model) -> None:
        """Run the pre-solve analyzer on the prepared window model.

        ``"warn"`` records the findings (tracer span + events, metric
        counters) and continues; ``"strict"`` raises
        :class:`repro.analysis.ModelAnalysisError` on ERROR-severity
        findings *before any backend attempt* so a malformed model never
        costs a portfolio race.
        """
        from repro.analysis import ModelAnalysisError, analyze_model

        with self.tracer.span("model_analyze", mode=self.analyze_mode) as sp:
            report = analyze_model(tp_model)
            severities = Counter(d.severity.value for d in report.diagnostics)
            sp.annotate(
                errors=severities["error"], warnings=severities["warning"]
            )
            self._m_analyses.inc()
            for severity, count in severities.items():
                self._m_diagnostics.labels(severity).inc(count)
            for diag in report.diagnostics[: self._MAX_DIAGNOSTIC_EVENTS]:
                sp.event(
                    "analyzer_diagnostic",
                    code=diag.code,
                    severity=diag.severity.value,
                    paper_eq=diag.paper_eq,
                    message=diag.message,
                )
            if len(report.diagnostics) > self._MAX_DIAGNOSTIC_EVENTS:
                sp.event(
                    "analyzer_diagnostics_truncated",
                    emitted=self._MAX_DIAGNOSTIC_EVENTS,
                    total=len(report.diagnostics),
                )
        if self.analyze_mode == "strict" and not report.ok:
            raise ModelAnalysisError(report)

    # -- outcome assembly ----------------------------------------------------

    def _conclude(
        self,
        design,
        achieved,
        status: SolveStatus,
        backend: str,
        num_partitions: int,
        d_min: float,
        d_max: float,
        start: float,
        iterations: int = 0,
        cache_hit: bool = False,
        degraded: bool = False,
    ) -> WindowOutcome:
        wall = time.perf_counter() - start
        self._m_windows.labels(backend or "none", status.value).inc()
        self._m_window_seconds.observe(wall)
        outcome = WindowOutcome(
            design=design,
            achieved=achieved,
            status=status,
            backend=backend,
            wall_time=wall,
            iterations=iterations,
            cache_hit=cache_hit,
            degraded=degraded,
        )
        span = self.tracer.current_span()
        if span is not None:
            span.annotate(
                backend=backend,
                status=status.value,
                cache_hit=cache_hit,
                degraded=degraded,
                feasible=design is not None,
            )
        self.tracer.event(
            "window_verdict",
            num_partitions=num_partitions,
            d_min=d_min,
            d_max=d_max,
            feasible=design is not None,
            achieved=achieved,
            backend=backend,
            status=status.value,
            cache_hit=cache_hit,
            degraded=degraded,
        )
        self._solves.append(
            SolveStats(
                num_partitions=num_partitions,
                d_min=d_min,
                d_max=d_max,
                backend=backend,
                status=status.value,
                wall_time=wall,
                iterations=iterations,
                cache_hit=cache_hit,
                degraded=degraded,
            )
        )
        return outcome

    def _from_cache(
        self, hit, num_partitions: int, d_min: float, d_max: float, start: float
    ) -> WindowOutcome:
        verdict = hit.verdict
        if verdict.feasible:
            return self._conclude(
                verdict.design, verdict.achieved, SolveStatus.FEASIBLE,
                "cache", num_partitions, d_min, d_max, start, cache_hit=True,
            )
        return self._conclude(
            None, None, SolveStatus.INFEASIBLE,
            "cache", num_partitions, d_min, d_max, start, cache_hit=True,
        )

    # -- cross-window acceleration -------------------------------------------

    @staticmethod
    def _vectorize(compiled, values: dict) -> "np.ndarray | None":
        """Order a name -> value mapping into the compiled column order.

        Returns ``None`` when any compiled variable is missing from the
        mapping — a partial point is no feasibility certificate.
        """
        x = np.empty(compiled.num_vars)
        for name, j in compiled.var_index.items():
            value = values.get(name)
            if value is None:
                return None
            x[j] = value
        return x

    def _try_incumbent(
        self,
        tp_model,
        graph,
        processor,
        num_partitions: int,
        d_min: float,
        d_max: float,
        fp: ModelFingerprint | None,
        start: float,
    ) -> tuple[WindowOutcome | None, dict | None]:
        """Check the carried incumbent against this window's rows.

        Returns ``(outcome, warm_values)``: a concluded outcome when the
        incumbent is still feasible (one sparse matrix-vector product,
        zero solver work), else the lifted variable assignment to offer
        the backends as a validated warm start (or ``None`` if there is
        no usable incumbent).
        """
        from repro.core.formulation import warm_values_from_design

        key = (id(graph), id(processor), tp_model.options)
        held = self._incumbents.get(key)
        if held is None:
            return None, None
        design, achieved, _processor = held
        if design.num_partitions_used > num_partitions:
            return None, None
        with self.tracer.span("incumbent_check", achieved=achieved) as sp:
            values = warm_values_from_design(tp_model, design)
            compiled = tp_model.compiled
            if compiled is None:
                sp.annotate(result="no_compiled_form")
                return None, values
            x = self._vectorize(compiled, values)
            if x is None:
                sp.annotate(result="incomplete_point")
                return None, None
            if not compiled.point_feasible(x):
                sp.annotate(result="stale")
                return None, values
            sp.annotate(result="reused")
        self._m_incumbent_reuses.inc()
        self.tracer.event(
            "incumbent_reuse", achieved=achieved,
            num_partitions=num_partitions,
        )
        if fp is not None:
            self.cache.store_feasible(
                fp, design, achieved, backend="incumbent"
            )
        return (
            self._conclude(
                design, achieved, SolveStatus.FEASIBLE, "incumbent",
                num_partitions, d_min, d_max, start,
            ),
            None,
        )

    def _primal_probe(
        self,
        tp_model,
        graph,
        processor,
        options,
        num_partitions: int,
        d_min: float,
        d_max: float,
        fp: ModelFingerprint | None,
        budget: float | None,
        start: float,
    ) -> WindowOutcome | None:
        """Bound check, LP relaxation + primal heuristics, pre-race.

        Four conclusive exits, all sound for the window model:

        * the packing bound (:func:`repro.core.bounds.packing_min_latency`)
          exceeds ``d_max`` — pure arithmetic proves the window empty
          before even the LP is touched.  This is the exit that answers
          the deep windows of area-tight instances, where the LP
          relaxation is trivially feasible and the MILP refutation is
          out of reach at any practical budget.
        * LP INFEASIBLE — the relaxation is a superset of the integer
          points, so the window is *provably* empty: cached and concluded like any backend's
          infeasibility proof.
        * ``round_nearest`` or ``dive`` lands an integer-feasible point
          — a genuine design, decoded and audited like a backend win.
        * A greedy level-packing design that audits clean, uses at most
          ``N`` partitions and fits under ``d_max`` — the same
          certificate argument as the degrade path, but *before* any
          backend burns its budget (and without the ``degraded`` mark:
          a valid design is a valid design, whoever found it).
        * Anything else (LP timeout, no primal point) returns ``None``
          and the portfolio runs as usual, minus the spent budget.
        """
        from repro.ilp.rounding import dive, round_nearest
        from repro.ilp.scipy_backend import solve_relaxation
        from repro.ilp.status import Solution

        packing = self._packing_bound(graph, processor, num_partitions)
        if packing > d_max + 1e-9:
            self.tracer.event(
                "packing_bound_refutes_window",
                bound=packing, d_max=d_max,
            )
            self._m_primal_hits.labels("bound").inc()
            if fp is not None:
                self.cache.store_infeasible(fp, backend="primal:bound")
            return self._conclude(
                None, None, SolveStatus.INFEASIBLE, "primal:bound",
                num_partitions, d_min, d_max, start,
            )

        form = tp_model.compiled
        probe_limit = None
        if budget is not None:
            # Keep the probe a sliver of the window budget: its job is
            # the cheap certificates, and every second it burns is a
            # second the portfolio race loses on the hard windows.
            probe_limit = max(0.2, min(2.0, 0.1 * budget))
        with self.tracer.span("primal_probe") as sp:
            status, x, _objective, _n = solve_relaxation(
                form, time_limit=probe_limit
            )
            if status is SolveStatus.INFEASIBLE:
                sp.annotate(result="lp_infeasible")
                self._m_primal_hits.labels("lp").inc()
                if fp is not None:
                    self.cache.store_infeasible(fp, backend="primal:lp")
                return self._conclude(
                    None, None, SolveStatus.INFEASIBLE, "primal:lp",
                    num_partitions, d_min, d_max, start,
                )
            if status is not SolveStatus.OPTIMAL or x is None:
                sp.annotate(result="lp_inconclusive", status=status.value)
                return None

            candidate = round_nearest(form, x)
            label = "primal:round"
            if candidate is None:
                # Cheap structural heuristic before LP diving: the greedy
                # level packers are window-independent, so they can hit
                # only while ``d_max`` is above their fixed latency —
                # typically the wide opening window of each bisection,
                # which is also the most expensive one to race.
                greedy = self._greedy_probe(
                    graph, processor, options, num_partitions,
                    d_min, d_max, fp, start, sp,
                )
                if greedy is not None:
                    return greedy
            if candidate is None:
                label = "primal:dive"
                probe_deadline = (
                    time.perf_counter() + probe_limit
                    if probe_limit is not None
                    else None
                )

                def solve_node(lb, ub):
                    if (
                        probe_deadline is not None
                        and time.perf_counter() > probe_deadline
                    ):
                        return SolveStatus.TIME_LIMIT, None, math.nan
                    remaining = None
                    if probe_deadline is not None:
                        remaining = max(
                            probe_deadline - time.perf_counter(), 1e-3
                        )
                    node_status, node_x, node_obj, _ = solve_relaxation(
                        form, extra_lb=lb, extra_ub=ub,
                        time_limit=remaining,
                    )
                    return node_status, node_x, node_obj

                resolves = int(
                    self.settings.extra.get("primal_dive_resolves", 8)
                )
                dived = dive(
                    form, x,
                    form.lb.astype(float), form.ub.astype(float),
                    solve_node, max_resolves=resolves,
                )
                candidate = dived[0] if dived is not None else None
            if candidate is None:
                sp.annotate(result="no_primal_point")
                return None

            solution = Solution(
                status=SolveStatus.FEASIBLE,
                objective=form.objective_at(candidate),
                values=form.values_to_dict(candidate),
            )
            design = tp_model.design_from(solution)
            achieved = design.total_latency(processor)
            sp.annotate(result="hit", label=label, achieved=achieved)
        self._m_primal_hits.labels(label.split(":", 1)[1]).inc()
        if fp is not None:
            self.cache.store_feasible(fp, design, achieved, backend=label)
        return self._conclude(
            design, achieved, SolveStatus.FEASIBLE, label,
            num_partitions, d_min, d_max, start,
        )

    def _packing_bound(
        self, graph, processor, num_partitions: int
    ) -> float:
        """Memoized :func:`repro.core.bounds.packing_min_latency`."""
        from repro.core.bounds import packing_min_latency

        key = (id(graph), id(processor), num_partitions)
        held = self._packing_bounds.get(key)
        if held is None:
            held = (
                graph,
                processor,
                packing_min_latency(graph, processor, num_partitions),
            )
            self._packing_bounds[key] = held
        return held[2]

    def _greedy_probe(
        self,
        graph,
        processor,
        options,
        num_partitions: int,
        d_min: float,
        d_max: float,
        fp: ModelFingerprint | None,
        start: float,
        sp,
    ) -> WindowOutcome | None:
        """Try the greedy level packers as a primal certificate.

        Same acceptance rules as the degrade path (at most ``N``
        partitions, clean audit, latency under ``d_max``; the window's
        lower edge excludes no true design), but run up front as part of
        the primal-first stage, so a hit costs microseconds instead of a
        full backend race.  Returns ``None`` when no policy qualifies.
        """
        from repro.core.heuristics import greedy_partition

        for policy in _FALLBACK_POLICIES:
            result = greedy_partition(
                graph, processor, policy,
                include_env_memory=options.include_env_memory,
            )
            design = result.design
            if design.num_partitions_used > num_partitions:
                continue
            achieved = design.total_latency(processor)
            if achieved > d_max + 1e-9:
                continue
            if design.audit(processor, options.include_env_memory):
                continue
            label = f"primal:greedy:{policy}"
            sp.annotate(result="hit", label=label, achieved=achieved)
            self._m_primal_hits.labels("greedy").inc()
            if fp is not None:
                self.cache.store_feasible(fp, design, achieved, backend=label)
            return self._conclude(
                design, achieved, SolveStatus.FEASIBLE, label,
                num_partitions, d_min, d_max, start,
            )
        return None

    def _degrade(
        self,
        graph,
        processor,
        num_partitions: int,
        d_max: float,
        d_min: float,
        options,
        fp: ModelFingerprint | None,
        start: float,
        timed_out: bool,
    ) -> WindowOutcome:
        """Last resort: greedy level-packing instead of an exception.

        A greedy design is a genuine feasibility certificate when it uses
        at most ``N`` partitions, meets every architectural constraint
        and fits under ``d_max`` (a latency *below* ``d_min`` is accepted
        — the window's lower edge only steers the bisection bookkeeping
        and excludes no true design).
        """
        if self.settings.heuristic_fallback:
            from repro.core.heuristics import greedy_partition

            with self.tracer.span(
                "heuristic_fallback", num_partitions=num_partitions
            ) as sp:
                for policy in _FALLBACK_POLICIES:
                    result = greedy_partition(
                        graph,
                        processor,
                        policy,
                        include_env_memory=options.include_env_memory,
                    )
                    design = result.design
                    if design.num_partitions_used > num_partitions:
                        sp.event("fallback_rejected", policy=policy,
                                 reason="too_many_partitions")
                        continue
                    achieved = design.total_latency(processor)
                    if achieved > d_max + 1e-9:
                        sp.event("fallback_rejected", policy=policy,
                                 reason="over_latency", achieved=achieved)
                        continue
                    if design.audit(processor, options.include_env_memory):
                        sp.event("fallback_rejected", policy=policy,
                                 reason="audit_failed")
                        continue
                    sp.annotate(policy=policy, achieved=achieved)
                    if fp is not None:
                        self.cache.store_feasible(
                            fp, design, achieved,
                            backend=f"heuristic:{policy}",
                        )
                    return self._conclude(
                        design, achieved, SolveStatus.FEASIBLE,
                        f"heuristic:{policy}", num_partitions, d_min, d_max,
                        start, degraded=True,
                    )
                sp.annotate(policy=None, exhausted=True)
        status = SolveStatus.TIME_LIMIT if timed_out else SolveStatus.ERROR
        return self._conclude(
            None, None, status, "", num_partitions, d_min, d_max, start,
            degraded=True,
        )

    # -- backend dispatch ----------------------------------------------------

    def _remaining_budget(self, deadline: float | None) -> float | None:
        limit = self.settings.time_limit
        if deadline is None:
            return limit
        remaining = deadline - time.perf_counter()
        if limit is None:
            return remaining
        return min(limit, remaining)

    def _build_attempts(
        self,
        tp_model,
        graph,
        processor,
        num_partitions: int,
        d_max: float,
        options,
        time_limit: float | None,
        warm_values: dict | None = None,
    ) -> list[tuple[str, AttemptFn]]:
        attempts: list[tuple[str, AttemptFn]] = []
        for name in self.backends:
            if name == "cp":
                attempts.append(
                    (
                        name,
                        self._cp_attempt(
                            graph, processor, num_partitions, d_max,
                            options, time_limit,
                        ),
                    )
                )
            else:
                attempts.append(
                    (
                        name,
                        self._ilp_attempt(
                            tp_model, name, time_limit,
                            warm_values=warm_values,
                        ),
                    )
                )
        return attempts

    def _ilp_attempt(
        self,
        tp_model,
        backend: str,
        time_limit,
        warm_values: dict | None = None,
    ) -> AttemptFn:
        settings = self.settings
        tracer = self.tracer

        def run(cancel: threading.Event) -> SolveAttempt:
            start = time.perf_counter()
            kwargs = dict(settings.extra)
            if backend == "bnb":
                kwargs.setdefault("should_stop", cancel.is_set)
            if warm_values is not None:
                # Validated by the backend: bnb installs it as the
                # initial incumbent only after a full bounds/integrality
                # /rows check; highs accepts-and-ignores it (scipy's
                # milp has no MIP-start hook).
                kwargs.setdefault("warm_start", warm_values)
            if tracer.enabled:
                # Only forwarded when tracing is live: test-registered
                # backends need not accept the keyword otherwise.
                kwargs.setdefault("tracer", tracer)
            solution = tp_model.solve(
                backend=backend,
                first_feasible=True,
                time_limit=time_limit,
                node_limit=settings.node_limit,
                **kwargs,
            )
            design = None
            if solution.status.has_solution:
                design = tp_model.design_from(solution)
            return SolveAttempt(
                backend=backend,
                status=solution.status,
                design=design,
                wall_time=time.perf_counter() - start,
                iterations=solution.iterations,
            )

        return run

    def _cp_attempt(
        self, graph, processor, num_partitions, d_max, options, time_limit
    ) -> AttemptFn:
        tracer = self.tracer

        def run(cancel: threading.Event) -> SolveAttempt:
            from repro.core.cp_solver import CpStats, cp_solve

            start = time.perf_counter()
            stats = CpStats()
            design = cp_solve(
                graph,
                processor,
                num_partitions,
                d_max,
                include_env_memory=options.include_env_memory,
                time_limit=time_limit,
                stats=stats,
                should_stop=cancel.is_set,
                tracer=tracer if tracer.enabled else None,
            )
            if design is not None:
                status = SolveStatus.FEASIBLE
            elif stats.timed_out:
                status = SolveStatus.TIME_LIMIT
            elif stats.nodes >= 2_000_000:
                status = SolveStatus.NODE_LIMIT
            else:
                # Exhaustive search: a genuine emptiness proof for the
                # (stronger) question "any design with latency <= d_max".
                status = SolveStatus.INFEASIBLE
            return SolveAttempt(
                backend="cp",
                status=status,
                design=design,
                wall_time=time.perf_counter() - start,
                iterations=stats.nodes,
            )

        return run
