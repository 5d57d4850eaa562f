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
3. **incumbent carry-over** — with ``settings.incumbent_reuse`` the
   best feasible design seen so far is checked against the window's
   rows; if it still fits, the window is answered with zero solver work,
4. **deadline policy** — the per-solve budget is the minimum of the
   settings' ``time_limit`` and whatever remains of the search's overall
   deadline; an already-expired deadline skips the backend entirely,
5. **backend execution** — every window not answered by the cache or
   the incumbent goes straight to ``settings.backend`` (``highs``,
   ``bnb`` or ``cp``), inline on the caller's thread, once; a backend
   that raises is contained as an ``ERROR`` attempt,
6. **graceful degradation** — when the backend exhausts its budget,
   the greedy level-packing heuristics are tried as a last resort and
   the outcome is marked ``degraded=True`` instead of raising or
   silently reporting infeasibility,
7. **instrumentation** — each window concludes in one
   :class:`WindowOutcome` record, from which its tracer event, span
   annotations, metric labels and telemetry row are read; every step is
   counted in one :class:`repro.obs.MetricsRegistry`;
   :attr:`SolveExecutor.telemetry` is a
   :class:`repro.solve.telemetry.RunTelemetry` view of both.

One executor instance is created per ``Refine_Partitions_Bound`` run (or
handed in by the caller to share the cache across runs).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.analyzer import ANALYZE_MODES
from repro.ilp.status import SolveStatus
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import as_tracer
from repro.solve.cache import SolveCache, SolveCacheProtocol, TieredSolveCache
from repro.solve.fingerprint import ModelFingerprint, fingerprint_model
from repro.solve.telemetry import RunTelemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.arch.processor import ReconfigurableProcessor
    from repro.core.formulation import FormulationOptions, ModelTemplate
    from repro.core.reduce_latency import SolverSettings
    from repro.core.solution import PartitionedDesign
    from repro.taskgraph.graph import TaskGraph

__all__ = ["WindowOutcome", "SolveExecutor", "KNOWN_BACKENDS"]

#: Backends the executor knows how to drive.  ``highs`` and ``bnb`` are
#: ILP backends solving the built model; ``cp`` is the problem-specific
#: backtracker, run on the graph itself.
KNOWN_BACKENDS = ("highs", "bnb", "cp")

#: Greedy fallback policies, tried in this order (feasibility-friendly
#: first).
_FALLBACK_POLICIES = ("min_area", "balanced", "min_latency", "max_area")


@dataclass(frozen=True)
class WindowOutcome:
    """One window solve: the query and its verdict, however produced.

    The run's only per-window record.  :meth:`SolveExecutor._conclude`
    builds exactly one per window; the ``window_verdict`` event, the
    span annotations, the metric labels, the
    :attr:`repro.solve.RunTelemetry.solves` rows and the entries of a
    :class:`repro.core.trace.SearchTrace` are all read from it.

    Attributes
    ----------
    design, achieved:
        The certifying design and its total latency (incl. the
        ``N * C_T`` overhead); both ``None`` when no design was found.
        ``design`` is excluded from equality so a record restored from
        JSON (which carries no design) compares equal to the live one.
    status:
        The window's :class:`repro.ilp.SolveStatus`.
    backend:
        Who produced the verdict: a solver backend name,
        ``"incumbent"``, ``"cache"`` for a memoized answer,
        ``"heuristic:<policy>"`` for the greedy fallback, or ``""`` when
        nothing did (hard timeout, crash, or a window the search's
        LP/packing bound emptied before any solve).
    wall_time:
        Wall-clock seconds of the whole window solve.
    iterations:
        Work measure reported by the backend (nodes / pivots).
    cache_hit:
        The verdict came from the solve cache; no backend ran.
    degraded:
        The backend exhausted its budget (or crashed) and the verdict,
        if any, came from the greedy fallback.
    num_partitions, d_min, d_max:
        The query: partition bound and latency window (incl. overhead).
    iteration:
        The bisection step of ``Reduce_Latency`` that asked the query
        (stamped by the search; ``0`` outside one).
    """

    design: "PartitionedDesign | None" = field(compare=False)
    achieved: float | None
    status: SolveStatus
    backend: str
    wall_time: float
    iterations: int = 0
    cache_hit: bool = False
    degraded: bool = False
    num_partitions: int = 0
    d_min: float = 0.0
    d_max: float = 0.0
    iteration: int = 0

    @property
    def feasible(self) -> bool:
        return self.achieved is not None

    def row(self, reconfiguration_time: float = 0.0) -> tuple:
        """(N, I, D_min, D_max, D_a) with the overhead ``N*C_T`` removed.

        The paper's tables print bounds "without N x C_T"; passing the
        processor's ``C_T`` reproduces that convention.
        """
        overhead = self.num_partitions * reconfiguration_time
        achieved = (
            None if self.achieved is None else self.achieved - overhead
        )
        return (
            self.num_partitions,
            self.iteration,
            self.d_min - overhead,
            self.d_max - overhead,
            achieved,
        )

    def verdict_event(self) -> dict:
        """Attributes of the ``window_verdict`` tracer event."""
        return {
            "num_partitions": self.num_partitions,
            "d_min": self.d_min,
            "d_max": self.d_max,
            "feasible": self.feasible,
            "achieved": self.achieved,
            "backend": self.backend,
            "status": self.status.value,
            "cache_hit": self.cache_hit,
            "degraded": self.degraded,
        }

    # -- the two JSON shapes -------------------------------------------------

    def to_dict(self) -> dict:
        """The :class:`RunTelemetry` row (``--telemetry-json`` solves)."""
        return {
            "num_partitions": self.num_partitions,
            "d_min": self.d_min,
            "d_max": self.d_max,
            "backend": self.backend,
            "status": self.status.value,
            "wall_time": self.wall_time,
            "iterations": self.iterations,
            "cache_hit": self.cache_hit,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowOutcome":
        """Inverse of :meth:`to_dict` (no design or latency)."""
        return cls(
            design=None,
            achieved=None,
            status=SolveStatus(payload["status"]),
            backend=str(payload.get("backend", "")),
            wall_time=float(payload.get("wall_time", 0.0)),
            iterations=int(payload.get("iterations", 0)),
            cache_hit=bool(payload.get("cache_hit", False)),
            degraded=bool(payload.get("degraded", False)),
            num_partitions=int(payload["num_partitions"]),
            d_min=float(payload["d_min"]),
            d_max=float(payload["d_max"]),
        )

    def to_trace_dict(self) -> dict:
        """The :class:`repro.core.trace.SearchTrace` entry (a table row)."""
        return {
            "num_partitions": self.num_partitions,
            "iteration": self.iteration,
            "d_max": self.d_max,
            "d_min": self.d_min,
            "achieved": self.achieved,
            "wall_time": self.wall_time,
            "solver_iterations": self.iterations,
            "backend": self.backend,
            "cache_hit": self.cache_hit,
            "degraded": self.degraded,
        }

    @classmethod
    def from_trace_dict(cls, payload: dict) -> "WindowOutcome":
        """Inverse of :meth:`to_trace_dict` (no design).

        The trace shape carries no status; it is inferred: a latency
        means ``FEASIBLE``, a degraded window without one ``TIME_LIMIT``,
        anything else ``INFEASIBLE``.
        """
        achieved = payload.get("achieved")
        degraded = bool(payload.get("degraded", False))
        if achieved is not None:
            status = SolveStatus.FEASIBLE
        elif degraded:
            status = SolveStatus.TIME_LIMIT
        else:
            status = SolveStatus.INFEASIBLE
        return cls(
            design=None,
            achieved=None if achieved is None else float(achieved),
            status=status,
            backend=str(payload.get("backend", "")),
            wall_time=float(payload.get("wall_time", 0.0)),
            iterations=int(payload.get("solver_iterations", 0)),
            cache_hit=bool(payload.get("cache_hit", False)),
            degraded=degraded,
            num_partitions=int(payload["num_partitions"]),
            d_min=float(payload["d_min"]),
            d_max=float(payload["d_max"]),
            iteration=int(payload["iteration"]),
        )


#: The verdict attributes :meth:`SolveExecutor._conclude` annotates on the
#: enclosing span.
_SPAN_VERDICT_KEYS = ("backend", "status", "cache_hit", "degraded", "feasible")


def _conclusive(status: SolveStatus, design) -> bool:
    """A verdict the search can act on: a design or an emptiness proof."""
    if design is not None:
        return True
    return status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED)


class SolveExecutor:
    """Executes window solves with caching, deadlines, telemetry."""

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
        #: built here count into it too; a cache passed in counts into
        #: the registry it was built with.
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
        #: The record of every concluded window solve, in order.
        self._solves: list[WindowOutcome] = []
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
        self._incumbents: dict[
            tuple[int, int, "FormulationOptions"],
            tuple["PartitionedDesign", float, "ReconfigurableProcessor"],
        ] = {}
        if settings.backend not in KNOWN_BACKENDS:
            raise ValueError(
                f"unknown solve backend {settings.backend!r}; "
                f"known: {KNOWN_BACKENDS}"
            )

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
        self._m_incumbent_reuses = m.counter(
            "repro_incumbent_reuses_total",
            "Windows answered by re-validating the carried incumbent.",
        )
        self._m_template_builds = m.counter(
            "repro_template_builds_total",
            "Model templates built (one per graph/N/options structure).",
        )
        self._m_backend_attempts = m.counter(
            "repro_backend_attempts_total",
            "Backend attempts started, one per window that reached a "
            "backend.",
            ("backend",),
        )
        self._m_backend_seconds = m.histogram(
            "repro_backend_solve_seconds",
            "Wall time of one backend attempt.",
            ("backend",),
        )
        self._m_backend_wins = m.counter(
            "repro_backend_wins_total",
            "Backend attempts that ended with a conclusive verdict.",
            ("backend",),
        )
        self._m_backend_timeouts = m.counter(
            "repro_backend_timeouts_total",
            "Backend attempts that exhausted their time or node budget.",
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

        Executors sharing one registry see cumulative counters.
        """
        return RunTelemetry.from_snapshot(
            self.metrics.snapshot(), solves=self._solves
        )

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

            status, design, iterations = self._run_attempt(
                tp_model, graph, processor, num_partitions, d_max, options,
                budget, warm_values,
            )
            backend = self.settings.backend
            if design is not None:
                achieved = design.total_latency(processor)
                if fp is not None:
                    self.cache.store_feasible(
                        fp, design, achieved, backend=backend
                    )
                return self._conclude(
                    design, achieved, status, backend,
                    num_partitions, d_min, d_max, start,
                    iterations=iterations,
                )
            if _conclusive(status, design):  # proven INFEASIBLE (or UNBOUNDED)
                if fp is not None and status is SolveStatus.INFEASIBLE:
                    self.cache.store_infeasible(fp, backend=backend)
                return self._conclude(
                    None, None, status, backend,
                    num_partitions, d_min, d_max, start,
                    iterations=iterations,
                )

            # The backend ran out of budget or crashed: degrade.
            return self._degrade(
                graph, processor, num_partitions, d_max, d_min,
                options, fp, start,
                timed_out=status is not SolveStatus.ERROR,
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
        costs a backend solve.
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
        """Build the window's one record and feed every view from it."""
        record = WindowOutcome(
            design=design,
            achieved=achieved,
            status=status,
            backend=backend,
            wall_time=time.perf_counter() - start,
            iterations=iterations,
            cache_hit=cache_hit,
            degraded=degraded,
            num_partitions=num_partitions,
            d_min=d_min,
            d_max=d_max,
        )
        self._m_windows.labels(
            record.backend or "none", record.status.value
        ).inc()
        self._m_window_seconds.observe(record.wall_time)
        verdict = record.verdict_event()
        span = self.tracer.current_span()
        if span is not None:
            span.annotate(**{key: verdict[key] for key in _SPAN_VERDICT_KEYS})
        self.tracer.event("window_verdict", **verdict)
        self._solves.append(record)
        return record

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
        the backend as a validated warm start (or ``None`` if there is
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

    def _greedy_certificate(
        self,
        graph,
        processor,
        options,
        num_partitions: int,
        d_max: float,
        span,
    ) -> "tuple[str, PartitionedDesign, float] | None":
        """The first greedy level-packing design that certifies the window.

        A greedy design is a genuine feasibility certificate when it uses
        at most ``N`` partitions, fits under ``d_max`` (a latency *below*
        ``d_min`` is accepted — the window's lower edge only steers the
        bisection bookkeeping and excludes no true design) and meets every
        architectural constraint.  Policies are tried in
        :data:`_FALLBACK_POLICIES` order; each one that fails a check is
        reported as a ``fallback_rejected`` event on ``span``.
        Returns ``(policy, design, achieved)``, or ``None`` when no policy
        qualifies.
        """
        from repro.core.heuristics import greedy_partition

        for policy in _FALLBACK_POLICIES:
            design = greedy_partition(
                graph, processor, policy,
                include_env_memory=options.include_env_memory,
            ).design
            achieved = design.total_latency(processor)
            if design.num_partitions_used > num_partitions:
                rejected = {"reason": "too_many_partitions"}
            elif achieved > d_max + 1e-9:
                rejected = {"reason": "over_latency", "achieved": achieved}
            elif design.audit(processor, options.include_env_memory):
                rejected = {"reason": "audit_failed"}
            else:
                return policy, design, achieved
            span.event("fallback_rejected", policy=policy, **rejected)
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

        A certifying greedy design (:meth:`_greedy_certificate`) concludes
        the window ``FEASIBLE``; otherwise it concludes ``TIME_LIMIT``
        after a budget ran out (``timed_out``) and ``ERROR`` after a
        backend crash.  Either way the outcome is marked ``degraded``.
        """
        if self.settings.heuristic_fallback:
            with self.tracer.span(
                "heuristic_fallback", num_partitions=num_partitions
            ) as sp:
                found = self._greedy_certificate(
                    graph, processor, options, num_partitions, d_max, span=sp
                )
                if found is not None:
                    policy, design, achieved = found
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

    def _run_attempt(
        self,
        tp_model,
        graph,
        processor,
        num_partitions: int,
        d_max: float,
        options,
        time_limit: float | None,
        warm_values: dict | None,
    ) -> "tuple[SolveStatus, PartitionedDesign | None, int]":
        """Run ``settings.backend`` on the window, inline, and count it.

        Returns ``(status, design, iterations)``.  The attempt runs
        inside an ``attempt:<backend>`` span (a child of
        ``solve_window``) and ends in exactly one of the
        ``backend_win`` (conclusive), ``backend_timeout`` (time or node
        budget spent) or ``backend_loss`` (anything else, such as a
        crash) events.  A backend that raises becomes an ``ERROR``
        attempt annotated with the exception: a crash must not take the
        search down, and the executor degrades the window instead.
        """
        name = self.settings.backend
        start = time.perf_counter()
        error = None
        with self.tracer.span(f"attempt:{name}", backend=name) as sp:
            try:
                if name == "cp":
                    status, design, iterations = self._cp_attempt(
                        graph, processor, num_partitions, d_max, options,
                        time_limit,
                    )
                else:
                    status, design, iterations = self._ilp_attempt(
                        tp_model, name, time_limit, warm_values
                    )
            except Exception as exc:  # noqa: BLE001 - deliberate containment
                status, design, iterations = SolveStatus.ERROR, None, 0
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            conclusive = _conclusive(status, design)
            sp.annotate(
                status=status.value,
                iterations=iterations,
                conclusive=conclusive,
            )
            if error:
                sp.annotate(error=error)
        self._m_backend_attempts.labels(name).inc()
        self._m_backend_seconds.labels(name).observe(wall)
        if conclusive:
            self._m_backend_wins.labels(name).inc()
            verdict = "backend_win"
        elif status in (SolveStatus.TIME_LIMIT, SolveStatus.NODE_LIMIT):
            self._m_backend_timeouts.labels(name).inc()
            verdict = "backend_timeout"
        else:
            verdict = "backend_loss"
        self.tracer.event(
            verdict, backend=name, status=status.value, wall_time=wall
        )
        return status, design, iterations

    def _ilp_attempt(
        self, tp_model, backend: str, time_limit, warm_values: dict | None
    ) -> "tuple[SolveStatus, PartitionedDesign | None, int]":
        kwargs = dict(self.settings.extra)
        if warm_values is not None:
            # Validated by the backend: bnb installs it as the initial
            # incumbent only after a full bounds/integrality/rows check;
            # highs accepts-and-ignores it (scipy's milp has no MIP-start
            # hook).
            kwargs.setdefault("warm_start", warm_values)
        if self.tracer.enabled:
            # Only forwarded when tracing is live: test-registered
            # backends need not accept the keyword otherwise.
            kwargs.setdefault("tracer", self.tracer)
        solution = tp_model.solve(
            backend=backend,
            first_feasible=True,
            time_limit=time_limit,
            node_limit=self.settings.node_limit,
            **kwargs,
        )
        design = None
        if solution.status.has_solution:
            design = tp_model.design_from(solution)
        return solution.status, design, solution.iterations

    def _cp_attempt(
        self, graph, processor, num_partitions, d_max, options, time_limit
    ) -> "tuple[SolveStatus, PartitionedDesign | None, int]":
        from repro.core.cp_solver import CpStats, cp_solve

        stats = CpStats()
        design = cp_solve(
            graph,
            processor,
            num_partitions,
            d_max,
            include_env_memory=options.include_env_memory,
            time_limit=time_limit,
            stats=stats,
            tracer=self.tracer if self.tracer.enabled else None,
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
        return status, design, stats.nodes
