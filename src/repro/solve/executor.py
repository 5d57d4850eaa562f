"""The solver execution layer: one place where window solves happen.

:class:`SolveExecutor` sits between the search algorithms of
:mod:`repro.core` and the solver backends of :mod:`repro.ilp`.  Every
``FormModel + SolveModel`` step of the paper's procedures goes through
:meth:`SolveExecutor.solve_window`, which layers, in order:

1. **packing bound** — with ``use_lp_bound``, a window whose ``d_max``
   lies below :meth:`SolveExecutor.packing_bound` concludes
   ``INFEASIBLE`` (backend ``"packing"``) before anything else runs,
2. **incremental model preparation** — one
   :class:`repro.core.formulation.ModelTemplate` per
   ``(graph, processor, N, options)`` is built, compiled to sparse
   standard form and fingerprinted *once*; every window solve then
   instantiates it by patching the two latency-row right-hand sides,
3. **memoization** — the model is fingerprinted (a tuple composition on
   the template path — no hashing) and the
   :class:`repro.solve.cache.SolveCache` consulted before any backend
   runs (exact replays and window-monotone verdict reuse),
4. **incumbent certificate** — a design the caller hands in
   (``solve_window(..., incumbent=...)``, the search's carried ``D_a``)
   answers the window with zero solver work when it uses at most ``N``
   partitions and its latency lies in the window,
5. **deadline policy** — the per-solve budget is the minimum of the
   settings' ``time_limit`` and whatever remains of the search's overall
   deadline; an already-expired deadline skips the backend entirely,
6. **backend execution** — every window not answered by the cache or
   the certificate goes straight to ``settings.backend`` (``highs``,
   ``bnb`` or ``cp``), inline on the caller's thread, once; a backend
   that raises is contained as an ``ERROR`` attempt, and so is an ILP
   point that breaks a row of the window's model once its integral
   columns are rounded (``backend_point_rejected``),
7. **graceful degradation** — when the backend exhausts its budget,
   the greedy level-packing heuristics are tried as a last resort and
   the outcome is marked ``degraded=True`` instead of raising or
   silently reporting infeasibility,
8. **instrumentation** — each fact is emitted once, as a tracer event
   that :func:`_fold_table` folds into one
   :class:`repro.obs.MetricsRegistry`; each window concludes in one
   :class:`WindowOutcome` record, from which its event, span
   annotations and telemetry row are read;
   :attr:`SolveExecutor.telemetry` is a
   :class:`repro.solve.telemetry.RunTelemetry` view of both.

One executor instance is created per ``Refine_Partitions_Bound`` run (or
handed in by the caller to share the cache across runs).  It carries
nothing from one window to the next but its templates and their
packing bounds, its cache, its metrics and its window records.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analysis.analyzer import ANALYZE_MODES
from repro.analysis.diagnostics import Severity
from repro.ilp.model import accepts_keyword
from repro.ilp.status import SolveStatus
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import as_tracer
from repro.solve.cache import SolveCache, window_holds
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
    builds exactly one per window; the ``window_verdict`` event (and
    the window metrics folded from it), the span annotations, the
    :attr:`repro.solve.RunTelemetry.solves` rows and the entries of a
    :class:`repro.core.trace.SearchTrace` are all this record, in the
    one JSON shape of :meth:`to_dict`.

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
        ``"heuristic:<policy>"`` for the greedy fallback, ``"packing"``
        for a window below the packing bound, or ``""`` when nothing did:
        a hard timeout or a crash (or, in older payloads, a bound prune).
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
        (``solve_window(..., iteration=...)``; ``0`` outside one).
    bound:
        The solver's proven lower bound on the latency of any design in
        the window, from a gap-limited minimize solve (``solve_window(...,
        gap=...)``) or an exact cache replay of one; ``None`` otherwise.
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
    bound: float | None = None

    @property
    def feasible(self) -> bool:
        return self.achieved is not None

    @property
    def unknown(self) -> bool:
        """Neither a design nor a proof: the window timed out, hit its
        node limit or crashed.  Tables print it ``T/O``, not ``Inf.``."""
        return self.achieved is None and self.status in (
            SolveStatus.TIME_LIMIT, SolveStatus.NODE_LIMIT, SolveStatus.ERROR,
        )

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

    # -- the one JSON shape -------------------------------------------------

    def to_dict(self) -> dict:
        """Every field but the design, once: the trace entry, the
        telemetry row and the ``window_verdict`` event attributes."""
        return {
            "num_partitions": self.num_partitions,
            "iteration": self.iteration,
            "d_min": self.d_min,
            "d_max": self.d_max,
            "achieved": self.achieved,
            "bound": self.bound,
            "status": self.status.value,
            "backend": self.backend,
            "wall_time": self.wall_time,
            "iterations": self.iterations,
            "cache_hit": self.cache_hit,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowOutcome":
        """Inverse of :meth:`to_dict` (no design).

        Also reads the outcome v1–v3 shapes: telemetry rows (no
        ``iteration``, ``achieved`` or ``bound``) and trace entries,
        which name the backend's work ``solver_iterations`` and carry no
        ``status``.  Such a status is inferred: a latency means
        ``FEASIBLE``, a degraded window without one ``TIME_LIMIT``,
        anything else ``INFEASIBLE``.
        """
        achieved = payload.get("achieved")
        bound = payload.get("bound")
        degraded = bool(payload.get("degraded", False))
        status = payload.get("status")
        if status is None:
            if achieved is not None:
                status = SolveStatus.FEASIBLE
            elif degraded:
                status = SolveStatus.TIME_LIMIT
            else:
                status = SolveStatus.INFEASIBLE
        return cls(
            design=None,
            achieved=None if achieved is None else float(achieved),
            status=SolveStatus(status),
            backend=str(payload.get("backend", "")),
            wall_time=float(payload.get("wall_time", 0.0)),
            iterations=int(
                payload.get("iterations", payload.get("solver_iterations", 0))
            ),
            cache_hit=bool(payload.get("cache_hit", False)),
            degraded=degraded,
            num_partitions=int(payload["num_partitions"]),
            d_min=float(payload["d_min"]),
            d_max=float(payload["d_max"]),
            iteration=int(payload.get("iteration", 0)),
            bound=None if bound is None else float(bound),
        )


def _conclusive(status: SolveStatus, design) -> bool:
    """A verdict the search can act on: a design or an emptiness proof."""
    if design is not None:
        return True
    return status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED)


#: Absolute slack for a backend's point on every bound and row (see
#: :meth:`CompiledModel.point_feasible`).  HiGHS leaves ``d[p]`` up to
#: 1.0e-6 short of a path row's latency sum, exactly the method's
#: default ``tol``; ten times that clears the solver's own tolerance and
#: is still far below any latency, area or memory unit.
_POINT_TOL = 1e-5


def _point_holds(compiled, solution) -> bool:
    """Does the backend's point, integral columns rounded, satisfy every
    bound and row of the window's compiled model?"""
    x = np.array(
        [solution.values.get(var.name, np.nan) for var in compiled.variables]
    )
    integral = compiled.is_integral
    x[integral] = np.round(x[integral])
    return compiled.point_feasible(x, tol=_POINT_TOL)


def _fold_table(m: MetricsRegistry) -> "dict[str, Callable[[dict], None]]":
    """``event name -> fold(attrs)``: the only place the executor's
    metric families are registered (eagerly, so empty ones still show in
    snapshots; catalog in docs/observability.md) and updated."""
    windows = m.counter(
        "repro_window_solves_total",
        "Window solves concluded, by producing backend and status.",
        ("backend", "status"),
    )
    window_seconds = m.histogram(
        "repro_window_solve_seconds",
        "End-to-end wall time of one window solve.",
    )
    incumbent_reuses = m.counter(
        "repro_incumbent_reuses_total",
        "Windows answered by the search's carried incumbent.",
    )
    template_builds = m.counter(
        "repro_template_builds_total",
        "Model templates built (one per graph/N/options structure).",
    )
    attempts = m.counter(
        "repro_backend_attempts_total",
        "Backend attempts started, one per window that reached a backend.",
        ("backend",),
    )
    attempt_seconds = m.histogram(
        "repro_backend_solve_seconds",
        "Wall time of one backend attempt.",
        ("backend",),
    )
    wins = m.counter(
        "repro_backend_wins_total",
        "Backend attempts that ended with a conclusive verdict.",
        ("backend",),
    )
    timeouts = m.counter(
        "repro_backend_timeouts_total",
        "Backend attempts that exhausted their time or node budget.",
        ("backend",),
    )
    analyses = m.counter(
        "repro_model_analyses_total",
        "Pre-solve analyzer passes run on window models.",
    )
    diagnostics = m.counter(
        "repro_analysis_diagnostics_total",
        "Analyzer findings across all passes, by severity.",
        ("severity",),
    )

    def window_verdict(e: dict) -> None:
        windows.labels(e["backend"] or "none", e["status"]).inc()
        window_seconds.observe(e["wall_time"])
        if e["backend"] == "incumbent":
            incumbent_reuses.inc()

    def model_analyzed(e: dict) -> None:
        analyses.inc()
        for severity, count in e.items():
            if count:
                diagnostics.labels(severity).inc(count)

    def attempt(e: dict, verdict=None) -> None:
        attempts.labels(e["backend"]).inc()
        attempt_seconds.labels(e["backend"]).observe(e["wall_time"])
        if verdict is not None:
            verdict.labels(e["backend"]).inc()

    return {
        "window_verdict": window_verdict,
        "template_built": lambda e: template_builds.inc(),
        "model_analyzed": model_analyzed,
        "backend_win": lambda e: attempt(e, wins),
        "backend_timeout": lambda e: attempt(e, timeouts),
        "backend_loss": attempt,
    }


class SolveExecutor:
    """Executes window solves with caching, deadlines, telemetry."""

    def __init__(
        self,
        settings: "SolverSettings | None" = None,
        cache: object | None = None,
    ) -> None:
        if settings is None:
            from repro.core.reduce_latency import SolverSettings

            settings = SolverSettings()
        # Validate before anything opens the disk store.
        if settings.backend not in KNOWN_BACKENDS:
            raise ValueError(
                f"unknown solve backend {settings.backend!r}; "
                f"known: {KNOWN_BACKENDS}"
            )
        if settings.analyze not in ANALYZE_MODES:
            raise ValueError(
                f"unknown analyze mode {settings.analyze!r}; "
                f"known: {ANALYZE_MODES}"
            )
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
        self._folds = _fold_table(self.metrics)
        #: The solve cache: ``cache`` if given (any object with
        #: ``lookup``/``store_feasible``/``store_infeasible``), else a
        #: :class:`SolveCache`, backed by a disk store when
        #: ``settings.cache_path`` names one.
        if cache is not None:
            self.cache = cache
        elif not settings.enable_cache:
            self.cache = None
        else:
            disk = None
            if settings.cache_path:
                from repro.solve.disk_cache import DiskSolveCache

                disk = DiskSolveCache(settings.cache_path, metrics=self.metrics)
            self.cache = SolveCache(disk, metrics=self.metrics)
        # A cache passed in may predate the ``bound`` keyword: it still
        # stores designs, and its exact hits replay no bound.
        self._cache_takes_bound = self.cache is not None and accepts_keyword(
            self.cache.store_feasible, "bound"
        )
        #: The record of every concluded window solve, in order.
        self._solves: list[WindowOutcome] = []
        self.analyze_mode = settings.analyze
        # Templates keyed by object identity of graph/processor (plus N
        # and the *effective* options).  The template itself holds strong
        # references to both objects, so a live entry's ids cannot be
        # recycled.
        self._templates: dict[
            tuple[int, int, int, "FormulationOptions"], "ModelTemplate"
        ] = {}
        # Packing bounds (:meth:`packing_bound`), keyed like the
        # templates; each entry pins its graph and processor the same way.
        self._packing_bounds: dict[
            tuple[int, int, int, "FormulationOptions"],
            "tuple[float, TaskGraph, ReconfigurableProcessor]",
        ] = {}

    def _emit(self, name: str, **attrs) -> None:
        """Emit one executor fact: a tracer event, folded into
        :attr:`metrics` through :func:`_fold_table`."""
        self.tracer.event(name, **attrs)
        if name in self._folds:
            self._folds[name](attrs)

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
        # Dual-bound trials minimize latency, so they need the objective.
        wants_objective = (
            self.settings.guide_with_objective or self.settings.dual_bound
        )
        if wants_objective and not options.minimize_latency:
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
            self._emit("template_built", num_partitions=num_partitions)
        return template

    def packing_bound(
        self,
        graph: "TaskGraph",
        processor: "ReconfigurableProcessor",
        num_partitions: int,
        options: "FormulationOptions | None" = None,
    ) -> float:
        """:func:`repro.core.bounds.packing_min_latency` on the scenario's
        per-partition device: no design at ``N`` has a lower latency.

        Computed once per template key, inside a ``packing_bound`` span.
        """
        from repro.core.bounds import packing_min_latency
        from repro.core.families import get_scenario

        options = self._effective_options(options)
        key = (id(graph), id(processor), num_partitions, options)
        entry = self._packing_bounds.get(key)
        if entry is None:
            device = get_scenario(options.scenario).device(processor, options)
            with self.tracer.span(
                "packing_bound", num_partitions=num_partitions
            ) as sp:
                bound = packing_min_latency(graph, device, num_partitions)
                sp.annotate(bound=bound)
            entry = self._packing_bounds[key] = (bound, graph, processor)
        return entry[0]

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
        gap: float | None = None,
        iteration: int = 0,
        incumbent: "tuple[PartitionedDesign, float] | None" = None,
    ) -> WindowOutcome:
        """Answer "is there a design in ``[d_min, d_max]`` at ``N``?".

        ``deadline`` is an absolute ``time.perf_counter()`` stamp (the
        search's overall budget); the per-backend budget is clipped to
        whatever remains of it.

        ``gap`` (``highs`` only) turns the backend's first-feasible solve
        into a latency minimization that stops once its incumbent is
        within ``gap`` of its dual bound (a relative gap of
        ``gap / d_max``).  The outcome then carries that dual bound as
        ``bound``: no design in the window has a lower latency.

        ``iteration`` is the caller's bisection step, stamped on the
        window's record (and so on its event and telemetry row).

        With ``settings.use_lp_bound``, a window whose ``d_max`` lies
        below :meth:`packing_bound` concludes ``INFEASIBLE`` with backend
        ``"packing"``: no template, cache lookup or backend attempt, and
        nothing cached.  The model's ``d_min`` is left as asked.

        Model preparation is incremental: the window is instantiated
        from the shared :class:`ModelTemplate` (two RHS patches on the
        pre-compiled sparse form) instead of rebuilding the ILP from
        expressions; the result is array-identical to what
        :func:`repro.core.formulation.build_model` produces.

        ``incumbent`` is a ``(design, achieved)`` pair the caller already
        holds, a design of this search (same graph, processor and
        options) with its latency ``achieved``.  After a cache miss it
        concludes the window ``FEASIBLE``, with backend ``"incumbent"``
        and no solver work, when the design uses at most ``N`` partitions
        and ``achieved`` lies in the window (the bounds of the cache's
        feasible rule).  Its other rows hold at any such ``N``: the
        partitions it leaves empty add no area, memory or latency.
        """
        if gap is not None and self.settings.backend != "highs":
            raise ValueError(
                "gap-limited window solves need the 'highs' backend, not "
                f"{self.settings.backend!r}"
            )
        if (
            self.settings.backend == "cp"
            and options is not None
            and options.scenario != "paper_oneshot"
        ):
            # The backtracker searches the paper's constraints on the
            # whole device; it knows no other scenario.
            raise ValueError(
                "the 'cp' backend answers only the 'paper_oneshot' "
                f"scenario, not {options.scenario!r}"
            )
        start = time.perf_counter()
        # The query half of the window's record.
        window = {
            "num_partitions": num_partitions,
            "d_min": d_min,
            "d_max": d_max,
            "iteration": iteration,
        }
        tracer = self.tracer
        with tracer.span(
            "solve_window",
            num_partitions=num_partitions,
            d_min=float(d_min),
            d_max=float(d_max),
        ):
            options = self._effective_options(options)
            if self.settings.use_lp_bound and d_max < self.packing_bound(
                graph, processor, num_partitions, options
            ):
                # Proven empty by arithmetic: no model, no cache entry.
                return self._conclude(
                    None, None, SolveStatus.INFEASIBLE, "packing",
                    window, None, start,
                )
            template = self.template_for(
                graph, processor, num_partitions, options
            )
            device = template.device
            with tracer.span("template_instantiate"):
                tp_model = template.instantiate(d_min, d_max)

            if self.analyze_mode != "off":
                self._analyze(tp_model)

            fp: ModelFingerprint | None = None
            if self.cache is not None:
                fp = fingerprint_model(tp_model)
                hit = self.cache.lookup(fp, graph=graph)
                if hit is not None:
                    self._emit(
                        "cache_hit",
                        rule=hit.rule,
                        tier=getattr(hit, "tier", "memory"),
                        feasible=hit.verdict.feasible,
                    )
                    return self._from_cache(hit, window, fp, start)
                self._emit("cache_miss")

            if incumbent is not None:
                design, achieved = incumbent
                if design.num_partitions_used <= num_partitions and (
                    window_holds(d_min, d_max, achieved)
                ):
                    return self._conclude(
                        design, achieved, SolveStatus.FEASIBLE, "incumbent",
                        window, fp, start,
                    )

            budget = self._remaining_budget(deadline)
            if budget is not None and budget <= 0.0:
                # The overall deadline is already spent: degrade
                # immediately.
                self._emit("deadline_expired", phase="pre_solve")
                return self._degrade(
                    graph, device, window, options, fp, start,
                    timed_out=True,
                )

            status, design, iterations, bound = self._run_attempt(
                tp_model, graph, processor, num_partitions, d_max, options,
                budget, gap,
            )
            if _conclusive(status, design):  # a design, or proven empty
                achieved = (
                    None if design is None else design.total_latency(device)
                )
                return self._conclude(
                    design, achieved, status, self.settings.backend,
                    window, fp, start, iterations=iterations, bound=bound,
                )

            # The backend ran out of budget or crashed: degrade.
            return self._degrade(
                graph, device, window, options, fp, start,
                timed_out=status is not SolveStatus.ERROR,
                iterations=iterations,
            )

    # -- pre-solve analysis --------------------------------------------------

    #: Per-pass cap on ``analyzer_diagnostic`` tracer events; the full
    #: report is counted by the ``model_analyzed`` event.
    _MAX_DIAGNOSTIC_EVENTS = 20

    def _analyze(self, tp_model) -> None:
        """Run the pre-solve analyzer on the prepared window model.

        ``"warn"`` records the findings (span, ``model_analyzed`` and
        per-finding events) and continues; ``"strict"`` raises
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
            counts = {s.value: severities[s.value] for s in Severity}
            self._emit("model_analyzed", **counts)
            for diag in report.diagnostics[: self._MAX_DIAGNOSTIC_EVENTS]:
                self._emit(
                    "analyzer_diagnostic",
                    code=diag.code,
                    severity=diag.severity.value,
                    paper_eq=diag.paper_eq,
                    message=diag.message,
                )
            if len(report.diagnostics) > self._MAX_DIAGNOSTIC_EVENTS:
                self._emit(
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
        window: dict,
        fp: ModelFingerprint | None,
        start: float,
        iterations: int = 0,
        cache_hit: bool = False,
        degraded: bool = False,
        bound: float | None = None,
    ) -> WindowOutcome:
        """Build the window's one record and feed every view from it.

        ``window`` is the query (``num_partitions``, ``d_min``,
        ``d_max``, ``iteration``).  This is also the cache's only writer (``fp`` is the window's
        fingerprint, ``None`` when caching is off): a design is stored
        as a feasibility certificate, with the solve's dual ``bound``,
        and only a backend's ``INFEASIBLE`` verdict as an emptiness
        proof.  A timeout, a crash or an ``UNBOUNDED`` verdict is never
        stored, and neither is a cache hit.
        """
        record = WindowOutcome(
            design=design,
            achieved=achieved,
            status=status,
            backend=backend,
            wall_time=time.perf_counter() - start,
            iterations=iterations,
            cache_hit=cache_hit,
            degraded=degraded,
            bound=bound,
            **window,
        )
        row = record.to_dict()
        span = self.tracer.current_span()
        if span is not None:
            span.annotate(**row)
        self._emit("window_verdict", **row)
        self._solves.append(record)
        if fp is not None and not cache_hit:
            if design is not None:
                extra = {"bound": bound} if self._cache_takes_bound else {}
                self.cache.store_feasible(
                    fp, design, achieved, backend=record.backend, **extra
                )
            elif status is SolveStatus.INFEASIBLE:
                self.cache.store_infeasible(fp, backend=record.backend)
        return record

    def _from_cache(
        self, hit, window: dict, fp: ModelFingerprint, start: float
    ) -> WindowOutcome:
        verdict = hit.verdict
        if verdict.feasible:
            return self._conclude(
                verdict.design, verdict.achieved, SolveStatus.FEASIBLE,
                "cache", window, fp, start, cache_hit=True, bound=hit.bound,
            )
        return self._conclude(
            None, None, SolveStatus.INFEASIBLE,
            "cache", window, fp, start, cache_hit=True,
        )

    # -- degradation ---------------------------------------------------------

    def _greedy_certificate(
        self,
        graph,
        device,
        options,
        num_partitions: int,
        d_max: float,
    ) -> "tuple[str, PartitionedDesign, float] | None":
        """The first greedy level-packing design that certifies the window.

        A greedy design is a genuine feasibility certificate when it uses
        at most ``N`` partitions, fits under ``d_max`` (a latency *below*
        ``d_min`` is accepted — the window's lower edge only steers the
        bisection bookkeeping and excludes no true design) and meets every
        constraint of the scenario's per-partition ``device``.  Policies
        are tried in :data:`_FALLBACK_POLICIES` order; each one that fails
        a check is reported as a ``fallback_rejected`` event.  Returns
        ``(policy, design, achieved)``, or ``None`` when none qualifies.
        """
        from repro.core.heuristics import greedy_partition

        for policy in _FALLBACK_POLICIES:
            design = greedy_partition(
                graph, device, policy,
                include_env_memory=options.include_env_memory,
            ).design
            achieved = design.total_latency(device)
            if design.num_partitions_used > num_partitions:
                rejected = {"reason": "too_many_partitions"}
            elif achieved > d_max + 1e-9:
                rejected = {"reason": "over_latency", "achieved": achieved}
            elif design.audit(device, options.include_env_memory):
                rejected = {"reason": "audit_failed"}
            else:
                return policy, design, achieved
            self._emit("fallback_rejected", policy=policy, **rejected)
        return None

    def _degrade(
        self,
        graph,
        device,
        window: dict,
        options,
        fp: ModelFingerprint | None,
        start: float,
        timed_out: bool,
        iterations: int = 0,
    ) -> WindowOutcome:
        """Last resort: greedy level-packing instead of an exception.

        A certifying greedy design (:meth:`_greedy_certificate`) concludes
        the window ``FEASIBLE``; otherwise it concludes ``TIME_LIMIT``
        after a budget ran out (``timed_out``) and ``ERROR`` after a
        backend crash.  Either way the outcome is marked ``degraded`` and
        keeps the ``iterations`` the backend spent before giving up.

        Greedy designs are packed into and audited against the
        scenario's per-partition ``device``; the audit's memory rows
        are at least as strict as a slotted scenario's.
        """
        if self.settings.heuristic_fallback:
            num_partitions = window["num_partitions"]
            with self.tracer.span(
                "heuristic_fallback", num_partitions=num_partitions
            ) as sp:
                found = self._greedy_certificate(
                    graph, device, options, num_partitions,
                    window["d_max"],
                )
                if found is not None:
                    policy, design, achieved = found
                    sp.annotate(policy=policy, achieved=achieved)
                    return self._conclude(
                        design, achieved, SolveStatus.FEASIBLE,
                        f"heuristic:{policy}", window, fp, start,
                        iterations=iterations, degraded=True,
                    )
                sp.annotate(policy=None, exhausted=True)
        status = SolveStatus.TIME_LIMIT if timed_out else SolveStatus.ERROR
        return self._conclude(
            None, None, status, "", window, fp, start,
            iterations=iterations, degraded=True,
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
        gap: float | None = None,
    ) -> "tuple[SolveStatus, PartitionedDesign | None, int, float | None]":
        """Run ``settings.backend`` on the window, inline, and count it.

        Returns ``(status, design, iterations, bound)``; ``bound`` is
        the dual bound of a ``gap``-limited solve, else ``None``.  The
        attempt runs inside an ``attempt:<backend>`` span (a child of
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
        bound = None
        with self.tracer.span(f"attempt:{name}", backend=name) as sp:
            try:
                if name == "cp":
                    status, design, iterations = self._cp_attempt(
                        graph, processor, num_partitions, d_max, options,
                        time_limit,
                    )
                else:
                    status, design, iterations, bound = self._ilp_attempt(
                        tp_model, name, time_limit, gap, d_max
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
        if conclusive:
            verdict = "backend_win"
        elif status in (SolveStatus.TIME_LIMIT, SolveStatus.NODE_LIMIT):
            verdict = "backend_timeout"
        else:
            verdict = "backend_loss"
        self._emit(verdict, backend=name, status=status.value, wall_time=wall)
        return status, design, iterations, bound

    def _ilp_attempt(
        self,
        tp_model,
        backend: str,
        time_limit,
        gap: float | None,
        d_max: float,
    ) -> "tuple[SolveStatus, PartitionedDesign | None, int, float | None]":
        kwargs = {}
        if gap is not None:
            # No incumbent in the window exceeds d_max, so a relative
            # gap of gap / d_max is at most gap in absolute terms.
            kwargs["mip_rel_gap"] = gap / max(d_max, gap)
        if self.tracer.enabled:
            # Only forwarded when tracing is live: test-registered
            # backends need not accept the keyword otherwise.
            kwargs["tracer"] = self.tracer
        solution = tp_model.solve(
            backend=backend,
            first_feasible=gap is None,
            time_limit=time_limit,
            node_limit=self.settings.node_limit,
            **kwargs,
        )
        status, design, bound = solution.status, None, None
        if status.has_solution:
            if not _point_holds(tp_model.compiled_form(), solution):
                # A point that breaks a row is no certificate: the
                # window concludes like a crashed attempt, uncached.
                self._emit(
                    "backend_point_rejected",
                    backend=backend,
                    status=status.value,
                )
                return SolveStatus.ERROR, None, solution.iterations, None
            design = tp_model.design_from(solution)
        if gap is not None:
            bound = solution.bound
            if status is SolveStatus.OPTIMAL:
                # The window's verdict is that it holds a design; how
                # close to the minimum it is, is what ``bound`` says.
                status = SolveStatus.FEASIBLE
        return status, design, solution.iterations, bound

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
            node_limit=self.settings.node_limit,
            time_limit=time_limit,
            stats=stats,
            tracer=self.tracer if self.tracer.enabled else None,
        )
        if design is not None:
            status = SolveStatus.FEASIBLE
        elif stats.timed_out:
            status = SolveStatus.TIME_LIMIT
        elif stats.node_limited:
            status = SolveStatus.NODE_LIMIT
        else:
            # Exhaustive search: a genuine emptiness proof for the
            # (stronger) question "any design with latency <= d_max".
            status = SolveStatus.INFEASIBLE
        return status, design, stats.nodes
