"""Machine-readable run metrics of the solver execution layer.

Every window solve executed by :class:`repro.solve.executor.SolveExecutor`
produces one :class:`SolveStats`; a :class:`RunTelemetry` aggregates them
across a whole search run (counts, per-backend wall time, cache hit rate,
timeout and fallback events).  The structures are plain data with
``to_dict()`` serializers so the CLI (``--telemetry-json``), the
experiment harness and downstream dashboards can persist them as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SolveStats", "RunTelemetry"]


@dataclass(frozen=True)
class SolveStats:
    """One window solve as executed (possibly answered from the cache).

    Attributes
    ----------
    num_partitions, d_min, d_max:
        The query: partition bound and latency window (incl. overhead).
    backend:
        Who produced the verdict: a solver backend name, ``"cache"`` for a
        memoized answer, ``"heuristic:<policy>"`` for the greedy fallback,
        or ``""`` when no backend produced anything (hard timeout).
    status:
        The :class:`repro.ilp.SolveStatus` value name (``"feasible"``,
        ``"infeasible"``, ``"time_limit"``, ...).
    wall_time:
        Wall-clock seconds of the whole window solve (all backends).
    iterations:
        Work measure reported by the winning backend (nodes / pivots).
    cache_hit:
        The verdict came from the solve cache; no backend ran.
    degraded:
        All backends exhausted their budgets and the verdict (if any)
        came from the greedy fallback.
    """

    num_partitions: int
    d_min: float
    d_max: float
    backend: str
    status: str
    wall_time: float
    iterations: int = 0
    cache_hit: bool = False
    degraded: bool = False

    def to_dict(self) -> dict:
        return {
            "num_partitions": self.num_partitions,
            "d_min": self.d_min,
            "d_max": self.d_max,
            "backend": self.backend,
            "status": self.status,
            "wall_time": self.wall_time,
            "iterations": self.iterations,
            "cache_hit": self.cache_hit,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SolveStats":
        """Inverse of :meth:`to_dict` (process-boundary transport)."""
        return cls(
            num_partitions=int(payload["num_partitions"]),
            d_min=float(payload["d_min"]),
            d_max=float(payload["d_max"]),
            backend=str(payload.get("backend", "")),
            status=str(payload.get("status", "")),
            wall_time=float(payload.get("wall_time", 0.0)),
            iterations=int(payload.get("iterations", 0)),
            cache_hit=bool(payload.get("cache_hit", False)),
            degraded=bool(payload.get("degraded", False)),
        )


@dataclass
class RunTelemetry:
    """Aggregated execution metrics of one search run.

    Filled incrementally by the :class:`SolveExecutor`; shared across
    every ``Reduce_Latency`` invocation of a ``Refine_Partitions_Bound``
    run so the numbers describe the run as a whole.
    """

    solves: list[SolveStats] = field(default_factory=list)
    #: Wall seconds per backend, including losing portfolio attempts.
    backend_wall: dict[str, float] = field(default_factory=dict)
    #: Window solves each backend decided (portfolio wins or solo runs).
    backend_wins: dict[str, int] = field(default_factory=dict)
    #: Backend attempts that exhausted their budget without a verdict.
    timeouts: int = 0
    #: Window solves answered by the greedy heuristic fallback.
    fallbacks: int = 0
    #: Model templates built (one full construct + compile + hash each).
    template_builds: int = 0
    #: Window models served by patching a template (cheap path); compare
    #: with ``template_builds`` for the incremental-reuse ratio.
    template_instantiations: int = 0
    #: Window solves answered by a still-feasible previous incumbent
    #: (zero solver work; ``SolverSettings.incumbent_reuse``).
    incumbent_reuses: int = 0
    #: Window solves answered by the primal-first stage (LP relaxation +
    #: rounding/diving, or an LP infeasibility proof).
    primal_hits: int = 0
    #: Window solves answered by the *persistent* disk tier of the solve
    #: cache (a verdict some other process — or a previous run — paid
    #: for).  Memory-tier hits are counted in ``cache_hits`` as before;
    #: disk hits are a subset of them.
    disk_hits: int = 0
    #: Worker telemetries merged into this one (sharded runs); 0 for an
    #: ordinary single-process run.
    workers_merged: int = 0
    #: Pre-solve analyzer passes run (``SolverSettings.analyze != "off"``).
    analysis_runs: int = 0
    #: ERROR-severity diagnostics across all analyzer passes.
    analysis_errors: int = 0
    #: WARNING-severity diagnostics across all analyzer passes.
    analysis_warnings: int = 0

    # -- recording (executor-facing) ----------------------------------------

    def record(self, stats: SolveStats) -> None:
        self.solves.append(stats)
        # A degraded verdict means every backend lost: the greedy
        # fallback's "heuristic:<policy>" name is not a backend win (it
        # is already counted in ``fallbacks``).
        if stats.backend and not stats.cache_hit and not stats.degraded:
            self.backend_wins[stats.backend] = (
                self.backend_wins.get(stats.backend, 0) + 1
            )
        if stats.degraded:
            self.fallbacks += 1

    def add_backend_wall(self, backend: str, seconds: float) -> None:
        self.backend_wall[backend] = (
            self.backend_wall.get(backend, 0.0) + seconds
        )

    def record_analysis(self, num_errors: int, num_warnings: int) -> None:
        """Count one pre-solve analyzer pass and its findings."""
        self.analysis_runs += 1
        self.analysis_errors += num_errors
        self.analysis_warnings += num_warnings

    # -- aggregation across workers -----------------------------------------

    def merge(self, other: "RunTelemetry") -> None:
        """Fold another run's metrics into this one.

        The sharded service aggregates each worker's telemetry into a
        single run-wide view: counters add, per-backend maps merge,
        per-solve records concatenate (callers wanting deterministic
        order sort shards before merging).
        """
        self.solves.extend(other.solves)
        for name, seconds in other.backend_wall.items():
            self.backend_wall[name] = (
                self.backend_wall.get(name, 0.0) + seconds
            )
        for name, wins in other.backend_wins.items():
            self.backend_wins[name] = self.backend_wins.get(name, 0) + wins
        self.timeouts += other.timeouts
        self.fallbacks += other.fallbacks
        self.template_builds += other.template_builds
        self.template_instantiations += other.template_instantiations
        self.incumbent_reuses += other.incumbent_reuses
        self.primal_hits += other.primal_hits
        self.disk_hits += other.disk_hits
        self.analysis_runs += other.analysis_runs
        self.analysis_errors += other.analysis_errors
        self.analysis_warnings += other.analysis_warnings
        self.workers_merged += max(other.workers_merged, 1)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunTelemetry":
        """Rebuild from :meth:`to_dict` output (wire/disk transport).

        Derived fields (hit rates, percentiles, ``degraded``) are
        recomputed from the restored base fields; a payload serialized
        with ``include_solves=False`` restores with an empty per-solve
        list, so those derived views read as idle.  Keys this version no
        longer records (the ``basis_restarts``/``pooled_cuts`` counters
        of older payloads) are ignored.
        """
        telemetry = cls(
            solves=[
                SolveStats.from_dict(s) for s in payload.get("solves", [])
            ],
            backend_wall={
                str(k): float(v)
                for k, v in payload.get("backend_wall", {}).items()
            },
            backend_wins={
                str(k): int(v)
                for k, v in payload.get("backend_wins", {}).items()
            },
            timeouts=int(payload.get("timeouts", 0)),
            fallbacks=int(payload.get("fallbacks", 0)),
            template_builds=int(payload.get("template_builds", 0)),
            template_instantiations=int(
                payload.get("template_instantiations", 0)
            ),
            incumbent_reuses=int(payload.get("incumbent_reuses", 0)),
            primal_hits=int(payload.get("primal_hits", 0)),
            disk_hits=int(payload.get("disk_hits", 0)),
            analysis_runs=int(payload.get("analysis_runs", 0)),
            analysis_errors=int(payload.get("analysis_errors", 0)),
            analysis_warnings=int(payload.get("analysis_warnings", 0)),
        )
        telemetry.workers_merged = int(payload.get("workers_merged", 0))
        return telemetry

    # -- derived views ------------------------------------------------------

    @property
    def total_solves(self) -> int:
        return len(self.solves)

    @property
    def cache_hits(self) -> int:
        return sum(1 for s in self.solves if s.cache_hit)

    @property
    def cache_misses(self) -> int:
        return self.total_solves - self.cache_hits

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of window solves answered from the cache (0 when idle)."""
        if not self.solves:
            return 0.0
        return self.cache_hits / len(self.solves)

    @property
    def total_wall_time(self) -> float:
        return sum(s.wall_time for s in self.solves)

    @property
    def degraded(self) -> bool:
        """``True`` when any window solve fell back past every backend."""
        return self.fallbacks > 0 or any(s.degraded for s in self.solves)

    def wall_time_percentiles(self) -> dict[str, float]:
        """Per-window wall time percentiles (nearest-rank p50/p90 + max).

        Raw totals hide the long tail that the acceleration counters are
        meant to shrink; the percentiles make them interpretable.  All
        zeros when no window has been solved yet.
        """
        times = sorted(s.wall_time for s in self.solves)
        if not times:
            return {"p50": 0.0, "p90": 0.0, "max": 0.0}

        def rank(q: float) -> float:
            index = max(0, min(len(times) - 1, int(q * len(times) + 0.5) - 1))
            return times[index]

        return {"p50": rank(0.50), "p90": rank(0.90), "max": times[-1]}

    def to_dict(self, include_solves: bool = True) -> dict:
        """JSON-ready summary (schema documented in docs/solving.md)."""
        payload = {
            "total_solves": self.total_solves,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "total_wall_time": self.total_wall_time,
            "timeouts": self.timeouts,
            "fallbacks": self.fallbacks,
            "incumbent_reuses": self.incumbent_reuses,
            "primal_hits": self.primal_hits,
            "disk_hits": self.disk_hits,
            "workers_merged": self.workers_merged,
            "wall_time_percentiles": self.wall_time_percentiles(),
            "template_builds": self.template_builds,
            "template_instantiations": self.template_instantiations,
            "analysis_runs": self.analysis_runs,
            "analysis_errors": self.analysis_errors,
            "analysis_warnings": self.analysis_warnings,
            "degraded": self.degraded,
            "backend_wall": dict(self.backend_wall),
            "backend_wins": dict(self.backend_wins),
        }
        if include_solves:
            payload["solves"] = [s.to_dict() for s in self.solves]
        return payload

    @property
    def disk_hit_rate(self) -> float:
        """Fraction of window solves answered by the disk tier (0 idle)."""
        if not self.solves:
            return 0.0
        return self.disk_hits / len(self.solves)

    def summary(self) -> str:
        """One-line human summary for CLI footers and logs."""
        backends = ", ".join(
            f"{name}: {wins}" for name, wins in sorted(self.backend_wins.items())
        ) or "none"
        pct = self.wall_time_percentiles()
        reuse = ""
        if self.incumbent_reuses or self.primal_hits:
            reuse = (
                f", reuse: {self.incumbent_reuses} incumbent/"
                f"{self.primal_hits} primal"
            )
        if self.total_solves:
            disk = ""
            if self.disk_hits:
                disk = (
                    f" ({self.disk_hits} disk, "
                    f"{self.disk_hit_rate:.0%} disk rate)"
                )
            cache = (
                f"({self.cache_hits} cached{disk}, hit rate "
                f"{self.cache_hit_rate:.0%})"
            )
        elif self.disk_hits:
            # Merged worker aggregates carry counters but no per-solve
            # records; the disk tier's work is still worth surfacing.
            cache = f"({self.disk_hits} disk hits)"
        else:
            # No window was solved: a "0.0% hit rate" would read as a
            # cold cache when the cache was simply never consulted.
            cache = "(cache idle)"
        service = (
            f", merged from {self.workers_merged} worker(s)"
            if self.workers_merged
            else ""
        )
        return (
            f"{self.total_solves} solves "
            f"{cache}, wins: {backends}, "
            f"{self.timeouts} timeouts, {self.fallbacks} fallbacks{reuse}, "
            f"templates: {self.template_builds} built/"
            f"{self.template_instantiations} instantiated, "
            f"window wall p50/p90/max "
            f"{pct['p50']:.2f}/{pct['p90']:.2f}/{pct['max']:.2f}s, "
            f"{self.total_wall_time:.2f}s total{service}"
        )
