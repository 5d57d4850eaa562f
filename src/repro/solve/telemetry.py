"""Machine-readable run metrics of the solver execution layer.

Every window solve executed by :class:`repro.solve.executor.SolveExecutor`
produces one :class:`repro.solve.executor.WindowOutcome` record and a
handful of events, folded into the executor's :class:`repro.obs.MetricsRegistry`.
A :class:`RunTelemetry` is a *view* of both: :meth:`RunTelemetry.from_snapshot`
reads the run's counters out of a :class:`repro.obs.MetricsSnapshot`
(counts, per-backend wall time, cache hit rate, timeout and fallback
events) and keeps the records for the per-window percentiles.  The
structures are plain data with ``to_dict()`` serializers so the CLI
(``--telemetry-json``), the experiment harness and downstream dashboards
can persist them as JSON.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import TYPE_CHECKING, Iterable

from repro.obs.profile import nearest_rank

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.solve.executor import WindowOutcome

__all__ = ["RunTelemetry"]


@dataclass
class RunTelemetry:
    """Aggregated execution metrics of one search run.

    A view, not a store: :meth:`from_snapshot` derives every counter
    from the executor's metrics registry, and :meth:`from_dict` restores
    a persisted one.  ``SolveExecutor.telemetry`` builds a fresh view on
    each read, so a result keeps the numbers of the moment it was built.
    """

    #: The executor's window records, in order (cumulative when several
    #: runs share one executor).
    solves: list["WindowOutcome"] = field(default_factory=list)
    #: Wall seconds per backend, over every attempt it ran.
    backend_wall: dict[str, float] = field(default_factory=dict)
    #: Window solves each backend (or the incumbent check) decided.
    backend_wins: dict[str, int] = field(default_factory=dict)
    #: Backend attempts that exhausted their budget without a verdict.
    timeouts: int = 0
    #: Window solves answered by the greedy heuristic fallback (or by
    #: nobody, after a hard timeout).
    fallbacks: int = 0
    #: Model templates built (one full construct + compile + hash each).
    template_builds: int = 0
    #: Window models served by patching a template (cheap path); compare
    #: with ``template_builds`` for the incremental-reuse ratio.
    template_instantiations: int = 0
    #: Window solves answered by a still-feasible previous incumbent
    #: (zero solver work; ``SolverSettings.incumbent_reuse``).
    incumbent_reuses: int = 0
    #: Window solves answered by the *persistent* disk tier of the solve
    #: cache (a verdict some other process — or a previous run — paid
    #: for); a subset of ``cache_hits``.
    disk_hits: int = 0
    #: Worker snapshots a caller merged into this record (see
    #: :meth:`from_snapshot`); 0 for one run, including a request
    #: served by :class:`repro.service.PartitionService`.
    workers_merged: int = 0
    #: Pre-solve analyzer passes run (``SolverSettings.analyze != "off"``).
    analysis_runs: int = 0
    #: ERROR-severity diagnostics across all analyzer passes.
    analysis_errors: int = 0
    #: WARNING-severity diagnostics across all analyzer passes.
    analysis_warnings: int = 0
    #: Window solves concluded, cache hits included.
    total_solves: int = 0
    #: Window solves answered by the solve cache (either tier).
    cache_hits: int = 0
    #: Wall seconds of every window solve, summed.
    total_wall_time: float = 0.0

    @classmethod
    def from_snapshot(
        cls,
        snapshot,
        solves: Iterable["WindowOutcome"] = (),
        workers_merged: int = 0,
    ) -> "RunTelemetry":
        """The telemetry a :class:`repro.obs.MetricsSnapshot` records.

        Counters come from the executor's metric families (catalog in
        docs/observability.md); the ``solves`` rows only feed the
        percentiles.  In ``repro_window_solves_total{backend}``, backend
        ``cache`` is a cache hit, ``heuristic:*`` and ``none`` are
        fallbacks, any other is a win; every window instantiates its
        template once, so the window total is the instantiation count.
        """
        total = snapshot.total
        severities = _per_label(
            snapshot, "repro_analysis_diagnostics_total", "severity"
        )
        telemetry = cls(
            solves=list(solves),
            backend_wall=_per_label(
                snapshot, "repro_backend_solve_seconds", "backend"
            ),
            timeouts=int(total("repro_backend_timeouts_total")),
            template_builds=int(total("repro_template_builds_total")),
            template_instantiations=int(total("repro_window_solves_total")),
            incumbent_reuses=int(total("repro_incumbent_reuses_total")),
            disk_hits=int(
                _per_label(snapshot, "repro_solve_cache_hits_total", "tier")
                .get("disk", 0)
            ),
            workers_merged=workers_merged,
            analysis_runs=int(total("repro_model_analyses_total")),
            analysis_errors=int(severities.get("error", 0)),
            analysis_warnings=int(severities.get("warning", 0)),
            total_solves=int(total("repro_window_solves_total")),
            total_wall_time=snapshot.histogram_stats(
                "repro_window_solve_seconds"
            )[1],
        )
        windows = _per_label(snapshot, "repro_window_solves_total", "backend")
        for backend, count in windows.items():
            if backend == "cache":
                telemetry.cache_hits += int(count)
            elif backend == "none" or backend.startswith("heuristic:"):
                telemetry.fallbacks += int(count)
            else:
                telemetry.backend_wins[backend] = int(count)
        return telemetry

    @classmethod
    def from_dict(cls, payload: dict) -> "RunTelemetry":
        """Rebuild from :meth:`to_dict` output (wire/disk transport).

        Derived fields (hit rates, ``degraded``) are recomputed from the
        restored counters; the percentiles come from the per-solve rows,
        so a payload serialized with ``include_solves=False`` restores
        them as zeros.  Keys this version no longer records (the
        ``basis_restarts``/``pooled_cuts`` counters of older payloads)
        are ignored.
        """
        from repro.solve.executor import WindowOutcome

        counters = {
            f.name: type(f.default)(payload.get(f.name, f.default))
            for f in fields(cls)
            if f.default is not MISSING
        }
        return cls(
            solves=[
                WindowOutcome.from_dict(s)
                for s in payload.get("solves", [])
            ],
            backend_wall={
                str(k): float(v)
                for k, v in payload.get("backend_wall", {}).items()
            },
            backend_wins={
                str(k): int(v)
                for k, v in payload.get("backend_wins", {}).items()
            },
            **counters,
        )

    # -- derived views ------------------------------------------------------

    @property
    def cache_misses(self) -> int:
        return self.total_solves - self.cache_hits

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of window solves answered from the cache (0 when idle)."""
        return _rate(self.cache_hits, self.total_solves)

    @property
    def disk_hit_rate(self) -> float:
        """Fraction of window solves answered by the disk tier (0 idle)."""
        return _rate(self.disk_hits, self.total_solves)

    @property
    def degraded(self) -> bool:
        """``True`` when any window solve fell back past the backend."""
        return self.fallbacks > 0

    def wall_time_percentiles(self) -> dict[str, float]:
        """Per-window wall time percentiles (nearest-rank p50/p90 + max).

        Raw totals hide the long tail that the acceleration counters are
        meant to shrink; the percentiles make them interpretable.  All
        zeros when there are no per-window rows (nothing solved yet, or
        telemetry built from a bare snapshot).
        """
        times = [s.wall_time for s in self.solves]
        return {
            "p50": nearest_rank(times, 0.50),
            "p90": nearest_rank(times, 0.90),
            "max": nearest_rank(times, 1.0),
        }

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

    def summary(self) -> str:
        """One-line human summary for CLI footers and logs."""
        backends = ", ".join(
            f"{name}: {wins}" for name, wins in sorted(self.backend_wins.items())
        ) or "none"
        pct = self.wall_time_percentiles()
        reuse = ""
        if self.incumbent_reuses:
            reuse = f", reuse: {self.incumbent_reuses} incumbent"
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


def _per_label(snapshot, name: str, label: str) -> dict:
    """One family's samples summed per value of ``label`` (histograms
    contribute their sums); empty when the family is absent."""
    family = snapshot.family(name)
    if family is None:
        return {}
    index = family["labelnames"].index(label)
    out: dict = {}
    for key, sample in family["samples"].items():
        value = sample[1] if family["kind"] == "histogram" else sample
        out[key[index]] = out.get(key[index], 0) + value
    return dict(sorted(out.items()))


def _rate(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
