"""RunTelemetry as a view of a metrics snapshot: wins, fallbacks, summary."""

from __future__ import annotations

from repro.ilp.status import SolveStatus
from repro.obs import MetricsRegistry, MetricsSnapshot
from repro.obs.profile import nearest_rank
from repro.solve import WindowOutcome
from repro.solve.telemetry import RunTelemetry


def stats(status: str = "feasible", **overrides) -> WindowOutcome:
    base = dict(
        design=None,
        achieved=None,
        status=SolveStatus(status),
        num_partitions=4,
        d_min=100.0,
        d_max=200.0,
        backend="highs",
        wall_time=0.5,
    )
    base.update(overrides)
    return WindowOutcome(**base)


def counted(*rows: WindowOutcome, disk_hits: int = 0) -> MetricsRegistry:
    """A registry that counted ``rows`` the way the executor counts a
    concluded window (backend ``""`` is labelled ``none``)."""
    registry = MetricsRegistry()
    windows = registry.counter(
        "repro_window_solves_total", labelnames=("backend", "status")
    )
    seconds = registry.histogram("repro_window_solve_seconds")
    for row in rows:
        windows.labels(row.backend or "none", row.status.value).inc()
        seconds.observe(row.wall_time)
    if disk_hits:
        registry.counter(
            "repro_solve_cache_hits_total", labelnames=("tier", "rule")
        ).labels("disk", "exact").inc(disk_hits)
    return registry


def view(*rows: WindowOutcome, disk_hits: int = 0) -> RunTelemetry:
    snapshot = counted(*rows, disk_hits=disk_hits).snapshot()
    return RunTelemetry.from_snapshot(snapshot, rows)


class TestRecord:
    def test_backend_win_counted(self):
        telemetry = view(stats())
        assert telemetry.backend_wins == {"highs": 1}

    def test_cache_hits_are_not_wins(self):
        telemetry = view(stats(backend="cache", cache_hit=True))
        assert telemetry.backend_wins == {}
        assert telemetry.cache_hits == 1

    def test_degraded_fallback_is_not_a_backend_win(self):
        """Regression: a greedy fallback after every backend timed out was
        counted in ``backend_wins`` under its ``heuristic:<policy>`` name,
        inflating the win table for runs that actually degraded."""
        telemetry = view(stats(backend="heuristic:min_area", degraded=True))
        assert telemetry.backend_wins == {}
        assert telemetry.fallbacks == 1
        assert telemetry.degraded

    def test_hard_timeout_without_fallback(self):
        telemetry = view(stats(backend="", status="time_limit", degraded=True))
        assert telemetry.backend_wins == {}
        assert telemetry.fallbacks == 1


class TestPercentiles:
    def test_wall_time_percentiles_are_nearest_rank(self):
        """Windows of 1..6 s: the nearest-rank p90 is the 6th value
        (ceil(0.9 * 6) = 6), as in the trace profile's percentiles."""
        rows = [stats(wall_time=float(t)) for t in range(1, 7)]
        telemetry = view(*rows)
        assert telemetry.wall_time_percentiles() == {
            "p50": 3.0, "p90": 6.0, "max": 6.0,
        }
        assert nearest_rank([r.wall_time for r in rows], 0.9) == 6.0

    def test_no_rows_give_zeros(self):
        assert RunTelemetry().wall_time_percentiles() == {
            "p50": 0.0, "p90": 0.0, "max": 0.0,
        }


class TestSummary:
    def test_summary_includes_template_and_wall_time_metrics(self):
        telemetry = view(
            stats(wall_time=1.25), stats(wall_time=0.75, backend="bnb")
        )
        telemetry.template_builds = 2
        telemetry.template_instantiations = 7
        summary = telemetry.summary()
        assert "templates: 2 built/7 instantiated" in summary
        assert "2.00s total" in summary
        assert "bnb: 1" in summary
        assert "highs: 1" in summary

    def test_summary_excludes_degraded_from_wins(self):
        telemetry = view(stats(backend="heuristic:balanced", degraded=True))
        summary = telemetry.summary()
        assert "wins: none" in summary
        assert "1 fallbacks" in summary

    def test_to_dict_round_trip(self):
        telemetry = view(stats())
        payload = telemetry.to_dict(include_solves=True)
        assert payload["total_solves"] == 1
        assert payload["backend_wins"] == {"highs": 1}
        assert payload["solves"][0]["backend"] == "highs"
        assert RunTelemetry.from_dict(payload) == telemetry

    def test_zero_solve_summary_reads_idle_not_cold(self):
        summary = RunTelemetry().summary()
        assert "cache idle" in summary
        assert "0%" not in summary
        assert "0.0%" not in summary

    def test_summary_shows_disk_hits_and_rate(self):
        telemetry = view(
            *[stats(backend="cache", cache_hit=True)] * 4, disk_hits=2
        )
        summary = telemetry.summary()
        assert "2 disk" in summary
        assert "50% disk rate" in summary
        assert telemetry.disk_hit_rate == 0.5

    def test_snapshot_summary_surfaces_disk_hits(self):
        # A merged snapshot without per-window rows: the window counts
        # still come through, only the percentiles idle.
        worker = counted(
            *[stats(backend="cache", cache_hit=True)] * 3, disk_hits=3
        )
        merged = RunTelemetry.from_snapshot(
            MetricsSnapshot.empty().merge(worker.snapshot())
        )
        summary = merged.summary()
        assert summary.startswith("3 solves (3 cached (3 disk, 100% disk rate)")
        assert "p50/p90/max 0.00/0.00/0.00s" in summary

    def test_single_process_summary_has_no_worker_suffix(self):
        """A one-process, one-window run's summary, word for word: no
        suffix follows the wall-time total."""
        telemetry = view(stats(wall_time=0.25))
        assert telemetry.summary() == (
            "1 solves (0 cached, hit rate 0%), wins: highs: 1, "
            "0 timeouts, 0 fallbacks, templates: 0 built/1 instantiated, "
            "window wall p50/p90/max 0.25/0.25/0.25s, 0.25s total"
        )
