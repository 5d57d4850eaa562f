"""SolveExecutor: caching, deadlines, degradation, telemetry."""

import json
import math
import time

import pytest

from repro.arch import ReconfigurableProcessor
from repro.core import (
    SolverSettings, bounds, reduce_latency, refine_partitions_bound,
)
from repro.core.formulation import (
    FormulationOptions, TemporalPartitioningModel,
)
from repro.ilp import model as ilp_model
from repro.ilp.status import Solution, SolveStatus
from repro.obs import MemorySink, MetricsRegistry, Tracer
from repro.solve import SolveCache, SolveExecutor
from repro.taskgraph import ar_filter, dct_4x4


@pytest.fixture
def processor() -> ReconfigurableProcessor:
    return ReconfigurableProcessor(400, 128, 20.0)


def window(graph, n, c_t=20.0):
    return (
        bounds.max_latency(graph, n, c_t),
        bounds.min_latency(graph, n, c_t),
    )


class TestCachingThroughExecutor:
    def test_repeat_window_is_served_from_cache(self, processor):
        executor = SolveExecutor(SolverSettings(time_limit=15.0))
        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        first = executor.solve_window(graph, processor, 3, d_max, d_min)
        second = executor.solve_window(graph, processor, 3, d_max, d_min)
        assert first.feasible and second.feasible
        assert not first.cache_hit
        assert second.cache_hit and second.backend == "cache"
        assert second.achieved == first.achieved
        assert executor.telemetry.cache_hits == 1

    def test_disabled_cache_always_solves(self, processor):
        executor = SolveExecutor(
            SolverSettings(time_limit=15.0, enable_cache=False)
        )
        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        executor.solve_window(graph, processor, 3, d_max, d_min)
        second = executor.solve_window(graph, processor, 3, d_max, d_min)
        assert executor.cache is None
        assert not second.cache_hit

    def test_monotone_feasible_hit_on_wider_window(self, processor):
        executor = SolveExecutor(SolverSettings(time_limit=15.0))
        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        first = executor.solve_window(graph, processor, 3, d_max, d_min)
        wider = executor.solve_window(
            graph, processor, 3, d_max + 50.0, max(d_min - 50.0, 0.0)
        )
        assert wider.cache_hit
        assert wider.achieved == first.achieved


class TestDeadlinesAndDegradation:
    def test_expired_deadline_degrades_without_solving(self, processor):
        executor = SolveExecutor(SolverSettings(time_limit=15.0))
        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        outcome = executor.solve_window(
            graph, processor, 3, d_max, d_min,
            deadline=time.perf_counter() - 1.0,
        )
        assert outcome.degraded
        # The greedy fallback still certifies a design when one fits.
        if outcome.feasible:
            assert outcome.backend.startswith("heuristic:")
            assert outcome.design.audit(processor) == []
        assert executor.telemetry.fallbacks == 1

    def test_tiny_budget_on_big_model_degrades(self):
        processor = ReconfigurableProcessor(576, 2048, 30.0)
        executor = SolveExecutor(SolverSettings(time_limit=1e-4))
        graph = dct_4x4()
        d_max, d_min = window(graph, 8, 30.0)
        outcome = executor.solve_window(graph, processor, 8, d_max, d_min)
        assert outcome.degraded
        assert outcome.feasible          # greedy fits 8 partitions easily
        assert outcome.backend.startswith("heuristic:")

    def test_fallback_can_be_disabled(self):
        processor = ReconfigurableProcessor(576, 2048, 30.0)
        executor = SolveExecutor(
            SolverSettings(time_limit=1e-4, heuristic_fallback=False)
        )
        graph = dct_4x4()
        d_max, d_min = window(graph, 8, 30.0)
        outcome = executor.solve_window(graph, processor, 8, d_max, d_min)
        assert outcome.degraded and not outcome.feasible
        assert outcome.status is SolveStatus.TIME_LIMIT


class TestBackendsThroughExecutor:
    @pytest.mark.parametrize("backend", ["bnb", "cp"])
    def test_backend_agrees_with_highs(self, processor, backend):
        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        highs = SolveExecutor(SolverSettings(time_limit=15.0))
        other = SolveExecutor(SolverSettings(time_limit=15.0, backend=backend))
        a = highs.solve_window(graph, processor, 3, d_max, d_min)
        b = other.solve_window(graph, processor, 3, d_max, d_min)
        assert a.feasible and b.feasible
        assert b.backend == backend
        assert b.design.audit(processor) == []

    def test_cp_stops_at_the_node_limit(self, processor):
        sink = MemorySink()
        executor = SolveExecutor(SolverSettings(
            backend="cp", node_limit=5, time_limit=15.0,
            heuristic_fallback=False, tracer=Tracer(sink),
        ))
        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        outcome = executor.solve_window(graph, processor, 3, d_max, d_min)
        (attempt,) = [
            e for e in sink.events
            if e["type"] == "span_end" and e["name"] == "attempt:cp"
        ]
        # Placing 28 tasks takes at least 28 nodes, so the search stops
        # at the limit instead of finding the design it otherwise finds.
        assert attempt["attrs"]["status"] == "node_limit"
        assert 5 <= attempt["attrs"]["iterations"] < 28
        assert outcome.degraded and not outcome.feasible
        assert executor.telemetry.timeouts == 1

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown solve backend"):
            SolveExecutor(SolverSettings(backend="cplex"))

    @pytest.mark.parametrize(
        "bad",
        [{"backend": "typo"}, {"analyze": "loud"}],
        ids=["backend", "analyze"],
    )
    def test_bad_settings_rejected_before_the_store_opens(
        self, tmp_path, bad
    ):
        path = tmp_path / "solves.sqlite"
        with pytest.raises(ValueError, match="unknown"):
            SolveExecutor(SolverSettings(cache_path=str(path), **bad))
        assert list(tmp_path.iterdir()) == []


def crashing_solve(self, **kwargs):
    raise RuntimeError("backend exploded")


def timed_out_solve(self, **kwargs):
    return Solution(status=SolveStatus.TIME_LIMIT)


def refuting_solve(self, **kwargs):
    return Solution(status=SolveStatus.INFEASIBLE)


class TestAttemptOutcomes:
    """A backend that crashes or runs out of budget degrades the window;
    one that proves the window empty concludes it."""

    def traced_solve(self, processor, monkeypatch, solve, **settings):
        monkeypatch.setattr(TemporalPartitioningModel, "solve", solve)
        sink = MemorySink()
        executor = SolveExecutor(
            SolverSettings(time_limit=15.0, tracer=Tracer(sink), **settings)
        )
        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        outcome = executor.solve_window(graph, processor, 3, d_max, d_min)
        return executor, outcome, sink.events

    def test_crash_without_fallback_concludes_error(
        self, processor, monkeypatch
    ):
        executor, outcome, _events = self.traced_solve(
            processor, monkeypatch, crashing_solve, heuristic_fallback=False
        )
        assert outcome.status is SolveStatus.ERROR
        assert outcome.degraded and not outcome.feasible
        snapshot = executor.metrics.snapshot()
        assert snapshot.value(
            "repro_window_solves_total", "none", "error"
        ) == 1
        assert snapshot.total("repro_backend_timeouts_total") == 0

    def test_crash_becomes_an_error_attempt(
        self, processor, monkeypatch
    ):
        _executor, _outcome, events = self.traced_solve(
            processor, monkeypatch, crashing_solve, heuristic_fallback=False
        )
        (attempt,) = [
            e for e in events
            if e["type"] == "span_end" and e["name"] == "attempt:highs"
        ]
        assert attempt["attrs"]["status"] == "error"
        assert attempt["attrs"]["conclusive"] is False
        assert "backend exploded" in attempt["attrs"]["error"]
        verdicts = [
            e["name"] for e in events
            if e["type"] == "event" and e["name"].startswith("backend_")
        ]
        assert verdicts == ["backend_loss"]

    def test_fallback_certifies_a_design_after_a_crash(
        self, processor, monkeypatch
    ):
        _executor, outcome, _events = self.traced_solve(
            processor, monkeypatch, crashing_solve
        )
        assert outcome.degraded and outcome.feasible
        assert outcome.backend.startswith("heuristic:")
        assert outcome.design.audit(processor) == []

    def test_infeasibility_proof_is_conclusive(self, processor, monkeypatch):
        executor, outcome, events = self.traced_solve(
            processor, monkeypatch, refuting_solve
        )
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.backend == "highs"
        assert not outcome.degraded and not outcome.feasible
        assert executor.metrics.snapshot().value(
            "repro_backend_wins_total", "highs"
        ) == 1
        assert "backend_win" in {
            e["name"] for e in events if e["type"] == "event"
        }

    def test_timeout_concludes_time_limit(
        self, processor, monkeypatch
    ):
        executor, outcome, events = self.traced_solve(
            processor, monkeypatch, timed_out_solve, heuristic_fallback=False
        )
        assert outcome.status is SolveStatus.TIME_LIMIT
        assert outcome.degraded and not outcome.feasible
        assert executor.telemetry.timeouts == 1
        assert "backend_timeout" in {
            e["name"] for e in events if e["type"] == "event"
        }


def times_out_after_work(self, **kwargs):
    return Solution(status=SolveStatus.TIME_LIMIT, iterations=123)


class TestDegradedRecords:
    @pytest.mark.parametrize(
        "fallback", [True, False], ids=["fallback", "no_fallback"]
    )
    def test_degraded_record_keeps_the_backend_work(
        self, processor, monkeypatch, fallback
    ):
        monkeypatch.setattr(
            TemporalPartitioningModel, "solve", times_out_after_work
        )
        executor = SolveExecutor(
            SolverSettings(time_limit=15.0, heuristic_fallback=fallback)
        )
        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        outcome = executor.solve_window(graph, processor, 3, d_max, d_min)
        assert outcome.degraded
        assert outcome.feasible is fallback
        assert outcome.iterations == 123
        assert executor.telemetry.solves[0].iterations == 123


def gives_up_on_time(model, **options):
    return Solution(status=SolveStatus.TIME_LIMIT)


def gives_up_on_nodes(model, **options):
    return Solution(status=SolveStatus.NODE_LIMIT)


def explodes(model, **options):
    raise RuntimeError("backend exploded")


class TestUnknownVerdicts:
    """A window the backend gave up on is never stored as an emptiness
    proof, and the search sees the same status the executor recorded."""

    @pytest.mark.parametrize(
        "fallback", [True, False], ids=["fallback", "no_fallback"]
    )
    @pytest.mark.parametrize(
        "solve, expected",
        [
            (gives_up_on_time, SolveStatus.TIME_LIMIT),
            # The executor reports every budget exhaustion as TIME_LIMIT.
            (gives_up_on_nodes, SolveStatus.TIME_LIMIT),
            (explodes, SolveStatus.ERROR),
        ],
        ids=["time_limit", "node_limit", "raises"],
    )
    def test_unknown_is_never_a_proof(
        self, processor, monkeypatch, solve, expected, fallback
    ):
        monkeypatch.setitem(ilp_model._BACKENDS, "highs", solve)
        cache = SolveCache()
        proofs = []
        monkeypatch.setattr(
            cache, "store_infeasible",
            lambda fp, backend="": proofs.append((fp, backend)),
        )
        settings = SolverSettings(
            time_limit=15.0, heuristic_fallback=fallback
        )
        executor = SolveExecutor(settings, cache=cache)
        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        result = reduce_latency(
            graph, processor, 3, d_max, d_min, delta=1.0,
            settings=settings, executor=executor,
        )

        assert proofs == []
        records = list(result.trace)
        # One record, two views: the trace keeps the executor's records,
        # which the executor stamped with the bisection step.
        assert records == executor.telemetry.solves
        unknown = [r for r in records if not r.feasible]
        assert unknown
        for record in unknown:
            assert record.status is expected
            assert record.degraded
            assert not record.cache_hit
        assert result.degraded


def zeroes_partition_latency(model, **options):
    """HiGHS's point with every ``d[p]`` set to 0: each path row
    ``load <= d[p]`` of a used partition breaks by the load."""
    from repro.ilp.scipy_backend import solve_with_highs

    solution = solve_with_highs(model, **options)
    values = {
        name: 0.0 if name.startswith("d[") else value
        for name, value in solution.values.items()
    }
    return Solution(
        status=solution.status,
        objective=solution.objective,
        values=values,
        iterations=solution.iterations,
    )


class TestBackendPointCheck:
    """A backend's point is a design only once it satisfies the window's
    model (integral columns rounded)."""

    def solve(self, processor, monkeypatch, fallback, backend):
        monkeypatch.setitem(ilp_model._BACKENDS, "highs", backend)
        stored = []
        cache = SolveCache()
        monkeypatch.setattr(
            cache, "store_feasible",
            lambda fp, design, achieved, **kw: stored.append(design),
        )
        sink = MemorySink()
        executor = SolveExecutor(
            SolverSettings(
                time_limit=15.0, heuristic_fallback=fallback,
                tracer=Tracer(sink),
            ),
            cache=cache,
        )
        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        outcome = executor.solve_window(graph, processor, 3, d_max, d_min)
        events = [e for e in sink.events if e["type"] == "event"]
        return outcome, stored, events

    def test_point_breaking_a_row_is_rejected(self, processor, monkeypatch):
        outcome, stored, events = self.solve(
            processor, monkeypatch, False, zeroes_partition_latency
        )
        assert outcome.status is SolveStatus.ERROR
        assert not outcome.feasible and outcome.design is None
        assert outcome.degraded
        assert stored == []
        names = [e["name"] for e in events]
        assert "backend_point_rejected" in names
        assert "backend_win" not in names
        rejected = next(
            e for e in events if e["name"] == "backend_point_rejected"
        )
        assert rejected["attrs"]["backend"] == "highs"

    def test_fallback_answers_instead_of_the_rejected_point(
        self, processor, monkeypatch
    ):
        outcome, stored, _events = self.solve(
            processor, monkeypatch, True, zeroes_partition_latency
        )
        assert outcome.design is not None
        assert outcome.backend.startswith("heuristic:")
        assert outcome.design.audit(processor) == []
        assert all(design is outcome.design for design in stored)

    def test_real_points_pass(self, processor, monkeypatch):
        from repro.ilp.scipy_backend import solve_with_highs

        outcome, stored, events = self.solve(
            processor, monkeypatch, False, solve_with_highs
        )
        assert outcome.status is SolveStatus.FEASIBLE
        assert outcome.backend == "highs"
        assert stored == [outcome.design]
        assert "backend_point_rejected" not in {e["name"] for e in events}


#: The metric families the executor folds from its events.
EXECUTOR_FAMILIES = (
    "repro_window_solves_total",
    "repro_window_solve_seconds",
    "repro_incumbent_reuses_total",
    "repro_template_builds_total",
    "repro_backend_attempts_total",
    "repro_backend_solve_seconds",
    "repro_backend_wins_total",
    "repro_backend_timeouts_total",
    "repro_model_analyses_total",
    "repro_analysis_diagnostics_total",
)


def refold(events):
    """The snapshot a fresh executor's fold table makes of ``events``."""
    registry = MetricsRegistry()
    folds = SolveExecutor(SolverSettings(metrics=registry))._folds
    for event in events:
        if event["type"] == "event" and event["name"] in folds:
            folds[event["name"]](event["attrs"])
    return registry.snapshot()


class TestInstrumentationStream:
    """Each executor fact is emitted once, as an event; the executor's
    metrics are the fold of its events."""

    def assert_metrics_are_the_fold(self, registry, events):
        live, folded = registry.snapshot(), refold(events)
        for name in EXECUTOR_FAMILIES:
            # Registered eagerly: present even when nothing counted.
            assert live.family(name) is not None, name
            assert folded.family(name) == live.family(name), name

    def test_fast_search_metrics_refold_from_its_events(self, processor):
        sink, registry = MemorySink(), MetricsRegistry()
        refine_partitions_bound(
            ar_filter(), processor,
            settings=SolverSettings.fast(
                analyze="warn", tracer=Tracer(sink), metrics=registry
            ),
        )
        snapshot = registry.snapshot()
        for name in (
            "repro_window_solves_total",
            "repro_template_builds_total",
            "repro_backend_attempts_total",
            "repro_model_analyses_total",
        ):
            assert snapshot.total(name) > 0, name
        self.assert_metrics_are_the_fold(registry, sink.events)
        names = {e["name"] for e in sink.events if e["type"] == "event"}
        assert "incumbent_reuse" not in names

    @pytest.mark.parametrize(
        "solve", [timed_out_solve, crashing_solve], ids=["timeout", "crash"]
    )
    def test_failed_attempts_refold_from_their_events(
        self, processor, monkeypatch, solve
    ):
        monkeypatch.setattr(TemporalPartitioningModel, "solve", solve)
        sink, registry = MemorySink(), MetricsRegistry()
        executor = SolveExecutor(SolverSettings(
            time_limit=15.0, tracer=Tracer(sink), metrics=registry
        ))
        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        executor.solve_window(graph, processor, 3, d_max, d_min)
        assert registry.snapshot().total("repro_backend_attempts_total") == 1
        self.assert_metrics_are_the_fold(registry, sink.events)


class TestTelemetry:
    def test_solves_are_recorded(self, processor):
        executor = SolveExecutor(SolverSettings(time_limit=15.0))
        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        executor.solve_window(graph, processor, 3, d_max, d_min)
        telemetry = executor.telemetry
        assert telemetry.total_solves == 1
        assert telemetry.backend_wins.get("highs") == 1
        payload = telemetry.to_dict(include_solves=True)
        assert payload["total_solves"] == 1
        assert payload["solves"][0]["backend"] == "highs"
        assert "cache_hit_rate" in payload


def never_runs(model, **options):
    raise AssertionError("a backend ran below the packing bound")


class TestPackingBound:
    """With ``use_lp_bound`` the executor concludes a window whose
    ``d_max`` lies below the packing bound itself, through the one record
    path: no template, cache entry or backend attempt."""

    def test_window_below_the_bound_concludes_packing(
        self, processor, monkeypatch
    ):
        monkeypatch.setitem(ilp_model._BACKENDS, "highs", never_runs)
        graph = ar_filter()
        # The minimum areas sum to 970, more than 2 x 400.
        assert bounds.packing_min_latency(graph, processor, 2) == math.inf
        executor = SolveExecutor(SolverSettings(time_limit=15.0))
        d_max, d_min = window(graph, 2)
        outcome = executor.solve_window(graph, processor, 2, d_max, d_min)
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.backend == "packing"
        assert not (outcome.cache_hit or outcome.degraded)
        assert outcome.bound is None
        json.dumps(outcome.to_dict(), allow_nan=False)
        telemetry = executor.telemetry
        assert telemetry.solves == [outcome]
        assert telemetry.template_builds == 0
        assert telemetry.template_instantiations == 0
        assert telemetry.backend_wins == {"packing": 1}
        assert telemetry.fallbacks == 0
        assert len(executor.cache) == 0

    def test_slot_windows_are_pruned_on_the_slot_device(self, monkeypatch):
        monkeypatch.setitem(ilp_model._BACKENDS, "highs", never_runs)
        graph = ar_filter()
        whole = ReconfigurableProcessor(800, 256, 20.0)
        options = FormulationOptions(scenario="slot_coresident")
        # Two partitions of the whole device hold the graph; two
        # 400-unit slots do not.
        assert bounds.packing_min_latency(graph, whole, 2) == 210.0
        executor = SolveExecutor(SolverSettings(time_limit=15.0))
        assert executor.packing_bound(graph, whole, 2, options) == math.inf
        d_max, d_min = window(graph, 2, c_t=10.0)
        outcome = executor.solve_window(
            graph, whole, 2, d_max, d_min, options
        )
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.backend == "packing"
        assert executor.telemetry.template_builds == 0

    def test_paper_exact_computes_no_bound(self, processor, monkeypatch):
        graph = ar_filter()
        d_max, d_min = window(graph, 2)
        pruned = SolveExecutor(SolverSettings(time_limit=15.0)).solve_window(
            graph, processor, 2, d_max, d_min
        )
        assert pruned.backend == "packing"

        def no_bound(*args, **kwargs):
            raise AssertionError("paper_exact computed the packing bound")

        monkeypatch.setattr(bounds, "packing_min_latency", no_bound)
        executor = SolveExecutor(SolverSettings.paper_exact(time_limit=15.0))
        outcome = executor.solve_window(graph, processor, 2, d_max, d_min)
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.backend == "highs"
        assert executor.telemetry.template_builds == 1


class TestTemplateReuse:
    def test_templates_are_shared_across_windows(self, processor):
        executor = SolveExecutor(
            SolverSettings(time_limit=15.0, enable_cache=False)
        )
        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        executor.solve_window(graph, processor, 3, d_max, d_min)
        executor.solve_window(graph, processor, 3, d_max - 30.0, d_min)
        executor.solve_window(graph, processor, 3, d_max - 60.0, 0.0)
        assert executor.telemetry.template_builds == 1
        assert executor.telemetry.template_instantiations == 3

    def test_each_structure_gets_its_own_template(self, processor):
        executor = SolveExecutor(
            SolverSettings(time_limit=15.0, enable_cache=False)
        )
        graph = ar_filter()
        for n in (3, 4):
            d_max, d_min = window(graph, n)
            executor.solve_window(graph, processor, n, d_max, d_min)
        assert executor.telemetry.template_builds == 2

    def test_both_paths_reach_the_same_verdict(self, processor):
        from repro.core.formulation import FormulationOptions, build_model

        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        executor = SolveExecutor(
            SolverSettings(time_limit=15.0, enable_cache=False)
        )
        templated = executor.solve_window(graph, processor, 3, d_max, d_min)
        fresh = build_model(
            graph, processor, 3, d_max, d_min,
            FormulationOptions(minimize_latency=True),
        ).solve(backend="highs", first_feasible=True, time_limit=15.0)
        assert templated.feasible == fresh.status.has_solution

    def test_template_fingerprint_matches_fresh_cache_key(self, processor):
        """A warm cache from the template path must hit on fresh builds."""
        graph = ar_filter()
        d_max, d_min = window(graph, 3)
        from repro.core.formulation import FormulationOptions, build_model
        from repro.solve.fingerprint import fingerprint_model

        executor = SolveExecutor(SolverSettings(time_limit=15.0))
        executor.solve_window(graph, processor, 3, d_max, d_min)
        fresh = build_model(
            graph, processor, 3, d_max, d_min,
            FormulationOptions(minimize_latency=True),
        )
        hit = executor.cache.lookup(fingerprint_model(fresh), graph=graph)
        assert hit is not None
