"""SolveExecutor: caching, deadlines, degradation, telemetry."""

import time

import pytest

from dataclasses import replace

from repro.arch import ReconfigurableProcessor
from repro.core import SolverSettings, bounds, reduce_latency
from repro.core.formulation import TemporalPartitioningModel
from repro.ilp import model as ilp_model
from repro.ilp.status import Solution, SolveStatus
from repro.obs import MemorySink, Tracer
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

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown solve backend"):
            SolveExecutor(SolverSettings(backend="cplex"))


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
        # stamped with the bisection step.
        assert [replace(r, iteration=0) for r in records] == (
            executor.telemetry.solves
        )
        unknown = [r for r in records if not r.feasible]
        assert unknown
        for record in unknown:
            assert record.status is expected
            assert record.degraded
            assert not record.cache_hit
        assert result.degraded


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
