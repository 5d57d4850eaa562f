"""Pre-solve analysis wired into the executor (SolverSettings.analyze)."""

from dataclasses import replace

import pytest

from repro.analysis import ModelAnalysisError
from repro.arch import ReconfigurableProcessor
from repro.core import bounds
from repro.core.reduce_latency import SolverSettings
from repro.obs import MemorySink, Tracer
from repro.solve.executor import SolveExecutor
from repro.taskgraph.library import ar_filter


@pytest.fixture(scope="module")
def problem():
    graph = ar_filter()
    processor = ReconfigurableProcessor(
        resource_capacity=400.0,
        memory_capacity=128.0,
        reconfiguration_time=20.0,
        name="xc6264",
    )
    d_max = bounds.max_latency(graph, 3, processor.reconfiguration_time)
    return graph, processor, d_max


class TestAnalyzeModes:
    def test_unknown_mode_rejected_at_construction(self):
        with pytest.raises(ValueError, match="analyze mode"):
            SolveExecutor(SolverSettings(analyze="aggressive"))

    def test_off_mode_runs_no_analysis(self, problem):
        graph, processor, d_max = problem
        executor = SolveExecutor(SolverSettings(analyze="off"))
        outcome = executor.solve_window(graph, processor, 3, d_max, 0.0)
        assert outcome.feasible
        assert executor.telemetry.analysis_runs == 0

    def test_warn_mode_counts_clean_pass_and_solves(self, problem):
        graph, processor, d_max = problem
        executor = SolveExecutor(SolverSettings(analyze="warn"))
        outcome = executor.solve_window(graph, processor, 3, d_max, 0.0)
        assert outcome.feasible
        assert executor.telemetry.analysis_runs == 1
        assert executor.telemetry.analysis_errors == 0
        payload = executor.telemetry.to_dict(include_solves=False)
        assert payload["analysis_runs"] == 1

    def test_warn_mode_reports_but_does_not_abort(self, problem):
        graph, processor, _ = problem
        executor = SolveExecutor(
            SolverSettings(analyze="warn", use_lp_bound=False)
        )
        # d_max below C_T: the latency_ub row is trivially infeasible.
        # (With the bound on, the packing bound refutes this window
        # before any model is built, so none is analyzed.)
        outcome = executor.solve_window(graph, processor, 3, 1.0, 0.0)
        assert not outcome.feasible
        assert executor.telemetry.analysis_errors >= 1

    def test_strict_mode_passes_clean_models_through(self, problem):
        graph, processor, d_max = problem
        executor = SolveExecutor(SolverSettings(analyze="strict"))
        outcome = executor.solve_window(graph, processor, 3, d_max, 0.0)
        assert outcome.feasible


#: Strict analysis with the packing bound off: the windows below use a
#: d_max the bound would refute before any model is built.
STRICT_UNBOUNDED = SolverSettings(analyze="strict", use_lp_bound=False)


class TestStrictAbort:
    def test_aborts_before_any_backend_attempt(self, problem):
        graph, processor, _ = problem
        executor = SolveExecutor(STRICT_UNBOUNDED)
        with pytest.raises(ModelAnalysisError) as excinfo:
            executor.solve_window(graph, processor, 3, 1.0, 0.0)
        # The report rides on the exception with the failing equation.
        report = excinfo.value.report
        assert not report.ok
        assert any(d.paper_eq == "(9)" for d in report.errors)
        # No backend ever ran: the abort happened pre-race.
        assert executor.telemetry.backend_wall == {}
        assert executor.telemetry.total_solves == 0
        assert executor.telemetry.analysis_errors >= 1

    def test_tracer_records_the_analysis_span(self, problem):
        graph, processor, _ = problem
        sink = MemorySink()
        settings = replace(STRICT_UNBOUNDED, tracer=Tracer(sink))
        executor = SolveExecutor(settings)
        with pytest.raises(ModelAnalysisError):
            executor.solve_window(graph, processor, 3, 1.0, 0.0)
        names = [e["name"] for e in sink.events]
        assert "model_analyze" in names
        assert "analyzer_diagnostic" in names
