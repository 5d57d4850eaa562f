"""Tests for the experiment runner and the fast table reproductions.

The expensive DCT sweeps (Tables 3-8) live in ``benchmarks/``; here we
exercise the harness itself plus the cheap experiments (Tables 1 and 2)
and a budget-capped smoke run of one DCT experiment.
"""

import pytest

from repro.core import SolverSettings
from repro.experiments import (
    DCT_EXPERIMENTS,
    DctExperiment,
    run_experiment,
    table1_ar_filter,
    table2_design_points,
)
from repro.ilp import model as ilp_model
from repro.ilp.scipy_backend import solve_with_highs
from repro.ilp.status import Solution, SolveStatus
from repro.taskgraph import ar_filter, dct_4x4


@pytest.fixture
def searches_time_out_after_the_first(monkeypatch):
    """HiGHS answers the first feasibility solve of a run and times out
    on every later one; other solves (the optimal ILP) run as usual."""
    calls = []

    def stub(model, **options):
        if options.get("first_feasible"):
            calls.append(None)
            if len(calls) > 1:
                return Solution(status=SolveStatus.TIME_LIMIT)
        return solve_with_highs(model, **options)

    monkeypatch.setitem(ilp_model._BACKENDS, "highs", stub)


def d_a_cells(text: str) -> list[str]:
    """The ``D_a`` column of a rendered iteration table."""
    return [
        line.split("|")[-2].strip()
        for line in text.splitlines()
        if line.startswith("|") and not line.startswith("|-")
    ][1:]


class TestTable1:
    def test_iterative_matches_optimal(self):
        result = table1_ar_filter(
            settings=SolverSettings(time_limit=15.0)
        )
        assert result.matches
        assert result.iterative_latency == pytest.approx(510.0)

    def test_table_renders_with_inf_rows(self):
        result = table1_ar_filter(
            settings=SolverSettings(time_limit=15.0)
        )
        text = result.table.render()
        assert "Inf." in text          # bisection probes below optimum
        assert "match" in text
        assert "T/O" not in text       # every window was decided

    def test_unknown_windows_print_t_o(
        self, searches_time_out_after_the_first
    ):
        result = table1_ar_filter(
            settings=SolverSettings(time_limit=15.0, heuristic_fallback=False)
        )
        text = result.table.render()
        cells = d_a_cells(text)
        assert "T/O" in cells
        assert f"{cells.count('T/O')} T/O rows" in result.table.footer


class TestTable2:
    def test_design_point_rows(self):
        table = table2_design_points()
        assert len(table.rows) == 6     # 2 kinds x 3 points
        text = table.render()
        assert "T1" in text and "T2" in text
        assert "4,160" in text.replace(" ", ",")


class TestUnknownRows:
    """A window that timed out is unknown, not infeasible: ``T/O``."""

    def test_experiment_table_prints_t_o_and_counts_it(
        self, searches_time_out_after_the_first
    ):
        experiment = DctExperiment(
            table="stub",
            resource_capacity=400,
            reconfiguration_time=20.0,
            delta=10.0,
            memory_capacity=128.0,
            solver=SolverSettings(time_limit=15.0, heuristic_fallback=False),
        )
        result = run_experiment(experiment, ar_filter())
        records = list(result.result.trace)
        unknown = sum(r.unknown for r in records)
        assert unknown >= 1
        table = result.table()
        cells = d_a_cells(table.render())
        assert len(cells) == len(records)
        for record, cell in zip(records, cells):
            if record.unknown:
                assert cell == "T/O"
            elif record.status is SolveStatus.INFEASIBLE:
                assert cell == "Inf."
            else:
                assert record.feasible and cell not in ("T/O", "Inf.")
        assert f"; {unknown} T/O rows" in table.footer

    @pytest.mark.parametrize(
        "fallback", [True, False], ids=["fallback", "no_fallback"]
    )
    def test_footer_and_chart_name_only_what_ran(
        self, searches_time_out_after_the_first, fallback
    ):
        experiment = DctExperiment(
            table="stub",
            resource_capacity=400,
            reconfiguration_time=20.0,
            delta=10.0,
            memory_capacity=128.0,
            solver=SolverSettings(
                time_limit=15.0, heuristic_fallback=fallback
            ),
        )
        result = run_experiment(experiment, ar_filter())
        trace = result.result.trace
        assert result.degraded
        assert trace.used_fallback is fallback
        footer = result.table().footer
        assert ("degraded: heuristic fallback used" in footer) is fallback
        # An unknown window is drawn "?", never the "x" of a proof.
        lines = trace.convergence_chart().splitlines()
        assert any(r.unknown for r in trace)
        for record, line in zip(trace, lines):
            body = line.split("|")[1]
            if record.unknown:
                assert "?" in body and "x" not in body
            elif not record.feasible:
                assert "x" in body and "?" not in body


class TestRunner:
    def test_experiment_processor_construction(self):
        experiment = DctExperiment(
            table="T", resource_capacity=576,
            reconfiguration_time=30.0, delta=200.0,
        )
        processor = experiment.processor()
        assert processor.resource_capacity == 576
        assert processor.reconfiguration_time == 30.0

    def test_registry_covers_tables_3_to_8(self):
        assert sorted(DCT_EXPERIMENTS) == [3, 4, 5, 6, 7, 8]

    def test_budget_capped_dct_run(self):
        """A heavily capped run still produces a well-formed trace."""
        experiment = DctExperiment(
            table="smoke",
            resource_capacity=1024,
            reconfiguration_time=10e6,
            delta=3000.0,
            alpha=0,
            gamma=0,
            solver=SolverSettings(time_limit=20.0),
            time_budget=90.0,
        )
        result = run_experiment(experiment, dct_4x4())
        assert result.iterations >= 1
        table_text = result.table().render()
        assert "N" in table_text
        if result.best_latency is not None:
            assert result.best_partitions >= 5
            # Rendering without overhead shows execution-only latencies.
            assert result.best_latency > 10e6  # includes reconfigurations
