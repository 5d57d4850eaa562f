"""Tests for ExperimentResult presentation (no solving involved)."""

import pytest

from repro.core.refine_partitions import RefinementResult
from repro.core.trace import SearchTrace
from repro.ilp.status import SolveStatus
from repro.solve import WindowOutcome
from repro.experiments import DctExperiment, ExperimentResult, SMALL_CT


def fabricated_result(records, design=None, achieved=None):
    trace = SearchTrace()
    trace.extend(records)
    experiment = DctExperiment(
        table="Table X",
        resource_capacity=576,
        reconfiguration_time=SMALL_CT,
        delta=200.0,
    )
    refinement = RefinementResult(
        design=design,
        achieved=achieved,
        trace=trace,
        explored_partitions=tuple(r.num_partitions for r in records),
        delta=200.0,
    )
    return ExperimentResult(
        experiment=experiment, result=refinement, wall_time=1.5
    )


def rec(n, i, d_max, d_min, achieved):
    status = SolveStatus.INFEASIBLE if achieved is None else SolveStatus.FEASIBLE
    return WindowOutcome(
        design=None, achieved=achieved, status=status, backend="highs",
        wall_time=0.0, num_partitions=n, d_min=d_min, d_max=d_max,
        iteration=i,
    )


class TestTableRendering:
    def test_overhead_stripped_by_default(self):
        # N = 8, C_T = 30: the overhead is 240.
        result = fabricated_result(
            [rec(8, 1, 1240.0, 340.0, 1040.0)], achieved=1040.0
        )
        table = result.table()
        n, i, d_min, d_max, achieved = table.rows[0]
        assert (n, i) == (8, 1)
        assert d_min == pytest.approx(100.0)
        assert d_max == pytest.approx(1000.0)
        assert achieved == pytest.approx(800.0)

    def test_overhead_kept_on_request(self):
        result = fabricated_result(
            [rec(8, 1, 1240.0, 340.0, 1040.0)], achieved=1040.0
        )
        table = result.table(include_overhead=True)
        _n, _i, d_min, d_max, achieved = table.rows[0]
        assert d_min == pytest.approx(340.0)
        assert d_max == pytest.approx(1240.0)
        assert achieved == pytest.approx(1040.0)

    def test_infeasible_footer(self):
        result = fabricated_result(
            [rec(8, 1, 1240.0, 340.0, None)]
        )
        table = result.table()
        assert "infeasible" in table.footer

    def test_accessors_for_infeasible_run(self):
        result = fabricated_result([rec(8, 1, 1.0, 0.0, None)])
        assert result.best_latency is None
        assert result.best_partitions is None
        assert result.iterations == 1
