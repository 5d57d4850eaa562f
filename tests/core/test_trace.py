"""Unit tests for iteration traces."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import SearchTrace
from repro.ilp.status import SolveStatus
from repro.solve import WindowOutcome


def record(n=3, i=1, d_max=100.0, d_min=10.0, achieved=50.0):
    return WindowOutcome(
        design=None,
        achieved=achieved,
        status=(
            SolveStatus.INFEASIBLE if achieved is None
            else SolveStatus.FEASIBLE
        ),
        backend="highs",
        wall_time=0.5,
        iterations=7,
        num_partitions=n,
        d_min=d_min,
        d_max=d_max,
        iteration=i,
    )


class TestIterationRecord:
    def test_feasible_flag(self):
        assert record().feasible
        assert not record(achieved=None).feasible

    def test_row_strips_overhead(self):
        r = record(n=3, d_max=160.0, d_min=70.0, achieved=130.0)
        n, i, d_min, d_max, achieved = r.row(reconfiguration_time=20.0)
        assert (n, i) == (3, 1)
        assert d_min == pytest.approx(10.0)
        assert d_max == pytest.approx(100.0)
        assert achieved == pytest.approx(70.0)

    def test_row_infeasible_keeps_none(self):
        n, i, d_min, d_max, achieved = record(achieved=None).row(20.0)
        assert achieved is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            record().iteration = 99


class TestJsonShapes:
    """One record, two JSON shapes, both as they were before the record
    types merged."""

    GOLDEN = Path(__file__).resolve().parent.parent / "golden"

    @pytest.mark.parametrize(
        "name", ["outcome_v1.json", "outcome_v2.json", "outcome_v3.json"]
    )
    def test_golden_trace_round_trips_byte_for_byte(self, name):
        payload = json.loads((self.GOLDEN / name).read_text())["trace"]
        restored = SearchTrace.from_dict(payload)
        assert json.dumps(restored.to_dict(), sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )

    def test_trace_shape_infers_status(self):
        feasible = record()
        proof = record(achieved=None)
        gave_up = replace(
            record(achieved=None),
            status=SolveStatus.TIME_LIMIT, backend="", degraded=True,
        )
        for live in (feasible, proof, gave_up):
            restored = WindowOutcome.from_trace_dict(live.to_trace_dict())
            assert restored == live
            assert restored.design is None
        assert WindowOutcome.from_trace_dict(
            gave_up.to_trace_dict()
        ).status is SolveStatus.TIME_LIMIT

    def test_telemetry_row_round_trips(self):
        live = record(achieved=None)
        assert list(live.to_dict()) == [
            "num_partitions", "d_min", "d_max", "backend", "status",
            "wall_time", "iterations", "cache_hit", "degraded",
        ]
        assert WindowOutcome.from_dict(live.to_dict()) == replace(
            live, iteration=0
        )

    def test_degraded_is_any_degraded_record(self):
        trace = SearchTrace()
        trace.add(record())
        assert not trace.degraded
        trace.add(replace(record(achieved=None), degraded=True))
        assert trace.degraded


class TestSearchTrace:
    def test_add_and_iterate(self):
        trace = SearchTrace()
        trace.add(record(i=1))
        trace.add(record(i=2, achieved=None))
        assert len(trace) == 2
        assert trace.total_solves == 2
        assert [r.iteration for r in trace] == [1, 2]

    def test_extend(self):
        trace = SearchTrace()
        trace.extend([record(i=1), record(i=2)])
        assert len(trace) == 2

    def test_total_wall_time(self):
        trace = SearchTrace()
        trace.extend([record(), record()])
        assert trace.total_wall_time == pytest.approx(1.0)

    def test_for_partitions(self):
        trace = SearchTrace()
        trace.extend([record(n=3), record(n=4), record(n=3, i=2)])
        assert len(trace.for_partitions(3)) == 2
        assert len(trace.for_partitions(5)) == 0

    def test_partition_counts_in_first_seen_order(self):
        trace = SearchTrace()
        trace.extend([record(n=4), record(n=3), record(n=4, i=2)])
        assert trace.partition_counts() == (4, 3)

    def test_best(self):
        trace = SearchTrace()
        trace.extend(
            [
                record(i=1, achieved=90.0),
                record(i=2, achieved=None),
                record(i=3, achieved=60.0),
            ]
        )
        assert trace.best().achieved == 60.0

    def test_best_of_empty_or_infeasible(self):
        trace = SearchTrace()
        assert trace.best() is None
        trace.add(record(achieved=None))
        assert trace.best() is None


class TestConvergenceChart:
    def test_empty(self):
        assert SearchTrace().convergence_chart() == "(empty trace)"

    def test_marks_feasible_and_infeasible(self):
        trace = SearchTrace()
        trace.add(record(i=1, d_min=0.0, d_max=100.0, achieved=50.0))
        trace.add(record(i=2, d_min=0.0, d_max=40.0, achieved=None))
        chart = trace.convergence_chart(width=40)
        lines = chart.splitlines()
        assert len(lines) == 2
        assert "*" in lines[0]
        assert "x" in lines[1]
        assert all(line.startswith("N=3") for line in lines)

    def test_width_respected(self):
        trace = SearchTrace()
        trace.add(record())
        chart = trace.convergence_chart(width=30)
        body = chart.split("|")[1]
        assert len(body) == 30

    def test_single_record_spans_full_width(self):
        trace = SearchTrace()
        trace.add(record(d_min=40.0, d_max=80.0, achieved=60.0))
        chart = trace.convergence_chart(width=21)
        body = chart.split("|")[1]
        # The lone window defines the whole axis: dashes edge to edge,
        # the achieved marker at the midpoint.
        assert body[0] in "-*"
        assert body[-1] in "-*"
        assert body[10] == "*"

    def test_zero_width_window(self):
        # d_min == d_max across the trace makes the axis span zero; the
        # epsilon guard must keep the column math finite and in range.
        trace = SearchTrace()
        trace.add(record(d_min=50.0, d_max=50.0, achieved=50.0))
        chart = trace.convergence_chart(width=10)
        body = chart.split("|")[1]
        assert len(body) == 10
        assert body.count("*") == 1

    def test_infeasible_marker_sits_at_window_upper_end(self):
        trace = SearchTrace()
        trace.add(record(i=1, d_min=0.0, d_max=100.0, achieved=50.0))
        trace.add(record(i=2, d_min=0.0, d_max=50.0, achieved=None))
        chart = trace.convergence_chart(width=41)
        infeasible_body = chart.splitlines()[1].split("|")[1]
        # d_max=50 on a 0..100 axis of width 41 -> column 20.
        assert infeasible_body[20] == "x"
        assert "-" not in infeasible_body[21:]

    def test_real_search_chart(self, ):
        from repro.arch import ReconfigurableProcessor
        from repro.core import (
            RefinementConfig,
            SolverSettings,
            refine_partitions_bound,
        )
        from repro.taskgraph import ar_filter

        result = refine_partitions_bound(
            ar_filter(),
            ReconfigurableProcessor(400, 128, 20),
            config=RefinementConfig(delta=10.0, gamma=1),
            settings=SolverSettings(time_limit=15.0),
        )
        chart = result.trace.convergence_chart()
        assert chart.count("\n") + 1 == len(result.trace)
