"""Unit tests for Algorithm Reduce_Latency (Figure 1)."""

import math

import pytest

from repro.arch import ReconfigurableProcessor
from repro.core import SolverSettings, bounds, reduce_latency
from repro.core.formulation import FormulationOptions, lp_latency_lower_bound
from repro.ilp.status import SolveStatus
from repro.solve import SolveExecutor
from repro.taskgraph import ar_filter
from repro.taskgraph.generators import (
    fork_join_graph,
    layered_graph,
    random_dag,
)


def proc(r=400, c_t=20.0):
    return ReconfigurableProcessor(r, 128, c_t)


def run(graph, processor, n, delta=10.0, settings=None, **kwargs):
    d_max = bounds.max_latency(graph, n, processor.reconfiguration_time)
    d_min = bounds.min_latency(graph, n, processor.reconfiguration_time)
    return reduce_latency(
        graph,
        processor,
        n,
        d_max,
        d_min,
        delta,
        settings=settings or SolverSettings(time_limit=15.0),
        **kwargs,
    )


class TestBasics:
    def test_invalid_delta(self, ar_graph):
        with pytest.raises(ValueError):
            run(ar_graph, proc(), 3, delta=0.0)

    def test_finds_feasible_solution(self, ar_graph):
        result = run(ar_graph, proc(), 3)
        assert result.feasible
        assert result.design.is_valid(proc())
        assert result.achieved == pytest.approx(
            result.design.total_latency(proc())
        )

    def test_infeasible_partition_bound(self, ar_graph):
        # One partition cannot hold 970+ area on a 400-unit device.
        result = run(ar_graph, proc(), 1)
        assert not result.feasible
        assert result.achieved is None
        assert len(result.trace) == 1
        assert not result.trace.records[0].feasible

    def test_trace_has_monotone_iterations(self, ar_graph):
        result = run(ar_graph, proc(), 3)
        iterations = [r.iteration for r in result.trace]
        assert iterations == list(range(1, len(iterations) + 1))


class TestConvergence:
    def test_achieved_within_delta_of_final_lower_bound(self, ar_graph):
        """Termination: either window < delta or D_a - D_min < delta."""
        delta = 10.0
        result = run(ar_graph, proc(), 3, delta=delta)
        assert result.feasible
        records = result.trace.records
        last = records[-1]
        final_d_min = last.d_min if not last.feasible else records[-1].d_min
        # The incumbent cannot be more than delta above any proven-empty
        # region boundary explored last.
        infeasible_maxima = [
            r.d_max for r in records if not r.feasible
        ]
        if infeasible_maxima:
            assert result.achieved - max(infeasible_maxima) <= delta + 1e-6

    def test_achieved_never_worse_than_first(self, ar_graph):
        result = run(ar_graph, proc(), 3)
        feasible = [r.achieved for r in result.trace if r.feasible]
        assert feasible == sorted(feasible, reverse=True)
        assert result.achieved == feasible[-1]

    def test_larger_delta_means_fewer_iterations(self, ar_graph):
        fine = run(ar_graph, proc(), 3, delta=5.0)
        coarse = run(ar_graph, proc(), 3, delta=200.0)
        assert len(coarse.trace) <= len(fine.trace)

    def test_trials_always_below_incumbent(self, ar_graph):
        result = run(ar_graph, proc(), 3)
        incumbent = None
        for record in result.trace:
            if incumbent is not None:
                assert record.d_max < incumbent
            if record.feasible:
                incumbent = record.achieved


class TestExtensions:
    def test_lp_bound_off_reproduces_paper_window(self, ar_graph):
        settings = SolverSettings(use_lp_bound=False, time_limit=15.0)
        result = run(ar_graph, proc(), 3, settings=settings)
        first = result.trace.records[0]
        assert first.d_min == pytest.approx(
            bounds.min_latency(ar_graph, 3, 20.0)
        )

    def test_lp_bound_on_tightens_d_min(self, ar_graph):
        on = run(ar_graph, proc(), 3)
        off = run(
            ar_graph, proc(), 3,
            settings=SolverSettings(use_lp_bound=False, time_limit=15.0),
        )
        assert on.trace.records[0].d_min >= off.trace.records[0].d_min
        # Both converge to the same quality (the bound removes no design).
        assert on.achieved == pytest.approx(off.achieved, rel=0.05)

    def test_unguided_solves_still_work(self, ar_graph):
        settings = SolverSettings(
            guide_with_objective=False, time_limit=15.0
        )
        result = run(ar_graph, proc(), 3, settings=settings)
        assert result.feasible


class TestSettingsSource:
    """The executor's settings are the run's settings: ``settings`` only
    builds the executor when none is passed."""

    @staticmethod
    def records(result):
        return [
            (r.num_partitions, r.d_min, r.d_max, r.achieved, r.status, r.bound)
            for r in result.trace
        ]

    def test_executor_alone_runs_its_own_settings(self, ar_graph):
        # fast() turns on dual-bound trials: a bare fast() executor must
        # run them, not the default settings' midpoint bisection.
        fast = SolverSettings.fast(time_limit=15.0)
        d_max = bounds.max_latency(ar_graph, 4, 20.0)
        d_min = bounds.min_latency(ar_graph, 4, 20.0)
        via_executor = reduce_latency(
            ar_graph, proc(), 4, d_max, d_min, 10.0,
            executor=SolveExecutor(fast),
        )
        via_settings = run(ar_graph, proc(), 4, settings=fast)
        assert self.records(via_executor) == self.records(via_settings)
        assert any(r.bound is not None for r in via_executor.trace)

    def test_equal_settings_and_executor_are_accepted(self, ar_graph):
        settings = SolverSettings(time_limit=15.0)
        result = run(
            ar_graph, proc(), 3, settings=settings,
            executor=SolveExecutor(SolverSettings(time_limit=15.0)),
        )
        assert result.feasible

    def test_mismatched_settings_and_executor_raise(self, ar_graph):
        executor = SolveExecutor(SolverSettings.fast(time_limit=15.0))
        with pytest.raises(ValueError, match="executor.settings"):
            run(
                ar_graph, proc(), 3,
                settings=SolverSettings(time_limit=15.0), executor=executor,
            )
        assert executor.telemetry.total_solves == 0


class TestDeadline:
    def test_expired_deadline_stops_after_first_solve(self, ar_graph):
        import time

        result = run(
            ar_graph, proc(), 3, deadline=time.perf_counter() - 1.0
        )
        # First solve always happens; refinement loop must not start.
        assert len(result.trace) == 1


class RecordingExecutor(SolveExecutor):
    """Records ``(N, d_max)`` of every window that reaches the backend."""

    def __init__(self, settings):
        super().__init__(settings)
        self.attempts: list[tuple[int, float]] = []

    def _run_attempt(self, tp_model, graph, processor, num_partitions, d_max,
                     *args, **kwargs):
        self.attempts.append((num_partitions, d_max))
        return super()._run_attempt(
            tp_model, graph, processor, num_partitions, d_max, *args,
            **kwargs,
        )


def _synthetic_device(graph):
    # Room for under a third of the graph's minimum area: tight enough
    # that the packing bound beats both the critical path and the LP
    # bound, so it alone decides where the windows may start.
    return ReconfigurableProcessor(
        math.ceil(graph.total_min_area() / 3.5), 1024, 20.0
    )


class TestPackingInvariant:
    """With ``use_lp_bound`` no backend attempt lies below the packing
    bound: ``reduce_latency`` raises ``D_min`` to it (bisection trials
    never undercut ``D_min``), and the executor concludes a window whose
    ``D_max`` lies below it ``INFEASIBLE`` with backend ``"packing"``."""

    @pytest.mark.parametrize(
        ("graph", "device", "partition_bounds"),
        [
            (ar_filter(), proc(), (2, 3, 4)),
            *[
                (g, _synthetic_device(g), n)
                for g, n in (
                    (layered_graph(3, 3, seed=1), (3, 4)),
                    (fork_join_graph(3, 2, seed=2), (3, 4, 5)),
                    (random_dag(8, seed=3), (3, 4, 5)),
                )
            ],
        ],
        ids=["ar_filter", "layered_s1", "fork_join_s2", "random_dag_s3"],
    )
    def test_every_window_clears_packing_min_latency(
        self, graph, device, partition_bounds
    ):
        c_t = device.reconfiguration_time
        settings = SolverSettings(time_limit=5.0)
        assert settings.use_lp_bound
        solved = 0
        for n in partition_bounds:
            packing = bounds.packing_min_latency(graph, device, n)
            d_min = bounds.min_latency(graph, n, c_t)
            d_maxes = [bounds.max_latency(graph, n, c_t)]
            if math.isfinite(packing):
                d_maxes.append(packing - 5.0)  # below the bound: pruned
            for d_max in d_maxes:
                executor = RecordingExecutor(settings)
                result = reduce_latency(
                    graph, device, n, d_max, d_min, 50.0,
                    settings=settings, executor=executor,
                )
                for _, window_max in executor.attempts:
                    assert window_max >= packing - 1e-9
                if d_max < packing:
                    assert executor.attempts == []
                    [record] = result.trace
                    assert record.backend == "packing"
                    assert record.status is SolveStatus.INFEASIBLE
                solved += len(executor.attempts)
        assert solved > 0  # the invariant was exercised, not vacuous


class TestBoundVerdicts:
    """The executor gives every window its verdict; ``reduce_latency``
    builds no record of its own."""

    def test_window_below_only_the_lp_bound_reaches_the_backend(self):
        graph, device = ar_filter(), proc()
        options = FormulationOptions()
        lp = lp_latency_lower_bound(graph, device, 3, options)
        assert lp > 468.4 >= bounds.packing_min_latency(graph, device, 3)
        result = reduce_latency(
            graph, device, 3, d_max=468.4, d_min=460.0, delta=10.0,
            settings=SolverSettings(time_limit=15.0),
        )
        [record] = result.trace
        assert record.status is SolveStatus.INFEASIBLE
        assert record.backend == "highs"
        assert record.iterations == 0  # proven empty at the root
        assert (record.d_min, record.d_max) == (460.0, 468.4)
        assert not result.feasible

    def test_trace_holds_the_executors_records(self):
        graph = ar_filter()
        executor = SolveExecutor(SolverSettings(time_limit=15.0))
        traces = [
            run(graph, proc(), n, delta=25.0, executor=executor).trace
            for n in (2, 3)  # N=2 is pruned: 970 units do not fit 2 x 400
        ]
        assert traces[0].records[0].backend == "packing"
        solves = executor.telemetry.solves
        records = [r for trace in traces for r in trace]
        assert len(records) == len(solves)
        assert all(r is s for r, s in zip(records, solves))
