"""Cross-window acceleration: the carried incumbent.

``Refine_Partitions_Bound`` hands its best design to the opening window
of each relaxed partition bound (``SolverSettings.incumbent_reuse``).
The shortcut must be *transparent*: the design answers only a window it
fits (at most ``N`` partitions, latency inside the window), only after
the cache missed, and the executor carries nothing between windows by
itself.  These tests pin both halves — the shortcut does fire (the
counter moves, the backend is labelled), and the finals do not move.
"""

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.arch import ReconfigurableProcessor
from repro.core import SolverSettings, bounds
from repro.core.reduce_latency import reduce_latency
from repro.core.refine_partitions import refine_partitions_bound
from repro.core.solution import PartitionedDesign
from repro.solve import SolveExecutor
from repro.taskgraph import ar_filter


@pytest.fixture
def processor() -> ReconfigurableProcessor:
    return ReconfigurableProcessor(400, 128, 20.0)


def window(graph, n, c_t=20.0):
    return (
        bounds.max_latency(graph, n, c_t),
        bounds.min_latency(graph, n, c_t),
    )


def accelerated(**overrides) -> SolverSettings:
    kwargs = dict(time_limit=15.0, incumbent_reuse=True)
    kwargs.update(overrides)
    return SolverSettings(**kwargs)


def highs_solves(executor) -> int:
    return executor.telemetry.backend_wins.get("highs", 0)


class TestIncumbentReuse:
    def found_at_three(self, executor, graph, processor):
        first = executor.solve_window(graph, processor, 3, *window(graph, 3))
        assert first.feasible
        return first

    def test_previous_incumbent_answers_wider_window(self, processor):
        # The N=3 design fits the (different-fingerprint, so cache-miss)
        # N=4 opening window: handed in, it answers with zero solver work.
        executor = SolveExecutor(SolverSettings(time_limit=15.0))
        graph = ar_filter()
        first = self.found_at_three(executor, graph, processor)
        reused = executor.solve_window(
            graph, processor, 4, *window(graph, 4),
            incumbent=(first.design, first.achieved),
        )
        assert reused.feasible
        assert not reused.cache_hit
        assert reused.backend == "incumbent"
        assert reused.achieved == first.achieved
        assert reused.design is first.design
        assert executor.telemetry.incumbent_reuses == 1
        assert highs_solves(executor) == 1

    def test_reused_design_is_a_real_certificate(self, processor):
        executor = SolveExecutor(SolverSettings(time_limit=15.0))
        graph = ar_filter()
        first = self.found_at_three(executor, graph, processor)
        reused = executor.solve_window(
            graph, processor, 4, *window(graph, 4),
            incumbent=(first.design, first.achieved),
        )
        design = reused.design
        assert design is not None
        assert not design.audit(processor)
        assert design.num_partitions_used <= 4
        d_max, _ = window(graph, 4)
        assert reused.achieved <= d_max + 1e-9

    def test_flag_off_never_reuses(self, processor):
        result = refine_partitions_bound(
            ar_filter(), processor, settings=SolverSettings(time_limit=15.0)
        )
        assert "incumbent" not in {r.backend for r in result.trace}
        assert result.telemetry.incumbent_reuses == 0

    def test_windows_carry_nothing_between_them(self, processor):
        # Without a certificate the next window goes to the backend,
        # whatever the executor solved before.
        executor = SolveExecutor(accelerated())
        graph = ar_filter()
        self.found_at_three(executor, graph, processor)
        second = executor.solve_window(graph, processor, 4, *window(graph, 4))
        assert second.backend == "highs"
        assert executor.telemetry.incumbent_reuses == 0

    def test_cache_answers_before_the_certificate(self, processor):
        executor = SolveExecutor(SolverSettings(time_limit=15.0))
        graph = ar_filter()
        first = self.found_at_three(executor, graph, processor)
        replay = executor.solve_window(
            graph, processor, 3, *window(graph, 3),
            incumbent=(first.design, first.achieved),
        )
        assert replay.cache_hit and replay.backend == "cache"
        assert executor.telemetry.incumbent_reuses == 0

    def test_certificate_above_the_window_is_ignored(self, processor):
        executor = SolveExecutor(SolverSettings(time_limit=15.0))
        graph = ar_filter()
        first = self.found_at_three(executor, graph, processor)
        _, d_min = window(graph, 4)
        below = executor.solve_window(
            graph, processor, 4, first.achieved - 1.0, d_min,
            incumbent=(first.design, first.achieved),
        )
        assert below.backend == "highs"
        assert below.achieved is None or below.achieved < first.achieved
        assert executor.telemetry.incumbent_reuses == 0

    def test_certificate_with_too_many_partitions_is_ignored(
        self, processor
    ):
        graph = ar_filter()
        # One task per partition, in topological order, fastest points.
        spread = PartitionedDesign.from_labels(graph, {
            name: (p, min(graph.task(name).design_points,
                          key=lambda dp: dp.latency).name)
            for p, name in enumerate(graph.topological_order(), start=1)
        })
        achieved = spread.total_latency(processor)
        executor = SolveExecutor(SolverSettings(time_limit=15.0))
        d_max, d_min = window(graph, 3)
        assert d_min <= achieved <= d_max
        outcome = executor.solve_window(
            graph, processor, 3, d_max, d_min, incumbent=(spread, achieved),
        )
        assert outcome.backend == "highs"
        assert executor.telemetry.incumbent_reuses == 0


class TestFastPreset:
    def test_fast_search_attempts_only_highs(self, processor):
        result = refine_partitions_bound(
            ar_filter(), processor,
            settings=SolverSettings.fast(time_limit=15.0),
        )
        assert result.achieved == pytest.approx(510.0)
        assert set(result.telemetry.backend_wall) == {"highs"}


class TestTrajectoryIdentity:
    """Accelerated and plain searches end at the same latency.

    Every acceleration shortcut is a certificate, so with a per-solve
    budget large enough that nothing times out, the bisection must reach
    the same final latency and partition count for any step size.
    """

    @given(delta=st.sampled_from([5.0, 10.0, 17.5, 25.0, 40.0]),
           num_partitions=st.sampled_from([3, 4]))
    @hsettings(max_examples=8, deadline=None)
    def test_reduce_latency_finals_identical_on_ar(
        self, delta, num_partitions
    ):
        processor = ReconfigurableProcessor(400, 128, 20.0)
        graph = ar_filter()
        d_max, d_min = window(graph, num_partitions)
        base = reduce_latency(
            graph, processor, num_partitions, d_max, d_min, delta,
            settings=SolverSettings(time_limit=15.0),
        )
        accel = reduce_latency(
            graph, processor, num_partitions, d_max, d_min, delta,
            settings=accelerated(),
        )
        assert base.telemetry.timeouts == 0
        assert accel.telemetry.timeouts == 0
        assert accel.achieved == base.achieved
        assert (accel.design is None) == (base.design is None)
        if base.design is not None:
            assert (
                accel.design.num_partitions_used
                == base.design.num_partitions_used
            )

    def test_refine_finals_identical_on_ar(self):
        processor = ReconfigurableProcessor(400, 128, 20.0)
        base = refine_partitions_bound(
            ar_filter(), processor,
            settings=SolverSettings(time_limit=15.0),
        )
        accel = refine_partitions_bound(
            ar_filter(), processor, settings=accelerated(),
        )
        assert base.achieved == pytest.approx(510.0)
        assert accel.achieved == base.achieved
        assert (
            accel.design.num_partitions_used
            == base.design.num_partitions_used
        )
        # The run exercised the shortcut, not just tolerated it.
        assert accel.telemetry.incumbent_reuses >= 1


class TestTrajectoryIdentityDct:
    """DCT reference instance: verdicts agree below the feasibility edge.

    At the paper's R_max = 576 device the 32-task DCT needs many
    partitions; below the boundary every window is provably empty, and
    both search paths must agree on that emptiness quickly.  Feasible-side identity at the full partition bound is
    exercised by ``benchmarks/test_portfolio_speedup.py`` where the
    budgets allow it.
    """

    @pytest.mark.parametrize("num_partitions", [4, 5, 6])
    def test_infeasible_bounds_agree(self, num_partitions):
        from repro.taskgraph import dct_4x4

        processor = ReconfigurableProcessor(576, 1024, 30.0)
        graph = dct_4x4()
        d_max, d_min = window(graph, num_partitions, c_t=30.0)
        base = reduce_latency(
            graph, processor, num_partitions, d_max, d_min, 1000.0,
            settings=SolverSettings(time_limit=30.0),
        )
        accel = reduce_latency(
            graph, processor, num_partitions, d_max, d_min, 1000.0,
            settings=accelerated(time_limit=30.0),
        )
        assert base.telemetry.timeouts == 0
        assert accel.telemetry.timeouts == 0
        assert base.design is None
        assert accel.design is None
        assert accel.achieved == base.achieved  # both None
