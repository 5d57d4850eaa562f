"""Dual-bound trials: gap-limited minimize solves in ``Reduce_Latency``.

With ``SolverSettings.dual_bound`` every trial after the first window is
one minimize solve on ``[D_min, D_a - delta]``.  A stub ``highs`` backend
scripts the three outcomes the search acts on; the replay tests check
that an exact cache hit replays the bound, so a warm run follows the
cold one without a single backend attempt.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arch import ReconfigurableProcessor
from repro.core import SolverSettings, bounds, reduce_latency
from repro.core.refine_partitions import RefinementConfig, refine_partitions_bound
from repro.ilp import model as ilp_model
from repro.ilp.scipy_backend import solve_with_highs
from repro.ilp.status import Solution, SolveStatus
from repro.solve import SolveCache, SolveExecutor
from repro.taskgraph import ar_filter, generators

SRC = Path(__file__).resolve().parents[2] / "src"

DELTA = 5.0


@pytest.fixture
def processor() -> ReconfigurableProcessor:
    return ReconfigurableProcessor(400.0, 128.0, 20.0)


def gap_settings(**overrides) -> SolverSettings:
    kwargs = dict(
        time_limit=15.0,
        dual_bound=True,
        enable_cache=False,
        heuristic_fallback=False,
    )
    kwargs.update(overrides)
    return SolverSettings(**kwargs)


class StubHighs:
    """Real HiGHS for first-feasible solves; ``gap_trial`` answers the
    gap-limited ones (those handed a ``mip_rel_gap``)."""

    def __init__(self, gap_trial):
        self.gap_trial = gap_trial
        self.calls: list[bool] = []  # one per call: was it a gap trial?

    def __call__(self, model, **options):
        is_gap = options.get("mip_rel_gap") is not None
        self.calls.append(is_gap)
        if not is_gap:
            return solve_with_highs(model, **options)
        return self.gap_trial(model, **options)


def run_n4(processor, stub, monkeypatch):
    monkeypatch.setitem(ilp_model._BACKENDS, "highs", stub)
    graph = ar_filter()
    c_t = processor.reconfiguration_time
    return reduce_latency(
        graph, processor, 4,
        bounds.max_latency(graph, 4, c_t), bounds.min_latency(graph, 4, c_t),
        DELTA, settings=gap_settings(),
    )


class TestTrialRule:
    def test_design_and_bound_raise_d_min(self, processor, monkeypatch):
        def gap_trial(model, **options):
            if stub.calls.count(True) > 1:
                return Solution(status=SolveStatus.INFEASIBLE)
            # The real design, with a bound three deltas below it.
            solution = solve_with_highs(model, **options)
            return Solution(
                status=solution.status,
                objective=solution.objective,
                values=solution.values,
                bound=solution.objective - 3 * DELTA,
            )

        stub = StubHighs(gap_trial)
        result = run_n4(processor, stub, monkeypatch)
        first, found, last = result.trace.records
        assert found.feasible and found.bound is not None
        assert found.bound > found.d_min
        assert found.d_max == pytest.approx(first.achieved - DELTA)
        # The next trial starts at the bound, below the new incumbent.
        assert last.d_min == found.bound
        assert last.d_max == pytest.approx(found.achieved - DELTA)
        assert result.achieved == found.achieved
        assert stub.calls == [False, True, True]

    def test_infeasible_ends_the_partition_bound(self, processor, monkeypatch):
        stub = StubHighs(lambda model, **options: Solution(
            status=SolveStatus.INFEASIBLE
        ))
        result = run_n4(processor, stub, monkeypatch)
        first, proof = result.trace.records
        assert proof.status is SolveStatus.INFEASIBLE
        assert proof.d_max == pytest.approx(first.achieved - DELTA)
        # Far from closed by the midpoint rule's measure, yet done: nothing
        # lies below achieved - delta.
        assert first.achieved - proof.d_min > DELTA
        assert result.achieved == first.achieved

    def test_timeout_without_bound_falls_back_to_the_midpoint(
        self, processor, monkeypatch
    ):
        stub = StubHighs(lambda model, **options: Solution(
            status=SolveStatus.TIME_LIMIT
        ))
        result = run_n4(processor, stub, monkeypatch)
        first, timeout, midpoint, *_rest = result.trace.records
        assert timeout.status is SolveStatus.TIME_LIMIT
        assert timeout.bound is None
        # The timeout moved nothing; the next trial is today's midpoint.
        assert midpoint.d_min == timeout.d_min
        trial = (first.d_max + first.d_min) / 2.0
        while trial >= first.achieved:
            trial = (trial + first.d_min) / 2.0
        assert midpoint.d_max == trial
        # Only the one gap trial ran; every later solve was first-feasible.
        assert stub.calls[1] is True
        assert stub.calls.count(True) == 1

    def test_other_backends_keep_the_midpoint_rule(self, processor):
        graph = ar_filter()
        c_t = processor.reconfiguration_time
        result = reduce_latency(
            graph, processor, 4,
            bounds.max_latency(graph, 4, c_t),
            bounds.min_latency(graph, 4, c_t),
            DELTA, settings=gap_settings(backend="bnb"),
        )
        assert all(r.bound is None for r in result.trace)

    def test_gap_solves_need_highs(self, processor):
        executor = SolveExecutor(gap_settings(backend="bnb"))
        with pytest.raises(ValueError, match="highs"):
            executor.solve_window(
                ar_filter(), processor, 4, 600.0, 480.0, gap=DELTA
            )


# -- warm replays ------------------------------------------------------------

#: Series-parallel s11 at delta 25: cheap, and four of its windows are
#: gap-limited solves that carry a bound.
REPLAY_SCRIPT = """
import json, sys
from repro.arch import ReconfigurableProcessor
from repro.core import SolverSettings
from repro.core.refine_partitions import RefinementConfig, refine_partitions_bound
from repro.solve import SolveExecutor
from repro.taskgraph import generators

settings = SolverSettings.fast(time_limit=15.0, cache_path=sys.argv[1])
executor = SolveExecutor(settings)
result = refine_partitions_bound(
    generators.series_parallel_graph(depth=2, seed=11),
    ReconfigurableProcessor(400.0, 128.0, 20.0),
    config=RefinementConfig(delta=25.0, time_budget=120.0),
    settings=settings,
    executor=executor,
)
attempts = executor.metrics.snapshot().total("repro_backend_attempts_total")
print(json.dumps({
    "attempts": attempts,
    "achieved": result.achieved,
    "assignment": result.design.as_assignment(),
    "bounds": [r.bound for r in result.trace],
}))
"""


def sp_run(executor):
    return refine_partitions_bound(
        generators.series_parallel_graph(depth=2, seed=11),
        ReconfigurableProcessor(400.0, 128.0, 20.0),
        config=RefinementConfig(delta=25.0, time_budget=120.0),
        settings=executor.settings,
        executor=executor,
    )


def attempts(executor) -> float:
    return executor.metrics.snapshot().total("repro_backend_attempts_total")


class TestWarmReplay:
    def test_memory_replay_runs_no_backend(self):
        executor = SolveExecutor(SolverSettings.fast(time_limit=15.0))
        cold = sp_run(executor)
        assert any(r.bound is not None for r in cold.trace)
        spent = attempts(executor)
        assert spent > 0
        warm = sp_run(executor)
        assert attempts(executor) == spent
        assert all(r.cache_hit for r in warm.trace)
        assert [r.bound for r in warm.trace] == [r.bound for r in cold.trace]
        assert warm.achieved == cold.achieved
        assert warm.design.as_assignment() == cold.design.as_assignment()

    def test_cache_without_the_bound_keyword_still_works(self):
        class OldProtocolCache:
            """A duck-typed cache written before ``bound`` existed."""

            def __init__(self):
                self.inner = SolveCache()

            def lookup(self, fp, graph=None):
                return self.inner.lookup(fp, graph)

            def store_feasible(self, fp, design, achieved, backend=""):
                self.inner.store_feasible(fp, design, achieved, backend=backend)

            def store_infeasible(self, fp, backend=""):
                self.inner.store_infeasible(fp, backend=backend)

        settings = SolverSettings.fast(time_limit=15.0)
        executor = SolveExecutor(settings, cache=OldProtocolCache())
        cold = sp_run(executor)
        assert any(r.bound is not None for r in cold.trace)
        warm = sp_run(executor)
        # Exact hits replay no bound, so the warm run may ask more windows.
        hits = [r for r in warm.trace if r.cache_hit]
        assert hits and all(r.bound is None for r in hits)
        assert warm.achieved == pytest.approx(cold.achieved, abs=25.0)

    def test_disk_replay_in_a_fresh_process_runs_no_backend(self, tmp_path):
        path = tmp_path / "solves.sqlite"
        executor = SolveExecutor(
            SolverSettings.fast(time_limit=15.0, cache_path=str(path))
        )
        cold = sp_run(executor)
        executor.cache.disk.close()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", REPLAY_SCRIPT, str(path)],
            capture_output=True, text=True, env=env, check=True,
        )
        warm = json.loads(proc.stdout.strip().splitlines()[-1])
        assert warm["attempts"] == 0
        assert warm["achieved"] == cold.achieved
        assert warm["bounds"] == [r.bound for r in cold.trace]
        assert warm["assignment"] == json.loads(
            json.dumps(cold.design.as_assignment())
        )
