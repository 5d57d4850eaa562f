"""Self-test of the benchmark's per-layer accounting and output checks.

Run from the root of the repository:

    python3 -m pytest perfbench/test_layers.py
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402
from clock import CpuMeter  # noqa: E402
from layers import (  # noqa: E402
    SpanIndex,
    TimedCache,
    race_account,
    registry_layers,
    since,
    tail,
    tally,
    total,
    union_length,
)

from repro.obs import MetricsRegistry, PhaseProfile  # noqa: E402
from repro.solve.cache import SolveCache  # noqa: E402


def span_end(span_id, name, start, end, parent=None, **attrs) -> dict:
    return {
        "type": "span_end",
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "t_start": start,
        "dur": end - start,
        "attrs": attrs,
    }


#: One window whose two backends race side by side: HiGHS wins at 1.1 s,
#: bnb is cancelled at 1.9 s; the window itself spans 0.0-2.0 s.
RACE = [
    span_end(2, "attempt:highs", 0.1, 1.1, parent=1, backend="highs"),
    span_end(3, "attempt:bnb", 0.1, 1.9, parent=1, backend="bnb"),
    span_end(1, "solve_window", 0.0, 2.0, backend="highs"),
    # A race nobody won: both attempts time out, no loser is counted.
    span_end(5, "attempt:highs", 3.0, 4.0, parent=4, backend="highs"),
    span_end(6, "attempt:bnb", 3.5, 4.0, parent=4, backend="bnb"),
    span_end(4, "solve_window", 3.0, 4.2, backend=""),
]


def test_union_counts_overlap_once():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([(1.0, 2.0), (0.0, 5.0)]) == 5.0
    assert union_length([]) == 0.0


def test_race_wall_is_the_union_of_attempts():
    account = race_account(SpanIndex(RACE))
    # Busy time of the same attempts is 2.0 s (highs) + 2.3 s (bnb).
    assert account.race_wall_s == pytest.approx(1.8 + 1.0)
    assert account.loser_busy_s == pytest.approx(1.8)


def test_self_time_subtracts_covered_time_once():
    window = SpanIndex(RACE).named("solve_window")[0]
    assert window.self_seconds == pytest.approx(0.2)
    # PhaseProfile subtracts the children's summed durations (2.8 s of a
    # 2.0 s window) and clamps the window's exclusive time to zero.
    profile = PhaseProfile.from_events(RACE[:3])
    assert profile.exclusive("solve_window") == 0.0


def test_tail_keeps_ten_samples_beyond_it():
    assert tail(range(1, 75)) == 64
    # Too few samples: the median.
    assert tail(range(1, 11)) == 5.5
    assert tail([]) == 0.0


def test_counts_since_a_mark_and_by_label():
    registry = MetricsRegistry()
    hits = registry.counter(
        "repro_solve_cache_hits_total", "", ("tier", "rule")
    )
    misses = registry.counter("repro_solve_cache_misses_total", "", ("tier",))
    seconds = registry.histogram(
        "repro_backend_solve_seconds", "", ("backend",)
    )
    misses.labels("memory").inc()
    before = tally(registry.snapshot())
    hits.labels("memory", "exact").inc(2)
    hits.labels("disk", "exact").inc()
    misses.labels("memory").inc()
    misses.labels("disk").inc()
    seconds.labels("highs").observe(0.5)
    counts = since(tally(registry.snapshot()), before)
    assert total(counts, "repro_solve_cache_hits_total") == 3.0
    assert total(counts, "repro_solve_cache_hits_total", tier="disk") == 1.0
    layers = registry_layers(counts)
    assert layers["solve.cache_lookups"] == 3.0
    assert layers["solve.cache_hit_frac"] == pytest.approx(1.0)
    assert layers["disk.hit_frac"] == pytest.approx(0.5)
    assert layers["ilp.highs.busy_s"] == pytest.approx(0.5)


def test_timed_cache_forwards_and_times():
    from repro.solve.fingerprint import ModelFingerprint

    inner = SolveCache()
    cache = TimedCache(inner)
    fp = ModelFingerprint(base="b", num_partitions=2, d_min=0.0, d_max=1.0)
    assert cache.lookup(fp) is None
    cache.store_infeasible(fp, backend="highs")
    assert cache.lookup(fp) is not None
    assert cache.seconds > 0.0


def _spin_when_asked(seconds, conn) -> None:
    conn.send("ready")
    conn.recv()
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
    conn.send("spun")
    conn.recv()


def test_meter_counts_live_children_and_leaves_its_probe_out():
    ctx = multiprocessing.get_context("spawn")
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=_spin_when_asked, args=(0.3, theirs))
    child.start()
    try:
        # The child's start-up happens before the block and is not counted.
        assert ours.poll(60) and ours.recv() == "ready"
        with CpuMeter() as meter:
            ours.send("go")
            assert ours.poll(60) and ours.recv() == "spun"
    finally:
        ours.send("done")
        child.join(timeout=60)
    assert not child.is_alive()
    assert meter.samples and meter.speed > 0.0
    # The child's 0.3 s of spinning; the waiting parent adds little, and
    # the probe's own snippets are not counted.
    assert 0.28 <= meter.cpu_s < 0.28 + 0.2
    assert meter.seconds == pytest.approx(meter.cpu_s / meter.speed)


def test_seed_zero_is_the_paper_batch_and_others_are_held_out():
    import workloads

    paper = [r.name for r in workloads.build_batch(0)]
    assert paper == [
        "ar_filter",
        "dct_4x4_rows2",
        "forkjoin_3x2_s5",
        "layered_3x2_s7",
        "sp_d2_s11",
    ]
    drawn = set()
    for seed in range(1, 31):
        # Every drawn graph has a recorded reference, or this raises.
        names = {r.name for r in workloads.build_batch(seed)}
        assert {"ar_filter", "dct_4x4_rows2"} <= names
        drawn |= names - {"ar_filter", "dct_4x4_rows2"}
    assert not drawn & set(paper)
    assert len(drawn) > 3


def test_wrong_verdicts_are_failures():
    import workloads
    from repro.ilp.status import SolveStatus
    from repro.solve.executor import WindowOutcome

    dct = workloads.DctWindows(seed=0, scratch=None)
    dct.prepare()
    query = workloads.DctQuery(num_partitions=8, d_min=0.0, d_max=1e9)
    # The greedy min-area design fits in 8 partitions: UNSAT is wrong.
    unsat = WindowOutcome(None, None, SolveStatus.INFEASIBLE, "highs", 0.1)
    assert "UNSAT" in dct._problem(query, unsat, dct.references)
    # A timeout claims nothing.
    timeout = WindowOutcome(
        None, None, SolveStatus.TIME_LIMIT, "", 4.0, degraded=True
    )
    assert dct._problem(query, timeout, dct.references) is None
    design = dct.references[0]
    lying = WindowOutcome(design, 1.0, SolveStatus.FEASIBLE, "highs", 0.1)
    assert "reported latency" in dct._problem(query, lying, dct.references)
    honest = WindowOutcome(
        design,
        design.total_latency(dct.processor),
        SolveStatus.FEASIBLE,
        "highs",
        0.1,
    )
    assert dct._problem(query, honest, dct.references) is None
