"""The serial search trajectory is untouched by its extension points.

``refine_partitions_bound`` routes every partition bound through
:func:`repro.core.refine_partitions.evaluate_partition_bound`, and both
it and ``reduce_latency`` take an optional ``should_stop`` hook (the
service's cancellation).  Both must be invisible to the serial path:
identical iteration records, identical verdicts, identical designs —
bit for bit, not approximately.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import (
    RefinementConfig,
    SolverSettings,
    reduce_latency,
    refine_partitions_bound,
)
from repro.core.refine_partitions import (
    evaluate_partition_bound,
    partition_bound_window,
)


def record_tuples(trace):
    """Every decision-relevant field of every iteration record.

    ``wall_time`` (and backend-reported iteration counts, which depend
    on it via per-solve budgets) are physical measurements, not search
    decisions — everything else must match bit for bit.
    """
    return [
        tuple(
            getattr(r, f.name)
            for f in dataclasses.fields(r)
            if f.name not in ("wall_time", "solver_iterations")
        )
        for r in trace.records
    ]


SETTINGS_VARIANTS = [
    SolverSettings(backend="highs", time_limit=10.0),
    SolverSettings.paper_exact(time_limit=10.0),
    SolverSettings.fast(time_limit=10.0),
]
VARIANT_IDS = ["default", "paper_exact", "fast"]


@pytest.mark.parametrize("settings", SETTINGS_VARIANTS, ids=VARIANT_IDS)
@pytest.mark.parametrize("fixture", ["diamond_graph", "ar_graph"])
def test_refine_partitions_is_run_to_run_deterministic(
    request, fixture, settings, ar_device
):
    graph = request.getfixturevalue(fixture)
    config = RefinementConfig(time_budget=60.0)

    first = refine_partitions_bound(
        graph, ar_device, config=config, settings=settings
    )
    second = refine_partitions_bound(
        graph, ar_device, config=config, settings=settings
    )
    assert record_tuples(first.trace) == record_tuples(second.trace)
    assert first.achieved == second.achieved
    assert first.explored_partitions == second.explored_partitions
    if first.feasible:
        assert (
            first.design.as_assignment() == second.design.as_assignment()
        )


def test_should_stop_none_leaves_reduce_latency_untouched(
    diamond_graph, ar_device, fast_settings
):
    """The cancellation hook's default is literally no code on the path."""
    d_max, d_min = partition_bound_window(diamond_graph, ar_device, 2)
    kwargs = dict(
        graph=diamond_graph,
        processor=ar_device,
        num_partitions=2,
        d_max=d_max,
        d_min=d_min,
        delta=25.0,
        settings=fast_settings,
    )
    plain = reduce_latency(**kwargs)
    explicit_none = reduce_latency(**kwargs, should_stop=None)
    assert record_tuples(plain.trace) == record_tuples(explicit_none.trace)
    assert plain.achieved == explicit_none.achieved


def test_evaluate_partition_bound_matches_direct_reduce_latency(
    diamond_graph, ar_device, fast_settings
):
    """The shard-shaped wrapper is the serial iteration, verbatim."""
    d_max, d_min = partition_bound_window(diamond_graph, ar_device, 2)
    direct = reduce_latency(
        graph=diamond_graph,
        processor=ar_device,
        num_partitions=2,
        d_max=d_max,
        d_min=d_min,
        delta=25.0,
        settings=fast_settings,
    )
    wrapped = evaluate_partition_bound(
        diamond_graph,
        ar_device,
        2,
        d_max,
        d_min,
        25.0,
        settings=fast_settings,
    )
    assert record_tuples(direct.trace) == record_tuples(wrapped.trace)
    assert direct.achieved == wrapped.achieved
    assert direct.feasible == wrapped.feasible


def test_cancelled_immediately_still_returns_a_valid_result(
    diamond_graph, ar_device, fast_settings
):
    d_max, d_min = partition_bound_window(diamond_graph, ar_device, 2)
    result = reduce_latency(
        graph=diamond_graph,
        processor=ar_device,
        num_partitions=2,
        d_max=d_max,
        d_min=d_min,
        delta=25.0,
        settings=fast_settings,
        should_stop=lambda: True,
    )
    # The opening full-window solve always runs (cancellation is polled
    # where the deadline is: before each bisection trial), so a cancel
    # raised from the start still returns that first incumbent.
    assert len(result.trace.records) == 1
    assert result.design is not None
    assert result.achieved == result.trace.records[0].achieved


def test_cancellation_mid_search_keeps_the_incumbent(
    diamond_graph, ar_device, fast_settings
):
    calls = {"n": 0}

    def stop_after_one_window() -> bool:
        calls["n"] += 1
        return calls["n"] > 1

    d_max, d_min = partition_bound_window(diamond_graph, ar_device, 2)
    full = reduce_latency(
        graph=diamond_graph,
        processor=ar_device,
        num_partitions=2,
        d_max=d_max,
        d_min=d_min,
        delta=25.0,
        settings=fast_settings,
    )
    cancelled = reduce_latency(
        graph=diamond_graph,
        processor=ar_device,
        num_partitions=2,
        d_max=d_max,
        d_min=d_min,
        delta=25.0,
        settings=fast_settings,
        should_stop=stop_after_one_window,
    )
    assert len(cancelled.trace.records) <= len(full.trace.records)
    if cancelled.trace.records:
        # The windows it did run are the full run's prefix, bit for bit.
        prefix = record_tuples(full.trace)[: len(cancelled.trace.records)]
        assert record_tuples(cancelled.trace) == prefix


def test_should_stop_none_leaves_refine_partitions_untouched(
    ar_graph, ar_device, fast_settings
):
    config = RefinementConfig(time_budget=60.0)
    plain = refine_partitions_bound(
        ar_graph, ar_device, config=config, settings=fast_settings
    )
    explicit_none = refine_partitions_bound(
        ar_graph,
        ar_device,
        config=config,
        settings=fast_settings,
        should_stop=None,
    )
    assert record_tuples(plain.trace) == record_tuples(explicit_none.trace)
    assert plain.achieved == explicit_none.achieved
    assert plain.explored_partitions == explicit_none.explored_partitions
    assert plain.design.as_assignment() == explicit_none.design.as_assignment()


def test_refine_partitions_stopped_before_any_bound_has_no_design(
    diamond_graph, ar_device, fast_settings
):
    result = refine_partitions_bound(
        diamond_graph,
        ar_device,
        settings=fast_settings,
        should_stop=lambda: True,
    )
    assert result.design is None
    assert result.explored_partitions == ()
    assert len(result.trace) == 0
    assert result.telemetry.total_solves == 0


def test_refine_partitions_stopped_mid_search_returns_the_incumbent(
    ar_graph, ar_device, fast_settings
):
    config = RefinementConfig(time_budget=60.0)
    full = refine_partitions_bound(
        ar_graph, ar_device, config=config, settings=fast_settings
    )
    calls = {"n": 0}

    def stop_after_the_opening_window() -> bool:
        # Poll 1 comes before the first partition bound, poll 2 before
        # its first bisection trial: the opening window alone runs.
        calls["n"] += 1
        return calls["n"] > 1

    stopped = refine_partitions_bound(
        ar_graph,
        ar_device,
        config=config,
        settings=fast_settings,
        should_stop=stop_after_the_opening_window,
    )
    assert len(stopped.trace) == 1 < len(full.trace)
    assert record_tuples(stopped.trace) == record_tuples(full.trace)[:1]
    opening = stopped.trace.records[0]
    assert stopped.design is not None
    assert stopped.achieved == opening.achieved >= full.achieved
    assert stopped.explored_partitions == (opening.num_partitions,)
