"""Outcome serialization: schema versioning and golden-file compatibility.

``tests/golden/outcome_v1.json`` is a payload in the pre-redesign
format — no ``schema_version`` key, no ``partition_bounds`` block, no
service-era telemetry counters.  ``outcome_v2.json`` adds explicit
versioning and round-trippable design labels; ``outcome_v3.json`` adds
the ``scenario`` id.  All must keep parsing.  The current format (v4)
writes each window once, in the trace, in the one
:meth:`repro.solve.WindowOutcome.to_dict` shape; :class:`TestLiveRoundTrip`
checks that a live outcome comes back from it window for window.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.arch import ReconfigurableProcessor
from repro.core import (
    OUTCOME_SCHEMA_VERSION,
    PartitionerConfig,
    PartitionRequest,
    SolverSettings,
    TemporalPartitioner,
)
from repro.core.formulation import FormulationOptions
from repro.core.partitioner import PartitioningOutcome
from repro.ilp import model as ilp_model
from repro.ilp.status import Solution, SolveStatus

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


ALL_VERSIONS = ["outcome_v1.json", "outcome_v2.json", "outcome_v3.json"]


class TestGoldenCompatibility:
    @pytest.mark.parametrize("name", ALL_VERSIONS)
    def test_golden_parses_without_graph(self, name):
        outcome = PartitioningOutcome.from_dict(load(name))
        assert outcome.total_latency == 80.0
        assert outcome.partition_range.start == 1
        assert outcome.design is None  # no graph, no placements
        assert outcome.telemetry is not None
        assert len(outcome.trace.records) == 1
        assert outcome.trace.records[0].backend == "highs"

    @pytest.mark.parametrize("name", ALL_VERSIONS)
    def test_golden_parses_with_graph(self, name, chain_graph):
        outcome = PartitioningOutcome.from_dict(load(name), graph=chain_graph)
        assert outcome.feasible
        assert outcome.design.as_assignment() == {
            "t0": (1, "dp1"),
            "t1": (1, "dp1"),
            "t2": (1, "dp1"),
        }

    def test_v1_bounds_fall_back_to_partition_range(self):
        outcome = PartitioningOutcome.from_dict(load("outcome_v1.json"))
        assert outcome.partition_range.lower_bound == 1
        assert outcome.partition_range.stop == 1

    @pytest.mark.parametrize("name", ["outcome_v1.json", "outcome_v2.json"])
    def test_pre_v3_payloads_default_to_paper_oneshot(self, name):
        outcome = PartitioningOutcome.from_dict(load(name))
        assert outcome.scenario == "paper_oneshot"

    def test_current_format_matches_the_v3_golden_shape(
        self, chain_graph, ar_device, fast_settings
    ):
        """v4 keeps the v3 outcome keys; its records add ``status`` and
        ``bound`` and rename ``solver_iterations`` to ``iterations``."""
        outcome = TemporalPartitioner(
            ar_device, PartitionerConfig(solver=fast_settings)
        ).solve(PartitionRequest(graph=chain_graph))
        payload = outcome.to_dict(include_trace=True)
        golden = load("outcome_v3.json")
        assert set(payload) == set(golden)
        assert set(payload["partition_bounds"]) == set(
            golden["partition_bounds"]
        )
        v3_record = set(golden["trace"]["records"][0])
        assert set(payload["trace"]["records"][0]) == (
            v3_record - {"solver_iterations"}
            | {"iterations", "status", "bound"}
        )
        assert "solves" not in payload["telemetry"]
        assert "workers_merged" not in payload["telemetry"]
        assert payload["schema_version"] == OUTCOME_SCHEMA_VERSION == 4


class TestVersionGate:
    def test_future_schema_version_is_rejected(self):
        payload = load("outcome_v3.json")
        payload["schema_version"] = OUTCOME_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            PartitioningOutcome.from_dict(payload)

    def test_round_trip_preserves_everything(self, chain_graph):
        payload = load("outcome_v3.json")
        outcome = PartitioningOutcome.from_dict(payload, graph=chain_graph)
        again = outcome.to_dict(include_trace=True)
        # Telemetry percentiles are recomputed from the trace's records
        # (the golden has no telemetry rows), so compare the stable
        # summary fields; the payload is rewritten as the current version.
        assert again["schema_version"] == OUTCOME_SCHEMA_VERSION
        for key in (
            "scenario",
            "feasible",
            "degraded",
            "total_latency",
            "execution_latency",
            "num_partitions",
            "partition_range",
            "partition_bounds",
            "delta",
            "stopped_by_min_latency_cut",
            "stopped_by_time",
            "iterations",
            "design",
        ):
            assert again[key] == payload[key], key
        # The trace is rewritten in the v4 record shape, value for value.
        (record,) = again["trace"]["records"]
        (old,) = payload["trace"]["records"]
        assert record == {
            **{k: v for k, v in old.items() if k != "solver_iterations"},
            "iterations": old["solver_iterations"],
            "status": "feasible",
            "bound": None,
        }
        # Its telemetry rows come back from the trace.
        assert outcome.telemetry.solves == list(outcome.trace)


def crashing_backend(model, **options):
    raise RuntimeError("backend crashed")


def timed_out_backend(model, **options):
    return Solution(status=SolveStatus.TIME_LIMIT)


class TestLiveRoundTrip:
    """``from_dict(to_dict(include_trace=True))`` gives back every window:
    the trace and the telemetry rows equal the live ones, status and
    dual bound included, and so do the percentiles read from them."""

    @pytest.mark.parametrize(
        "settings, backend, status",
        [
            (SolverSettings(backend="highs", time_limit=10.0), None, None),
            (SolverSettings.paper_exact(time_limit=10.0), None, None),
            (SolverSettings.fast(time_limit=10.0), None, None),
            (
                SolverSettings(time_limit=10.0, heuristic_fallback=False),
                crashing_backend,
                SolveStatus.ERROR,
            ),
            (
                SolverSettings(time_limit=10.0, heuristic_fallback=False),
                timed_out_backend,
                SolveStatus.TIME_LIMIT,
            ),
        ],
        ids=["default", "paper_exact", "fast", "error", "time_limit"],
    )
    def test_restored_windows_equal_the_live_ones(
        self, monkeypatch, ar_graph, ar_device, settings, backend, status
    ):
        if backend is not None:
            monkeypatch.setitem(ilp_model._BACKENDS, "highs", backend)
        live = TemporalPartitioner(
            ar_device, PartitionerConfig(solver=settings)
        ).solve(PartitionRequest(graph=ar_graph))
        payload = json.loads(json.dumps(live.to_dict(include_trace=True)))
        back = PartitioningOutcome.from_dict(payload, graph=ar_graph)

        assert "solves" not in payload["telemetry"]
        assert list(back.trace) == list(live.trace)
        assert back.telemetry.solves == live.telemetry.solves
        assert (
            back.telemetry.wall_time_percentiles()
            == live.telemetry.wall_time_percentiles()
        )
        if status is not None:
            assert live.trace.records
            assert {r.status for r in back.trace} == {status}
        if settings.dual_bound:
            assert any(r.bound is not None for r in back.trace)

    def test_a_packing_prune_round_trips(self, ar_graph):
        # Two 485-unit slots hold the graph's 970 units of minimum area,
        # so the range opens at N=2, but no split of its tasks fits:
        # the executor prunes that window by the packing bound.
        live = TemporalPartitioner(
            ReconfigurableProcessor(970, 256, 20.0),
            PartitionerConfig(
                formulation=FormulationOptions(scenario="slot_coresident"),
                solver=SolverSettings(time_limit=10.0),
            ),
        ).solve(PartitionRequest(graph=ar_graph))
        pruned = live.trace.records[0]
        assert (pruned.num_partitions, pruned.backend) == (2, "packing")
        assert live.telemetry.solves == list(live.trace)
        payload = json.loads(json.dumps(live.to_dict(include_trace=True)))
        back = PartitioningOutcome.from_dict(payload, graph=ar_graph)
        assert back.telemetry.solves == live.telemetry.solves
