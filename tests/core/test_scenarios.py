"""The scenario registry and the ``slot_coresident`` proof of extensibility.

``paper_oneshot`` is pinned bit-identical by
``test_formulation_goldens``; this module covers everything the
registry added around it — scenario resolution and validation, row-group
provenance on compiled models, template window patching located by
group id, and a second registered scenario (``slot_coresident``:
``R`` reconfigurable slots, per-slot capacity and reconfiguration cost,
free crossings between co-resident slots) running end-to-end through
build → analyze → solve → serialize.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import analyze_model
from repro.arch import ReconfigurableProcessor
from repro.core import (
    FormulationOptions,
    PartitionerConfig,
    PartitionRequest,
    RefinementConfig,
    SolverSettings,
    TemporalPartitioner,
    bounds,
    build_model,
    get_scenario,
    scenario_ids,
)
from repro.core.families import ScenarioSpec
from repro.core.formulation import ModelTemplate
from repro.ilp import model as ilp_model
from repro.ilp import solve_compiled
from repro.ilp.status import Solution, SolveStatus
from repro.service.wire import decode_config, encode_config
from repro.solve import SolveExecutor
from repro.solve.fingerprint import WINDOW_ROW_NAMES


def slot_options(num_slots: float = 2.0, **kwargs) -> FormulationOptions:
    return FormulationOptions(
        scenario="slot_coresident",
        scenario_params={"num_slots": num_slots},
        **kwargs,
    )


class TestRegistry:
    def test_both_scenarios_registered(self):
        assert set(scenario_ids()) >= {"paper_oneshot", "slot_coresident"}

    def test_unknown_scenario_is_rejected_at_options_construction(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            FormulationOptions(scenario="nope")

    def test_window_family_is_last_and_unique(self):
        for scenario_id in scenario_ids():
            scenario = get_scenario(scenario_id)
            window = [f for f in scenario.families if f.window_dependent]
            assert window == [scenario.families[-1]]

    def test_registering_window_family_mid_list_is_rejected(self):
        paper = get_scenario("paper_oneshot")
        bad = ScenarioSpec(
            id="bad_window_order",
            description="window family not last",
            families=(paper.families[-1],) + paper.families[:-1],
        )
        from repro.core import register_scenario

        with pytest.raises(ValueError, match="last"):
            register_scenario(bad)

    def test_scenario_params_normalize_to_sorted_tuples(self):
        a = FormulationOptions(
            scenario="slot_coresident",
            scenario_params={"num_slots": 3, "slot_reconfiguration_time": 5},
        )
        b = FormulationOptions(
            scenario="slot_coresident",
            scenario_params=(
                ("slot_reconfiguration_time", 5.0),
                ("num_slots", 3.0),
            ),
        )
        assert a == b
        assert hash(a) == hash(b)


class TestRowGroups:
    def test_compiled_model_carries_contiguous_groups(self, ar_graph, ar_device):
        d_max = bounds.max_latency(ar_graph, 3, ar_device.reconfiguration_time)
        tp = build_model(ar_graph, ar_device, 3, d_max, 0.0)
        compiled = tp.compiled_form()
        groups = compiled.row_groups
        assert groups is not None
        scenario = get_scenario("paper_oneshot")
        assert [g.family for g in groups] == [
            f.id for f in scenario.families
        ]
        # Per-block contiguity: each family's span starts where the
        # previous one stopped.
        ub_cursor = eq_cursor = 0
        for group in groups:
            assert (group.ub_start, group.eq_start) == (ub_cursor, eq_cursor)
            ub_cursor, eq_cursor = group.ub_stop, group.eq_stop
        assert ub_cursor == compiled.num_ub_rows
        assert eq_cursor == len(compiled.b_eq)

    def test_window_group_is_the_trailing_ub_rows(self, ar_graph, ar_device):
        window = get_scenario("paper_oneshot").window_family
        full = build_model(
            ar_graph,
            ar_device,
            3,
            bounds.max_latency(ar_graph, 3, ar_device.reconfiguration_time),
            1.0,
        ).compiled_form()
        group = full.row_group(window.id)
        names = [full.ub_names[i] for i in group.ub_rows()]
        assert names == list(WINDOW_ROW_NAMES)
        assert group.ub_stop == full.num_ub_rows

    def test_row_group_accessor_raises_on_unknown_family(
        self, ar_graph, ar_device
    ):
        d_max = bounds.max_latency(ar_graph, 3, ar_device.reconfiguration_time)
        compiled = build_model(ar_graph, ar_device, 3, d_max, 0.0).compiled_form()
        with pytest.raises(KeyError):
            compiled.row_group("no_such_family")


class TestSlotCoresident:
    def test_builds_and_solves_end_to_end(self, ar_graph):
        processor = ReconfigurableProcessor(
            resource_capacity=800,
            memory_capacity=256,
            reconfiguration_time=20.0,
            name="slotted",
        )
        options = slot_options()
        n = 4
        d_max = bounds.max_latency(ar_graph, n, processor.reconfiguration_time)
        template = ModelTemplate(ar_graph, processor, n, options)
        tp = template.instantiate(0.0, d_max)
        result = solve_compiled(tp.compiled_form())
        assert result.status is SolveStatus.OPTIMAL

    def test_analyzer_is_clean_in_strict_mode(self, ar_graph):
        processor = ReconfigurableProcessor(
            resource_capacity=800,
            memory_capacity=256,
            reconfiguration_time=20.0,
        )
        n = 4
        d_max = bounds.max_latency(ar_graph, n, processor.reconfiguration_time)
        tp = build_model(ar_graph, processor, n, d_max, 0.0, slot_options())
        report = analyze_model(tp)
        assert report.ok
        assert not report.diagnostics

    def test_single_slot_reduces_to_the_paper_formulation(
        self, ar_graph, ar_device
    ):
        n = 3
        d_max = bounds.max_latency(ar_graph, n, ar_device.reconfiguration_time)
        paper = build_model(ar_graph, ar_device, n, d_max, 0.0)
        slotted = build_model(
            ar_graph, ar_device, n, d_max, 0.0, slot_options(num_slots=1.0)
        )
        assert (
            slotted.model.compile().fingerprint()
            == paper.model.compile().fingerprint()
        )

    def test_two_slots_change_the_model(self, ar_graph, ar_device):
        n = 3
        d_max = bounds.max_latency(ar_graph, n, ar_device.reconfiguration_time)
        paper = build_model(ar_graph, ar_device, n, d_max, 0.0)
        slotted = build_model(
            ar_graph,
            ar_device,
            n,
            d_max,
            0.0,
            FormulationOptions(scenario="slot_coresident"),
        )
        assert (
            slotted.model.compile().fingerprint()
            != paper.model.compile().fingerprint()
        )

    def test_invalid_slot_count_is_rejected(self, ar_graph, ar_device):
        with pytest.raises(ValueError, match="num_slots"):
            build_model(
                ar_graph,
                ar_device,
                3,
                600.0,
                0.0,
                slot_options(num_slots=0.0),
            )

    def test_partitioner_outcome_carries_the_scenario(self, ar_graph):
        processor = ReconfigurableProcessor(
            resource_capacity=800,
            memory_capacity=256,
            reconfiguration_time=20.0,
        )
        config = PartitionerConfig(
            search=RefinementConfig(delta=100.0, time_budget=60.0),
            formulation=slot_options(),
        )
        outcome = TemporalPartitioner(processor, config).solve(
            PartitionRequest(graph=ar_graph)
        )
        assert outcome.feasible
        assert outcome.scenario == "slot_coresident"
        payload = outcome.to_dict()
        assert payload["scenario"] == "slot_coresident"
        restored = type(outcome).from_dict(
            json.loads(json.dumps(payload)), graph=ar_graph
        )
        assert restored.scenario == "slot_coresident"

    def test_window_latency_charges_one_slot_per_partition(self, ar_graph):
        # Two slots of C_T = 20 ns: each partition pays 10 ns, as in the
        # model's window rows and objective (520 ns at the optimum), not
        # the whole device's 20 ns (550 ns).
        processor = ReconfigurableProcessor(800, 256, 20.0)
        n = 3
        d_max = bounds.max_latency(ar_graph, n, 20.0)
        optimum = build_model(
            ar_graph, processor, n, d_max, 0.0,
            slot_options(minimize_latency=True),
        ).solve(backend="highs")
        assert optimum.objective == pytest.approx(520.0)
        outcome = SolveExecutor(SolverSettings(time_limit=15.0)).solve_window(
            ar_graph, processor, n, d_max, 0.0, slot_options(), gap=1.0,
        )
        design = outcome.design
        assert outcome.achieved == 520.0
        assert outcome.achieved == (
            design.execution_latency() + 10.0 * design.num_partitions_used
        )

    def test_outcome_latency_is_the_scenarios(self, ar_graph):
        processor = ReconfigurableProcessor(800, 256, 20.0)
        config = PartitionerConfig(
            search=RefinementConfig(delta=10.0, time_budget=60.0),
            formulation=slot_options(),
            solver=SolverSettings(time_limit=15.0),
        )
        outcome = TemporalPartitioner(processor, config).solve(
            PartitionRequest(graph=ar_graph)
        )
        design = outcome.design
        assert outcome.total_latency == (
            design.execution_latency() + 10.0 * design.num_partitions_used
        )
        assert outcome.trace.best().achieved == outcome.total_latency

    def test_timed_out_windows_get_no_greedy_design(
        self, monkeypatch, ar_graph
    ):
        # The greedy designs are audited against the paper's constraints
        # only: the min_area design packs 710 area units into a partition
        # although each of the two slots holds 400.  Without a backend
        # answer the windows stay unknown instead of taking it.
        def timed_out(model, **options):
            return Solution(status=SolveStatus.TIME_LIMIT)

        monkeypatch.setitem(ilp_model._BACKENDS, "highs", timed_out)
        processor = ReconfigurableProcessor(800, 256, 20.0)
        config = PartitionerConfig(
            search=RefinementConfig(delta=100.0),
            formulation=slot_options(),
            solver=SolverSettings(time_limit=15.0),
        )
        assert config.solver.heuristic_fallback
        outcome = TemporalPartitioner(processor, config).solve(
            PartitionRequest(graph=ar_graph)
        )
        assert not outcome.feasible
        assert {r.backend for r in outcome.trace} == {""}
        timeouts = [
            r for r in outcome.trace if r.status is SolveStatus.TIME_LIMIT
        ]
        assert timeouts and all(r.degraded for r in timeouts)

    def test_wire_round_trips_scenario_options(self):
        config = PartitionerConfig(
            formulation=slot_options(num_slots=4.0)
        )
        decoded = decode_config(
            json.loads(json.dumps(encode_config(config)))
        )
        assert decoded.formulation == config.formulation
        assert decoded.formulation.scenario == "slot_coresident"
        assert decoded.formulation.scenario_params == (("num_slots", 4.0),)
