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
    solve_optimal,
)
from repro.core.families import ScenarioSpec
from repro.core.formulation import ModelTemplate
from repro.ilp import model as ilp_model
from repro.ilp import solve_compiled
from repro.ilp.status import Solution, SolveStatus
from repro.service.wire import decode_config, encode_config
from repro.solve import SolveExecutor
from repro.solve.fingerprint import WINDOW_ROW_NAMES
from repro.taskgraph import GraphValidationError, ar_filter
from repro.taskgraph.generators import fork_join_graph, layered_graph


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

    def test_slot_params_leave_the_paper_model_alone(
        self, ar_graph, ar_device
    ):
        # The paper scenario declares no slots: a num_slots override must
        # not drop crossings from its memory rows.
        n = 3
        d_max = bounds.max_latency(ar_graph, n, ar_device.reconfiguration_time)
        paper = build_model(ar_graph, ar_device, n, d_max, 0.0)
        overridden = build_model(
            ar_graph, ar_device, n, d_max, 0.0,
            FormulationOptions(scenario_params={
                "num_slots": 3, "slot_reconfiguration_time": 5,
            }),
        )
        assert (
            overridden.model.compile().fingerprint()
            == paper.model.compile().fingerprint()
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

    def test_timed_out_windows_get_valid_greedy_designs(
        self, monkeypatch, ar_graph
    ):
        # The greedy fallback packs into one slot (400 of the 800 area
        # units) and is audited against it, so every design it hands a
        # timed-out window is a design of the slot model, at the slot
        # model's latency.
        def timed_out(model, **options):
            return Solution(status=SolveStatus.TIME_LIMIT)

        monkeypatch.setitem(ilp_model._BACKENDS, "highs", timed_out)
        processor = ReconfigurableProcessor(800, 256, 20.0)
        device = get_scenario("slot_coresident").device(
            processor, slot_options()
        )
        config = PartitionerConfig(
            search=RefinementConfig(delta=100.0),
            formulation=slot_options(),
            solver=SolverSettings(time_limit=15.0),
        )
        assert config.solver.heuristic_fallback
        outcome = TemporalPartitioner(processor, config).solve(
            PartitionRequest(graph=ar_graph)
        )
        assert outcome.feasible and outcome.degraded
        greedy = [r for r in outcome.trace if r.design is not None]
        assert greedy
        for record in greedy:
            assert record.backend.startswith("heuristic:")
            design = record.design
            assert all(
                design.partition_area(p) <= 400.0 for p in design.partitions()
            )
            assert design.audit(device) == []
            assert record.achieved == (
                design.execution_latency() + 10.0 * design.num_partitions_used
            )

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


def slot_device(processor):
    """One partition's device under two slots."""
    return get_scenario("slot_coresident").device(processor, slot_options())


def slot_optimum(graph, processor, num_partitions):
    """The slot minimize-ILP optimum over ``<= num_partitions``
    partitions, and the partitions its design uses."""
    tp = build_model(
        graph, processor, num_partitions,
        bounds.max_latency(
            graph, num_partitions, processor.reconfiguration_time
        ),
        0.0, slot_options(minimize_latency=True),
    )
    solution = tp.solve(backend="highs")
    assert solution.status is SolveStatus.OPTIMAL
    return solution.objective, tp.design_from(solution).num_partitions_used


#: The scan: three graphs, R_max at 0.6x and 1.0x of the graph's total
#: maximum area, C_T in {20, 60, 150}, two slots, M_max 4096.
SCAN_GRAPHS = {
    "ar": ar_filter,
    "fork_join_s5": lambda: fork_join_graph(3, 2, seed=5),
    "layered_s7": lambda: layered_graph(3, 2, seed=7),
}


#: Three slot searches that reach the minimize-ILP optimum, with that
#: optimum: (graph, R_max, C_T, optimum), two slots, M_max 4096, gamma 3.
SLOT_OPTIMA = pytest.mark.parametrize(
    "make_graph, r_max, c_t, expected",
    [
        (ar_filter, 1290.0, 20.0, 430.0),
        (lambda: fork_join_graph(3, 2, seed=5), 1418.52, 60.0, 429.8),
        (lambda: layered_graph(3, 2, seed=7), 2127.8, 150.0, 378.0),
    ],
    ids=["ar", "fork_join_s5", "layered_s7"],
)


class TestSlotDevice:
    """Every layer reads one partition's capacity and ``C_T`` from
    :meth:`ScenarioSpec.device`."""

    def test_paper_device_is_the_processor_itself(self, ar_device):
        paper = get_scenario("paper_oneshot")
        assert paper.device(ar_device, FormulationOptions()) is ar_device

    def test_slot_device_divides_capacities_and_reconfiguration(self):
        processor = ReconfigurableProcessor(
            800, 256, 20.0
        ).with_extra_capacities(bram=16)
        slot = get_scenario("slot_coresident")
        device = slot.device(processor, slot_options())
        assert device.resource_capacity == 400.0
        assert device.extra_capacities == (("bram", 8.0),)
        assert device.reconfiguration_time == 10.0
        assert device.memory_capacity == 256.0
        priced = slot.device(processor, FormulationOptions(
            scenario="slot_coresident",
            scenario_params={"num_slots": 4, "slot_reconfiguration_time": 3},
        ))
        assert priced.resource_capacity == 200.0
        assert priced.reconfiguration_time == 3.0

    def test_template_holds_the_device(self, ar_graph):
        processor = ReconfigurableProcessor(800, 256, 20.0)
        template = ModelTemplate(ar_graph, processor, 3, slot_options())
        assert template.device == get_scenario("slot_coresident").device(
            processor, slot_options()
        )

    def test_min_latency_window_charges_one_slot(self, ar_graph):
        # D_min(3) = critical path 400 + 3 x 10 ns: a 3-partition design
        # can reach 430, so the window must not open at 400 + 3 x 20.
        processor = ReconfigurableProcessor(800, 256, 20.0)
        config = PartitionerConfig(
            search=RefinementConfig(delta=5.0, gamma=2),
            formulation=slot_options(),
            solver=SolverSettings(time_limit=15.0, use_lp_bound=False),
        )
        outcome = TemporalPartitioner(processor, config).solve(
            PartitionRequest(graph=ar_graph)
        )
        opening = [
            r.d_min for r in outcome.trace
            if r.num_partitions == 3 and r.iteration == 1
        ]
        assert opening == [430.0]

    @pytest.mark.parametrize("c_t", [20.0, 60.0, 150.0])
    @pytest.mark.parametrize("area_fraction", [0.6, 1.0])
    @pytest.mark.parametrize("name", sorted(SCAN_GRAPHS))
    def test_bounds_stay_below_the_slot_optimum(
        self, name, area_fraction, c_t
    ):
        graph = SCAN_GRAPHS[name]()
        processor = ReconfigurableProcessor(
            area_fraction * graph.total_max_area(), 4096, c_t
        )
        device = slot_device(processor)
        n_stop = bounds.partition_range(graph, device, gamma=3).stop
        optimum, used = slot_optimum(graph, processor, n_stop)
        tol = 1e-6
        # The window at the optimum's own partition count admits it...
        assert bounds.min_latency(
            graph, used, device.reconfiguration_time
        ) <= optimum + tol
        # ...and no packing bound up to N_stop lies above it.
        for n in range(used, n_stop + 1):
            assert bounds.packing_min_latency(graph, device, n) <= (
                optimum + tol
            )

    @SLOT_OPTIMA
    def test_search_reaches_the_slot_optimum(
        self, make_graph, r_max, c_t, expected
    ):
        graph = make_graph()
        processor = ReconfigurableProcessor(r_max, 4096, c_t)
        config = PartitionerConfig(
            search=RefinementConfig(delta=1.0, gamma=3),
            formulation=slot_options(),
            solver=SolverSettings(time_limit=20.0),
        )
        outcome = TemporalPartitioner(processor, config).solve(
            PartitionRequest(graph=graph)
        )
        n_stop = outcome.partition_range.stop
        assert n_stop == bounds.partition_range(
            graph, slot_device(processor), gamma=3
        ).stop
        optimum, _used = slot_optimum(graph, processor, n_stop)
        assert optimum == pytest.approx(expected, abs=0.05)
        assert outcome.total_latency == pytest.approx(optimum, abs=1e-6)

    @SLOT_OPTIMA
    def test_oracle_reaches_the_slot_optimum(
        self, make_graph, r_max, c_t, expected
    ):
        graph = make_graph()
        processor = ReconfigurableProcessor(r_max, 4096, c_t)
        device = slot_device(processor)
        n_stop = bounds.partition_range(graph, device, gamma=3).stop
        optimum, _used = slot_optimum(graph, processor, n_stop)
        result = solve_optimal(
            graph, processor, [n_stop], options=slot_options()
        )
        assert result.proven_optimal
        assert result.latency == pytest.approx(optimum, abs=1e-6)
        assert result.latency == pytest.approx(expected, abs=0.05)
        assert result.design.audit(device) == []

    def test_default_search_explores_the_slot_range(self, ar_graph):
        # On a 400-unit slot N_min^l is 3 and N_min^u is 4.  The whole
        # device's range (2 only) stopped the search at 520 ns.
        processor = ReconfigurableProcessor(800, 256, 20.0)
        config = PartitionerConfig(
            search=RefinementConfig(delta=5.0), formulation=slot_options()
        )
        outcome = TemporalPartitioner(processor, config).solve(
            PartitionRequest(graph=ar_graph)
        )
        prange = outcome.partition_range
        assert (prange.lower_bound, prange.upper_seed) == (3, 4)
        assert {r.num_partitions for r in outcome.trace} == {3, 4}
        assert outcome.total_latency == pytest.approx(470.0)
        oracle = solve_optimal(
            ar_graph, processor, [prange.stop], options=slot_options()
        )
        assert oracle.proven_optimal
        assert outcome.total_latency == pytest.approx(oracle.latency)

    def test_task_larger_than_a_slot_fails_validation(self, ar_graph):
        # A 200-area task fits the 300-unit device but no 150-unit slot.
        processor = ReconfigurableProcessor(300, 256, 20.0)
        config = PartitionerConfig(formulation=slot_options())
        with pytest.raises(GraphValidationError, match="capacity 150"):
            TemporalPartitioner(processor, config).solve(
                PartitionRequest(graph=ar_graph)
            )

    def test_cp_backend_refuses_other_scenarios(self, ar_graph):
        # The backtracker knows only the paper's constraints on the whole
        # device: under two slots it once returned 440 ns on partitions
        # of area 430 and 780 against a 400-unit slot.
        processor = ReconfigurableProcessor(800, 256, 20.0)
        executor = SolveExecutor(SolverSettings(backend="cp"))
        with pytest.raises(ValueError, match="'cp' backend"):
            executor.solve_window(
                ar_graph, processor, 3, 600.0, 0.0, slot_options()
            )
        assert executor.telemetry.total_solves == 0
        config = PartitionerConfig(
            search=RefinementConfig(delta=5.0, gamma=2),
            formulation=slot_options(),
            solver=SolverSettings(backend="cp"),
        )
        with pytest.raises(ValueError, match="'cp' backend"):
            TemporalPartitioner(processor, config).solve(
                PartitionRequest(graph=ar_graph)
            )
