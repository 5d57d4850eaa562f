"""The process-boundary wire format round-trips everything it claims to."""

from __future__ import annotations

import json

from repro.arch.processor import ReconfigurableProcessor
from repro.core import (
    FormulationOptions,
    PartitionerConfig,
    PartitionRequest,
    RefinementConfig,
    SolverSettings,
)
from repro.obs import Tracer
from repro.service.wire import (
    decode_config,
    decode_processor,
    decode_request,
    encode_config,
    encode_processor,
    encode_request,
)


def test_processor_round_trip():
    processor = ReconfigurableProcessor(
        resource_capacity=400,
        memory_capacity=128,
        reconfiguration_time=20.0,
        name="ar_device",
        extra_capacities=(("dsp", 8.0), ("bram", 16.0)),
    )
    assert decode_processor(encode_processor(processor)) == processor


def test_config_round_trip_preserves_every_layer():
    config = PartitionerConfig(
        search=RefinementConfig(delta=50.0, time_budget=120.0),
        formulation=FormulationOptions(symmetry_breaking=True),
        solver=SolverSettings.fast(time_limit=7.5, cache_path="/tmp/c.db"),
        validate=False,
    )
    decoded = decode_config(encode_config(config))
    assert decoded.search == config.search
    assert decoded.formulation == config.formulation
    assert decoded.solver == config.solver
    assert decoded.validate is False


def test_settings_with_retired_fields_still_decode():
    # Payloads written before reuse_basis/persistent_cuts/reuse_templates,
    # the portfolio race and the primal-first stage were removed carry
    # those keys; decoding drops them.
    payload = encode_config(
        PartitionerConfig(solver=SolverSettings.fast(time_limit=7.5))
    )
    payload["solver"].update(
        reuse_basis=True,
        persistent_cuts=True,
        reuse_templates=False,
        portfolio=["highs", "bnb"],
        primal_first=True,
    )
    decoded = decode_config(json.loads(json.dumps(payload)))
    assert decoded.solver == SolverSettings.fast(time_limit=7.5)


def test_config_with_retired_knobs_still_decodes():
    # Payloads written before the escalation cap replaced
    # ``RefinementConfig.infeasible_escalation_limit`` and before
    # ``SolverSettings.extra`` was removed carry those keys; decoding
    # drops them.
    config = PartitionerConfig(
        search=RefinementConfig(delta=50.0),
        solver=SolverSettings.fast(time_limit=7.5),
    )
    payload = encode_config(config)
    assert "infeasible_escalation_limit" not in payload["search"]
    assert "extra" not in payload["solver"]
    payload["search"]["infeasible_escalation_limit"] = 6
    payload["solver"]["extra"] = {"lp_engine": "own"}
    decoded = decode_config(json.loads(json.dumps(payload)))
    assert decoded.search == config.search
    assert decoded.solver == config.solver


def test_tracer_never_crosses_the_boundary():
    config = PartitionerConfig(solver=SolverSettings(tracer=Tracer()))
    payload = encode_config(config)
    assert "tracer" not in payload["solver"]
    decoded = decode_config(payload)
    assert decoded.solver.tracer is None
    # The tracer is excluded from equality, so the settings still match.
    assert decoded.solver == config.solver


def test_request_round_trip(diamond_graph, ar_device):
    request = PartitionRequest(
        graph=diamond_graph,
        processor=ar_device,
        config=PartitionerConfig(search=RefinementConfig(delta=25.0)),
    )
    decoded = decode_request(encode_request(request))
    assert decoded.graph.name == diamond_graph.name
    assert sorted(t.name for t in decoded.graph.tasks) == sorted(
        t.name for t in diamond_graph.tasks
    )
    assert decoded.processor == ar_device
    assert decoded.config.search.delta == 25.0


def test_request_with_defaults_round_trips_none(chain_graph):
    request = PartitionRequest(graph=chain_graph)
    decoded = decode_request(encode_request(request))
    assert decoded.processor is None
    assert decoded.config is None


def test_wire_payloads_are_json_clean(diamond_graph, ar_device):
    request = PartitionRequest(
        graph=diamond_graph, processor=ar_device, config=PartitionerConfig()
    )
    payload = encode_request(request)
    # The whole point of the wire format: a JSON round trip must be
    # lossless, so payloads can live in batch files and cross stdin.
    decoded = decode_request(json.loads(json.dumps(payload)))
    assert decoded.processor == ar_device
    assert decoded.config.solver == SolverSettings()
