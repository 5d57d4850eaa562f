"""PartitionRequest / PartitioningOutcome: the unified facade API."""

import pytest

from repro import (
    PartitionerConfig,
    PartitionRequest,
    PartitioningOutcome,
    RefinementConfig,
    SolverSettings,
    TemporalPartitioner,
)
from repro.arch import ReconfigurableProcessor
from repro.taskgraph import ar_filter


@pytest.fixture
def partitioner() -> TemporalPartitioner:
    return TemporalPartitioner(
        ReconfigurableProcessor(400, 128, 20.0),
        PartitionerConfig(
            search=RefinementConfig(gamma=1),
            solver=SolverSettings(time_limit=15.0),
        ),
    )


class TestRequestEquivalence:
    def test_explicit_defaults_agree_with_bare_request(self, partitioner):
        # A request naming the partitioner's own device and config is the
        # same question as a bare one.
        bare = partitioner.solve(PartitionRequest(graph=ar_filter()))
        explicit = partitioner.solve(
            PartitionRequest(
                graph=ar_filter(),
                processor=partitioner.processor,
                config=partitioner.config,
            )
        )
        assert bare.feasible and explicit.feasible
        assert explicit.total_latency == bare.total_latency
        assert explicit.num_partitions == bare.num_partitions

    def test_request_processor_override(self, partitioner):
        # A request may carry its own device; the partitioner's is unused.
        bigger = ReconfigurableProcessor(800, 128, 20.0)
        outcome = partitioner.solve(
            PartitionRequest(graph=ar_filter(), processor=bigger)
        )
        base = partitioner.solve(PartitionRequest(graph=ar_filter()))
        assert outcome.feasible
        # Twice the area lets more tasks share a partition: never worse.
        assert outcome.total_latency <= base.total_latency

    def test_request_config_override(self, partitioner):
        custom = PartitionerConfig(
            search=RefinementConfig(gamma=0),
            solver=SolverSettings(time_limit=15.0),
        )
        outcome = partitioner.solve(
            PartitionRequest(graph=ar_filter(), config=custom)
        )
        assert outcome.feasible


class TestOutcomeShape:
    def test_outcome_is_keyword_only(self):
        with pytest.raises(TypeError):
            PartitioningOutcome(None, None, None, None, 0.0, False, False)

    def test_outcome_is_self_describing(self, partitioner):
        outcome = partitioner.solve(PartitionRequest(graph=ar_filter()))
        assert outcome.feasible is True
        assert outcome.degraded is False
        assert outcome.telemetry is not None
        # Every executed solve is telemetered; trace rows may additionally
        # include LP-bound short-circuits that never reached the executor.
        assert 0 < outcome.telemetry.total_solves <= len(outcome.trace)

    def test_to_dict_round_trips_through_json(self, partitioner):
        import json

        outcome = partitioner.solve(PartitionRequest(graph=ar_filter()))
        payload = json.loads(json.dumps(outcome.to_dict(include_trace=True)))
        assert payload["feasible"] is True
        assert payload["degraded"] is False
        assert payload["num_partitions"] == outcome.num_partitions
        assert payload["telemetry"]["total_solves"] > 0
        assert set(payload["design"]) == set(ar_filter().task_names)
