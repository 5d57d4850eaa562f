"""Packaging sanity: every name each package exports must resolve.

Guards against stale ``__all__`` entries and accidental removal of
public API — the kind of breakage editable installs hide until release.
Also pins the redesigned entry points: ``solve(PartitionRequest(...))``
is the one documented path, ``partition()`` warns, the
:class:`SolverSettings` presets match hand-built settings, and a request
round-trips through the service to a versioned outcome dict.
"""

import dataclasses
import importlib
import warnings

import pytest

PACKAGES = [
    "repro",
    "repro.ilp",
    "repro.taskgraph",
    "repro.hls",
    "repro.arch",
    "repro.core",
    "repro.solve",
    "repro.service",
    "repro.obs",
    "repro.experiments",
    "repro.analysis",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_entries_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
    for name in package.__all__:
        assert hasattr(package, name), (
            f"{package_name}.__all__ lists {name!r} but the attribute "
            "is missing"
        )


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_is_sorted_and_unique(package_name):
    package = importlib.import_module(package_name)
    entries = list(package.__all__)
    assert len(entries) == len(set(entries)), f"{package_name}: duplicates"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_service_entry_points_are_top_level():
    import repro

    for name in (
        "PartitionService",
        "PartitionRequest",
        "DiskSolveCache",
        "OUTCOME_SCHEMA_VERSION",
    ):
        assert name in repro.__all__
        assert hasattr(repro, name)


def test_cli_module_importable_without_side_effects():
    import repro.cli

    parser = repro.cli.build_parser()
    assert parser.prog == "repro-tp"


def test_cli_has_service_subcommands():
    import repro.cli

    parser = repro.cli.build_parser()
    text = parser.format_help()
    assert "batch" in text
    assert "serve" in text


def test_quickstart_snippet_from_readme():
    """The README quickstart must stay runnable (tiny budget variant)."""
    from repro import (
        PartitionerConfig,
        PartitionRequest,
        RefinementConfig,
        SolverSettings,
        TemporalPartitioner,
    )
    from repro.arch import time_multiplexed
    from repro.taskgraph import ar_filter

    partitioner = TemporalPartitioner(
        time_multiplexed(resource_capacity=400, memory_capacity=128),
        PartitionerConfig(
            search=RefinementConfig(delta=25.0, time_budget=30.0),
            solver=SolverSettings(time_limit=10.0),
        ),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        outcome = partitioner.solve(PartitionRequest(graph=ar_filter()))
    assert outcome.feasible


def test_solve_is_the_only_partitioner_entry_point():
    from repro import TemporalPartitioner

    assert not hasattr(TemporalPartitioner, "partition")


def test_backend_portfolio_is_gone():
    import repro.solve
    from repro import SolverSettings

    for name in ("race_backends", "SolveAttempt"):
        assert name not in repro.solve.__all__
    assert "portfolio" not in {
        f.name for f in dataclasses.fields(SolverSettings)
    }


def test_window_outcome_is_the_only_window_record():
    import repro.core
    import repro.solve
    import repro.solve.executor
    import repro.solve.telemetry

    assert not hasattr(repro.core, "IterationRecord")
    assert "IterationRecord" not in repro.core.__all__
    assert not hasattr(repro.solve, "SolveStats")
    assert "SolveStats" not in repro.solve.__all__
    assert not hasattr(repro.solve.telemetry, "SolveStats")
    assert not hasattr(repro.solve.executor, "SolveAttempt")
    assert "WindowOutcome" in repro.solve.__all__


class TestPartitionRequest:
    def test_fields_are_keyword_only(self, chain_graph):
        from repro import PartitionRequest

        with pytest.raises(TypeError):
            PartitionRequest(chain_graph)  # positional graph rejected

    def test_replace_derives_variants(self, chain_graph, ar_device):
        from repro import PartitionRequest

        base = PartitionRequest(graph=chain_graph)
        derived = base.replace(processor=ar_device)
        assert derived.processor is ar_device
        assert derived.graph is base.graph
        assert base.processor is None  # original untouched

    def test_requests_are_frozen(self, chain_graph):
        from repro import PartitionRequest

        request = PartitionRequest(graph=chain_graph)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.graph = None


class TestSolverSettingsPresets:
    """Presets are field-identical to hand-built settings (the full
    property test lives in tests/solve/test_presets.py)."""

    def test_presets_exist_and_build_plain_settings(self):
        from repro import SolverSettings

        for preset in ("fast", "paper_exact", "debug"):
            settings = getattr(SolverSettings, preset)()
            assert isinstance(settings, SolverSettings)

    def test_fast_equals_hand_built(self):
        from repro import SolverSettings

        expected = SolverSettings(
            incumbent_reuse=True,
            symmetry_breaking=True,
            dual_bound=True,
        )
        assert SolverSettings.fast() == expected


class TestOutcomeSchema:
    def test_outcome_dict_carries_schema_version(
        self, chain_graph, ar_device, fast_settings
    ):
        from repro import (
            OUTCOME_SCHEMA_VERSION,
            PartitionerConfig,
            PartitionRequest,
            TemporalPartitioner,
        )

        outcome = TemporalPartitioner(
            ar_device, PartitionerConfig(solver=fast_settings)
        ).solve(PartitionRequest(graph=chain_graph))
        payload = outcome.to_dict()
        assert payload["schema_version"] == OUTCOME_SCHEMA_VERSION


class TestRequestServiceOutcomeRoundTrip:
    def test_ar_filter_through_the_service(self, ar_device):
        """Request -> PartitionService -> outcome -> dict -> outcome."""
        from repro import (
            PartitionerConfig,
            PartitionRequest,
            PartitionService,
            RefinementConfig,
            SolverSettings,
        )
        from repro.core.partitioner import PartitioningOutcome
        from repro.taskgraph import ar_filter

        graph = ar_filter()
        request = PartitionRequest(
            graph=graph,
            config=PartitionerConfig(
                # Keep the explored bounds small: N <= 3.
                search=RefinementConfig(time_budget=60.0),
                solver=SolverSettings(time_limit=10.0),
            ),
        )
        with PartitionService(processor=ar_device, max_workers=0) as service:
            outcome = service.submit(request).result(timeout=120)
        assert outcome.feasible
        assert outcome.partition_range.start <= 3

        payload = outcome.to_dict(include_trace=True)
        restored = PartitioningOutcome.from_dict(payload, graph=graph)
        assert restored.feasible
        assert restored.total_latency == outcome.total_latency
        assert (
            restored.design.as_assignment() == outcome.design.as_assignment()
        )
        assert len(restored.trace.records) == len(outcome.trace.records)
