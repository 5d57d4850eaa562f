"""Metrics registry, snapshot algebra and the null object.

The merge-commutativity and dict round-trip properties are load-bearing:
the sharded service relies on them when worker snapshots are absorbed in
an order unrelated to worker timing, so both are property-tested over
randomly generated instrument programs.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, strategies as st

from repro.obs import (
    DEFAULT_SECONDS_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
    MetricsSnapshot,
    as_metrics,
)
from repro.solve.telemetry import RunTelemetry


class TestCounter:
    def test_unlabeled_counter_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "jobs")
        counter.inc()
        counter.inc(2.0)
        assert registry.snapshot().value("jobs_total") == 3.0

    def test_labeled_counter_separates_children(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits", ("tier",))
        counter.labels("memory").inc()
        counter.labels("disk").inc(4)
        snapshot = registry.snapshot()
        assert snapshot.value("hits_total", "memory") == 1.0
        assert snapshot.value("hits_total", "disk") == 4.0
        assert snapshot.total("hits_total") == 5.0

    def test_keyword_labels_resolve_in_declared_order(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "", ("a", "b"))
        counter.labels(b="2", a="1").inc()
        assert registry.snapshot().value("c_total", "1", "2") == 1.0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total", "")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_unlabeled_use_of_labeled_family_rejected(self):
        counter = MetricsRegistry().counter("c_total", "", ("a",))
        with pytest.raises(ValueError, match="labels"):
            counter.inc()

    def test_wrong_label_arity_rejected(self):
        counter = MetricsRegistry().counter("c_total", "", ("a",))
        with pytest.raises(ValueError):
            counter.labels("x", "y")
        with pytest.raises(ValueError):
            counter.labels(b="x")

    def test_mixing_positional_and_keyword_labels_rejected(self):
        counter = MetricsRegistry().counter("c_total", "", ("a", "b"))
        with pytest.raises(ValueError, match="not both"):
            counter.labels("x", b="y")


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "")
        gauge.set(10)
        gauge.inc()
        gauge.dec(3)
        assert registry.snapshot().value("depth") == 8.0


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t_seconds", "", buckets=(1.0, 5.0))
        for value in (0.5, 2.0, 99.0):
            histogram.observe(value)
        snapshot = registry.snapshot()
        assert snapshot.histogram_stats("t_seconds") == (3, 101.5)
        counts, total, count = snapshot.family("t_seconds")["samples"][()]
        assert counts == (1, 1, 1)  # <=1, <=5, +Inf overflow

    def test_observation_on_bucket_boundary_counts_in_that_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t_seconds", "", buckets=(1.0, 5.0))
        histogram.observe(1.0)
        counts, _, _ = registry.snapshot().family("t_seconds")["samples"][()]
        assert counts == (1, 0, 0)

    def test_default_buckets_are_the_shared_seconds_scale(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t_seconds", "")
        assert histogram.bounds == DEFAULT_SECONDS_BUCKETS

    def test_quantile_estimates_bucket_upper_bound(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t_seconds", "", buckets=(1.0, 5.0))
        for _ in range(9):
            histogram.observe(0.5)
        histogram.observe(3.0)
        snapshot = registry.snapshot()
        assert snapshot.quantile("t_seconds", 0.5) == 1.0
        assert snapshot.quantile("t_seconds", 0.99) == 5.0

    def test_empty_or_unsorted_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("a_seconds", "", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("b_seconds", "", buckets=(2.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("c_total", "") is registry.counter(
            "c_total", ""
        )

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", "")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x", "")

    def test_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "", ("a",))
        with pytest.raises(ValueError, match="different"):
            registry.counter("x_total", "", ("b",))

    def test_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("x_seconds", "", buckets=(1.0,))
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("x_seconds", "", buckets=(2.0,))

    def test_concurrent_updates_do_not_lose_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "", ("t",))

        def bump(i: int) -> None:
            child = counter.labels(str(i % 2))
            for _ in range(500):
                child.inc()

        threads = [
            threading.Thread(target=bump, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.snapshot().total("c_total") == 8 * 500

    def test_absorb_adds_samples_into_live_registry(self):
        worker = MetricsRegistry()
        worker.counter("c_total", "h", ("a",)).labels("x").inc(3)
        worker.histogram("t_seconds", "h", buckets=(1.0,)).observe(0.5)
        parent = MetricsRegistry()
        parent.counter("c_total", "h", ("a",)).labels("x").inc()
        parent.absorb(worker.snapshot())
        parent.absorb(worker.snapshot())
        snapshot = parent.snapshot()
        assert snapshot.value("c_total", "x") == 7.0
        assert snapshot.histogram_stats("t_seconds") == (2, 1.0)

    @pytest.mark.parametrize(
        "conflict",
        [
            lambda r: r.counter("c_total", "h", ("b",)).labels("y").inc(),
            lambda r: r.gauge("c_total", "h", ("a",)).labels("x").set(1),
            lambda r: r.histogram("t_seconds", "h", buckets=(2.0,)).observe(1),
        ],
        ids=["labels", "kind", "buckets"],
    )
    def test_conflicting_absorb_raises_and_changes_nothing(self, conflict):
        parent = MetricsRegistry()
        parent.counter("c_total", "h", ("a",)).labels("x").inc()
        parent.histogram("t_seconds", "h", buckets=(1.0,)).observe(0.5)
        before = parent.snapshot()
        worker = MetricsRegistry()
        worker.counter("a_total", "h").inc()  # absorbable on its own
        conflict(worker)
        with pytest.raises(ValueError):
            parent.absorb(worker.snapshot())
        assert parent.snapshot() == before
        assert parent.snapshot().names() == ["c_total", "t_seconds"]

    def test_registration_conflicting_with_absorbed_family_raises(self):
        worker = MetricsRegistry()
        worker.histogram("t_seconds", "h", buckets=(1.0,)).observe(0.5)
        parent = MetricsRegistry()
        parent.absorb(worker.snapshot())
        with pytest.raises(ValueError, match="buckets"):
            parent.histogram("t_seconds", "h", buckets=(2.0,))
        assert parent.snapshot() == worker.snapshot()

    def test_absorbing_registry_equals_snapshot_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c_total", "h").inc(2)
        b.counter("c_total", "h").inc(5)
        b.gauge("g", "h").set(-1)
        parent = MetricsRegistry()
        parent.absorb(a.snapshot())
        parent.absorb(b.snapshot())
        assert parent.snapshot() == a.snapshot().merge(b.snapshot())


class TestNullMetrics:
    def test_disabled_and_inert(self):
        assert not NULL_METRICS.enabled
        counter = NULL_METRICS.counter("c_total", "", ("a",))
        counter.labels("x").inc()
        counter.inc(5)
        gauge = NULL_METRICS.gauge("g", "")
        gauge.set(1)
        gauge.dec()
        NULL_METRICS.histogram("h_seconds", "").observe(0.1)
        assert NULL_METRICS.snapshot() == MetricsSnapshot.empty()

    def test_absorb_is_a_misuse_guard(self):
        with pytest.raises(ValueError, match="discards everything"):
            NULL_METRICS.absorb(MetricsSnapshot.empty())

    def test_as_metrics_coercion(self):
        assert as_metrics(None) is NULL_METRICS
        assert as_metrics(NULL_METRICS) is NULL_METRICS
        registry = MetricsRegistry()
        assert as_metrics(registry) is registry


class TestSnapshotAlgebra:
    def test_round_trip_preserves_every_sample(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help me", ("a",)).labels("x").inc(2)
        registry.gauge("g", "").set(-3.5)
        registry.histogram("t_seconds", "", buckets=(1.0, 2.0)).observe(1.5)
        snapshot = registry.snapshot()
        assert MetricsSnapshot.from_dict(snapshot.to_dict()) == snapshot

    def test_to_dict_is_json_safe_and_versioned(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c_total", "").inc()
        payload = registry.snapshot().to_dict()
        assert payload["schema_version"] == 1
        json.dumps(payload)

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            MetricsSnapshot.from_dict({"schema_version": 99, "metrics": []})

    @pytest.mark.parametrize(
        "payload", [1, "x", [1], {"metrics": [1]}, {"metrics": ["x"]}]
    )
    def test_non_object_payload_or_entry_rejected(self, payload):
        with pytest.raises(ValueError, match="JSON object"):
            MetricsSnapshot.from_dict(payload)

    def test_merge_sums_disjoint_and_shared_families(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("shared_total", "", ("t",)).labels("x").inc(1)
        b.counter("shared_total", "", ("t",)).labels("x").inc(2)
        b.counter("shared_total", "", ("t",)).labels("y").inc(4)
        a.counter("only_a_total", "").inc()
        merged = a.snapshot().merge(b.snapshot())
        assert merged.value("shared_total", "x") == 3.0
        assert merged.value("shared_total", "y") == 4.0
        assert merged.value("only_a_total") == 1.0

    def test_merge_metadata_conflict_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x_total", "", ("a",)).labels("1").inc()
        b.counter("x_total", "", ("b",)).labels("1").inc()
        with pytest.raises(ValueError):
            a.snapshot().merge(b.snapshot())


# -- property tests ----------------------------------------------------------

_LABELS = st.sampled_from(["highs", "bnb", "memory", "disk", "exact"])

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("counter"),
            st.sampled_from(["a_total", "b_total"]),
            _LABELS,
            st.integers(min_value=0, max_value=50),
        ),
        st.tuples(
            st.just("gauge"),
            st.sampled_from(["g", "h"]),
            _LABELS,
            st.integers(min_value=-50, max_value=50),
        ),
        st.tuples(
            st.just("histogram"),
            st.sampled_from(["t_seconds", "u_seconds"]),
            _LABELS,
            # Dyadic rationals: float addition over them is exact, so
            # the associativity property holds with == (commutativity
            # would hold for any floats; associativity would not).
            st.integers(min_value=0, max_value=400).map(lambda i: i / 4.0),
        ),
    ),
    max_size=30,
)


def _run_program(ops) -> MetricsSnapshot:
    registry = MetricsRegistry()
    for kind, name, label, value in ops:
        if kind == "counter":
            registry.counter(name, "h", ("l",)).labels(label).inc(value)
        elif kind == "gauge":
            registry.gauge(name, "h", ("l",)).labels(label).inc(value)
        else:
            registry.histogram(name, "h", ("l",), buckets=(1.0, 10.0)).labels(
                label
            ).observe(value)
    return registry.snapshot()


class TestSnapshotProperties:
    @given(_OPS, _OPS)
    def test_merge_is_commutative(self, ops_a, ops_b):
        a, b = _run_program(ops_a), _run_program(ops_b)
        assert a.merge(b) == b.merge(a)

    @given(_OPS, _OPS, _OPS)
    def test_merge_is_associative(self, ops_a, ops_b, ops_c):
        a, b, c = map(_run_program, (ops_a, ops_b, ops_c))
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(_OPS)
    def test_dict_round_trip_is_identity(self, ops):
        snapshot = _run_program(ops)
        assert MetricsSnapshot.from_dict(snapshot.to_dict()) == snapshot

    @given(_OPS)
    def test_merge_with_empty_is_identity(self, ops):
        snapshot = _run_program(ops)
        assert snapshot.merge(MetricsSnapshot.empty()) == snapshot
        assert MetricsSnapshot.empty().merge(snapshot) == snapshot


_TELEMETRY_COUNTERS = st.fixed_dictionaries(
    {
        "timeouts": st.integers(min_value=0, max_value=9),
        "fallbacks": st.integers(min_value=0, max_value=9),
        "template_builds": st.integers(min_value=0, max_value=9),
        "incumbent_reuses": st.integers(min_value=0, max_value=9),
        "disk_hits": st.integers(min_value=0, max_value=9),
        "total_solves": st.integers(min_value=0, max_value=9),
        "cache_hits": st.integers(min_value=0, max_value=9),
        "total_wall_time": st.floats(
            min_value=0.0, max_value=10.0, allow_nan=False
        ),
        "backend_wall": st.dictionaries(
            st.sampled_from(["highs", "bnb"]),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            max_size=2,
        ),
        "backend_wins": st.dictionaries(
            st.sampled_from(["highs", "bnb"]),
            st.integers(min_value=0, max_value=9),
            max_size=2,
        ),
    }
)


class TestRunTelemetryProperties:
    @given(_TELEMETRY_COUNTERS)
    def test_dict_round_trip_restores_counters(self, fields):
        telemetry = RunTelemetry(**fields)
        restored = RunTelemetry.from_dict(
            telemetry.to_dict(include_solves=True)
        )
        for name, value in fields.items():
            assert getattr(restored, name) == value
