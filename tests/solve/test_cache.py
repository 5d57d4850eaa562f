"""Solve cache: exact replays and window-monotone verdict reuse.

Every rule test runs on both tiers of :class:`SolveCache`: the memory
records of a memory-only cache, and a disk store queried through a cache
whose memory is empty, so the answer must come from the store.
"""

import pytest

from repro.core.solution import PartitionedDesign, Placement
from repro.obs import MetricsRegistry
from repro.solve import DiskSolveCache, ModelFingerprint, SolveCache
from repro.taskgraph import DesignPoint, TaskGraph


def make_fp(base="m", n=3, d_min=100.0, d_max=500.0):
    return ModelFingerprint(base, n, d_min, d_max)


@pytest.fixture
def graph() -> TaskGraph:
    g = TaskGraph("pair")
    g.add_task("a", (DesignPoint(area=10, latency=5, name="dp"),))
    g.add_task("b", (DesignPoint(area=20, latency=7),))
    g.add_edge("a", "b", 4)
    return g


@pytest.fixture
def design(graph) -> PartitionedDesign:
    return PartitionedDesign(
        graph,
        {
            "a": Placement(1, graph.task("a").design_points[0]),
            "b": Placement(2, graph.task("b").design_points[0]),
        },
    )


class Tier:
    """A :class:`SolveCache` to store into, and lookups answered by one
    tier alone."""

    def __init__(self, name: str, path=None) -> None:
        self.name = name
        self.metrics = MetricsRegistry()
        self.disk = (
            None if path is None
            else DiskSolveCache(path, metrics=self.metrics)
        )
        self.cache = SolveCache(self.disk, metrics=self.metrics)

    def lookup(self, fp, graph):
        if self.disk is None:
            return self.cache.lookup(fp, graph)
        # A cache with empty memory, as in a fresh process.
        return SolveCache(self.disk, metrics=self.metrics).lookup(fp, graph)


@pytest.fixture
def tiers(tmp_path):
    memory, disk = Tier("memory"), Tier("disk", tmp_path / "c.sqlite")
    yield memory, disk
    disk.disk.close()


class TestExactReplay:
    def test_same_window_hits_exactly(self, tiers, graph, design):
        for tier in tiers:
            tier.cache.store_feasible(
                make_fp(), design, achieved=321.0, backend="highs"
            )
            hit = tier.lookup(make_fp(), graph)
            assert hit is not None and hit.rule == "exact", tier.name
            assert hit.tier == tier.name
            assert hit.verdict.achieved == 321.0
            assert hit.verdict.backend == "highs"
            assert hit.verdict.design.as_assignment() == (
                design.as_assignment()
            )
            if tier.disk is None:
                # The memory tier hands back the live design it stored.
                assert hit.verdict.design is design

    def test_perturbed_base_misses(self, tiers, graph, design):
        for tier in tiers:
            tier.cache.store_feasible(make_fp(base="m"), design, 321.0)
            assert tier.lookup(make_fp(base="other"), graph) is None
            snapshot = tier.metrics.snapshot()
            assert snapshot.value(
                "repro_solve_cache_misses_total", tier.name
            ) == 1, tier.name

    def test_infeasible_exact_replay(self, tiers, graph):
        for tier in tiers:
            tier.cache.store_infeasible(make_fp(), backend="bnb")
            hit = tier.lookup(make_fp(), graph)
            assert hit is not None, tier.name
            assert hit.rule == "exact"
            assert not hit.verdict.feasible


class TestBoundReplay:
    def test_only_exact_hits_replay_the_bound(self, tiers, graph, design):
        for tier in tiers:
            tier.cache.store_feasible(
                make_fp(d_min=100.0, d_max=500.0), design, achieved=321.0,
                bound=300.0,
            )
            exact = tier.lookup(make_fp(d_min=100.0, d_max=500.0), graph)
            assert exact.rule == "exact" and exact.bound == 300.0, tier.name
            # A wider window may hold designs below the stored bound.
            wider = tier.lookup(make_fp(d_min=50.0, d_max=900.0), graph)
            assert wider.rule == "feasible", tier.name
            assert wider.verdict.bound == 300.0 and wider.bound is None


class TestFeasibleMonotonicity:
    def test_design_inside_wider_window_hits(self, tiers, graph, design):
        for tier in tiers:
            tier.cache.store_feasible(
                make_fp(d_min=100.0, d_max=500.0), design, achieved=321.0
            )
            # Different (wider) window, but the certificate's latency fits.
            hit = tier.lookup(make_fp(d_min=50.0, d_max=900.0), graph)
            assert hit is not None and hit.rule == "feasible", tier.name
            assert hit.verdict.achieved == 321.0

    def test_design_outside_query_window_misses(self, tiers, graph, design):
        for tier in tiers:
            tier.cache.store_feasible(
                make_fp(d_min=100.0, d_max=500.0), design, achieved=321.0
            )
            # Narrower window excluding the certificate: must re-solve.
            query = make_fp(d_min=100.0, d_max=300.0)
            assert tier.lookup(query, graph) is None, tier.name


class TestInfeasibleMonotonicity:
    def test_subwindow_of_proven_empty_window_hits(self, tiers, graph):
        for tier in tiers:
            tier.cache.store_infeasible(make_fp(d_min=100.0, d_max=500.0))
            hit = tier.lookup(make_fp(d_min=200.0, d_max=400.0), graph)
            assert hit is not None and hit.rule == "infeasible", tier.name
            assert not hit.verdict.feasible

    def test_superwindow_does_not_hit(self, tiers, graph):
        for tier in tiers:
            tier.cache.store_infeasible(make_fp(d_min=100.0, d_max=500.0))
            # A window reaching past the proven-empty one, at either or
            # both ends, might contain a design: no verdict carries over.
            for lo, hi in ((50.0, 900.0), (200.0, 600.0), (50.0, 400.0)):
                query = make_fp(d_min=lo, d_max=hi)
                assert tier.lookup(query, graph) is None, (tier.name, lo, hi)


class TestPrecedence:
    def test_exact_then_feasible_then_infeasible(self, tiers, graph, design):
        for tier in tiers:
            # Stored in reverse order of precedence; all three match the
            # query [200, 300].
            tier.cache.store_infeasible(make_fp(d_min=0.0, d_max=400.0))
            tier.cache.store_feasible(
                make_fp(d_min=0.0, d_max=1000.0), design, achieved=250.0
            )
            tier.cache.store_feasible(
                make_fp(d_min=200.0, d_max=300.0), design, achieved=250.0
            )
            for (lo, hi), rule, window in (
                ((200.0, 300.0), "exact", (200.0, 300.0)),
                ((210.0, 290.0), "feasible", (0.0, 1000.0)),
                ((10.0, 20.0), "infeasible", (0.0, 400.0)),
            ):
                hit = tier.lookup(make_fp(d_min=lo, d_max=hi), graph)
                assert hit.rule == rule, (tier.name, lo, hi)
                assert (hit.verdict.d_min, hit.verdict.d_max) == window


class TestBookkeeping:
    def test_hit_rate_and_len(self, graph, design):
        registry = MetricsRegistry()
        cache = SolveCache(metrics=registry)
        fp = make_fp()
        assert cache.lookup(fp) is None
        cache.store_feasible(fp, design, 321.0)
        assert cache.lookup(fp) is not None
        assert len(cache) == 1
        snapshot = registry.snapshot()
        assert snapshot.value("repro_solve_cache_hits_total", "memory", "exact") == 1
        assert snapshot.value("repro_solve_cache_misses_total", "memory") == 1

    def test_duplicate_store_is_deduped(self, tiers, design):
        for tier in tiers:
            fp = make_fp()
            tier.cache.store_feasible(fp, design, 321.0)
            tier.cache.store_feasible(fp, design, 321.0)
            # A window equal up to the comparison tolerance is the same.
            tier.cache.store_feasible(
                make_fp(d_min=100.0 + 1e-12), design, 321.0
            )
            tier.cache.store_infeasible(make_fp(d_min=0.0, d_max=50.0))
            tier.cache.store_infeasible(make_fp(d_min=0.0, d_max=50.0))
            assert len(tier.cache) == 2, tier.name
            if tier.disk is not None:
                assert len(tier.disk) == 2

    def test_clear(self, tiers, graph, design):
        for tier in tiers:
            tier.cache.store_feasible(make_fp(), design, 321.0)
            tier.cache.lookup(make_fp(), graph)
            tier.cache.clear()
            assert len(tier.cache) == 0
            hit = tier.cache.lookup(make_fp(), graph)
            if tier.disk is None:
                assert hit is None
            else:
                # clear() forgets the memory records only.
                assert hit.tier == "disk"
