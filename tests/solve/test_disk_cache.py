"""The persistent SQLite solve cache: rules, durability, resilience.

The reuse rules themselves are tested on both tiers in ``test_cache.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import sqlite3
from pathlib import Path

import pytest

from repro.core import RefinementConfig, SolverSettings, refine_partitions_bound
from repro.core.solution import PartitionedDesign, Placement
from repro.obs import MetricsRegistry
from repro.solve.cache import SolveCache
from repro.solve.disk_cache import SCHEMA_VERSION, DiskSolveCache
from repro.solve.executor import SolveExecutor
from repro.solve.fingerprint import ModelFingerprint
from repro.taskgraph import DesignPoint, TaskGraph


@pytest.fixture
def graph() -> TaskGraph:
    g = TaskGraph("pair")
    g.add_task("a", (DesignPoint(area=10, latency=5, name="dp"),))
    g.add_task("b", (DesignPoint(area=20, latency=7),))  # unnamed point
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


def fp(d_min: float, d_max: float, base: str = "base0") -> ModelFingerprint:
    return ModelFingerprint(
        base=base, num_partitions=2, d_min=d_min, d_max=d_max
    )


class TestVerdictRules:
    def test_exact_replay(self, tmp_path, graph, design):
        cache = DiskSolveCache(tmp_path / "c.sqlite")
        cache.store_feasible(fp(0.0, 100.0), design, 52.0, backend="highs")
        hit = cache.lookup(fp(0.0, 100.0), graph=graph)
        assert hit is not None
        assert hit.rule == "exact"
        assert hit.tier == "disk"
        assert hit.verdict.achieved == 52.0
        assert hit.verdict.design is not None

    def test_monotone_feasible_certificate(self, tmp_path, graph, design):
        cache = DiskSolveCache(tmp_path / "c.sqlite")
        cache.store_feasible(fp(0.0, 100.0), design, 52.0)
        hit = cache.lookup(fp(40.0, 60.0), graph=graph)
        assert hit is not None and hit.rule == "feasible"
        # Window excluding the achieved latency must NOT hit.
        assert cache.lookup(fp(0.0, 50.0), graph=graph) is None

    def test_monotone_infeasible_containment(self, tmp_path, graph):
        cache = DiskSolveCache(tmp_path / "c.sqlite")
        cache.store_infeasible(fp(0.0, 40.0))
        assert cache.lookup(fp(5.0, 30.0), graph=graph).rule == "infeasible"
        # A window extending past the proven-empty one must not hit.
        assert cache.lookup(fp(5.0, 50.0), graph=graph) is None

    def test_decoded_design_round_trips_unnamed_points(
        self, tmp_path, graph, design
    ):
        cache = DiskSolveCache(tmp_path / "c.sqlite")
        cache.store_feasible(fp(0.0, 100.0), design, 52.0)
        hit = cache.lookup(fp(0.0, 100.0), graph=graph)
        decoded = hit.verdict.design
        assert decoded.as_assignment() == design.as_assignment()

    def test_lookup_without_graph_skips_feasible_designs(
        self, tmp_path, design
    ):
        cache = DiskSolveCache(tmp_path / "c.sqlite")
        cache.store_feasible(fp(0.0, 100.0), design, 52.0)
        # No graph -> stored assignment cannot be decoded into a
        # certificate; the lookup must miss rather than fabricate one.
        assert cache.lookup(fp(0.0, 100.0)) is None

    def test_undecodable_row_is_deleted_and_falls_through(
        self, tmp_path, graph, design
    ):
        path = tmp_path / "c.sqlite"
        cache = DiskSolveCache(path)
        cache.store_feasible(fp(0.0, 100.0), design, 52.0)
        cache.store_infeasible(fp(0.0, 200.0))
        cache._conn.execute(
            "UPDATE verdicts SET assignment='not json' WHERE feasible=1"
        )
        cache._conn.commit()
        # The exact (and feasible) row cannot be decoded: it is dropped,
        # and the next rule's row answers.
        hit = cache.lookup(fp(0.0, 100.0), graph=graph)
        assert hit.rule == "infeasible"
        assert hit.verdict.d_max == 200.0
        assert len(cache) == 1


class TestDurability:
    def test_verdicts_survive_reopen(self, tmp_path, graph, design):
        path = tmp_path / "c.sqlite"
        DiskSolveCache(path).store_feasible(fp(0.0, 100.0), design, 52.0)
        reopened = DiskSolveCache(path)
        assert reopened.lookup(fp(0.0, 100.0), graph=graph).rule == "exact"
        assert reopened.stats()["entries"] == 1

    def test_duplicate_store_is_idempotent(self, tmp_path, design):
        cache = DiskSolveCache(tmp_path / "c.sqlite")
        for _ in range(3):
            cache.store_feasible(fp(0.0, 100.0), design, 52.0)
        assert cache.stats()["entries"] == 1

    def test_eviction_keeps_recently_used(self, tmp_path, graph, design):
        registry = MetricsRegistry()
        cache = DiskSolveCache(
            tmp_path / "c.sqlite", max_entries=10, metrics=registry
        )
        for i in range(12):
            cache.store_infeasible(fp(0.0, 10.0 + i, base=f"b{i}"))
        assert cache.stats()["entries"] <= 10
        assert registry.snapshot().total("repro_disk_cache_evictions_total") > 0

    def test_corrupted_file_is_moved_aside_and_recreated(
        self, tmp_path, graph, design
    ):
        path = tmp_path / "c.sqlite"
        cache = DiskSolveCache(path)
        cache.store_feasible(fp(0.0, 100.0), design, 52.0)
        cache.close()
        # Scrub the WAL sidecars too, or SQLite transparently heals the
        # mangled main file from the journal.
        for suffix in ("-wal", "-shm"):
            sidecar = Path(str(path) + suffix)
            if sidecar.exists():
                sidecar.unlink()
        path.write_bytes(b"this is not a sqlite database at all")
        recovered = DiskSolveCache(path)
        assert recovered.stats()["recovered"] is True
        assert recovered.lookup(fp(0.0, 100.0), graph=graph) is None
        # The fresh store is fully usable afterwards.
        recovered.store_infeasible(fp(0.0, 10.0))
        assert recovered.lookup(fp(1.0, 9.0), graph=graph) is not None

    def test_locked_store_is_retried_not_quarantined(
        self, tmp_path, graph, design, monkeypatch
    ):
        path = tmp_path / "c.sqlite"
        with DiskSolveCache(path) as cache:
            cache.store_feasible(fp(0.0, 100.0), design, 52.0)
        connect = DiskSolveCache._connect
        calls = []

        def locked_once(self):
            calls.append(None)
            if len(calls) == 1:
                raise sqlite3.OperationalError("database is locked")
            return connect(self)

        monkeypatch.setattr(DiskSolveCache, "_connect", locked_once)
        reopened = DiskSolveCache(path)
        assert len(calls) == 2
        assert not Path(str(path) + ".corrupt").exists()
        assert reopened.recovered is False
        # The old verdict survived, and the store takes new ones.
        assert reopened.lookup(fp(0.0, 100.0), graph=graph).rule == "exact"
        reopened.store_infeasible(fp(0.0, 10.0))
        assert reopened.lookup(fp(1.0, 9.0), graph=graph) is not None

    def test_store_locked_throughout_answers_misses(
        self, tmp_path, graph, design, monkeypatch
    ):
        path = tmp_path / "c.sqlite"
        with DiskSolveCache(path) as cache:
            cache.store_feasible(fp(0.0, 100.0), design, 52.0)

        def always_locked(self):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(DiskSolveCache, "_connect", always_locked)
        monkeypatch.setattr("repro.solve.disk_cache.time.sleep", lambda s: None)
        offline = DiskSolveCache(path)
        assert offline.recovered is False
        assert offline.lookup(fp(0.0, 100.0), graph=graph) is None
        offline.store_infeasible(fp(0.0, 10.0))  # dropped, no raise
        assert len(offline) == 0
        offline.close()
        assert not Path(str(path) + ".corrupt").exists()
        monkeypatch.undo()
        with DiskSolveCache(path) as cache:
            assert cache.lookup(fp(0.0, 100.0), graph=graph) is not None

    def test_schema_mismatch_drops_and_recreates(self, tmp_path, design):
        path = tmp_path / "c.sqlite"
        cache = DiskSolveCache(path)
        cache.store_feasible(fp(0.0, 100.0), design, 52.0)
        cache.close()
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
        fresh = DiskSolveCache(path)
        assert fresh.stats()["entries"] == 0
        assert fresh.stats()["schema_version"] == SCHEMA_VERSION


    def test_version_1_store_is_recreated(self, tmp_path, graph, design):
        # The layout before the ``bound`` column.
        path = tmp_path / "v1.sqlite"
        with sqlite3.connect(path) as conn:
            conn.executescript(
                "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
                "INSERT INTO meta VALUES ('schema_version', '1');"
                "CREATE TABLE verdicts (id INTEGER PRIMARY KEY, base TEXT "
                "NOT NULL, d_min REAL NOT NULL, d_max REAL NOT NULL, feasible "
                "INTEGER NOT NULL, achieved REAL, assignment TEXT, backend "
                "TEXT NOT NULL DEFAULT '', created REAL NOT NULL, last_used "
                "REAL NOT NULL);"
                "INSERT INTO verdicts(base, d_min, d_max, feasible, created, "
                "last_used) VALUES ('m', 0, 100, 0, 0, 0);"
            )
        with DiskSolveCache(path) as cache:
            assert cache.recovered and len(cache) == 0
            cache.store_feasible(fp(0.0, 100.0), design, 52.0, bound=50.0)
            hit = cache.lookup(fp(0.0, 100.0), graph=graph)
            assert hit.rule == "exact" and hit.bound == 50.0


class TestTiered:
    """A :class:`SolveCache` in front of a disk store."""

    def test_disk_hit_promotes_to_memory(self, tmp_path, graph, design):
        path = tmp_path / "c.sqlite"
        DiskSolveCache(path).store_feasible(fp(0.0, 100.0), design, 52.0)
        registry = MetricsRegistry()
        cache = SolveCache(
            DiskSolveCache(path, metrics=registry), metrics=registry
        )
        first = cache.lookup(fp(0.0, 100.0), graph=graph)
        assert first.tier == "disk"
        second = cache.lookup(fp(0.0, 100.0), graph=graph)
        assert second.tier == "memory"
        snapshot = registry.snapshot()
        hits = "repro_solve_cache_hits_total"
        assert snapshot.value(hits, "disk", "exact") == 1
        assert snapshot.value(hits, "memory", "exact") == 1
        assert snapshot.value("repro_solve_cache_misses_total", "memory") == 1
        assert snapshot.value("repro_solve_cache_misses_total", "disk") == 0

    def test_solve_cache_counts_both_tiers(self, tmp_path, graph, design):
        """Lookups are counted where both tiers are seen: a registry that
        only the :class:`SolveCache` was given counts the disk tier too."""
        path = tmp_path / "c.sqlite"
        DiskSolveCache(path).store_feasible(fp(0.0, 100.0), design, 52.0)
        registry = MetricsRegistry()
        cache = SolveCache(DiskSolveCache(path), metrics=registry)
        assert cache.lookup(fp(0.0, 100.0), graph=graph).tier == "disk"
        assert cache.lookup(fp(200.0, 300.0), graph=graph) is None
        snapshot = registry.snapshot()
        hits, misses = (
            "repro_solve_cache_hits_total", "repro_solve_cache_misses_total"
        )
        assert snapshot.value(misses, "memory") == 2
        assert snapshot.value(hits, "disk", "exact") == 1
        assert snapshot.value(misses, "disk") == 1
        assert snapshot.total(hits) == 1

    def test_store_writes_through_to_both_tiers(
        self, tmp_path, graph, design
    ):
        path = tmp_path / "c.sqlite"
        cache = SolveCache(DiskSolveCache(path))
        cache.store_feasible(fp(0.0, 100.0), design, 52.0)
        # A brand-new process-equivalent sees the verdict on disk.
        assert (
            DiskSolveCache(path)
            .lookup(fp(0.0, 100.0), graph=graph)
            .rule
            == "exact"
        )
        assert cache.lookup(fp(0.0, 100.0), graph=graph).tier == "memory"


class TestLiveStoreDamage:
    def test_store_truncated_mid_session(self, tmp_path, ar_graph, ar_device):
        """A store damaged under a live executor costs only re-solves."""
        path = tmp_path / "solves.sqlite"
        config = RefinementConfig(gamma=1)
        settings = SolverSettings(time_limit=10.0, cache_path=str(path))
        executor = SolveExecutor(settings)
        first = refine_partitions_bound(
            ar_graph, ar_device, config, settings=settings, executor=executor
        )
        for damaged in (path, Path(str(path) + "-wal")):
            if damaged.exists():
                os.truncate(damaged, 0)
        executor.cache.clear()
        second = refine_partitions_bound(
            ar_graph, ar_device, config, settings=settings, executor=executor
        )
        uncached = refine_partitions_bound(
            ar_graph, ar_device, config,
            settings=SolverSettings(time_limit=10.0, enable_cache=False),
        )
        assert first.achieved == second.achieved == uncached.achieved
        assert second.design.audit(ar_device) == []


def _open_at_barrier(path, barrier, results) -> None:
    barrier.wait()
    cache = DiskSolveCache(path)
    results.put(cache.recovered)
    cache.close()


@pytest.mark.slow
def test_two_processes_opening_a_fresh_store_never_quarantine_it(tmp_path):
    """Two processes racing to create one store both end up using it:
    the loser of the lock retries instead of moving the file aside."""
    ctx = multiprocessing.get_context("fork")
    for trial in range(20):
        path = tmp_path / f"race{trial}.sqlite"
        barrier, results = ctx.Barrier(2), ctx.Queue()
        workers = [
            ctx.Process(target=_open_at_barrier, args=(path, barrier, results))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        recovered = [results.get(timeout=30) for _ in workers]
        for worker in workers:
            worker.join(timeout=30)
        assert recovered == [False, False], trial
        assert not Path(str(path) + ".corrupt").exists(), trial
