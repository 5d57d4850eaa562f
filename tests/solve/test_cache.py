"""Solve cache: exact replays and window-monotone verdict reuse."""

from repro.obs import MetricsRegistry
from repro.solve import ModelFingerprint, SolveCache


def make_fp(base="m", n=3, d_min=100.0, d_max=500.0):
    return ModelFingerprint(base, n, d_min, d_max)


class FakeDesign:
    """Stand-in certificate; the cache never inspects designs."""


class TestExactReplay:
    def test_same_window_hits_exactly(self):
        cache = SolveCache()
        fp = make_fp()
        design = FakeDesign()
        cache.store_feasible(fp, design, achieved=321.0, backend="highs")
        hit = cache.lookup(make_fp())
        assert hit is not None and hit.rule == "exact"
        assert hit.verdict.design is design
        assert hit.verdict.achieved == 321.0

    def test_perturbed_base_misses(self):
        registry = MetricsRegistry()
        cache = SolveCache(metrics=registry)
        cache.store_feasible(make_fp(base="m"), FakeDesign(), 321.0)
        assert cache.lookup(make_fp(base="other")) is None
        snapshot = registry.snapshot()
        assert snapshot.value("repro_solve_cache_misses_total", "memory") == 1

    def test_infeasible_exact_replay(self):
        cache = SolveCache()
        cache.store_infeasible(make_fp(), backend="bnb")
        hit = cache.lookup(make_fp())
        assert hit is not None
        assert hit.rule == "exact"
        assert not hit.verdict.feasible


class TestFeasibleMonotonicity:
    def test_design_inside_wider_window_hits(self):
        cache = SolveCache()
        cache.store_feasible(
            make_fp(d_min=100.0, d_max=500.0), FakeDesign(), achieved=321.0
        )
        # Different (wider) window, but the certificate's latency fits.
        hit = cache.lookup(make_fp(d_min=50.0, d_max=900.0))
        assert hit is not None and hit.rule == "feasible"
        assert hit.verdict.achieved == 321.0

    def test_design_outside_query_window_misses(self):
        cache = SolveCache()
        cache.store_feasible(
            make_fp(d_min=100.0, d_max=500.0), FakeDesign(), achieved=321.0
        )
        # Narrower window excluding the certificate: must re-solve.
        assert cache.lookup(make_fp(d_min=100.0, d_max=300.0)) is None


class TestInfeasibleMonotonicity:
    def test_subwindow_of_proven_empty_window_hits(self):
        cache = SolveCache()
        cache.store_infeasible(make_fp(d_min=100.0, d_max=500.0))
        hit = cache.lookup(make_fp(d_min=200.0, d_max=400.0))
        assert hit is not None and hit.rule == "infeasible"
        assert not hit.verdict.feasible

    def test_superwindow_does_not_hit(self):
        cache = SolveCache()
        cache.store_infeasible(make_fp(d_min=100.0, d_max=500.0))
        # A wider window might contain a design: no verdict carries over.
        assert cache.lookup(make_fp(d_min=50.0, d_max=900.0)) is None


class TestBookkeeping:
    def test_hit_rate_and_len(self):
        registry = MetricsRegistry()
        cache = SolveCache(metrics=registry)
        fp = make_fp()
        assert cache.lookup(fp) is None
        cache.store_feasible(fp, FakeDesign(), 321.0)
        assert cache.lookup(fp) is not None
        assert len(cache) == 1
        snapshot = registry.snapshot()
        assert snapshot.value("repro_solve_cache_hits_total", "memory", "exact") == 1
        assert snapshot.value("repro_solve_cache_misses_total", "memory") == 1

    def test_duplicate_store_is_deduped(self):
        cache = SolveCache()
        fp = make_fp()
        cache.store_feasible(fp, FakeDesign(), 321.0)
        cache.store_feasible(fp, FakeDesign(), 321.0)
        assert len(cache) == 1

    def test_clear(self):
        cache = SolveCache()
        cache.store_feasible(make_fp(), FakeDesign(), 321.0)
        cache.lookup(make_fp())
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup(make_fp()) is None
