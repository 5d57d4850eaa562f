"""Solve memoization with window-monotonic verdict reuse.

The binary-subdivision search re-solves near-identical ILPs: the same
constraint system under a sliding latency window, and whole windows are
revisited verbatim when an experiment (or a replayed run) repeats a
query.  The cache keys entries by the *windowless* model digest of
:mod:`repro.solve.fingerprint` and stores per-window verdicts, serving
three kinds of hits:

``exact``
    The same window was solved before — replay the stored verdict
    (design or proven infeasibility).  Trajectory-preserving: the search
    behaves exactly as if the solver had run again.
``feasible (monotone)``
    A cached design's total latency ``L`` lies inside the queried window
    ``[lo, hi]``.  A design feasible at window ``[a, b]`` is feasible for
    any window containing its latency — in particular any *wider*
    window — so the design itself is a certificate and is returned
    without solving.
``infeasible (monotone)``
    A previously *proven* empty window contains the queried window.
    Infeasibility of ``[a, b]`` implies infeasibility of every
    ``[lo, hi] ⊆ [a, b]``.  Only verdicts with status ``INFEASIBLE`` are
    stored this way: a time-limited solve that found nothing proves
    nothing and is never cached.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.obs.metrics import as_metrics
from repro.solve.fingerprint import ModelFingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.solution import PartitionedDesign
    from repro.taskgraph.graph import TaskGraph

__all__ = [
    "CachedVerdict",
    "CacheHit",
    "SolveCache",
    "SolveCacheProtocol",
    "TieredSolveCache",
]

#: Tolerance for window comparisons (floats produced by bisection).
_EPS = 1e-9


@dataclass(frozen=True)
class CachedVerdict:
    """One stored window verdict.

    ``feasible`` entries carry the certificate design and its total
    latency; ``infeasible`` entries carry only the proven-empty window.
    """

    d_min: float
    d_max: float
    feasible: bool
    achieved: float | None = None
    design: "PartitionedDesign | None" = None
    backend: str = ""


@dataclass(frozen=True)
class CacheHit:
    """Lookup result: the verdict, which rule matched, and which tier."""

    verdict: CachedVerdict
    rule: str  # "exact", "feasible", or "infeasible"
    #: Which cache layer answered: ``"memory"`` for the in-process
    #: :class:`SolveCache`, ``"disk"`` for the persistent
    #: :class:`repro.solve.disk_cache.DiskSolveCache`.
    tier: str = "memory"


@runtime_checkable
class SolveCacheProtocol(Protocol):
    """What the :class:`repro.solve.executor.SolveExecutor` needs from a
    solve cache.

    Three implementations exist: the in-process :class:`SolveCache`, the
    persistent :class:`repro.solve.disk_cache.DiskSolveCache`, and the
    :class:`TieredSolveCache` composing the two.  ``lookup`` takes the
    query's :class:`~repro.taskgraph.graph.TaskGraph` so tiers that store
    designs as plain assignments (the disk tier) can decode them back
    into :class:`~repro.core.solution.PartitionedDesign` certificates;
    the in-memory tier ignores it.
    """

    def lookup(
        self, fp: ModelFingerprint, graph: "TaskGraph | None" = None
    ) -> CacheHit | None:
        ...  # pragma: no cover - protocol

    def store_feasible(
        self,
        fp: ModelFingerprint,
        design: "PartitionedDesign",
        achieved: float,
        backend: str = "",
    ) -> None:
        ...  # pragma: no cover - protocol

    def store_infeasible(
        self, fp: ModelFingerprint, backend: str = ""
    ) -> None:
        ...  # pragma: no cover - protocol


@dataclass
class SolveCache:
    """Window-verdict memoization shared across a search run (or runs).

    Thread-safe; backends never touch the cache directly (the executor
    looks up before dispatch and stores after), but a shared cache may
    serve several searches.
    """

    _entries: dict[str, list[CachedVerdict]] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    #: Optional :class:`repro.obs.MetricsRegistry`; lookups are counted
    #: as ``repro_solve_cache_{hits,misses}_total{tier="memory"}``.
    metrics: object = None

    def __post_init__(self) -> None:
        registry = as_metrics(self.metrics)
        self._m_hits = registry.counter(
            "repro_solve_cache_hits_total",
            "Solve-cache lookups answered, by tier and matching rule.",
            ("tier", "rule"),
        )
        self._m_misses = registry.counter(
            "repro_solve_cache_misses_total",
            "Solve-cache lookups nobody answered, by tier.",
            ("tier",),
        )

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._entries.values())

    # -- lookup -------------------------------------------------------------

    def lookup(
        self, fp: ModelFingerprint, graph: "TaskGraph | None" = None
    ) -> CacheHit | None:
        """Return a stored verdict valid for ``fp``'s window, or ``None``.

        ``graph`` is part of the :class:`SolveCacheProtocol` signature
        (the disk tier needs it to decode stored assignments); the
        in-memory cache holds live designs and ignores it.
        """
        lo, hi = fp.d_min, fp.d_max
        with self._lock:
            records = self._entries.get(fp.base, ())
            exact = None
            feasible = None
            infeasible = None
            for record in records:
                same_window = (
                    abs(record.d_min - lo) <= _EPS
                    and abs(record.d_max - hi) <= _EPS
                )
                if same_window and exact is None:
                    exact = record
                if (
                    record.feasible
                    and record.achieved is not None
                    and lo - _EPS <= record.achieved <= hi + _EPS
                    and feasible is None
                ):
                    feasible = record
                if (
                    not record.feasible
                    and record.d_min <= lo + _EPS
                    and hi <= record.d_max + _EPS
                    and infeasible is None
                ):
                    infeasible = record
            # Exact replays win (they preserve the search trajectory
            # bit-for-bit); then certificates, then emptiness proofs.
            if exact is not None:
                hit = CacheHit(exact, "exact")
            elif feasible is not None:
                hit = CacheHit(feasible, "feasible")
            elif infeasible is not None:
                hit = CacheHit(infeasible, "infeasible")
            else:
                self._m_misses.labels("memory").inc()
                return None
            self._m_hits.labels("memory", hit.rule).inc()
            return hit

    # -- store --------------------------------------------------------------

    def store_feasible(
        self,
        fp: ModelFingerprint,
        design: "PartitionedDesign",
        achieved: float,
        backend: str = "",
    ) -> None:
        """Record a feasibility certificate for ``fp``'s window."""
        self._store(
            fp,
            CachedVerdict(
                d_min=fp.d_min,
                d_max=fp.d_max,
                feasible=True,
                achieved=float(achieved),
                design=design,
                backend=backend,
            ),
        )

    def store_infeasible(self, fp: ModelFingerprint, backend: str = "") -> None:
        """Record a *proven* emptiness verdict for ``fp``'s window.

        Callers must only pass windows whose solve ended with status
        ``INFEASIBLE`` — never a timeout treated as infeasible by the
        search's pragmatic convention.
        """
        self._store(
            fp,
            CachedVerdict(
                d_min=fp.d_min,
                d_max=fp.d_max,
                feasible=False,
                backend=backend,
            ),
        )

    def insert(self, base: str, record: CachedVerdict) -> None:
        """Adopt a verdict produced elsewhere (tier promotion).

        Used by :class:`TieredSolveCache` to pull disk hits into memory
        so repeated queries in the same process never touch SQLite again.
        """
        fp = ModelFingerprint(
            base=base, num_partitions=0,
            d_min=record.d_min, d_max=record.d_max,
        )
        self._store(fp, record)

    def _store(self, fp: ModelFingerprint, record: CachedVerdict) -> None:
        with self._lock:
            bucket = self._entries.setdefault(fp.base, [])
            for existing in bucket:
                if (
                    existing.feasible == record.feasible
                    and abs(existing.d_min - record.d_min) <= _EPS
                    and abs(existing.d_max - record.d_max) <= _EPS
                ):
                    return  # duplicate verdict
            bucket.append(record)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class TieredSolveCache:
    """Two-level solve cache: in-process memory in front of shared disk.

    Lookups consult the memory tier first (no I/O on the hot path); disk
    hits are promoted into memory so each verdict is decoded at most once
    per process.  Stores write through to both tiers, which is how one
    worker's verdict becomes visible to the whole fleet: the memory tier
    dies with the process, the disk tier (``DiskSolveCache``) is the
    durable, cross-process store.
    """

    def __init__(self, memory: SolveCache, disk) -> None:
        self.memory = memory
        self.disk = disk

    def __len__(self) -> int:
        return len(self.memory)

    def lookup(
        self, fp: ModelFingerprint, graph: "TaskGraph | None" = None
    ) -> CacheHit | None:
        hit = self.memory.lookup(fp, graph)
        if hit is not None:
            return hit
        hit = self.disk.lookup(fp, graph)
        if hit is not None:
            self.memory.insert(fp.base, hit.verdict)
        return hit

    def store_feasible(
        self,
        fp: ModelFingerprint,
        design: "PartitionedDesign",
        achieved: float,
        backend: str = "",
    ) -> None:
        self.memory.store_feasible(fp, design, achieved, backend=backend)
        self.disk.store_feasible(fp, design, achieved, backend=backend)

    def store_infeasible(self, fp: ModelFingerprint, backend: str = "") -> None:
        self.memory.store_infeasible(fp, backend=backend)
        self.disk.store_infeasible(fp, backend=backend)

    def clear(self) -> None:
        self.memory.clear()
        self.disk.clear()
