"""Solve memoization with window-monotonic verdict reuse.

The binary-subdivision search re-solves near-identical ILPs: the same
constraint system under a sliding latency window, and whole windows are
revisited verbatim when an experiment (or a replayed run) repeats a
query.  The cache keys entries by the *windowless* model digest of
:mod:`repro.solve.fingerprint` and stores per-window verdicts, serving
three kinds of hits, in this order of precedence:

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

:func:`_rank` is the one place these rules are written; the memory tier
of :class:`SolveCache` and the optional persistent store
(:class:`repro.solve.disk_cache.DiskSolveCache`) both call it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.obs.metrics import as_metrics
from repro.solve.fingerprint import ModelFingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.solution import PartitionedDesign
    from repro.solve.disk_cache import DiskSolveCache
    from repro.taskgraph.graph import TaskGraph

__all__ = ["CachedVerdict", "CacheHit", "SolveCache", "window_holds"]

#: Tolerance for window comparisons (floats produced by bisection).
_EPS = 1e-9


def _same_window(
    a_min: float, a_max: float, b_min: float, b_max: float
) -> bool:
    return abs(a_min - b_min) <= _EPS and abs(a_max - b_max) <= _EPS


def window_holds(lo: float, hi: float, achieved: float) -> bool:
    """A design of latency ``achieved`` certifies the window ``[lo, hi]``."""
    return lo - _EPS <= achieved <= hi + _EPS


def _rank(
    lo: float,
    hi: float,
    candidates: Iterable[tuple],
) -> list[tuple[str, object]]:
    """The stored verdicts that answer the query window ``[lo, hi]``.

    ``candidates`` yields ``(d_min, d_max, feasible, achieved, item)``
    for each stored verdict, in storage order.  Returns ``(rule, item)``
    for the first candidate matching each rule, in precedence order:
    ``exact`` replays (they preserve the search trajectory bit-for-bit),
    then ``feasible`` certificates, then ``infeasible`` proofs.
    """
    exact = feasible = infeasible = None
    for d_min, d_max, is_feasible, achieved, item in candidates:
        if exact is None and _same_window(d_min, d_max, lo, hi):
            exact = ("exact", item)
        if is_feasible:
            if (
                feasible is None
                and achieved is not None
                and window_holds(lo, hi, achieved)
            ):
                feasible = ("feasible", item)
        elif (
            infeasible is None
            and d_min <= lo + _EPS
            and hi <= d_max + _EPS
        ):
            infeasible = ("infeasible", item)
    return [m for m in (exact, feasible, infeasible) if m is not None]


@dataclass(frozen=True)
class CachedVerdict:
    """One stored window verdict.

    ``feasible`` entries carry the certificate design and its total
    latency, and the dual ``bound`` of the gap-limited solve that found
    it (``None`` for any other solve); ``infeasible`` entries carry only
    the proven-empty window.
    """

    d_min: float
    d_max: float
    feasible: bool
    achieved: float | None = None
    design: "PartitionedDesign | None" = None
    backend: str = ""
    bound: float | None = None


@dataclass(frozen=True)
class CacheHit:
    """Lookup result: the verdict, which rule matched, and which tier."""

    verdict: CachedVerdict
    rule: str  # "exact", "feasible", or "infeasible"
    #: Which cache layer answered: ``"memory"`` for the in-process
    #: records of :class:`SolveCache`, ``"disk"`` for the persistent
    #: :class:`repro.solve.disk_cache.DiskSolveCache`.
    tier: str = "memory"

    @property
    def bound(self) -> float | None:
        """The stored dual bound, replayed by exact hits only.

        The bound speaks for the stored window; a monotone hit answers
        a different window, which it may not bound from below.
        """
        return self.verdict.bound if self.rule == "exact" else None


class SolveCache:
    """Window-verdict memoization shared across a search run (or runs).

    The records live in process memory.  With a ``disk`` store
    (:class:`repro.solve.disk_cache.DiskSolveCache`) lookups that miss
    in memory consult the store, and its hits are promoted into memory
    so each verdict is decoded at most once per process; stores write
    through to both, which is how one worker's verdict becomes visible
    to the whole fleet.

    Thread-safe; backends never touch the cache directly (the executor
    looks up before dispatch and stores after), but a shared cache may
    serve several searches.  Lookups of both tiers are counted here, in
    ``metrics`` (a :class:`repro.obs.MetricsRegistry`), as
    ``repro_solve_cache_{hits,misses}_total{tier=...}``.
    """

    def __init__(
        self, disk: "DiskSolveCache | None" = None, metrics: object = None
    ) -> None:
        self.disk = disk
        self._entries: dict[str, list[CachedVerdict]] = {}
        self._lock = threading.Lock()
        registry = as_metrics(metrics)
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
        """Verdicts held in memory."""
        with self._lock:
            return sum(len(v) for v in self._entries.values())

    # -- lookup -------------------------------------------------------------

    def lookup(
        self, fp: ModelFingerprint, graph: "TaskGraph | None" = None
    ) -> CacheHit | None:
        """Return a stored verdict valid for ``fp``'s window, or ``None``.

        ``graph`` lets the disk store decode its stored assignments back
        into designs; the memory records hold live designs.
        """
        with self._lock:
            ranked = _rank(fp.d_min, fp.d_max, (
                (r.d_min, r.d_max, r.feasible, r.achieved, r)
                for r in self._entries.get(fp.base, ())
            ))
        if ranked:
            rule, verdict = ranked[0]
            self._m_hits.labels("memory", rule).inc()
            return CacheHit(verdict, rule)
        self._m_misses.labels("memory").inc()
        if self.disk is None:
            return None
        hit = self.disk.lookup(fp, graph)
        if hit is None:
            self._m_misses.labels("disk").inc()
            return None
        self._m_hits.labels("disk", hit.rule).inc()
        self._remember(fp.base, hit.verdict)
        return hit

    # -- store --------------------------------------------------------------

    def store_feasible(
        self,
        fp: ModelFingerprint,
        design: "PartitionedDesign",
        achieved: float,
        backend: str = "",
        bound: float | None = None,
    ) -> None:
        """Record a feasibility certificate for ``fp``'s window."""
        self._remember(fp.base, CachedVerdict(
            d_min=fp.d_min,
            d_max=fp.d_max,
            feasible=True,
            achieved=float(achieved),
            design=design,
            backend=backend,
            bound=bound,
        ))
        if self.disk is not None:
            self.disk.store_feasible(
                fp, design, achieved, backend=backend, bound=bound
            )

    def store_infeasible(self, fp: ModelFingerprint, backend: str = "") -> None:
        """Record a *proven* emptiness verdict for ``fp``'s window.

        Callers must only pass windows whose solve ended with status
        ``INFEASIBLE`` — never a timeout treated as infeasible by the
        search's pragmatic convention.
        """
        self._remember(fp.base, CachedVerdict(
            d_min=fp.d_min,
            d_max=fp.d_max,
            feasible=False,
            backend=backend,
        ))
        if self.disk is not None:
            self.disk.store_infeasible(fp, backend=backend)

    def _remember(self, base: str, record: CachedVerdict) -> None:
        with self._lock:
            bucket = self._entries.setdefault(base, [])
            for existing in bucket:
                if existing.feasible == record.feasible and _same_window(
                    existing.d_min, existing.d_max,
                    record.d_min, record.d_max,
                ):
                    return  # duplicate verdict
            bucket.append(record)

    def clear(self) -> None:
        """Forget the memory records; the disk store is left as it is."""
        with self._lock:
            self._entries.clear()
