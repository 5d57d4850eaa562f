"""Solver execution layer: backend dispatch, memoization, telemetry.

This package sits between the search algorithms of :mod:`repro.core` and
the solver backends of :mod:`repro.ilp`.  The search asks *decision*
questions ("is there a design in this latency window?"); this layer
decides *how* each question is answered:

* :mod:`repro.solve.executor` — the :class:`SolveExecutor` entry point:
  cache lookup, deadline policy, one inline backend attempt per window,
  greedy fallback;
* :mod:`repro.solve.cache` — window-monotonic solve memoization (and
  the :class:`TieredSolveCache` putting in-process memory in front of
  shared disk);
* :mod:`repro.solve.disk_cache` — the persistent SQLite verdict store
  shared across processes and runs (``SolverSettings(cache_path=...)``);
* :mod:`repro.solve.fingerprint` — canonical model fingerprints;
* :mod:`repro.solve.telemetry` — machine-readable run metrics.

See ``docs/solving.md`` for the full design.
"""

from repro.solve.cache import (
    CachedVerdict,
    CacheHit,
    SolveCache,
    SolveCacheProtocol,
    TieredSolveCache,
)
from repro.solve.disk_cache import DiskSolveCache
from repro.solve.executor import KNOWN_BACKENDS, SolveExecutor, WindowOutcome
from repro.solve.fingerprint import (
    ModelFingerprint,
    fingerprint_compiled,
    fingerprint_ilp,
    fingerprint_model,
)
from repro.solve.telemetry import RunTelemetry, SolveStats

__all__ = [
    "CacheHit",
    "CachedVerdict",
    "DiskSolveCache",
    "KNOWN_BACKENDS",
    "ModelFingerprint",
    "RunTelemetry",
    "SolveCache",
    "SolveCacheProtocol",
    "SolveExecutor",
    "SolveStats",
    "TieredSolveCache",
    "WindowOutcome",
    "fingerprint_compiled",
    "fingerprint_ilp",
    "fingerprint_model",
]
