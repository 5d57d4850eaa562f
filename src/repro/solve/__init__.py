"""Solver execution layer: backend dispatch, memoization, telemetry.

This package sits between the search algorithms of :mod:`repro.core` and
the solver backends of :mod:`repro.ilp`.  The search asks *decision*
questions ("is there a design in this latency window?"); this layer
decides *how* each question is answered:

* :mod:`repro.solve.executor` — the :class:`SolveExecutor` entry point:
  cache lookup, deadline policy, one inline backend attempt per window,
  greedy fallback;
* :mod:`repro.solve.cache` — window-monotonic solve memoization: the
  one reuse rule and :class:`SolveCache`, whose in-process records sit
  in front of an optional disk store;
* :mod:`repro.solve.disk_cache` — that store, the persistent SQLite
  verdict file shared across processes and runs
  (``SolverSettings(cache_path=...)``);
* :mod:`repro.solve.fingerprint` — canonical model fingerprints;
* :mod:`repro.solve.telemetry` — machine-readable run metrics.

See ``docs/solving.md`` for the full design.
"""

from repro.solve.cache import CachedVerdict, CacheHit, SolveCache
from repro.solve.disk_cache import DiskSolveCache
from repro.solve.executor import KNOWN_BACKENDS, SolveExecutor, WindowOutcome
from repro.solve.fingerprint import (
    ModelFingerprint,
    fingerprint_compiled,
    fingerprint_ilp,
    fingerprint_model,
)
from repro.solve.telemetry import RunTelemetry

__all__ = [
    "CacheHit",
    "CachedVerdict",
    "DiskSolveCache",
    "KNOWN_BACKENDS",
    "ModelFingerprint",
    "RunTelemetry",
    "SolveCache",
    "SolveExecutor",
    "WindowOutcome",
    "fingerprint_compiled",
    "fingerprint_ilp",
    "fingerprint_model",
]
