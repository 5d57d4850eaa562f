"""Backend portfolio: race several solvers, keep the first verdict.

The paper's search only ever asks a *decision* question — "does a design
exist in this latency window?" — so any backend that answers first
answers correctly: a feasible design is a certificate whoever finds it,
and a proven ``INFEASIBLE`` is a proof whoever derives it.  Racing the
scipy/HiGHS engine against the from-scratch branch & bound (and
optionally the CP backtracker) therefore changes only *when* the answer
arrives, never *whether* it is right.

Implementation notes
--------------------
* One worker thread per backend via :mod:`concurrent.futures`; the GIL
  is released inside scipy's HiGHS calls, so the race genuinely overlaps.
* Cancellation is cooperative: the winner sets a :class:`threading.Event`
  that the branch & bound (``BnbOptions.should_stop``) and the CP solver
  poll in their node loops.  HiGHS cannot be interrupted mid-call; its
  thread is abandoned (``shutdown(wait=False)``) and expires on its own
  per-solve time limit.
* An attempt is *conclusive* when it carries a solution or a proven
  ``INFEASIBLE``/``UNBOUNDED`` verdict.  Timeouts and cancellations are
  inconclusive; the race keeps waiting for the remaining backends.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.ilp.status import SolveStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.solution import PartitionedDesign

__all__ = ["SolveAttempt", "race_backends"]


@dataclass(frozen=True)
class SolveAttempt:
    """Outcome of one backend's try at a window solve."""

    backend: str
    status: SolveStatus
    design: "PartitionedDesign | None"
    wall_time: float
    iterations: int = 0
    error: str | None = None

    @property
    def conclusive(self) -> bool:
        """A verdict the search can act on without consulting anyone else."""
        if self.design is not None:
            return True
        return self.status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED)


#: A backend runner: receives the shared cancellation event, returns its
#: attempt.  Runners must be thread-safe with respect to each other.
AttemptFn = Callable[[threading.Event], SolveAttempt]


def race_backends(
    attempts: Sequence[tuple[str, AttemptFn]],
    grace: float = 0.05,
    tracer=None,
    parent=None,
    metrics=None,
) -> tuple[SolveAttempt | None, list[SolveAttempt]]:
    """Run every attempt concurrently; return the first conclusive one.

    Parameters
    ----------
    attempts:
        ``(backend name, runner)`` pairs.  A single pair short-circuits to
        an inline call (no thread overhead) — sequential mode is just a
        one-entry portfolio.
    grace:
        After a winner emerges, how long to wait for already-finished
        futures when collecting loser statistics.
    tracer:
        Optional :class:`repro.obs.Tracer`.  Each attempt runs inside an
        ``attempt:<backend>`` span.  Worker threads cannot see the
        caller's thread-local span stack, so the parent is captured here
        (``parent`` or the caller's current span) and attached
        explicitly — the spans nest under the window solve in the tree
        even though they ran on other threads.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` recording per-backend
        attempt counts, win/cancellation counts and solve-duration
        histograms.  Worker threads only call the registry's (locked)
        methods — no shared state is assigned — so the portfolio's
        race-freedom rules hold.

    Returns
    -------
    ``(winner, completed)`` where ``winner`` is the first conclusive
    attempt (or ``None`` if every backend finished inconclusively) and
    ``completed`` lists every attempt that finished before the race was
    abandoned — used for per-backend telemetry.
    """
    if tracer is None:
        from repro.obs.tracer import NULL_TRACER

        tracer = NULL_TRACER
    if metrics is None:
        from repro.obs.metrics import NULL_METRICS

        metrics = NULL_METRICS
    if parent is None:
        parent = tracer.current_span()

    m_attempts = metrics.counter(
        "repro_backend_attempts_total",
        "Backend attempts started in portfolio races.",
        ("backend",),
    )
    m_seconds = metrics.histogram(
        "repro_backend_solve_seconds",
        "Wall time of one backend attempt (winners and losers alike).",
        ("backend",),
    )

    def run(name: str, fn: AttemptFn, cancel: threading.Event) -> SolveAttempt:
        with tracer.span(f"attempt:{name}", parent=parent, backend=name) as sp:
            attempt = _run_guarded(name, fn, cancel)
            m_attempts.labels(name).inc()
            m_seconds.labels(name).observe(attempt.wall_time)
            sp.annotate(
                status=attempt.status.value,
                iterations=attempt.iterations,
                conclusive=attempt.conclusive,
            )
            if attempt.error:
                sp.annotate(error=attempt.error)
        return attempt

    cancel = threading.Event()
    if len(attempts) == 1:
        name, fn = attempts[0]
        attempt = run(name, fn, cancel)
        winner = attempt if attempt.conclusive else None
        _tally_race(metrics, winner, [attempt])
        return winner, [attempt]

    completed: list[SolveAttempt] = []
    winner: SolveAttempt | None = None
    pool = ThreadPoolExecutor(
        max_workers=len(attempts), thread_name_prefix="solve-portfolio"
    )
    try:
        pending = {
            pool.submit(run, name, fn, cancel): name
            for name, fn in attempts
        }
        while pending:
            done, not_done = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                pending.pop(future)
                attempt = future.result()
                completed.append(attempt)
                if winner is None and attempt.conclusive:
                    winner = attempt
            if winner is not None:
                # Tell cooperative backends to stop, then give the
                # near-finished stragglers a moment to land in telemetry.
                cancel.set()
                if not_done:
                    done, _ = wait(not_done, timeout=grace)
                    for future in done:
                        pending.pop(future, None)
                        completed.append(future.result())
                break
    finally:
        cancel.set()
        pool.shutdown(wait=False, cancel_futures=True)
    _tally_race(metrics, winner, completed)
    return winner, completed


def _tally_race(metrics, winner, completed) -> None:
    """Per-backend win/cancellation counters, recorded on the caller's
    thread once the race is decided (losers reporting a budget status
    after a winner emerged were cancelled, not slow)."""
    m_wins = metrics.counter(
        "repro_backend_wins_total",
        "Races decided by this backend's conclusive verdict.",
        ("backend",),
    )
    m_cancellations = metrics.counter(
        "repro_backend_cancellations_total",
        "Attempts cancelled because another backend answered first.",
        ("backend",),
    )
    if winner is None:
        return
    m_wins.labels(winner.backend).inc()
    for attempt in completed:
        if attempt is not winner and attempt.status in (
            SolveStatus.TIME_LIMIT,
            SolveStatus.NODE_LIMIT,
        ):
            m_cancellations.labels(attempt.backend).inc()


def _run_guarded(
    name: str, fn: AttemptFn, cancel: threading.Event
) -> SolveAttempt:
    """Run one backend, converting exceptions into ERROR attempts.

    A crashing backend must not take the portfolio down: the other
    backends can still answer, and the executor degrades gracefully if
    none do.
    """
    start = time.perf_counter()
    try:
        return fn(cancel)
    except Exception as exc:  # noqa: BLE001 - deliberate containment
        return SolveAttempt(
            backend=name,
            status=SolveStatus.ERROR,
            design=None,
            wall_time=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
