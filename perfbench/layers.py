"""Per-layer accounting for the benchmark, computed from outside ``src/``.

Three sources feed the per-layer table:

* trace events from a :class:`repro.obs.Tracer` with a
  :class:`repro.obs.MemorySink` (in-process workloads only: spans never
  cross the service's process boundary);
* :class:`repro.obs.MetricsSnapshot` counters and histograms, which the
  service merges home from every shard worker;
* :class:`TimedCache`, a :class:`repro.solve.cache.SolveCacheProtocol`
  wrapper that times the memory cache, which has no span of its own.

The race accounting does not use :class:`repro.obs.PhaseProfile`: its
exclusive column subtracts the *sum* of a span's children, so the
parallel ``attempt:*`` spans of one window are counted twice and the
window's own self time clamps to zero.  Here a window's race wall time is
the *union* of its attempt intervals, and per-backend busy time is
reported separately, as thread-seconds.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

#: Metric families the executor, portfolio, caches and service count
#: into (see docs/observability.md, "What the pipeline counts").
TEMPLATE_BUILDS = "repro_template_builds_total"
PRIMAL_HITS = "repro_primal_hits_total"
INCUMBENT_REUSES = "repro_incumbent_reuses_total"
BACKEND_ATTEMPTS = "repro_backend_attempts_total"
BACKEND_WINS = "repro_backend_wins_total"
BACKEND_TIMEOUTS = "repro_backend_timeouts_total"
BACKEND_SECONDS = "repro_backend_solve_seconds"
WINDOW_SECONDS = "repro_window_solve_seconds"
CACHE_HITS = "repro_solve_cache_hits_total"
CACHE_MISSES = "repro_solve_cache_misses_total"
QUEUE_WAIT = "repro_service_queue_wait_seconds"

BACKENDS = ("highs", "bnb")


# -- intervals and spans ----------------------------------------------------


def union_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals.

    Overlapping stretches count once, so two backends racing side by side
    for one second add one second, not two.
    """
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


@dataclass
class SpanRecord:
    """One completed span, rebuilt from its ``span_end`` event."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    attrs: dict
    children: list["SpanRecord"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = union_length(
            (max(c.start, self.start), min(c.end, self.end))
            for c in self.children
            if c.end > self.start and c.start < self.end
        )
        return self.duration - covered


class SpanIndex:
    """Completed spans of one trace, by name, with children attached."""

    def __init__(self, events) -> None:
        self.spans: list[SpanRecord] = []
        by_id: dict[int, SpanRecord] = {}
        for event in events:
            if event.get("type") != "span_end":
                continue
            start = float(event["t_start"])
            span = SpanRecord(
                span_id=int(event["span_id"]),
                parent_id=event.get("parent_id"),
                name=str(event["name"]),
                start=start,
                end=start + float(event["dur"]),
                attrs=dict(event.get("attrs", {})),
            )
            by_id[span.span_id] = span
            self.spans.append(span)
        for span in self.spans:
            parent = by_id.get(span.parent_id)
            if parent is not None:
                parent.children.append(span)
        self.events = [e for e in events if e.get("type") == "event"]

    def named(self, name: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def seconds(self, name: str) -> float:
        """Inclusive seconds of every span called ``name``."""
        return sum(s.duration for s in self.named(name))

    def self_seconds(self, *names: str) -> float:
        return sum(s.self_seconds for s in self.spans if s.name in names)

    def count_events(self, name: str) -> int:
        return sum(1 for e in self.events if e.get("name") == name)


@dataclass
class RaceAccount:
    """Wall time and thread time of the backend races of a trace."""

    #: Sum over windows of the union of that window's attempt intervals.
    race_wall_s: float = 0.0
    #: Thread-seconds of attempts that lost a race some backend won.
    loser_busy_s: float = 0.0


def race_account(index: SpanIndex) -> RaceAccount:
    """Each window's race as wall time and wasted thread time.

    Per-backend busy time (thread-seconds) comes from the
    ``repro_backend_solve_seconds`` histogram, which also crosses the
    service's process boundary (see :func:`registry_layers`).
    """
    account = RaceAccount()
    for window in index.named("solve_window"):
        attempts = [
            c for c in window.children if c.name.startswith("attempt:")
        ]
        if not attempts:
            continue
        account.race_wall_s += union_length(
            (a.start, a.end) for a in attempts
        )
        winner = window.attrs.get("backend")
        if any(a.attrs.get("backend") == winner for a in attempts):
            account.loser_busy_s += sum(
                a.duration
                for a in attempts
                if a.attrs.get("backend") != winner
            )
    return account


# -- metric snapshots ---------------------------------------------------------


def tally(snapshot) -> dict[tuple[str, tuple], float]:
    """Flatten a metrics snapshot into ``{(name, labels): value}``.

    Histograms become two entries, ``<name>_sum`` and ``<name>_count``,
    so two tallies subtract entry by entry (see :func:`since`).
    """
    flat: dict[tuple[str, tuple], float] = {}
    for name in snapshot.names():
        family = snapshot.family(name)
        labelnames = tuple(family["labelnames"])
        for key, sample in family["samples"].items():
            labels = tuple(zip(labelnames, key))
            if family["kind"] == "histogram":
                _counts, seconds, count = sample
                flat[(f"{name}_sum", labels)] = float(seconds)
                flat[(f"{name}_count", labels)] = float(count)
            else:
                flat[(name, labels)] = float(sample)
    return flat


def since(after: dict, before: dict) -> dict:
    """What was counted between two tallies of one registry."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def total(flat: dict, name: str, **labels: str) -> float:
    """Sum of ``name`` over every label set matching ``labels``."""
    out = 0.0
    for (metric, pairs), value in flat.items():
        if metric != name:
            continue
        present = dict(pairs)
        if all(present.get(k) == v for k, v in labels.items()):
            out += value
    return out


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def registry_layers(flat: dict) -> dict[str, float]:
    """The per-layer metrics every workload reads from its counters."""
    memory_lookups = total(flat, CACHE_HITS, tier="memory") + total(
        flat, CACHE_MISSES, tier="memory"
    )
    disk_hits = total(flat, CACHE_HITS, tier="disk")
    disk_lookups = disk_hits + total(flat, CACHE_MISSES, tier="disk")
    layers = {
        "formulation.template_builds": total(flat, TEMPLATE_BUILDS),
        "solve.cache_lookups": memory_lookups,
        "solve.cache_hit_frac": ratio(
            total(flat, CACHE_HITS), memory_lookups
        ),
        "solve.incumbent_reuses": total(flat, INCUMBENT_REUSES),
        "solve.timeouts": total(flat, BACKEND_TIMEOUTS),
        "disk.hits": disk_hits,
        "disk.hit_frac": ratio(disk_hits, disk_lookups),
    }
    for backend in BACKENDS:
        layers[f"ilp.{backend}.busy_s"] = total(
            flat, f"{BACKEND_SECONDS}_sum", backend=backend
        )
        layers[f"ilp.{backend}.win_frac"] = ratio(
            total(flat, BACKEND_WINS, backend=backend),
            total(flat, BACKEND_ATTEMPTS, backend=backend),
        )
    return layers


def span_layers(index: SpanIndex, flat: dict) -> dict[str, float]:
    """The per-layer metrics only an in-process trace can give."""
    race = race_account(index)
    # Windows that entered the primal stage: the packing-bound exit
    # answers before the ``primal_probe`` span opens.
    probes = len(index.named("primal_probe")) + index.count_events(
        "packing_bound_refutes_window"
    )
    return {
        "core.bounds_s": index.self_seconds("lp_bound", "packing_bound"),
        "formulation.template_build_s": index.seconds("template_build"),
        "formulation.instantiate_s": index.seconds("template_instantiate"),
        "solve.primal_probes": probes,
        "solve.primal_hit_frac": ratio(total(flat, PRIMAL_HITS), probes),
        "solve.primal_probe_s": index.seconds("primal_probe"),
        "solve.incumbent_check_s": index.seconds("incumbent_check"),
        "solve.race_wall_s": race.race_wall_s,
        "solve.fallback_s": index.seconds("heuristic_fallback"),
        "ilp.loser_busy_s": race.loser_busy_s,
    }


# -- outside-in timing --------------------------------------------------------


class TimedCache:
    """A :class:`repro.solve.cache.SolveCacheProtocol` that times its inner
    cache.

    Hand it to ``SolveExecutor(settings, cache=TimedCache(...))``: the
    executor calls the cache only from the thread that runs the window,
    never from the portfolio's racing threads, so plain attributes
    suffice.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.seconds = 0.0

    def lookup(self, fp, graph=None):
        start = time.perf_counter()
        try:
            return self.inner.lookup(fp, graph)
        finally:
            self.seconds += time.perf_counter() - start

    def store_feasible(self, fp, design, achieved, backend: str = "") -> None:
        start = time.perf_counter()
        try:
            self.inner.store_feasible(fp, design, achieved, backend=backend)
        finally:
            self.seconds += time.perf_counter() - start

    def store_infeasible(self, fp, backend: str = "") -> None:
        start = time.perf_counter()
        try:
            self.inner.store_infeasible(fp, backend=backend)
        finally:
            self.seconds += time.perf_counter() - start


# -- distributions ------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values, beyond: int = 10) -> float:
    """The highest percentile with at least ``beyond`` samples above it.

    That is the value with exactly ``beyond`` samples ranked higher.  With
    too few samples for such a percentile to lie above the median, the
    median is returned.
    """
    ordered = sorted(values)
    rank = len(ordered) - beyond - 1
    if rank <= (len(ordered) - 1) // 2:
        return median(ordered)
    return ordered[rank]
