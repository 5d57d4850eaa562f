"""Metrics: labeled counters, gauges and histograms with mergeable snapshots.

Where :mod:`repro.obs.tracer` answers "what happened during *this* run",
the metrics layer answers "what has happened *so far*": a
:class:`MetricsRegistry` hands out :class:`Counter` / :class:`Gauge` /
:class:`Histogram` families whose children are addressed by label
values, and a :class:`MetricsSnapshot` freezes the registry state into a
JSON-safe, order-independent value that merges commutatively — the
contract service workers rely on when they ship their snapshot back
to the parent process as their one run record.

The instrumented layers (:class:`repro.solve.executor.SolveExecutor`,
its backend attempts, both cache tiers and
:class:`repro.service.facade.PartitionService`) find their registry on
:class:`repro.core.reduce_latency.SolverSettings` exactly like the
tracer.  The executor always records — into a private registry when
none is configured — because :class:`repro.solve.telemetry.RunTelemetry`
is a view of its snapshot; the other layers talk to
:data:`NULL_METRICS` when given none, whose families are a single
shared no-op object.

Label conventions
-----------------
* Counter names end in ``_total``; histogram names describing durations
  end in ``_seconds``.
* Label values are low-cardinality enumerations (backend names, cache
  tiers, verdict statuses) — never fingerprints, paths or request ids.
* Gauges merge *additively* across snapshots: they are used for
  liveness-style quantities ("requests in flight") where summing
  per-process values is the correct aggregate.

Everything is thread-safe: one registry lock guards family creation and
every sample update, so worker threads may count concurrently.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullMetrics",
    "NULL_METRICS",
    "as_metrics",
    "DEFAULT_SECONDS_BUCKETS",
]

#: Fixed bucket upper bounds (seconds) shared by every duration
#: histogram in the pipeline — and by the percentile columns of
#: ``PhaseProfile.report``.  Spanning 1 ms to 1 min covers everything
#: from a cached window lookup to a full DCT bisection.
DEFAULT_SECONDS_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

_SNAPSHOT_SCHEMA_VERSION = 1


def _canon_labels(labelnames, args, kwargs) -> tuple[str, ...]:
    """Resolve positional/keyword label values to the family's order."""
    if kwargs:
        if args:
            raise ValueError(
                "pass label values positionally or by name, not both"
            )
        if set(kwargs) != set(labelnames):
            raise ValueError(
                f"expected labels {labelnames}, got {tuple(sorted(kwargs))}"
            )
        return tuple(str(kwargs[name]) for name in labelnames)
    values = tuple(str(v) for v in args)
    if len(values) != len(labelnames):
        raise ValueError(
            f"expected {len(labelnames)} label value(s) "
            f"for {labelnames}, got {len(values)}"
        )
    return values


class _CounterChild:
    """One labeled counter sample: a monotonically increasing float."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self.value += amount


class _GaugeChild:
    """One labeled gauge sample: a float that moves both ways."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class _HistogramChild:
    """One labeled histogram sample: fixed buckets + sum + count."""

    __slots__ = ("_lock", "bounds", "bucket_counts", "sum", "count")

    def __init__(self, lock: threading.Lock, bounds: tuple) -> None:
        self._lock = lock
        self.bounds = bounds
        # one slot per finite bound, plus the implicit +Inf overflow slot
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1


class _Family:
    """Common machinery: children addressed by label-value tuples."""

    kind = ""

    def __init__(self, name: str, help: str, labelnames, lock) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(str(n) for n in labelnames)
        self._lock = lock
        self._children: dict[tuple, object] = {}

    def labels(self, *args, **kwargs):
        """The child for these label values (created on first use)."""
        key = _canon_labels(self.labelnames, args, kwargs)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
        return child

    def _default(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled by {self.labelnames}; "
                "call .labels(...) first"
            )
        return self.labels()

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Family):
    """A family of monotonically increasing counters."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)


class Gauge(_Family):
    """A family of gauges (settable, inc/dec)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)


class Histogram(_Family):
    """A family of fixed-bucket histograms."""

    kind = "histogram"

    def __init__(self, name, help, labelnames, lock, buckets) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        super().__init__(name, help, labelnames, lock)
        self.bounds = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.bounds)

    def observe(self, value: float) -> None:
        self._default().observe(value)


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """Creates and owns metric families; snapshots and absorbs state.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same family, and asking with a
    conflicting kind, label set or bucket layout raises ``ValueError``
    (silent divergence would corrupt merges).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Family] = {}
        # Every snapshot absorbed so far, merged into one.
        self._absorbed = MetricsSnapshot.empty()

    # -- family creation ----------------------------------------------------

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames=(),
        buckets=DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, tuple(float(b) for b in buckets)
        )

    def _get_or_create(self, cls, name, help, labelnames, buckets=None):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is None:
                extra = () if buckets is None else (buckets,)
                family = cls(name, help, labelnames, self._lock, *extra)
                self._metrics[name] = family
                return family
        self._check(existing, cls.kind, labelnames)
        if getattr(existing, "bounds", None) != buckets:
            raise ValueError(
                f"metric {name!r} re-registered with different buckets"
            )
        return existing

    @staticmethod
    def _check(existing, kind, labelnames) -> None:
        if existing.kind != kind:
            raise ValueError(
                f"metric {existing.name!r} already registered as "
                f"{existing.kind}, not {kind}"
            )
        if existing.labelnames != tuple(str(n) for n in labelnames):
            raise ValueError(
                f"metric {existing.name!r} re-registered with different "
                f"labels: {existing.labelnames} vs {tuple(labelnames)}"
            )

    # -- snapshot / absorb --------------------------------------------------

    def snapshot(self) -> "MetricsSnapshot":
        """An immutable, mergeable copy of every sample."""
        families = {}
        with self._lock:
            absorbed = self._absorbed
            for name, family in self._metrics.items():
                samples = {}
                for key, child in family._children.items():
                    if family.kind == "histogram":
                        samples[key] = (
                            tuple(child.bucket_counts),
                            child.sum,
                            child.count,
                        )
                    else:
                        samples[key] = child.value
                families[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "labelnames": family.labelnames,
                    "buckets": getattr(family, "bounds", None),
                    "samples": samples,
                }
        return MetricsSnapshot(families).merge(absorbed)

    def absorb(self, snapshot: "MetricsSnapshot") -> None:
        """Fold a snapshot's samples into this registry (adds values).

        This is the cross-process aggregation path: the parent's
        long-lived registry absorbs each service worker's snapshot, so a
        scrape of the parent sees the whole fleet.  Samples are added by
        :meth:`MetricsSnapshot.merge`; a kind, label or bucket conflict
        raises ``ValueError`` before anything changes.
        """
        self.snapshot().merge(snapshot)  # a conflict raises here
        for name in snapshot.names():
            family = snapshot.family(name)
            self._get_or_create(
                _KINDS[family["kind"]], name, family["help"],
                family["labelnames"], family["buckets"],
            )
        with self._lock:
            self._absorbed = self._absorbed.merge(snapshot)


class MetricsSnapshot:
    """A frozen, order-independent view of a registry's samples.

    Internally ``{name: {kind, help, labelnames, buckets, samples}}``
    where ``samples`` maps label-value tuples to a float (counter/gauge)
    or a ``(bucket_counts, sum, count)`` triple (histogram).  Dict
    comparison ignores insertion order, so equality — and therefore the
    merge-commutativity property the service's absorb relies on — is
    structural.
    """

    __slots__ = ("_families",)

    def __init__(self, families: dict) -> None:
        self._families = families

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls({})

    # -- protocol -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return self._families == other._families

    def __bool__(self) -> bool:
        return bool(self._families)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsSnapshot({sorted(self._families)})"

    # -- accessors ----------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._families)

    def family(self, name: str) -> dict | None:
        return self._families.get(name)

    def value(self, name: str, *label_values) -> float:
        """One counter/gauge sample (0.0 when absent)."""
        family = self._families.get(name)
        if family is None or family["kind"] == "histogram":
            return 0.0
        key = tuple(str(v) for v in label_values)
        return float(family["samples"].get(key, 0.0))

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family across every label set."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        if family["kind"] == "histogram":
            return float(
                sum(count for _, _, count in family["samples"].values())
            )
        return float(sum(family["samples"].values()))

    def histogram_stats(self, name: str, *label_values) -> tuple[int, float]:
        """``(count, sum)`` for one histogram sample (0 when absent)."""
        family = self._families.get(name)
        if family is None or family["kind"] != "histogram":
            return (0, 0.0)
        key = tuple(str(v) for v in label_values)
        sample = family["samples"].get(key)
        if sample is None:
            return (0, 0.0)
        counts, total, count = sample
        return (int(count), float(total))

    def quantile(self, name: str, q: float, *label_values) -> float | None:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        holding the q-th observation); ``None`` when there is no data.
        The last finite bound is returned for observations in the
        overflow bucket."""
        family = self._families.get(name)
        if family is None or family["kind"] != "histogram":
            return None
        key = tuple(str(v) for v in label_values)
        sample = family["samples"].get(key)
        if sample is None:
            return None
        counts, _, count = sample
        if count <= 0:
            return None
        bounds = family["buckets"]
        rank = q * count
        cumulative = 0
        for index, c in enumerate(counts):
            cumulative += c
            if cumulative >= rank and c:
                return float(bounds[min(index, len(bounds) - 1)])
        return float(bounds[-1])

    # -- merge --------------------------------------------------------------

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """A new snapshot with both operands' samples added together.

        Commutative and associative: counters, gauges and histogram
        buckets all sum, and metadata conflicts (kind / labels /
        buckets) raise instead of being resolved by operand order.
        """
        merged: dict = {}
        for name in set(self._families) | set(other._families):
            a = self._families.get(name)
            b = other._families.get(name)
            if a is None or b is None:
                src = a if b is None else b
                merged[name] = {
                    "kind": src["kind"],
                    "help": src["help"],
                    "labelnames": src["labelnames"],
                    "buckets": src["buckets"],
                    "samples": dict(src["samples"]),
                }
                continue
            for field in ("kind", "labelnames", "buckets"):
                if a[field] != b[field]:
                    raise ValueError(
                        f"cannot merge metric {name!r}: "
                        f"{field} differs ({a[field]!r} vs {b[field]!r})"
                    )
            samples = dict(a["samples"])
            for key, value in b["samples"].items():
                if key not in samples:
                    samples[key] = value
                elif a["kind"] == "histogram":
                    counts, total, count = samples[key]
                    b_counts, b_total, b_count = value
                    samples[key] = (
                        tuple(x + y for x, y in zip(counts, b_counts)),
                        total + b_total,
                        count + b_count,
                    )
                else:
                    samples[key] = samples[key] + value
            merged[name] = {
                "kind": a["kind"],
                # max() keeps the non-empty help and stays commutative
                "help": max(a["help"], b["help"]),
                "labelnames": a["labelnames"],
                "buckets": a["buckets"],
                "samples": samples,
            }
        return MetricsSnapshot(merged)

    # -- wire format --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form, deterministically ordered."""
        metrics = []
        for name in sorted(self._families):
            family = self._families[name]
            entry: dict = {
                "name": name,
                "kind": family["kind"],
                "help": family["help"],
                "labelnames": list(family["labelnames"]),
            }
            if family["kind"] == "histogram":
                entry["buckets"] = list(family["buckets"])
            samples = []
            for key in sorted(family["samples"]):
                sample: dict = {"labels": list(key)}
                if family["kind"] == "histogram":
                    counts, total, count = family["samples"][key]
                    sample["bucket_counts"] = list(counts)
                    sample["sum"] = total
                    sample["count"] = count
                else:
                    sample["value"] = family["samples"][key]
                samples.append(sample)
            entry["samples"] = samples
            metrics.append(entry)
        return {
            "schema_version": _SNAPSHOT_SCHEMA_VERSION,
            "metrics": metrics,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsSnapshot":
        if not isinstance(payload, dict):
            raise ValueError("a metrics snapshot is a JSON object")
        version = payload.get("schema_version", _SNAPSHOT_SCHEMA_VERSION)
        if version != _SNAPSHOT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported metrics snapshot schema_version: {version!r}"
            )
        families: dict = {}
        for entry in payload.get("metrics", ()):
            if not isinstance(entry, dict):
                raise ValueError("a metric entry is a JSON object")
            kind = entry["kind"]
            samples: dict = {}
            for sample in entry.get("samples", ()):
                key = tuple(str(v) for v in sample["labels"])
                if kind == "histogram":
                    samples[key] = (
                        tuple(int(c) for c in sample["bucket_counts"]),
                        float(sample["sum"]),
                        int(sample["count"]),
                    )
                else:
                    samples[key] = float(sample["value"])
            families[entry["name"]] = {
                "kind": kind,
                "help": entry.get("help", ""),
                "labelnames": tuple(entry.get("labelnames", ())),
                "buckets": (
                    tuple(float(b) for b in entry["buckets"])
                    if kind == "histogram"
                    else None
                ),
                "samples": samples,
            }
        return cls(families)


class _NullMetric:
    """Shared no-op family/child: every method is a constant-time no-op."""

    __slots__ = ()

    def labels(self, *args, **kwargs) -> "_NullMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class NullMetrics:
    """Metrics disabled: hands out one shared no-op family.

    The instrumented layers call this unconditionally when no registry
    is configured, so its methods must be (and are) allocation-free.
    """

    enabled = False

    def counter(self, name, help="", labelnames=()) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name, help="", labelnames=()) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name, help="", labelnames=(), buckets=()) -> _NullMetric:
        return _NULL_METRIC

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot.empty()

    def absorb(self, snapshot) -> None:  # pragma: no cover - misuse guard
        raise ValueError(
            "NULL_METRICS discards everything; construct a "
            "MetricsRegistry() to aggregate snapshots"
        )


#: Module-wide no-op registry used whenever metrics are off.
NULL_METRICS = NullMetrics()


def as_metrics(metrics) -> "MetricsRegistry | NullMetrics":
    """Normalize an optional registry: ``None`` becomes :data:`NULL_METRICS`."""
    return metrics if metrics is not None else NULL_METRICS
