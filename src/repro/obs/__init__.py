"""Observability: structured tracing and profiling of the solve pipeline.

The search procedures, the :class:`repro.solve.executor.SolveExecutor`,
the backend portfolio and the ILP backends are instrumented with spans
and events through this package.  :class:`repro.solve.telemetry
.RunTelemetry` is the cheap always-on aggregate, a view of the
executor's metrics registry; tracing is the opt-in, high-resolution
view:

* :mod:`repro.obs.tracer` — :class:`Tracer` / :class:`Span` context
  managers (ids, parent links, wall + process time, attributes,
  thread-safe) and the zero-overhead :data:`NULL_TRACER`;
* :mod:`repro.obs.sinks` — the :class:`EventSink` protocol with
  :class:`MemorySink` and :class:`JsonlSink`;
* :mod:`repro.obs.chrome` — Chrome trace-event-format export
  (``chrome://tracing`` / Perfetto) and its validator;
* :mod:`repro.obs.profile` — span trees and per-phase
  inclusive/exclusive time profiles;
* :mod:`repro.obs.metrics` — labeled counters/gauges/histograms with
  mergeable :class:`MetricsSnapshot`s and the zero-overhead
  :data:`NULL_METRICS`;
* :mod:`repro.obs.promtext` — Prometheus text exposition rendering and
  validation (no third-party deps);
* :mod:`repro.obs.server` — the ``/metrics`` scrape endpoint behind
  ``repro-tp serve --metrics-port``.

Enable from the API by putting a tracer on the solver settings::

    from repro import SolverSettings, TemporalPartitioner
    from repro.obs import JsonlSink, Tracer

    tracer = Tracer(JsonlSink("run.jsonl"))
    settings = SolverSettings(tracer=tracer)
    ...
    tracer.close()

or from the CLI with ``repro-tp partition ... --trace-jsonl run.jsonl
--trace-chrome run.trace.json``; inspect with ``repro-tp trace report
run.jsonl``.  See ``docs/observability.md``.
"""

from repro.obs.chrome import (
    chrome_trace,
    jsonl_to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    NullMetrics,
    as_metrics,
)
from repro.obs.profile import (
    PhaseProfile,
    PhaseStat,
    SpanNode,
    build_span_tree,
    load_events,
    render_span_tree,
)
from repro.obs.promtext import render_promtext, validate_promtext
from repro.obs.server import MetricsServer
from repro.obs.sinks import EventSink, JsonlSink, MemorySink
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer, as_tracer

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "EventSink",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "MetricsServer",
    "MetricsSnapshot",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "PhaseProfile",
    "PhaseStat",
    "Span",
    "SpanNode",
    "Tracer",
    "as_metrics",
    "as_tracer",
    "build_span_tree",
    "chrome_trace",
    "jsonl_to_chrome",
    "load_events",
    "render_promtext",
    "render_span_tree",
    "validate_chrome_trace",
    "validate_promtext",
    "write_chrome_trace",
]
