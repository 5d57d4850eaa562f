"""Span-based tracing: where the solve pipeline's wall time actually goes.

A :class:`Tracer` produces :class:`Span` context managers — named, timed,
attributed, and linked into a tree by ``span_id``/``parent_id`` — and
forwards structured events to pluggable sinks
(:mod:`repro.obs.sinks`).  The search drivers, the
:class:`repro.solve.executor.SolveExecutor`, its backend attempts and
the ILP backends all open spans through the tracer they find on
:class:`repro.core.reduce_latency.SolverSettings`; with no tracer
configured they talk to the :data:`NULL_TRACER`, whose spans are a
single shared immutable object so the instrumented hot paths cost a few
attribute lookups and nothing else.

Threading model
---------------
Span nesting uses a *thread-local* stack: a span opened while another
is active on the same thread becomes its child automatically, and a
span opened on a thread with no open span is a root.  Span ids are
allocated from one atomic counter, and sinks receive events from all
threads (each sink locks its own write path), so concurrent spans never
collide.

All timestamps are seconds relative to the tracer's creation
(``time.perf_counter`` based); ``wall_epoch`` records the corresponding
``time.time`` so traces can be correlated with external logs.
"""

from __future__ import annotations

import itertools
import threading
import time

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "as_tracer"]


class Span:
    """One timed operation in the trace tree.

    Use as a context manager (spans produced by :meth:`Tracer.span`):
    entering stamps the clocks and pushes the span on the thread's
    stack, exiting pops it and emits a ``span_end`` event carrying the
    final attributes, wall duration and process-time duration.  An
    exception propagating through the span marks it ``status="error"``
    (and is re-raised).
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attrs",
        "status",
        "t_start",
        "duration",
        "process_duration",
        "thread_name",
        "_tracer",
        "_start_process",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        attrs: dict,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id: int | None = None
        self.attrs = attrs
        self.status = "ok"
        self.t_start = 0.0
        self.duration = 0.0
        self.process_duration = 0.0
        self.thread_name = ""
        self._start_process = 0.0

    # -- annotation ---------------------------------------------------------

    def set(self, key: str, value) -> None:
        """Attach (or overwrite) one key/value attribute."""
        self.attrs[key] = value

    def annotate(self, **attrs) -> None:
        """Attach several attributes at once."""
        self.attrs.update(attrs)

    def event(self, name: str, **attrs) -> None:
        """Emit an instantaneous event anchored to this span."""
        self._tracer._emit_event(name, self.span_id, attrs)

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Span":
        tracer = self._tracer
        current = tracer.current_span()
        if current is not None:
            self.parent_id = current.span_id
        self.thread_name = threading.current_thread().name
        tracer._push(self)
        self.t_start = tracer._now()
        self._start_process = time.process_time()
        tracer._emit(
            {
                "type": "span_start",
                "ts": self.t_start,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "name": self.name,
                "thread": self.thread_name,
                "attrs": dict(self.attrs),
            }
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end = tracer._now()
        self.duration = end - self.t_start
        self.process_duration = time.process_time() - self._start_process
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        tracer._pop(self)
        tracer._emit(
            {
                "type": "span_end",
                "ts": end,
                "t_start": self.t_start,
                "dur": self.duration,
                "process_dur": self.process_duration,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "name": self.name,
                "thread": self.thread_name,
                "status": self.status,
                "attrs": dict(self.attrs),
            }
        )
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, attrs={self.attrs})"
        )


class Tracer:
    """Produces spans and events; fans them out to the configured sinks.

    Parameters
    ----------
    *sinks:
        Objects satisfying the :class:`repro.obs.sinks.EventSink`
        protocol.  More can be attached later with :meth:`add_sink`.
    """

    #: Instrumented code may branch on this to skip expensive attribute
    #: computation; the spans themselves are cheap either way.
    enabled = True

    def __init__(self, *sinks) -> None:
        self.sinks = list(sinks)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._t0 = time.perf_counter()
        #: ``time.time()`` at tracer creation; ``ts`` values are relative
        #: seconds on top of this epoch.
        self.wall_epoch = time.time()

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)

    # -- span / event production --------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """A new span (enter it with ``with``); its parent is the span
        open on the entering thread, if any."""
        return Span(self, name, next(self._ids), attrs)

    def event(self, name: str, **attrs) -> None:
        """Emit an instantaneous event anchored to the current span."""
        current = self.current_span()
        self._emit_event(
            name, current.span_id if current is not None else None, attrs
        )

    def current_span(self) -> Span | None:
        """The innermost open span on *this* thread, if any."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return None

    def close(self) -> None:
        """Close every sink (flushes file-backed sinks)."""
        for sink in self.sinks:
            sink.close()

    # -- internals ----------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # pragma: no cover - defensive
            stack.remove(span)

    def _emit_event(self, name: str, span_id: int | None, attrs: dict) -> None:
        self._emit(
            {
                "type": "event",
                "ts": self._now(),
                "span_id": span_id,
                "name": name,
                "thread": threading.current_thread().name,
                "attrs": dict(attrs),
            }
        )

    def _emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)


class _NullSpan:
    """Shared no-op span: every method is a constant-time no-op."""

    __slots__ = ()

    span_id = None
    parent_id = None
    name = ""
    attrs: dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass

    def annotate(self, **attrs) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: hands out one shared no-op span.

    The instrumented layers call this unconditionally when no tracer is
    configured, so its methods must be (and are) allocation-free.
    """

    enabled = False
    sinks: tuple = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def current_span(self) -> None:
        return None

    def add_sink(self, sink) -> None:  # pragma: no cover - misuse guard
        raise ValueError(
            "NULL_TRACER discards everything; construct a Tracer(sink) "
            "to record events"
        )

    def close(self) -> None:
        pass


#: Module-wide no-op tracer used whenever tracing is off.
NULL_TRACER = NullTracer()


def as_tracer(tracer) -> "Tracer | NullTracer":
    """Normalize an optional tracer: ``None`` becomes :data:`NULL_TRACER`."""
    return tracer if tracer is not None else NULL_TRACER
