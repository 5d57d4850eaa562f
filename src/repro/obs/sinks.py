"""Event sinks: where a :class:`repro.obs.tracer.Tracer` sends its events.

A sink is anything with ``emit(event: dict)`` and ``close()``
(:class:`EventSink` is the protocol).  Two implementations cover the
common cases:

* :class:`MemorySink` — an in-process list, for tests, the Chrome-trace
  exporter and ad-hoc analysis;
* :class:`JsonlSink` — one JSON object per line, the on-disk
  interchange format consumed by ``repro-tp trace report`` and
  :func:`repro.obs.profile.load_events`.

Both are thread-safe: spans on several threads may emit concurrently.
Events are plain dicts (schema documented in ``docs/observability.md``);
values that are not JSON-serializable are stringified rather than
raising mid-solve.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Iterable, Protocol, runtime_checkable

__all__ = ["EventSink", "MemorySink", "JsonlSink"]


@runtime_checkable
class EventSink(Protocol):
    """What a tracer needs from a sink."""

    def emit(self, event: dict) -> None:
        """Record one event.  Must be safe to call from any thread."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Flush and release resources; further ``emit`` calls are undefined."""
        ...  # pragma: no cover - protocol


class MemorySink:
    """Keeps every event in a list (``sink.events``)."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._lock = threading.Lock()

    def emit(self, event: dict) -> None:
        with self._lock:
            self.events.append(event)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterable[dict]:
        return iter(list(self.events))


class JsonlSink:
    """Appends events to a file, one JSON object per line.

    Parent directories are created; opening an unwritable path raises
    ``OSError`` immediately (at construction, not mid-run), which the CLI
    converts into a clear error message.

    ``flush_every`` bounds how many events can sit in the buffered file
    handle: the handle is flushed after every N emits (default 20), so a
    worker killed mid-run loses at most the last N-1 events instead of
    the whole buffer.  ``flush_every=1`` flushes on every event;
    ``flush_every=0`` disables periodic flushing (flush only on close).
    """

    def __init__(self, path: str | Path, flush_every: int = 20) -> None:
        if flush_every < 0:
            raise ValueError("flush_every must be >= 0")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.flush_every = flush_every
        self._fh = self.path.open("w", encoding="utf-8")
        self._lock = threading.Lock()
        self._closed = False
        self._since_flush = 0

    def emit(self, event: dict) -> None:
        line = json.dumps(event, default=str)
        with self._lock:
            if not self._closed:
                self._fh.write(line + "\n")
                if self.flush_every:
                    self._since_flush += 1
                    if self._since_flush >= self.flush_every:
                        self._fh.flush()
                        self._since_flush = 0

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._fh.flush()
                self._fh.close()
