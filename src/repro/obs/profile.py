"""Self-time profiles and span trees from recorded trace events.

Consumes the event stream produced by :mod:`repro.obs.tracer` (live
from a :class:`repro.obs.sinks.MemorySink` or loaded from a JSONL file)
and answers the operator's question — *where did the time go?* — two
ways:

* :class:`PhaseProfile` — per-phase (span name) aggregates: call count,
  inclusive wall time, **exclusive** wall time (inclusive minus the
  inclusive time of direct children), process time and p50/p95/p99
  per-span duration percentiles, rendered as a top-N table by
  :meth:`PhaseProfile.report`;
* :func:`render_span_tree` — the parent/child tree with durations and
  key attributes, the textual analogue of a flame graph.

Exclusive times are additive: summed over all phases they equal the
total inclusive time of the root spans, so the table's percentages
genuinely partition the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "SpanNode",
    "PhaseStat",
    "PhaseProfile",
    "nearest_rank",
    "load_events",
    "build_span_tree",
    "render_span_tree",
]


def nearest_rank(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``q`` in [0, 1]): the exact analogue of
    the metrics histograms' bucketed quantiles; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, min(len(ordered) - 1, ceil(q * len(ordered)) - 1))]


def load_events(path: str | Path) -> list[dict]:
    """Read a JSONL event file written by :class:`repro.obs.sinks.JsonlSink`.

    Blank lines are skipped; a malformed line raises ``ValueError``
    naming the offending line number.
    """
    events: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON ({exc.msg})"
                ) from None
    return events


@dataclass
class SpanNode:
    """One completed span plus its children, reconstructed from events."""

    span_id: int
    name: str
    t_start: float
    duration: float
    process_duration: float
    thread: str
    status: str
    attrs: dict
    parent_id: int | None = None
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def exclusive(self) -> float:
        """Wall time not accounted for by direct children."""
        return max(
            self.duration - sum(c.duration for c in self.children), 0.0
        )


def build_span_tree(events: Iterable[dict]) -> list[SpanNode]:
    """Root spans (with children attached) from ``span_end`` events.

    Spans whose parent never completed (or was never recorded) become
    roots themselves, so partial traces still profile.  Children are
    ordered by start time.
    """
    nodes: dict[int, SpanNode] = {}
    for event in events:
        if event.get("type") != "span_end":
            continue
        node = SpanNode(
            span_id=int(event["span_id"]),
            name=str(event.get("name", "?")),
            t_start=float(event.get("t_start", 0.0)),
            duration=float(event.get("dur", 0.0)),
            process_duration=float(event.get("process_dur", 0.0)),
            thread=str(event.get("thread", "")),
            status=str(event.get("status", "ok")),
            attrs=dict(event.get("attrs", {})),
            parent_id=event.get("parent_id"),
        )
        nodes[node.span_id] = node
    roots: list[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.parent_id) if node.parent_id is not None else None
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.t_start)
    roots.sort(key=lambda n: n.t_start)
    return roots


@dataclass
class PhaseStat:
    """Aggregate of all spans sharing one name."""

    name: str
    count: int = 0
    inclusive: float = 0.0
    exclusive: float = 0.0
    process: float = 0.0
    max_duration: float = 0.0
    durations: list[float] = field(default_factory=list)

    @property
    def mean_inclusive(self) -> float:
        return self.inclusive / self.count if self.count else 0.0

    @property
    def p50(self) -> float:
        return nearest_rank(self.durations, 0.50)

    @property
    def p95(self) -> float:
        return nearest_rank(self.durations, 0.95)

    @property
    def p99(self) -> float:
        return nearest_rank(self.durations, 0.99)


class PhaseProfile:
    """Per-phase timing rollup of one trace."""

    def __init__(self, roots: Sequence[SpanNode]) -> None:
        self.roots = list(roots)
        self.phases: dict[str, PhaseStat] = {}
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            stat = self.phases.setdefault(node.name, PhaseStat(node.name))
            stat.count += 1
            stat.inclusive += node.duration
            stat.exclusive += node.exclusive
            stat.process += node.process_duration
            stat.max_duration = max(stat.max_duration, node.duration)
            stat.durations.append(node.duration)
            stack.extend(node.children)

    @classmethod
    def from_events(cls, events: Iterable[dict]) -> "PhaseProfile":
        return cls(build_span_tree(events))

    @property
    def total_time(self) -> float:
        """Inclusive wall time of the root spans (== sum of exclusives)."""
        return sum(root.duration for root in self.roots)

    def inclusive(self, name: str) -> float:
        stat = self.phases.get(name)
        return stat.inclusive if stat is not None else 0.0

    def exclusive(self, name: str) -> float:
        stat = self.phases.get(name)
        return stat.exclusive if stat is not None else 0.0

    def top(self, n: int | None = None) -> list[PhaseStat]:
        """Phases ordered by exclusive (self) time, largest first."""
        ordered = sorted(
            self.phases.values(), key=lambda s: s.exclusive, reverse=True
        )
        return ordered if n is None else ordered[:n]

    def report(self, top: int | None = 15) -> str:
        """The phase table: count, inclusive/exclusive seconds, self %."""
        if not self.phases:
            return "(empty trace: no completed spans)"
        total = self.total_time or 1e-12
        header = (
            f"{'phase':<28}{'count':>7}{'incl (s)':>12}"
            f"{'excl (s)':>12}{'excl %':>8}{'avg (ms)':>11}"
            f"{'p50 (ms)':>11}{'p95 (ms)':>11}{'p99 (ms)':>11}"
        )
        lines = [header, "-" * len(header)]
        shown = self.top(top)
        for stat in shown:
            lines.append(
                f"{stat.name:<28}{stat.count:>7}"
                f"{stat.inclusive:>12.4f}{stat.exclusive:>12.4f}"
                f"{100.0 * stat.exclusive / total:>7.1f}%"
                f"{1e3 * stat.mean_inclusive:>11.2f}"
                f"{1e3 * stat.p50:>11.2f}"
                f"{1e3 * stat.p95:>11.2f}"
                f"{1e3 * stat.p99:>11.2f}"
            )
        hidden = len(self.phases) - len(shown)
        if hidden > 0:
            rest = sum(s.exclusive for s in self.top(None)[len(shown):])
            lines.append(
                f"{f'... {hidden} more phases':<28}{'':>7}{'':>12}"
                f"{rest:>12.4f}{100.0 * rest / total:>7.1f}%{'':>11}"
            )
        lines.append(
            f"total root wall time: {self.total_time:.4f}s "
            f"across {len(self.roots)} root span(s)"
        )
        return "\n".join(lines)


#: Attributes worth showing inline in the span tree, in display order.
_TREE_ATTRS = (
    "num_partitions",
    "iteration",
    "backend",
    "status",
    "policy",
    "rule",
    "d_min",
    "d_max",
)


def _attr_suffix(attrs: dict) -> str:
    parts = []
    for key in _TREE_ATTRS:
        if key in attrs:
            value = attrs[key]
            if isinstance(value, float):
                value = f"{value:g}"
            parts.append(f"{key}={value}")
    return f"  [{', '.join(parts)}]" if parts else ""


def render_span_tree(
    events: Iterable[dict], max_depth: int | None = None
) -> str:
    """ASCII tree of the trace's spans with durations and key attributes."""
    roots = build_span_tree(events)
    if not roots:
        return "(empty trace: no completed spans)"
    lines: list[str] = []

    def walk(node: SpanNode, depth: int) -> None:
        marker = "!" if node.status != "ok" else ""
        lines.append(
            f"{'  ' * depth}{node.name}{marker}  "
            f"{1e3 * node.duration:.2f} ms{_attr_suffix(node.attrs)}"
        )
        if max_depth is not None and depth + 1 >= max_depth:
            if node.children:
                lines.append(
                    f"{'  ' * (depth + 1)}... {len(node.children)} child "
                    "span(s) collapsed"
                )
            return
        for child in node.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)
