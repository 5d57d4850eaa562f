#!/usr/bin/env python
"""Check that a run's trace events and telemetry describe the same windows.

Usage::

    python tools/check_window_records.py run.jsonl telemetry.json

``run.jsonl`` is a ``--trace-jsonl`` file and ``telemetry.json`` the
``--telemetry-json`` file of the same run.  Both write one per-window
record in its one JSON shape, so the ``window_verdict`` events and the
telemetry ``solves`` rows must agree one-to-one, in order, on every
key: a key only one side carries is a disagreement too.  Exits 0 when
they do; otherwise lists each disagreement and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Stands in for a key one side does not carry.
MISSING = "<missing>"


def verdict_events(path: Path) -> list[dict]:
    events = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("type") == "event" and record.get("name") == "window_verdict":
            events.append(record.get("attrs", {}))
    return events


def compare(events: list[dict], rows: list[dict]) -> list[str]:
    """Every disagreement between the events and the rows, in order."""
    problems = []
    if len(events) != len(rows):
        problems.append(
            f"{len(events)} window_verdict events but {len(rows)} "
            "telemetry rows"
        )
    for index, (event, row) in enumerate(zip(events, rows)):
        for name in {**event, **row}:
            got, want = event.get(name, MISSING), row.get(name, MISSING)
            if got != want:
                problems.append(
                    f"window {index}: {name} is {got!r} in the "
                    f"event but {want!r} in the telemetry row"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("jsonl", type=Path, help="--trace-jsonl output")
    parser.add_argument("telemetry", type=Path, help="--telemetry-json output")
    args = parser.parse_args(argv)

    events = verdict_events(args.jsonl)
    rows = json.loads(args.telemetry.read_text()).get("solves", [])
    problems = compare(events, rows)
    if problems:
        print(f"{args.jsonl} vs {args.telemetry}: MISMATCH", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"{args.jsonl} vs {args.telemetry}: ok ({len(rows)} windows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
