"""The ``RunTelemetry`` JSON shape, pinned by a golden.

``tests/golden/telemetry_shape.json`` holds ``to_dict(include_solves=True)``
and ``summary()`` for two AR-filter runs with every counter and key set
exact and only wall-clock values masked:

* ``solve`` — one ``TemporalPartitioner.solve`` with
  ``SolverSettings.fast(analyze="warn")``;
* ``replay`` — two ``refine_partitions_bound`` calls on one executor,
  so the second run is answered from the solve cache.

Downstream ``--telemetry-json`` consumers read this shape; any change to
how the telemetry is recorded must leave it unchanged.  Regenerate the
golden (only for a deliberate schema change) with::

    PYTHONPATH=src python tests/solve/test_telemetry_shape.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.arch import ReconfigurableProcessor
from repro.core import (
    PartitionerConfig,
    PartitionRequest,
    SolverSettings,
    TemporalPartitioner,
    refine_partitions_bound,
)
from repro.solve import SolveExecutor
from repro.taskgraph import ar_filter

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "telemetry_shape.json"

MASK = "<wall>"

#: Seconds in ``summary()``: the p50/p90/max triple and the total.
_SUMMARY_SECONDS = re.compile(r"\d+\.\d+(?=[/s])")


def _masked(telemetry) -> dict:
    payload = telemetry.to_dict(include_solves=True)
    payload["total_wall_time"] = MASK
    payload["wall_time_percentiles"] = {
        key: MASK for key in payload["wall_time_percentiles"]
    }
    payload["backend_wall"] = {key: MASK for key in payload["backend_wall"]}
    for row in payload["solves"]:
        row["wall_time"] = MASK
    return {
        "to_dict": payload,
        "summary": _SUMMARY_SECONDS.sub(MASK, telemetry.summary()),
    }


def _device() -> ReconfigurableProcessor:
    return ReconfigurableProcessor(
        resource_capacity=400,
        memory_capacity=128,
        reconfiguration_time=20.0,
        name="ar_device",
    )


def capture() -> dict:
    settings = SolverSettings.fast(analyze="warn")
    outcome = TemporalPartitioner(
        _device(), PartitionerConfig(solver=settings)
    ).solve(PartitionRequest(graph=ar_filter()))

    graph, device = ar_filter(), _device()
    executor = SolveExecutor(settings)
    runs = []
    for _ in range(2):
        result = refine_partitions_bound(
            graph, device, settings=settings, executor=executor
        )
        runs.append(_masked(result.telemetry))
    return {"solve": _masked(outcome.telemetry), "replay": runs}


def test_telemetry_shape_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(capture()))
    assert got == expected


def test_replay_is_answered_from_the_cache():
    # The golden is only meaningful if the second run really hits.
    golden = json.loads(GOLDEN.read_text())
    first, second = golden["replay"]
    assert second["to_dict"]["cache_hits"] > first["to_dict"]["cache_hits"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
