"""Partition-as-a-service: batch facade, request dispatch, persistent cache.

The paper's search is a single-threaded loop; this package serves
*many* partitioning problems at once, each one still solved by that
loop:

* :mod:`repro.service.facade` — :class:`PartitionService`, the asyncio
  batch entry point (``submit`` / ``submit_batch`` / ``solve_batch``),
  sending each whole request to one worker process;
* :mod:`repro.service.worker` — :func:`solve_request`, the picklable
  per-process body: the serial ``Refine_Partitions_Bound`` search, so a
  service outcome equals :meth:`TemporalPartitioner.solve`'s;
* :mod:`repro.service.wire` — the explicit JSON-able payloads crossing
  the process boundary (no library objects are pickled).

The persistent verdict store backing it all is
:class:`repro.solve.disk_cache.DiskSolveCache`, selected by
``SolverSettings(cache_path=...)`` (or the service's ``cache_path``
default).  See ``docs/service.md``.
"""

from repro.service.facade import PartitionService, ShardWorkerError
from repro.service.wire import decode_request, encode_request
from repro.service.worker import solve_request

__all__ = [
    "PartitionService",
    "ShardWorkerError",
    "decode_request",
    "encode_request",
    "solve_request",
]
