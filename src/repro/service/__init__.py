"""Partition-as-a-service: batch facade, sharding, persistent cache.

The paper's search is a single-threaded loop; this package turns it
into a service that takes *many* partitioning problems at once:

* :mod:`repro.service.facade` — :class:`PartitionService`, the asyncio
  batch entry point (``submit`` / ``submit_batch`` / ``solve_batch``);
* :mod:`repro.service.sharding` — the coordinator distributing one
  partition bound ``N`` per worker, with the shared incumbent ``D_a``
  pruning across processes;
* :mod:`repro.service.worker` — the picklable per-process shard body;
* :mod:`repro.service.wire` — the explicit JSON-able payloads crossing
  the process boundary (no library objects are pickled).

The persistent verdict store backing it all is
:class:`repro.solve.disk_cache.DiskSolveCache`, selected by
``SolverSettings(cache_path=...)`` (or the service's ``cache_path``
default).  See ``docs/service.md``.
"""

from repro.service.facade import PartitionService, ShardWorkerError
from repro.service.sharding import solve_sharded
from repro.service.wire import decode_request, encode_request
from repro.service.worker import solve_shard

__all__ = [
    "PartitionService",
    "ShardWorkerError",
    "decode_request",
    "encode_request",
    "solve_shard",
    "solve_sharded",
]
