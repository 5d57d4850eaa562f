"""Temporal partitioning with design space exploration (DATE 1999).

A from-scratch reproduction of Kaul & Vemuri, *"Temporal Partitioning
combined with Design Space Exploration for Latency Minimization of
Run-Time Reconfigured Designs"*, DATE 1999.

Subpackages
-----------
``repro.core``
    The paper's contribution: the combined ILP formulation, the
    ``Reduce_Latency`` / ``Refine_Partitions_Bound`` iterative search,
    bounds, baselines, and the optimality oracle.
``repro.ilp``
    A self-contained MILP stack (modeling layer, simplex, branch & bound,
    plus a scipy/HiGHS backend) standing in for CPLEX.
``repro.taskgraph``
    Task graphs, design points, the paper's AR-filter and DCT benchmarks,
    synthetic generators, and serialization.
``repro.hls``
    A high-level-synthesis estimator that produces design points from
    operation-level data-flow graphs (the paper's estimation tool).
``repro.arch``
    The reconfigurable-processor model and an execution-timeline
    simulator used as an independent semantics oracle.
``repro.experiments``
    The harness that regenerates every table and figure of the paper.
``repro.service``
    Partition-as-a-service: the async batch facade
    (:class:`repro.service.PartitionService`), which runs each whole
    request's search on one worker of a process pool, and the
    persistent disk solve cache
    (``SolverSettings(cache_path=...)``).
``repro.obs``
    Span tracing, the structured event stream, Chrome-trace export and
    phase profiling (attach a :class:`repro.obs.Tracer` via
    ``SolverSettings(tracer=...)``).
``repro.analysis``
    The pre-solve model analyzer: structural and paper-conformance
    diagnostics over compiled models (enable with
    ``SolverSettings(analyze="warn")`` or run ``repro-tp analyze``;
    catalog in ``docs/analysis.md``).

Quickstart::

    from repro import PartitionRequest, TemporalPartitioner
    from repro.arch import time_multiplexed
    from repro.taskgraph import dct_4x4

    partitioner = TemporalPartitioner(time_multiplexed(resource_capacity=576))
    outcome = partitioner.solve(PartitionRequest(graph=dct_4x4()))
    print(outcome.design.summary(partitioner.processor))
"""

from repro.analysis import AnalysisReport, ModelAnalysisError, analyze_model
from repro.core import (
    OUTCOME_SCHEMA_VERSION,
    FormulationOptions,
    PartitionedDesign,
    PartitionerConfig,
    PartitionRequest,
    PartitioningOutcome,
    RefinementConfig,
    SolverSettings,
    TemporalPartitioner,
)
from repro.obs import JsonlSink, MemorySink, Tracer
from repro.service import PartitionService
from repro.solve import DiskSolveCache, RunTelemetry, SolveCache, SolveExecutor

__version__ = "1.0.0"

__all__ = [
    "AnalysisReport",
    "DiskSolveCache",
    "FormulationOptions",
    "JsonlSink",
    "MemorySink",
    "ModelAnalysisError",
    "OUTCOME_SCHEMA_VERSION",
    "PartitionService",
    "PartitionedDesign",
    "PartitionerConfig",
    "PartitionRequest",
    "PartitioningOutcome",
    "RefinementConfig",
    "RunTelemetry",
    "SolveCache",
    "SolveExecutor",
    "SolverSettings",
    "TemporalPartitioner",
    "Tracer",
    "__version__",
    "analyze_model",
]
