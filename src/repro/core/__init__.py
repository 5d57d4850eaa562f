"""The paper's contribution: combined temporal partitioning + DSE.

Public entry points:

* :class:`TemporalPartitioner` — the facade most users want,
* :func:`reduce_latency` — Algorithm ``Reduce_Latency`` (Figure 1),
* :func:`refine_partitions_bound` — Algorithm ``Refine_Partitions_Bound``
  (Figure 2),
* :func:`build_model` — the raw ILP formulation (Section 3.2.3),
* :func:`solve_optimal` — the optimality oracle used for Table 1,
* :func:`greedy_partition` / :func:`cp_solve` — baselines and the
  ablation backend,
* bounds of Section 3.1 in :mod:`repro.core.bounds`.
"""

from repro.core.analysis import (
    PartitionUtilization,
    UtilizationReport,
    design_point_histogram,
    utilization_report,
)
from repro.core.bounds import (
    PartitionRange,
    max_area_partitions,
    max_latency,
    min_area_partitions,
    min_latency,
    partition_range,
)
from repro.core.cp_solver import CpStats, cp_solve
from repro.core.diagnose import InfeasibilityReport, diagnose_infeasibility
from repro.core.families import (
    ConstraintFamily,
    ScenarioSpec,
    get_scenario,
    register_scenario,
    scenario_ids,
)
from repro.core.formulation import (
    FormulationOptions,
    ModelTemplate,
    TemporalPartitioningModel,
    build_model,
    extract_design,
)
from repro.core.heuristics import (
    POLICIES,
    estimate_alpha_gamma,
    greedy_partition,
    heuristic_partition_count,
)
from repro.core.optimal import OptimalAttempt, OptimalResult, solve_optimal
from repro.core.partitioner import (
    OUTCOME_SCHEMA_VERSION,
    PartitionerConfig,
    PartitionRequest,
    PartitioningOutcome,
    TemporalPartitioner,
)
from repro.core.reduce_latency import (
    ReduceLatencyResult,
    SolverSettings,
    reduce_latency,
)
from repro.core.refine_partitions import (
    RefinementConfig,
    RefinementResult,
    evaluate_partition_bound,
    partition_bound_window,
    refine_partitions_bound,
)
from repro.core.sensitivity import SensitivityReport, capacity_shadow_prices
from repro.core.solution import (
    ConstraintViolation,
    PartitionedDesign,
    Placement,
)
from repro.core.tradeoff import (
    TradeoffCurve,
    TradeoffPoint,
    partition_latency_curve,
)
from repro.core.trace import SearchTrace

__all__ = [
    "ConstraintFamily",
    "ConstraintViolation",
    "CpStats",
    "FormulationOptions",
    "InfeasibilityReport",
    "ModelTemplate",
    "OUTCOME_SCHEMA_VERSION",
    "OptimalAttempt",
    "OptimalResult",
    "POLICIES",
    "PartitionRange",
    "PartitionRequest",
    "PartitionUtilization",
    "PartitionedDesign",
    "PartitionerConfig",
    "PartitioningOutcome",
    "Placement",
    "ReduceLatencyResult",
    "RefinementConfig",
    "RefinementResult",
    "ScenarioSpec",
    "SearchTrace",
    "SensitivityReport",
    "SolverSettings",
    "TemporalPartitioner",
    "TemporalPartitioningModel",
    "TradeoffCurve",
    "TradeoffPoint",
    "UtilizationReport",
    "build_model",
    "capacity_shadow_prices",
    "cp_solve",
    "design_point_histogram",
    "diagnose_infeasibility",
    "estimate_alpha_gamma",
    "evaluate_partition_bound",
    "extract_design",
    "get_scenario",
    "greedy_partition",
    "heuristic_partition_count",
    "max_area_partitions",
    "max_latency",
    "min_area_partitions",
    "min_latency",
    "partition_bound_window",
    "partition_latency_curve",
    "partition_range",
    "reduce_latency",
    "refine_partitions_bound",
    "register_scenario",
    "scenario_ids",
    "solve_optimal",
    "utilization_report",
]
