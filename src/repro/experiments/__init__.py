"""Experiment harness: regenerate every table and figure of the paper."""

from repro.experiments.figures import (
    Fig3Result,
    Fig4Result,
    figure3_memory_model,
    figure4_partition_latency,
    figure5_ar_graph,
    figure6_dct_graph,
)
from repro.experiments.runner import (
    LARGE_CT,
    SMALL_CT,
    DctExperiment,
    ExperimentResult,
    run_experiment,
)
from repro.experiments.sweeps import (
    SweepPoint,
    reconfiguration_sweep,
    sweep_table,
)
from repro.experiments.tables import (
    DCT_EXPERIMENTS,
    Table1Result,
    ar_processor,
    table1_ar_filter,
    table2_design_points,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
)
from repro.report import TextTable, format_value

__all__ = [
    "DCT_EXPERIMENTS",
    "DctExperiment",
    "ExperimentResult",
    "Fig3Result",
    "Fig4Result",
    "LARGE_CT",
    "SMALL_CT",
    "SweepPoint",
    "Table1Result",
    "TextTable",
    "reconfiguration_sweep",
    "sweep_table",
    "ar_processor",
    "figure3_memory_model",
    "figure4_partition_latency",
    "figure5_ar_graph",
    "figure6_dct_graph",
    "format_value",
    "run_experiment",
    "table1_ar_filter",
    "table2_design_points",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
]
