"""Pre-solve model analysis: certify structure before any backend runs.

The paper's ILP is solved dozens of times per ``Reduce_Latency``
bisection; a malformed or trivially infeasible model wastes a whole
backend solve before anyone notices.  This package certifies a model
*before* it reaches any backend:

* :mod:`repro.analysis.structure` — structural defects of the compiled
  sparse form: dangling columns, empty or trivially-infeasible rows,
  duplicate/dominated rows, contradictory bounds, non-unit coefficients
  on logical rows, numerical-hygiene warnings;
* :mod:`repro.analysis.conformance` — paper-conformance checks that the
  constraint families of Section 3.2.3 are complete (uniqueness (1),
  crossing linearization (4)-(5), resource (6), eta bound (8), latency
  window (9)-(10));
* :mod:`repro.analysis.diagnostics` — the typed
  :class:`Diagnostic`/:class:`AnalysisReport` records both passes emit,
  each tagged with the paper equation it concerns.

Enable in the execution layer with ``SolverSettings(analyze="warn")``
(report and continue) or ``analyze="strict"`` (raise
:class:`ModelAnalysisError` before any backend attempt), or run
``repro-tp analyze graph.json ...`` from the CLI.  The diagnostic
catalog lives in ``docs/analysis.md``.
"""

from repro.analysis.analyzer import (
    ANALYZE_MODES,
    analyze_compiled,
    analyze_model,
)
from repro.analysis.conformance import check_conformance
from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    ModelAnalysisError,
    Severity,
    paper_equation_for,
)
from repro.analysis.structure import analyze_structure

__all__ = [
    "ANALYZE_MODES",
    "AnalysisReport",
    "Diagnostic",
    "ModelAnalysisError",
    "Severity",
    "analyze_compiled",
    "analyze_model",
    "analyze_structure",
    "check_conformance",
    "paper_equation_for",
]
