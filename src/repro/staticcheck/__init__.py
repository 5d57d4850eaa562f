"""``repro.staticcheck`` — the repo's scope-aware static analysis.

The promotion of ``tools/repro_lint.py`` (PR 4) into an importable
subsystem: a per-module symbol-table/scope engine
(:mod:`repro.staticcheck.scopes`), a plugin rule registry
(:func:`register_rule`) carrying each rule's severity, rationale and
fix hint, typed :class:`Finding` results with text/JSON/SARIF emitters,
a committed findings baseline so new rules land warn-first, and the
``repro-tp lint`` CLI.

Rule packs
----------

* **invariants** (RL001, RL003–RL005) — the original lint rules, re-matched
  through resolved names instead of raw AST spellings;
* **concurrency** (RL006–RL007) — process-pool workers must be pure
  functions of their payload; async bodies must not block;
* **determinism** (RL008) — fingerprint-affecting modules must not
  read clocks/RNG, depend on set-iteration order, or leave compiled
  arrays unfrozen;
* **scenario contracts** (RL009) — registered constraint-family
  builders must be pure functions of their ``BuildContext``.

Run it::

    repro-tp lint                       # default: src tests benchmarks tools
    repro-tp lint --format sarif -o lint.sarif
    repro-tp lint --list-rules

Catalog and engine design: ``docs/staticcheck.md``.
"""

from repro.staticcheck.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.staticcheck.emit import render_json, render_sarif, render_text
from repro.staticcheck.engine import (
    DEFAULT_PATHS,
    CheckResult,
    FileContext,
    Project,
    check_paths,
    check_sources,
)
from repro.staticcheck.findings import (
    Finding,
    Rule,
    iter_rules,
    register_rule,
    rule,
    rule_ids,
)
from repro.staticcheck.scopes import Binding, ModuleScopes, Scope

# Importing the rule modules registers the rules.
from repro.staticcheck import (  # noqa: F401  (registration side effects)
    rules_concurrency,
    rules_contracts,
    rules_core,
    rules_determinism,
)

__all__ = [
    "Baseline",
    "Binding",
    "CheckResult",
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_PATHS",
    "FileContext",
    "Finding",
    "ModuleScopes",
    "Project",
    "Rule",
    "Scope",
    "check_paths",
    "check_sources",
    "iter_rules",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "rule",
    "rule_ids",
]
