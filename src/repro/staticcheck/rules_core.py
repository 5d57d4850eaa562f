"""RL001 and RL003–RL005: the original invariants, ported scope-aware.

These rules shipped first in ``tools/repro_lint.py``; the port keeps
their ids and intent but queries the symbol table instead of raw AST
spellings — ``Tracer(...)`` only fires when ``Tracer`` actually is an
import (or unshadowed global), a compiled-model base is recognized by
what it was *assigned from* as well as by name.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.findings import Finding, register_rule

__all__: list[str] = []

#: Attributes that are *always* CompiledModel arrays when written
#: through an attribute access — the names are unique to the compiled
#: standard form.
_ALWAYS_PROTECTED = frozenset({
    "b_ub", "b_eq",
    "ub_data", "ub_indices", "ub_indptr",
    "eq_data", "eq_indices", "eq_indptr",
    "is_integral",
})

#: Attributes shared with other objects (models have ``lb``/``ub``/``c``
#: too); only flagged when the base object plausibly is a compiled model.
_CONTEXT_PROTECTED = frozenset({"lb", "ub", "c"})

#: Base names that mark the object as a compiled standard form.
_COMPILED_NAMES = frozenset({"compiled", "cm", "form"})

#: Calls whose result is a CompiledModel (sibling constructors and the
#: compile entry points) — a name assigned from one of these is a
#: compiled model regardless of what it is called.
_COMPILED_PRODUCERS = frozenset({
    "compile_model", "with_b_ub", "with_b_eq", "truncate_ub_rows",
})

#: numpy ndarray methods that mutate in place.
_INPLACE_METHODS = frozenset({"fill", "sort", "partition", "put", "resize"})

#: ILP backend entry points that RL004 keeps out of library code.
_BACKEND_ENTRYPOINTS = frozenset({
    "solve_with_highs", "solve_with_bnb", "solve_with_simplex",
    "branch_and_bound", "solve_compiled",
})

#: Modules whose underscore-prefixed names RL005 keeps private.
_FORMULATION_MODULES = frozenset({
    "repro.core.formulation", "repro.core.families",
})


def _base_is_compiled(ctx, node: ast.expr) -> bool:
    """Does ``node`` (the object whose attribute is written) look like
    a compiled model?  Name/attribute-chain heuristics plus the symbol
    table: a name assigned from ``compile_model(...)`` or a sibling
    constructor is a compiled model whatever it is called."""
    if isinstance(node, ast.Name):
        if node.id in _COMPILED_NAMES:
            return True
        binding = ctx.scopes.resolve(node) if ctx.scopes else None
        if binding is not None and binding.value_call_name() in \
                _COMPILED_PRODUCERS:
            return True
        return False
    if isinstance(node, ast.Attribute):
        return node.attr.endswith("_compiled") or node.attr in _COMPILED_NAMES
    return False


def _protected_attribute(ctx, node: ast.expr) -> str | None:
    if not isinstance(node, ast.Attribute):
        return None
    if node.attr in _ALWAYS_PROTECTED:
        return node.attr
    if node.attr in _CONTEXT_PROTECTED and _base_is_compiled(ctx, node.value):
        return node.attr
    return None


@register_rule(
    "RL001",
    title="no in-place mutation of CompiledModel arrays",
    severity="error",
    rationale=(
        "with_b_ub/with_b_eq/truncate_ub_rows hand out siblings whose "
        "numpy arrays alias the original's (and the template's cached "
        "views), so an in-place write silently corrupts every sibling "
        "and every fingerprint derived from them."
    ),
    fix_hint=(
        "Build a patched sibling with with_b_ub()/with_b_eq(), or copy "
        "the array before mutating."
    ),
)
def _check_rl001(rule, ctx, project) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    attr = _protected_attribute(ctx, target.value)
                    if attr is not None:
                        yield rule.finding(ctx, target, (
                            f"in-place write to CompiledModel array "
                            f"'.{attr}' — arrays alias template/sibling "
                            "views; build a patched sibling with "
                            "with_b_ub()/with_b_eq() instead"
                        ))
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Subscript):
                attr = _protected_attribute(ctx, target.value)
                if attr is not None:
                    yield rule.finding(ctx, target, (
                        f"in-place write to CompiledModel array "
                        f"'.{attr}' — arrays alias template/sibling "
                        "views; build a patched sibling with "
                        "with_b_ub()/with_b_eq() instead"
                    ))
            attr = _protected_attribute(ctx, target)
            if attr is not None:
                yield rule.finding(ctx, node, (
                    f"augmented assignment to CompiledModel array "
                    f"'.{attr}' mutates in place via ndarray.__iadd__ — "
                    "build a patched sibling with with_b_ub()/"
                    "with_b_eq() instead"
                ))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in _INPLACE_METHODS:
                attr = _protected_attribute(ctx, func.value)
                if attr is not None:
                    yield rule.finding(ctx, node, (
                        f"in-place numpy call '.{attr}.{func.attr}()' "
                        "on a CompiledModel array — arrays alias "
                        "template/sibling views; copy first or build a "
                        "patched sibling"
                    ))


@register_rule(
    "RL003",
    title="no tracer construction outside composition roots",
    severity="error",
    rationale=(
        "Library code must trace through the run's tracer "
        "(SolverSettings.tracer); constructing a fresh Tracer anywhere "
        "else in src/repro/ forks the span tree."
    ),
    fix_hint=(
        "Thread the run's tracer through SolverSettings.tracer / "
        "as_tracer(); only composition roots (CLI, service entry) may "
        "build one."
    ),
)
def _check_rl003(rule, ctx, project) -> Iterator[Finding]:
    if not ctx.in_library:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qual = ctx.qualname(node.func)
        if qual is not None and (qual == "Tracer"
                                 or qual.endswith(".Tracer")):
            yield rule.finding(ctx, node, (
                "Tracer constructed in library code — thread the run's "
                "tracer through SolverSettings.tracer / as_tracer() so "
                "the span tree stays whole"
            ))


@register_rule(
    "RL004",
    title="no direct backend calls bypassing the executor",
    severity="error",
    rationale=(
        "Window solves must go through SolveExecutor.solve_window, "
        "which layers the solve cache, the incumbent certificate, "
        "the deadline policy and the greedy fallback around the backend; "
        "a direct backend call skips all of that."
    ),
    fix_hint="Solve through SolveExecutor.solve_window.",
)
def _check_rl004(rule, ctx, project) -> Iterator[Finding]:
    if not ctx.in_solver_client:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qual = ctx.qualname(node.func)
        if qual is None:
            continue
        name = qual.rsplit(".", 1)[-1]
        if name in _BACKEND_ENTRYPOINTS:
            yield rule.finding(ctx, node, (
                f"direct call to backend entry point '{name}' in "
                "library code — solve through "
                "SolveExecutor.solve_window so the cache, incumbent "
                "certificate, deadline policy and greedy fallback apply"
            ))


@register_rule(
    "RL005",
    title="no private formulation-builder imports",
    severity="error",
    rationale=(
        "The constraint builders are implementation details of "
        "repro.core.families/formulation; the supported extension "
        "surface is the scenario registry, which is free to reshape "
        "the private builders."
    ),
    fix_hint=(
        "Register a ConstraintFamily/ScenarioSpec or use the public "
        "model builders."
    ),
)
def _check_rl005(rule, ctx, project) -> Iterator[Finding]:
    if ctx.in_formulation:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 0:
            continue
        if node.module not in _FORMULATION_MODULES:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield rule.finding(ctx, node, (
                    f"import of private name '{alias.name}' from "
                    f"'{node.module}' — builder internals are not an "
                    "extension surface; register a ConstraintFamily/"
                    "ScenarioSpec or use the public builders instead"
                ))
