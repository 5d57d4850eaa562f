"""The scenario-contract rule pack: RL009.

PR 7's registry documents that every :class:`ConstraintFamily` builder
must be a pure function of its :class:`BuildContext` — the row-group
provenance, the template patch path and the golden-fingerprint identity
all assume that building the same scenario twice appends identical
rows.  This rule enforces the contract statically: builders (and the
``partition_device``/``objective`` hooks of a :class:`ScenarioSpec`)
must not read or write module globals, perform IO, construct
tracers/metrics, or read clocks and random sources.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.findings import Finding, register_rule
from repro.staticcheck.purity import (
    module_state_writes,
    mutable_global_reads,
    nondeterministic_call,
    walk_function_body,
)

__all__: list[str] = []

#: IO entry points a pure builder must not touch.
_IO_CALLS = frozenset({"open", "print", "input"})
_IO_PREFIXES = ("os.", "sys.", "pathlib.", "shutil.", "socket.",
                "subprocess.", "urllib.", "io.")

#: Observability objects whose construction inside a builder forks the
#: run's tracer/metrics plumbing (they must be threaded via settings).
_OBS_CONSTRUCTORS = frozenset({
    "Tracer", "MetricsRegistry", "MetricsServer", "JsonlSink",
    "MemorySink",
})

#: Hook keyword arguments checked on each registry construction, by
#: callee class name.
_HOOK_KEYWORDS = {
    "ConstraintFamily": ("build",),
    "ScenarioSpec": ("partition_device", "objective"),
}

#: Positional index of the ``build`` argument in
#: ``ConstraintFamily(id, build, ...)``.
_BUILD_POSITION = 1


def _callee_class(ctx, node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    else:
        return None
    return name if name in _HOOK_KEYWORDS else None


def _builder_defs(ctx) -> Iterator[tuple[ast.FunctionDef, str]]:
    """Locally defined functions used as family builders or scenario
    hooks, with the role they play."""
    seen: set[int] = set()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _callee_class(ctx, node)
        if callee is None:
            continue
        references: list[tuple[ast.expr, str]] = []
        if callee == "ConstraintFamily" and \
                len(node.args) > _BUILD_POSITION:
            references.append((node.args[_BUILD_POSITION], "build"))
        for kw in node.keywords:
            if kw.arg in _HOOK_KEYWORDS[callee]:
                references.append((kw.value, kw.arg))
        for reference, role in references:
            if isinstance(reference, ast.Lambda):
                continue  # lambdas are too small to hide impurity; skip
            if not isinstance(reference, ast.Name):
                continue
            binding = ctx.scopes.resolve(reference)
            if (binding is not None and binding.kind == "def"
                    and binding.node is not None
                    and id(binding.node) not in seen):
                seen.add(id(binding.node))
                yield binding.node, f"{callee}.{role}"


@register_rule(
    "RL009",
    title="constraint-family builders must be pure",
    severity="error",
    rationale=(
        "The scenario registry's row-group provenance, the template "
        "patch path and the golden-fingerprint identity all assume a "
        "builder appends identical rows for identical BuildContexts; "
        "module-global state, IO, tracer/metrics construction or "
        "clock/RNG reads inside a builder silently break that."
    ),
    fix_hint=(
        "Make the builder a pure function of its BuildContext: pass "
        "parameters through scenario params, thread observability via "
        "SolverSettings."
    ),
)
def _check_rl009(rule, ctx, project) -> Iterator[Finding]:
    for funcdef, role in _builder_defs(ctx):
        symbol = ctx.symbol_at(funcdef)
        label = f"scenario hook '{funcdef.name}' ({role})"
        for node, description in module_state_writes(ctx, funcdef):
            yield rule.finding(ctx, node, (
                f"{description} inside {label} — builders must be pure "
                "functions of their BuildContext"
            ), symbol=symbol)
        for node, description in mutable_global_reads(ctx, funcdef):
            yield rule.finding(ctx, node, (
                f"{description} inside {label} — pass values through "
                "the BuildContext or the scenario's params instead"
            ), symbol=symbol)
        for node in walk_function_body(funcdef):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.qualname(node.func)
            nondet = nondeterministic_call(qual)
            if nondet is not None:
                yield rule.finding(ctx, node, (
                    f"{nondet} read ('{qual}') inside {label} — "
                    "identical BuildContexts must build identical rows"
                ), symbol=symbol)
            elif qual is not None and (
                    qual in _IO_CALLS or qual.startswith(_IO_PREFIXES)):
                yield rule.finding(ctx, node, (
                    f"IO call '{qual}' inside {label} — builders must "
                    "not touch files, streams or the environment"
                ), symbol=symbol)
            else:
                name = qual.rsplit(".", 1)[-1] if qual else None
                if name in _OBS_CONSTRUCTORS:
                    yield rule.finding(ctx, node, (
                        f"'{name}' constructed inside {label} — "
                        "observability is threaded via SolverSettings, "
                        "never built in a family builder"
                    ), symbol=symbol)
