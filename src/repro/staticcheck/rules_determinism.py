"""The determinism rule pack: RL008.

Fingerprint-affecting modules (``solve/fingerprint.py``,
``ilp/compile.py``, ``core/formulation.py``, ``core/families.py``) must
produce bit-identical output for identical inputs: solve-cache keys,
golden trajectories and the service's serial-identical outcomes all
assume it.
Three construct classes silently break that promise:

* **wall-clock or RNG reads** — two builds of the same model diverge;
* **set-iteration-order dependence** — ``str`` hashes are randomized
  per process (PYTHONHASHSEED), so iterating a set of task names
  yields different row orders in different processes;
* **unfrozen compiled arrays** — without the ``writeable=False``
  freeze, an accidental in-place write mutates every aliased sibling
  *after* its fingerprint was taken.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.findings import Finding, register_rule
from repro.staticcheck.purity import nondeterministic_call

__all__: list[str] = []

#: Calls whose order-sensitivity matters when applied to a set.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})


def _is_set_expression(ctx, node: ast.expr) -> bool:
    """Is ``node`` statically recognizable as a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        qual = ctx.qualname(node.func)
        if qual in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and ctx.scopes is not None:
        binding = ctx.scopes.resolve(node)
        return binding is not None and binding.is_set_valued
    return False


def _iteration_sites(tree: ast.Module) -> Iterator[tuple[ast.AST, ast.expr]]:
    """(reporting node, iterable expression) for every iteration."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node, node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for comp in node.generators:
                yield node, comp.iter
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name in _ORDER_SENSITIVE_CALLS and node.args:
                yield node, node.args[0]
            elif (isinstance(func, ast.Attribute) and func.attr == "join"
                    and node.args):
                yield node, node.args[0]


@register_rule(
    "RL008",
    title="fingerprint-affecting modules must be deterministic",
    severity="error",
    rationale=(
        "Solve-cache keys, golden trajectories and the service's "
        "serial-identical outcomes assume compiling the same model twice is bit-identical; "
        "wall-clock/RNG reads, set-iteration order (randomized per "
        "process via str hashing) and unfrozen compiled arrays all "
        "silently fork fingerprints."
    ),
    fix_hint=(
        "Sort before iterating sets, take timestamps outside the "
        "fingerprint path, and freeze compiled arrays with "
        "writeable=False."
    ),
)
def _check_rl008(rule, ctx, project) -> Iterator[Finding]:
    if not ctx.in_fingerprint:
        return
    tree = ctx.tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            label = nondeterministic_call(ctx.qualname(node.func))
            if label is not None:
                yield rule.finding(ctx, node, (
                    f"{label} read "
                    f"('{ctx.qualname(node.func)}') in a "
                    "fingerprint-affecting module — identical inputs "
                    "must compile bit-identically; take timestamps/"
                    "randomness outside the fingerprint path"
                ))
    for site, iterable in _iteration_sites(tree):
        if _is_set_expression(ctx, iterable):
            yield rule.finding(ctx, site, (
                "iteration over a set in a fingerprint-affecting "
                "module — str-hash randomization makes the order "
                "differ between processes; wrap it in sorted(...)"
            ))
    # Required freeze: any module defining CompiledModel must freeze
    # its arrays (writeable=False / setflags(write=False)) somewhere —
    # deleting the freeze re-enables silent cross-sibling mutation.
    compiled_class = next(
        (node for node in ast.walk(tree)
         if isinstance(node, ast.ClassDef)
         and node.name == "CompiledModel"),
        None,
    )
    if compiled_class is not None and not _has_freeze(tree):
        yield rule.finding(ctx, compiled_class, (
            "CompiledModel arrays are never frozen in this module — "
            "the writeable=False freeze is what turns aliased-sibling "
            "mutation into an immediate error; restore it (see "
            "_frozen in ilp/compile.py)"
        ), symbol="CompiledModel")


def _has_freeze(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        # array.flags.writeable = False
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr == "writeable"
                        and isinstance(node.value, ast.Constant)
                        and node.value.value is False):
                    return True
        # array.setflags(write=False)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "setflags":
                for kw in node.keywords:
                    if (kw.arg == "write"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is False):
                        return True
    return False
