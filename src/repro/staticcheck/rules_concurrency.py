"""The concurrency rule pack: RL006 (process-pool workers) and RL007
(blocking calls in async bodies).

Both rules are grounded in the service layer:
``service/facade.py`` submits ``repro.service.worker.solve_request`` to
a ``ProcessPoolExecutor`` — a served outcome equals the serial search's
only while workers are pure functions of their payload — and the same
module's asyncio facade promises the event loop never blocks on a
solve.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.findings import Finding, register_rule
from repro.staticcheck.purity import (
    closure_captures,
    module_state_writes,
    mutable_global_reads,
    walk_own_body,
)

__all__: list[str] = []

#: Calls that block the calling thread, by resolved dotted name.
_BLOCKING_CALLS = frozenset({
    "time.sleep",
    "open",
    "input",
    "socket.create_connection",
    "socket.socket",
    "urllib.request.urlopen",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output",
    "requests.get", "requests.post", "requests.request",
})


@register_rule(
    "RL006",
    title="process-pool workers must not touch shared module state",
    severity="error",
    rationale=(
        "Process-pool worker functions run in separate processes; "
        "module globals they capture are stale copies and writes to "
        "them are silently lost, so any dependence on them breaks the "
        "service's guarantee that a request's outcome equals the "
        "serial search's (service/facade.py restores each outcome from "
        "the worker's report, assuming the worker is a pure function "
        "of its payload and the cancel event)."
    ),
    fix_hint=(
        "Pass all inputs through the wire payload; communicate results "
        "only via the returned report."
    ),
)
def _check_rl006(rule, ctx, project) -> Iterator[Finding]:
    for funcdef in ast.walk(ctx.tree):
        if not isinstance(funcdef, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
            continue
        if not project.is_process_worker(ctx, funcdef):
            continue
        symbol = ctx.symbol_at(funcdef)
        for node, description in module_state_writes(ctx, funcdef):
            yield rule.finding(ctx, node, (
                f"{description} inside process-pool worker "
                f"'{funcdef.name}' — worker processes see stale "
                "copies and their writes are lost; pass state through "
                "the payload and the returned report"
            ), symbol=symbol)
        for node, description in mutable_global_reads(ctx, funcdef):
            yield rule.finding(ctx, node, (
                f"{description} inside process-pool worker "
                f"'{funcdef.name}' — each worker process gets its own "
                "stale copy; pass the value through the wire payload "
                "instead"
            ), symbol=symbol)
        for node, description in closure_captures(ctx, funcdef):
            yield rule.finding(ctx, node, (
                f"{description} inside process-pool worker "
                f"'{funcdef.name}' — workers must be self-contained "
                "top-level functions; captured state does not cross "
                "the process boundary coherently"
            ), symbol=symbol)


def _submit_result_wait(ctx, node: ast.Call) -> bool:
    """Is ``node`` a ``.result()`` call that waits on a pool future —
    either ``pool.submit(...).result()`` inline or through a name
    assigned from a ``.submit(...)`` call?"""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "result"):
        return False
    receiver = func.value
    if isinstance(receiver, ast.Call) and isinstance(
            receiver.func, ast.Attribute) and \
            receiver.func.attr == "submit":
        return True
    if isinstance(receiver, ast.Name) and ctx.scopes is not None:
        binding = ctx.scopes.resolve(receiver)
        value = binding.value if binding is not None else None
        if isinstance(value, ast.Call) and isinstance(
                value.func, ast.Attribute) and value.func.attr == "submit":
            return True
    return False


@register_rule(
    "RL007",
    title="no blocking calls inside async bodies",
    severity="error",
    rationale=(
        "The service facade promises the event loop never blocks on a "
        "solve; a time.sleep, sync file/socket IO, or a bare "
        "Future.result() inside an async def stalls every other "
        "in-flight request."
    ),
    fix_hint=(
        "Use await asyncio.sleep()/asyncio.to_thread()/"
        "asyncio.wrap_future() instead of the blocking form."
    ),
)
def _check_rl007(rule, ctx, project) -> Iterator[Finding]:
    if not ctx.in_library:
        return
    for funcdef in ast.walk(ctx.tree):
        if not isinstance(funcdef, ast.AsyncFunctionDef):
            continue
        symbol = ctx.symbol_at(funcdef)
        for node in walk_own_body(funcdef):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.qualname(node.func)
            if qual in _BLOCKING_CALLS:
                yield rule.finding(ctx, node, (
                    f"blocking call '{qual}' inside async def "
                    f"'{funcdef.name}' — the event loop stalls every "
                    "in-flight request; use the asyncio equivalent "
                    "(asyncio.sleep / asyncio.to_thread)"
                ), symbol=symbol)
            elif _submit_result_wait(ctx, node):
                yield rule.finding(ctx, node, (
                    "blocking Future.result() on a pool submission "
                    f"inside async def '{funcdef.name}' — await "
                    "asyncio.wrap_future(...) instead so the event "
                    "loop keeps serving other requests"
                ), symbol=symbol)
