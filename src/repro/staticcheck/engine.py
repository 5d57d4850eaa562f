"""The analysis engine: file contexts, suppression, orchestration.

One :class:`FileContext` per module carries the parsed tree, the
:class:`~repro.staticcheck.scopes.ModuleScopes` symbol table and the
path classification the rules scope themselves by (library code,
solver-client code, fingerprint-affecting modules, ...).  A
:class:`Project` wraps all contexts of one run and builds the
cross-module *worker index*: functions submitted to a process pool in
module A are checked where they are defined, even when that is module
B (``service/facade.py`` submits ``repro.service.worker.solve_request``
— the RL006 checks run against ``worker.py``).

Suppression comments (``# repro-lint: ignore`` /
``# repro-lint: ignore[RL001, RL006]``) attach to the *full line span*
of the statement they appear in: any line of a multi-line statement,
and — for ``def``/``class`` — any decorator or signature line.  A
finding inside that span with a matching rule id is marked
``suppressed`` rather than dropped, so emitters can still show it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.staticcheck.baseline import Baseline
from repro.staticcheck.findings import Finding, Rule, iter_rules

__all__ = [
    "FileContext",
    "Project",
    "CheckResult",
    "check_paths",
    "check_sources",
    "DEFAULT_PATHS",
]

from repro.staticcheck.scopes import ModuleScopes

#: Default lint roots, mirroring ``repro-tp analyze``'s sibling tools.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "tools")

#: Path fragments never linted: bytecode caches and the staticcheck
#: fixture corpus (every offending fixture would otherwise fire on the
#: repo-wide run — they are lint *test vectors*, not code).
EXCLUDED_FRAGMENTS = ("__pycache__", "tests/staticcheck/fixtures")

_SUPPRESS_RE = re.compile(
    r"repro-lint:\s*ignore(?:\[(?P<codes>[A-Z0-9, ]+)\])?"
)

#: Marker for "all rules suppressed on this line".
_ALL = "*"

#: Modules whose output feeds solve fingerprints (RL008 scope): any
#: nondeterminism here silently forks cache keys and golden
#: trajectories.
FINGERPRINT_MODULES = (
    "repro/solve/fingerprint.py",
    "repro/ilp/compile.py",
    "repro/core/formulation.py",
    "repro/core/families.py",
)


def _relative_display(path: Path) -> str:
    """Posix path relative to the cwd when possible (stable reports)."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _repro_rest(display_path: str) -> str | None:
    """The path inside the ``repro`` package, or ``None``.

    ``src/repro/solve/cache.py`` -> ``repro/solve/cache.py``; works for
    both real repo paths and the virtual paths tests hand to
    :func:`check_sources`.
    """
    if "src/repro/" in display_path:
        return "repro/" + display_path.split("src/repro/", 1)[1]
    return None


@dataclass
class FileContext:
    """One parsed module plus everything the rules query about it."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module | None
    scopes: ModuleScopes | None
    syntax_error: SyntaxError | None = None
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.lines = self.source.splitlines()
        rest = _repro_rest(self.display_path)
        #: Dotted module name when the file lives in the package.
        self.module: str | None = (
            rest[:-3].replace("/", ".") if rest and rest.endswith(".py")
            else None
        )
        #: RL003 scope — library code that must thread the run tracer.
        self.in_library = (
            rest is not None
            and not rest.startswith("repro/obs/")
            and not rest.startswith("repro/staticcheck/")
            and rest != "repro/cli.py"
        )
        #: RL004 scope — library code that consumes the solver layers.
        self.in_solver_client = (
            self.in_library
            and not rest.startswith(("repro/ilp/", "repro/solve/"))
            and rest != "repro/core/formulation.py"
        )
        #: RL005 exemption — the formulation stack's own modules.
        self.in_formulation = rest in (
            "repro/core/formulation.py", "repro/core/families.py"
        )
        #: RL008 scope — fingerprint-affecting modules.
        self.in_fingerprint = rest in FINGERPRINT_MODULES

    # -- helpers rules use ----------------------------------------------------

    def symbol_at(self, node: ast.AST) -> str | None:
        """Dotted enclosing-definition name (``Class.method``) of the
        scope ``node`` executes in, ``None`` at module level."""
        if self.scopes is None:
            return None
        scope = self.scopes.scope_at(node)
        parts: list[str] = []
        while scope is not None and scope.parent is not None:
            if scope.kind in ("function", "class"):
                parts.append(scope.name)
            scope = scope.parent
        # A def/class statement itself executes in its *enclosing*
        # scope; name the definition, not just its container.
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            parts.insert(0, node.name)
        return ".".join(reversed(parts)) or None

    def qualname(self, node: ast.expr) -> str | None:
        return self.scopes.qualname(node) if self.scopes else None

    def dotted(self, name: str) -> str | None:
        """``self.module`` + ``.name`` when the module name is known."""
        return f"{self.module}.{name}" if self.module else None


# -- suppression spans ---------------------------------------------------------


def suppressed_lines(tree: ast.Module,
                     lines: Sequence[str]) -> dict[int, set[str]]:
    """Map line number -> rule ids suppressed there (``"*"`` = all).

    A comment suppresses its own physical line, plus — via statement
    spans — every line of the multi-line statement it sits in and, for
    ``def``/``class``, the decorator/signature block.
    """
    per_line: dict[int, set[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        codes = match.group("codes")
        per_line[number] = (
            {_ALL} if codes is None
            else {code.strip() for code in codes.split(",") if code.strip()}
        )
    if not per_line:
        return {}

    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        body = getattr(node, "body", None)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.decorator_list:
                start = min(d.lineno for d in node.decorator_list)
            end = max(start, node.body[0].lineno - 1)
        elif body and isinstance(body, list) and body \
                and isinstance(body[0], ast.stmt):
            # Other compound statements: the header only (a comment deep
            # inside a loop body must not silence the loop header).
            end = max(start, body[0].lineno - 1)
        else:
            end = node.end_lineno or start
        spans.append((start, end))

    result: dict[int, set[str]] = {
        line: set(codes) for line, codes in per_line.items()
    }
    for start, end in spans:
        span_codes: set[str] = set()
        for line in range(start, end + 1):
            span_codes |= per_line.get(line, set())
        if not span_codes:
            continue
        for line in range(start, end + 1):
            result.setdefault(line, set()).update(span_codes)
    return result


def _is_suppressed(finding: Finding,
                   suppressions: dict[int, set[str]]) -> bool:
    codes = suppressions.get(finding.line)
    return bool(codes) and (_ALL in codes or finding.rule in codes)


# -- the cross-file worker index -----------------------------------------------


class Project:
    """All contexts of one run plus cross-module worker resolution."""

    def __init__(self, files: Iterable[FileContext]) -> None:
        self.files = list(files)
        #: Dotted names of functions submitted to a process pool
        #: anywhere in the run (``repro.service.worker.solve_request``).
        self.process_worker_targets: set[str] = set()
        #: Per-file local worker defs, by ``id(FunctionDef)``.
        self.local_workers: set[int] = set()
        for ctx in self.files:
            if ctx.tree is not None:
                self._index_file(ctx)

    # A receiver "looks like" a process pool when it resolves to a
    # ProcessPoolExecutor construction, or failing resolution, when its
    # name says so — the service's dispatch loop unpacks its pool into
    # a local literally named ``pool``.
    _POOL_NAME = re.compile(r"(^|_)pool$")

    def _is_process_pool(self, ctx: FileContext, receiver: ast.expr) -> bool:
        scopes = ctx.scopes
        assert scopes is not None
        candidates: list[ast.expr] = []
        name = None
        if isinstance(receiver, ast.Name):
            name = receiver.id
            binding = scopes.resolve(receiver)
            if binding is not None and binding.value is not None:
                candidates.append(binding.value)
        elif isinstance(receiver, ast.Attribute):
            name = receiver.attr
            candidates.extend(scopes.attribute_values.get(receiver.attr, ()))
        for value in candidates:
            if not isinstance(value, ast.Call):
                continue
            callee = value.func
            callee_name = (
                callee.id if isinstance(callee, ast.Name)
                else callee.attr if isinstance(callee, ast.Attribute)
                else None
            )
            if callee_name == "ProcessPoolExecutor":
                return True
            if callee_name == "ThreadPoolExecutor":
                return False
        return name is not None and bool(self._POOL_NAME.search(name))

    def _mark_worker(self, ctx: FileContext, func: ast.expr) -> None:
        scopes = ctx.scopes
        assert scopes is not None
        if isinstance(func, ast.Call):
            # functools.partial(fn, ...) and friends: the wrapped
            # callable is the first argument.
            if func.args:
                self._mark_worker(ctx, func.args[0])
            return
        if isinstance(func, ast.Name):
            binding = scopes.resolve(func)
            if binding is None:
                return
            if binding.kind == "def" and binding.node is not None:
                self.local_workers.add(id(binding.node))
            elif binding.kind == "import" and binding.qualname:
                self.process_worker_targets.add(binding.qualname)

    def _index_file(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # pool.submit(fn, ...) / pool.map(fn, ...)
            if (isinstance(func, ast.Attribute)
                    and func.attr in ("submit", "map") and node.args
                    and self._is_process_pool(ctx, func.value)):
                self._mark_worker(ctx, node.args[0])

    # -- queries -------------------------------------------------------------

    def is_process_worker(self, ctx: FileContext, funcdef) -> bool:
        """Is ``funcdef`` (in ``ctx``) submitted to a process pool?

        Matches functions marked at a local submission site and
        functions whose dotted name was submitted from *another* module
        in this run.
        """
        if id(funcdef) in self.local_workers:
            return True
        dotted = ctx.dotted(funcdef.name)
        return dotted is not None and dotted in self.process_worker_targets


# -- orchestration -------------------------------------------------------------


@dataclass
class CheckResult:
    """Everything one run produced."""

    findings: list[Finding]
    files_checked: int

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if f.active]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def baselined(self) -> list[Finding]:
        return [f for f in self.findings if f.baselined]


def _build_context(path: Path, source: str,
                   display_path: str | None = None) -> FileContext:
    display = display_path or _relative_display(path)
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return FileContext(path=path, display_path=display, source=source,
                           tree=None, scopes=None, syntax_error=exc)
    return FileContext(path=path, display_path=display, source=source,
                       tree=tree, scopes=ModuleScopes(tree))


def _run(contexts: list[FileContext], rules: Iterable[Rule],
         baseline: Baseline | None) -> CheckResult:
    project = Project(contexts)
    rules = list(rules)
    findings: list[Finding] = []
    for ctx in contexts:
        if ctx.syntax_error is not None:
            findings.append(Finding(
                rule="RL000", path=ctx.display_path,
                line=ctx.syntax_error.lineno or 0,
                message=f"syntax error: {ctx.syntax_error.msg}",
            ))
            continue
        suppressions = suppressed_lines(ctx.tree, ctx.lines)
        for rule in rules:
            for finding in rule.check(rule, ctx, project):
                if _is_suppressed(finding, suppressions):
                    finding = finding.with_state(suppressed=True)
                elif baseline is not None and baseline.matches(finding):
                    finding = finding.with_state(baselined=True)
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return CheckResult(findings=findings, files_checked=len(contexts))


def _collect(paths: Iterable[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py" and path.exists():
            files.append(path)
        else:
            raise FileNotFoundError(
                f"not a Python file or directory: {path}"
            )
    kept = []
    for file in files:
        posix = file.as_posix()
        if any(fragment in posix or fragment in "/".join(file.parts)
               for fragment in EXCLUDED_FRAGMENTS):
            continue
        kept.append(file)
    return kept


def check_paths(paths: Iterable[Path | str] | None = None,
                rules: Iterable[str] | None = None,
                baseline: Baseline | None = None) -> CheckResult:
    """Lint files and directories (the CLI's entry point)."""
    targets = [Path(p) for p in (paths or DEFAULT_PATHS)]
    contexts = [
        _build_context(file, file.read_text())
        for file in _collect(targets)
    ]
    return _run(contexts, iter_rules(rules), baseline)


def check_sources(sources: Iterable[tuple[str, str]],
                  rules: Iterable[str] | None = None,
                  baseline: Baseline | None = None) -> CheckResult:
    """Lint in-memory sources under *virtual* paths.

    ``sources`` is ``(display_path, source)`` pairs; the display path
    drives the rules' path scoping exactly as an on-disk path would
    (``src/repro/service/facade.py`` gets library-scope rules), which is
    how the fixture suite and the self-tests lint mutated copies of
    real modules without touching the tree.
    """
    contexts = [
        _build_context(Path(display), source, display_path=display)
        for display, source in sources
    ]
    return _run(contexts, iter_rules(rules), baseline)
