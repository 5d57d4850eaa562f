"""The ``repro-tp lint`` subcommand.

Exit codes mirror ``repro-tp analyze``'s documented convention:

* ``0`` — clean (no active findings; suppressed/baselined are fine),
* ``1`` — active findings,
* ``2`` — usage or IO error (bad paths, unreadable baseline).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.staticcheck.baseline import (
    DEFAULT_BASELINE_NAME,
    Baseline,
)
from repro.staticcheck.emit import (
    FORMATS,
    render_json,
    render_sarif,
    render_text,
)
from repro.staticcheck.engine import DEFAULT_PATHS, check_paths
from repro.staticcheck.findings import iter_rules

__all__ = ["add_arguments", "run", "main"]

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags to the ``repro-tp lint`` parser."""
    parser.add_argument(
        "paths", nargs="*", type=Path, default=None,
        help="files or directories to lint "
        f"(default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output", "-o", type=Path, default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline file (default: ./"
        f"{DEFAULT_BASELINE_NAME} when it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the active findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="also list suppressed and baselined findings (text format)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


def _resolve_baseline(args: argparse.Namespace) -> Baseline | None:
    if args.no_baseline:
        return None
    path = args.baseline
    if path is None:
        default = Path(DEFAULT_BASELINE_NAME)
        if default.exists():
            path = default
    if path is None:
        return None
    return Baseline.load(path)


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation."""
    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.id}  [{rule.severity}]  {rule.title}")
            print(f"       why: {rule.rationale}")
            print(f"       fix: {rule.fix_hint}")
        return EXIT_OK
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        known = {rule.id for rule in iter_rules()}
        unknown = sorted(set(rules) - known)
        if unknown:
            print(f"error: unknown rule id(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return EXIT_USAGE
    if args.write_baseline:
        baseline = None  # rebuilding it: the old contents are irrelevant
    else:
        try:
            baseline = _resolve_baseline(args)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        result = check_paths(args.paths or None, rules=rules,
                             baseline=baseline)
    except (OSError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.write_baseline:
        target = args.baseline or Path(DEFAULT_BASELINE_NAME)
        Baseline.from_findings(result.active).write(target)
        print(
            f"wrote {len(result.active)} finding(s) to {target}",
            file=sys.stderr,
        )
        return EXIT_OK

    if args.format == "json":
        report = render_json(result.findings, result.files_checked)
    elif args.format == "sarif":
        report = render_sarif(result.findings, result.files_checked)
    else:
        report = render_text(result.findings, result.files_checked,
                             verbose=args.verbose)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(report + "\n")
        if args.format == "text":
            # Keep the one-line summary on the console too.
            print(report.splitlines()[-1])
    else:
        print(report)
    return EXIT_FINDINGS if result.active else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.staticcheck.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro-tp lint",
        description="Scope-aware repo static analysis (RL001-RL009): "
        "compiled-model immutability, process-pool worker "
        "discipline, async non-blocking, fingerprint determinism and "
        "scenario-builder purity.  Exit codes: 0 = clean, 1 = active "
        "findings, 2 = usage/IO error.",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
