"""Command-line interface: ``repro-tp``.

Subcommands:

``partition``
    Temporally partition a task graph stored as JSON (see
    :mod:`repro.taskgraph.io` for the schema) for a given device, print
    the solution summary and iteration trace, optionally write the
    partitioned design as JSON and/or clustered Graphviz DOT.
``batch``
    Solve a JSON list of partitioning requests concurrently through the
    service layer (:mod:`repro.service`): one worker process per request
    at a time, an optional persistent solve cache (``--cache``), outcomes
    as JSON.
``serve``
    The same service as a JSONL request/response loop on stdin/stdout —
    one request per input line, one outcome per output line.
``bounds``
    Print the Section 3.1 bounds for a graph/device pair without solving.
``generate``
    Emit a synthetic task graph (layered / fork-join / series-parallel /
    random) as JSON — handy for quick experiments and fuzzing.
``estimate``
    Run the HLS estimator on a built-in DFG template and print the
    resulting design points.
``table``
    Regenerate one of the paper's tables (1-8).
``trace``
    Inspect a recorded trace: ``trace report run.jsonl`` prints the
    per-phase time profile and span tree, ``trace export-chrome``
    converts a JSONL event file for ``chrome://tracing`` / Perfetto.
``metrics``
    Inspect recorded metrics: ``metrics report metrics.json`` pretty-
    prints one or more :class:`~repro.obs.MetricsSnapshot` dumps
    (``--metrics-json``), merging them first; ``--prom`` emits the
    Prometheus text exposition instead.
``analyze``
    Build the window model for a graph/device/partition-count
    combination and run the pre-solve analyzer (:mod:`repro.analysis`)
    without solving; prints the diagnostics report (catalog in
    ``docs/analysis.md``).
``lint``
    Run the repo's scope-aware static analysis
    (:mod:`repro.staticcheck`, rules RL001-RL009) over the source
    tree; text, JSON or SARIF output, findings baseline support
    (catalog in ``docs/staticcheck.md``).

Exit codes (shared by all subcommands):

* ``0`` — success (``analyze``: no ERROR diagnostics),
* ``1`` — no solution / no feasible design,
* ``2`` — usage or input error (bad flags, unreadable or invalid
  graph file),
* ``3`` — ``analyze`` found diagnostics at the failing severity,
* ``141`` — stdout was closed early (``| head``); output is cut short
  without a traceback, as a shell reports a producer killed by SIGPIPE.

Examples::

    repro-tp generate layered --levels 3 --per-level 4 -o g.json
    repro-tp bounds g.json --r-max 700
    repro-tp partition g.json --r-max 700 --m-max 512 --ct 40 --gamma 1
    repro-tp partition g.json --r-max 700 --trace-jsonl run.jsonl \\
        --trace-chrome run.trace.json
    repro-tp trace report run.jsonl
    repro-tp analyze g.json --r-max 700 -n 3
    repro-tp estimate vector-product --length 4 --data-width 8
    repro-tp table 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.arch.processor import ReconfigurableProcessor
from repro.core import (
    PartitionerConfig,
    PartitionRequest,
    RefinementConfig,
    SolverSettings,
    TemporalPartitioner,
    bounds,
)
from repro.staticcheck import cli as staticcheck_cli
from repro.taskgraph import generators, io as graph_io
from repro.taskgraph.graph import TaskGraph

__all__ = ["main", "build_parser"]

#: Exit codes of every subcommand (documented in ``--help``).
EXIT_OK = 0
#: No feasible design / no solution found.
EXIT_NO_SOLUTION = 1
#: Usage or input error (argparse uses 2 for bad flags; unreadable or
#: invalid graph files map here too so scripts can tell "bad input"
#: from "clean run, bad model").
EXIT_USAGE = 2
#: ``repro-tp analyze`` found diagnostics at the failing severity.
EXIT_DIAGNOSTICS = 3
#: The reader closed stdout early; 128 + SIGPIPE, as a shell reports it.
EXIT_BROKEN_PIPE = 141


def _add_device_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--r-max", type=float, required=True,
        help="resource capacity of the device (R_max)",
    )
    parser.add_argument(
        "--m-max", type=float, default=2048.0,
        help="on-board memory capacity (M_max), default 2048",
    )
    parser.add_argument(
        "--ct", type=float, default=30.0,
        help="reconfiguration time C_T in ns, default 30",
    )


def _device(args: argparse.Namespace) -> ReconfigurableProcessor:
    return ReconfigurableProcessor(
        resource_capacity=args.r_max,
        memory_capacity=args.m_max,
        reconfiguration_time=args.ct,
        name="cli_device",
    )


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", default="paper_oneshot",
        help="registered formulation scenario (default: paper_oneshot; "
             "e.g. slot_coresident for slotted partial reconfiguration)",
    )
    parser.add_argument(
        "--scenario-param", action="append", default=[], metavar="KEY=VALUE",
        help="scenario parameter override (repeatable), "
             "e.g. --scenario-param num_slots=3",
    )


def _formulation_options(args: argparse.Namespace):
    """Build :class:`FormulationOptions` from the scenario flags.

    Unknown scenario ids and malformed ``KEY=VALUE`` pairs exit with
    :data:`EXIT_USAGE` like any other bad input.
    """
    from repro.core import FormulationOptions

    params: dict[str, float] = {}
    for item in args.scenario_param:
        key, sep, value = item.partition("=")
        if not sep or not key:
            print(
                f"error: --scenario-param expects KEY=VALUE, got {item!r}",
                file=sys.stderr,
            )
            raise SystemExit(EXIT_USAGE)
        try:
            params[key] = float(value)
        except ValueError:
            print(
                f"error: --scenario-param value for {key!r} must be a "
                f"number, got {value!r}",
                file=sys.stderr,
            )
            raise SystemExit(EXIT_USAGE)
    try:
        return FormulationOptions(
            scenario=args.scenario, scenario_params=params
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_graph(path: str) -> TaskGraph:
    """Load a task-graph JSON file, exiting with :data:`EXIT_USAGE` on
    unreadable or invalid input (``GraphValidationError`` is a
    ``ValueError``)."""
    try:
        return graph_io.load_json(Path(path))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load graph {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_text(path_str: str, text: str, label: str) -> Path:
    """Write an output file, creating parent directories.

    A path that cannot be written (missing permissions, a directory in
    the way, ...) aborts the command with a clear message instead of a
    traceback.
    """
    path = Path(path_str)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise SystemExit(f"error: cannot write {label} to {path}: {exc}")
    return path


def _cmd_partition(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    processor = _device(args)
    clustering = None
    if args.cluster:
        from repro.taskgraph import cluster_chains

        clustering = cluster_chains(graph)
        if clustering.num_merged:
            print(
                f"chain clustering: {len(graph)} tasks -> "
                f"{len(clustering.graph)}"
            )
            graph = clustering.graph
        else:
            clustering = None
    registry = _metrics_registry(args)
    tracer = None
    chrome_events = None
    if args.trace_jsonl or args.trace_chrome:
        from repro.obs import JsonlSink, MemorySink, Tracer

        sinks = []
        if args.trace_jsonl:
            try:
                sinks.append(JsonlSink(args.trace_jsonl))
            except OSError as exc:
                raise SystemExit(
                    f"error: cannot write trace to {args.trace_jsonl}: {exc}"
                )
        if args.trace_chrome:
            chrome_events = MemorySink()
            sinks.append(chrome_events)
        tracer = Tracer(*sinks)
    solver = SolverSettings(
        backend=args.backend,
        time_limit=args.solve_limit,
        enable_cache=not args.no_cache,
        tracer=tracer,
        metrics=registry,
    )
    config = PartitionerConfig(
        search=RefinementConfig(
            alpha=args.alpha,
            gamma=args.gamma,
            delta=args.delta,
            delta_fraction=args.delta_fraction,
            time_budget=args.time_budget,
        ),
        formulation=_formulation_options(args),
        solver=solver,
    )
    outcome = TemporalPartitioner(processor, config).solve(
        PartitionRequest(graph=graph)
    )

    if tracer is not None:
        # Every span is closed once the partitioner returns: flush the
        # JSONL sink and export the Chrome trace now, so the files exist
        # even when no feasible design was found.
        tracer.close()
        if args.trace_jsonl:
            print(f"trace events written to {args.trace_jsonl}")
        if args.trace_chrome:
            from repro.obs import write_chrome_trace

            try:
                write_chrome_trace(args.trace_chrome, chrome_events.events)
            except OSError as exc:
                raise SystemExit(
                    "error: cannot write chrome trace to "
                    f"{args.trace_chrome}: {exc}"
                )
            print(f"chrome trace written to {args.trace_chrome}")

    if args.telemetry_json and outcome.telemetry is not None:
        _write_text(
            args.telemetry_json,
            json.dumps(
                outcome.telemetry.to_dict(include_solves=True), indent=2
            ),
            "telemetry",
        )
        print(f"telemetry written to {args.telemetry_json}")
    _dump_metrics(args, registry, sys.stdout)
    if outcome.degraded:
        print(
            "warning: solver budget exhausted on some windows; "
            "result comes from the heuristic fallback (degraded)",
            file=sys.stderr,
        )

    if args.trace:
        print("N  I  D_min        D_max        D_a")
        for record in outcome.trace:
            n, i, d_min, d_max, achieved = record.row(
                processor.reconfiguration_time
            )
            shown = "Inf." if achieved is None else f"{achieved:,.1f}"
            print(f"{n:<3}{i:<3}{d_min:<13,.1f}{d_max:<13,.1f}{shown}")
        print()
        print(outcome.trace.convergence_chart())
        print()

    if not outcome.feasible:
        print("no feasible temporal partitioning found", file=sys.stderr)
        return 1

    design = outcome.design
    if clustering is not None:
        design = clustering.expand(design)
        graph = design.graph
        outcome.design = design

    print(design.summary(processor))
    if args.report:
        from repro.core import design_point_histogram, utilization_report

        print()
        print(utilization_report(outcome.design, processor).table().render())
        histogram = design_point_histogram(outcome.design)
        chosen = ", ".join(f"{k}: {v}" for k, v in histogram.items())
        print(f"design points chosen: {chosen}")
    if args.out_json:
        _write_text(
            args.out_json,
            json.dumps(outcome.design.as_assignment(), indent=2),
            "assignment",
        )
        print(f"assignment written to {args.out_json}")
    if args.out_dot:
        partition_of = {
            name: outcome.design.partition_of(name)
            for name in graph.task_names
        }
        _write_text(
            args.out_dot, graph_io.to_dot(graph, partition_of), "DOT file"
        )
        print(f"clustered DOT written to {args.out_dot}")
    return 0


def _batch_request(
    entry, base_dir: Path, line_label: str
) -> PartitionRequest:
    """Decode one batch/serve entry into a :class:`PartitionRequest`.

    ``entry["graph"]`` is either a path to a task-graph JSON file
    (resolved relative to ``base_dir``) or an inline graph payload;
    optional ``processor``/``config`` keys use the service wire format.
    """
    from repro.service import wire as service_wire

    if not isinstance(entry, dict) or "graph" not in entry:
        print(
            f"error: {line_label}: expected an object with a 'graph' key",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_USAGE)
    graph_spec = entry["graph"]
    if isinstance(graph_spec, str):
        graph_path = Path(graph_spec)
        if not graph_path.is_absolute():
            graph_path = base_dir / graph_path
        graph = _load_graph(str(graph_path))
    else:
        try:
            graph = graph_io.from_dict(graph_spec)
        except (ValueError, KeyError, TypeError) as exc:
            print(
                f"error: {line_label}: invalid inline graph: {exc}",
                file=sys.stderr,
            )
            raise SystemExit(EXIT_USAGE)
    return PartitionRequest(
        graph=graph,
        processor=(
            None
            if entry.get("processor") is None
            else service_wire.decode_processor(entry["processor"])
        ),
        config=(
            None
            if entry.get("config") is None
            else service_wire.decode_config(entry["config"])
        ),
    )


def _service_config(args: argparse.Namespace) -> PartitionerConfig:
    return PartitionerConfig(
        search=RefinementConfig(
            delta=args.delta,
            time_budget=args.time_budget,
        ),
        solver=SolverSettings(time_limit=args.solve_limit),
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.service import PartitionService

    requests_path = Path(args.requests)
    try:
        payload = json.loads(requests_path.read_text())
    except (OSError, ValueError) as exc:
        print(
            f"error: cannot read batch file {args.requests}: {exc}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if not isinstance(payload, list):
        print(
            "error: batch file must hold a JSON list of requests",
            file=sys.stderr,
        )
        return EXIT_USAGE
    requests = [
        _batch_request(entry, requests_path.parent, f"request {i}")
        for i, entry in enumerate(payload, 1)
    ]
    registry = _metrics_registry(args)
    with PartitionService(
        processor=_device(args),
        config=_service_config(args),
        max_workers=args.workers,
        cache_path=args.cache,
        metrics=registry,
    ) as service:
        outcomes = service.solve_batch(requests)
    _dump_metrics(args, registry)
    results = [
        outcome.to_dict(include_trace=args.trace) for outcome in outcomes
    ]
    text = json.dumps(results, indent=2)
    if args.output:
        _write_text(args.output, text, "batch results")
        print(f"{len(results)} outcomes written to {args.output}")
    else:
        print(text)
    feasible = sum(1 for outcome in outcomes if outcome.feasible)
    print(
        f"batch: {feasible}/{len(outcomes)} feasible, "
        f"{sum(1 for o in outcomes if o.degraded)} degraded",
        file=sys.stderr,
    )
    return EXIT_OK if feasible == len(outcomes) else EXIT_NO_SOLUTION


def _metrics_registry(args: argparse.Namespace):
    """A :class:`MetricsRegistry` when any metrics flag asks for one."""
    wants = bool(getattr(args, "metrics_json", None)) or (
        getattr(args, "metrics_port", None) is not None
    )
    if not wants:
        return None
    from repro.obs import MetricsRegistry

    return MetricsRegistry()


def _dump_metrics(args: argparse.Namespace, registry, file=None) -> None:
    """Write ``--metrics-json``; the notice goes to ``file`` (stderr by
    default, where it cannot mix with JSON results on stdout)."""
    if registry is None or not getattr(args, "metrics_json", None):
        return
    _write_text(
        args.metrics_json,
        json.dumps(registry.snapshot().to_dict(), indent=2),
        "metrics",
    )
    print(f"metrics written to {args.metrics_json}", file=file or sys.stderr)


def _cmd_serve(args: argparse.Namespace) -> int:
    """JSONL request/response loop over stdin/stdout.

    One request object per input line (same shape as ``batch`` entries);
    one outcome object per output line, in input order.  A blank line or
    EOF ends the session.  Designed for driving from another process
    without any network dependency.  With ``--metrics-port`` a
    background HTTP thread additionally serves the live
    :class:`~repro.obs.MetricsRegistry` on ``/metrics`` (Prometheus
    text exposition) and ``/metrics.json`` for the session's lifetime.
    A request whose worker died twice (it is resubmitted once) is
    answered with an ``error`` line; the session goes on.
    """
    from repro.service import PartitionService, ShardWorkerError

    registry = _metrics_registry(args)
    server = None
    if args.metrics_port is not None:
        from repro.obs import MetricsServer

        server = MetricsServer(registry, port=args.metrics_port)
        server.start()
        print(f"metrics at {server.url}", file=sys.stderr, flush=True)
    try:
        with PartitionService(
            processor=_device(args),
            config=_service_config(args),
            max_workers=args.workers,
            cache_path=args.cache,
            metrics=registry,
        ) as service:
            served = 0
            for line in sys.stdin:
                line = line.strip()
                if not line:
                    break
                try:
                    entry = json.loads(line)
                    request = _batch_request(
                        entry, Path.cwd(), f"line {served + 1}"
                    )
                except (ValueError, SystemExit):
                    print(
                        json.dumps({"error": "invalid request"}), flush=True
                    )
                    continue
                try:
                    outcome = service.submit(request).result()
                except ShardWorkerError as exc:
                    # Only this request fails; the service respawns its
                    # worker pool for the next line.
                    print(json.dumps({"error": str(exc)}), flush=True)
                    continue
                print(
                    json.dumps(outcome.to_dict(include_trace=args.trace)),
                    flush=True,
                )
                served += 1
    finally:
        if server is not None:
            server.stop()
    _dump_metrics(args, registry)
    print(f"served {served} requests", file=sys.stderr)
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    processor = _device(args)
    prange = bounds.partition_range(graph, processor)
    print(f"graph: {graph.name} ({len(graph)} tasks, {graph.num_edges} edges)")
    print(f"N_min^l (min-area partitions): {prange.lower_bound}")
    print(f"N_min^u (max-area partitions): {prange.upper_seed}")
    for n in prange:
        d_max = bounds.max_latency(graph, n, processor.reconfiguration_time)
        d_min = bounds.min_latency(graph, n, processor.reconfiguration_time)
        print(f"N={n}: D_min={d_min:,.1f}  D_max={d_max:,.1f}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "layered":
        graph = generators.layered_graph(
            args.levels, args.per_level, seed=args.seed
        )
    elif args.kind == "fork-join":
        graph = generators.fork_join_graph(
            args.branches, args.branch_length, seed=args.seed
        )
    elif args.kind == "series-parallel":
        graph = generators.series_parallel_graph(args.depth, seed=args.seed)
    else:
        graph = generators.random_dag(
            args.tasks, seed=args.seed, edge_probability=args.density
        )
    if args.output:
        graph_io.save_json(graph, args.output)
        print(f"{graph.name}: {len(graph)} tasks -> {args.output}")
    else:
        print(json.dumps(graph_io.to_dict(graph), indent=2))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.hls import (
        EstimatorConfig,
        estimate_design_points,
        filter_section_dfg,
        fir_dfg,
        vector_product_dfg,
    )

    if args.template == "vector-product":
        dfg = vector_product_dfg(
            args.length, args.data_width, args.data_width + 4
        )
    elif args.template == "filter-section":
        dfg = filter_section_dfg(args.length, args.data_width)
    else:
        dfg = fir_dfg(args.length, args.data_width)
    points = estimate_design_points(
        dfg, config=EstimatorConfig(max_points=args.max_points)
    )
    print(f"{dfg.name}: {len(dfg)} operations")
    for dp in points:
        print(f"  {dp}  modules={dp.module_set}")
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    from repro.core import partition_latency_curve

    graph = _load_graph(args.graph)
    processor = _device(args)
    counts = None
    if args.min_n is not None or args.max_n is not None:
        lo = args.min_n or 1
        hi = args.max_n or (lo + 4)
        counts = list(range(lo, hi + 1))
    curve = partition_latency_curve(
        graph,
        processor,
        partition_counts=counts,
        delta=args.delta,
        settings=SolverSettings(time_limit=args.solve_limit),
    )
    print(curve.table(
        f"Partition/latency trade-off ({graph.name}, "
        f"C_T={processor.reconfiguration_time:g} ns)"
    ).render())
    return 0 if curve.best() is not None else 1


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.core import build_model, diagnose_infeasibility

    graph = _load_graph(args.graph)
    processor = _device(args)
    d_max = args.d_max
    if d_max is None:
        d_max = bounds.max_latency(
            graph, args.partitions, processor.reconfiguration_time
        )
    tp = build_model(graph, processor, args.partitions, d_max)
    solution = tp.solve(
        backend="highs", first_feasible=True, time_limit=args.solve_limit
    )
    if solution.status.has_solution:
        design = tp.design_from(solution)
        print(
            f"feasible at N={args.partitions}, d_max={d_max:g}: "
            f"latency {design.total_latency(processor):,.1f} ns"
        )
        return 0
    report = diagnose_infeasibility(tp)
    print(f"infeasible at N={args.partitions}, d_max={d_max:g}")
    print(f"diagnosis: {report.message}")
    for family, restored in sorted(report.detail.items()):
        marker = "CULPRIT" if restored else "ok"
        print(f"  {family:<16}{marker}")
    return 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_model
    from repro.core import build_model

    graph = _load_graph(args.graph)
    processor = _device(args)
    d_max = args.d_max
    if d_max is None:
        d_max = bounds.max_latency(
            graph, args.partitions, processor.reconfiguration_time
        )
    options = _formulation_options(args)
    tp = build_model(
        graph, processor, args.partitions, d_max, args.d_min, options
    )
    report = analyze_model(tp)
    if args.json:
        payload = {
            "graph": graph.name,
            "num_partitions": args.partitions,
            "scenario": options.scenario,
            "d_min": args.d_min,
            "d_max": d_max,
            **report.to_dict(),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"analyzing {graph.name} at N={args.partitions}, "
            f"window [{args.d_min:g}, {d_max:g}]"
        )
        print(report.render())
    failing = report.errors if not args.strict else report.diagnostics
    return EXIT_DIAGNOSTICS if failing else EXIT_OK


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs import PhaseProfile, load_events, render_span_tree

    try:
        events = load_events(args.file)
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    profile = PhaseProfile.from_events(events)
    print(profile.report(top=args.top))
    if not args.no_tree:
        print()
        print("span tree")
        print("---------")
        print(render_span_tree(events, max_depth=args.depth))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.obs import jsonl_to_chrome

    try:
        out = jsonl_to_chrome(args.file, args.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"chrome trace written to {out}")
    return 0


def _load_snapshots(path: str):
    """Parse a ``--metrics-json`` dump (one snapshot object, a JSON list
    of them, or JSONL with one snapshot per line) into snapshots."""
    from repro.obs import MetricsSnapshot

    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        payload = json.loads(text)
        payloads = payload if isinstance(payload, list) else [payload]
    except ValueError:
        try:
            payloads = [
                json.loads(line)
                for line in text.splitlines()
                if line.strip()
            ]
        except ValueError as exc:
            print(
                f"error: {path} is neither JSON nor JSONL: {exc}",
                file=sys.stderr,
            )
            raise SystemExit(EXIT_USAGE)
    try:
        return [MetricsSnapshot.from_dict(p) for p in payloads]
    except (ValueError, KeyError, TypeError) as exc:
        print(
            f"error: {path}: not a metrics snapshot: {exc}", file=sys.stderr
        )
        raise SystemExit(EXIT_USAGE)


def _render_metrics_table(snapshot) -> str:
    """Human-readable summary of one (possibly merged) snapshot."""
    lines: list[str] = []
    for name in snapshot.names():
        family = snapshot.family(name)
        lines.append(f"{name} ({family['kind']}) — {family['help']}")
        labelnames = family["labelnames"]
        for key in sorted(family["samples"]):
            label = (
                "{" + ", ".join(
                    f"{n}={v}" for n, v in zip(labelnames, key)
                ) + "}"
                if labelnames
                else "-"
            )
            if family["kind"] == "histogram":
                count, total = snapshot.histogram_stats(name, *key)
                parts = [f"count={count}", f"sum={total:.6g}"]
                for q, tag in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                    estimate = snapshot.quantile(name, q, *key)
                    if estimate is not None:
                        parts.append(f"{tag}<={estimate:g}")
                lines.append(f"  {label:<40} {' '.join(parts)}")
            else:
                value = snapshot.value(name, *key)
                shown = (
                    f"{int(value)}" if value == int(value) else f"{value:g}"
                )
                lines.append(f"  {label:<40} {shown}")
    return "\n".join(lines)


def _cmd_metrics_report(args: argparse.Namespace) -> int:
    from repro.obs import MetricsSnapshot, render_promtext

    merged = MetricsSnapshot.empty()
    for path in args.files:
        for snapshot in _load_snapshots(path):
            merged = merged.merge(snapshot)
    if not merged:
        print("no metrics recorded", file=sys.stderr)
        return EXIT_NO_SOLUTION
    if args.prom:
        sys.stdout.write(render_promtext(merged))
    elif args.json:
        print(json.dumps(merged.to_dict(), indent=2))
    else:
        print(_render_metrics_table(merged))
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    return staticcheck_cli.run(args)


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments import (
        DCT_EXPERIMENTS,
        table1_ar_filter,
        table2_design_points,
    )

    settings = SolverSettings(time_limit=args.solve_limit)
    if args.number == 1:
        print(table1_ar_filter(settings=settings).table.render())
    elif args.number == 2:
        print(table2_design_points().render())
    else:
        result = DCT_EXPERIMENTS[args.number](
            settings=settings, time_budget=args.time_budget
        )
        print(result.table().render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tp",
        description="Temporal partitioning with design space exploration "
        "(DATE 1999 reproduction)",
        epilog="exit codes: 0 success; 1 no feasible design/solution; "
        "2 usage or input error; 3 'analyze' found failing diagnostics; "
        "141 stdout closed early",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    partition = subparsers.add_parser(
        "partition", help="partition a JSON task graph"
    )
    partition.add_argument("graph", help="task graph JSON file")
    _add_device_arguments(partition)
    partition.add_argument("--alpha", type=int, default=0)
    partition.add_argument("--gamma", type=int, default=0)
    partition.add_argument(
        "--delta", type=float, default=None,
        help="latency tolerance (absolute); default: fraction of D_max",
    )
    partition.add_argument("--delta-fraction", type=float, default=0.02)
    partition.add_argument("--time-budget", type=float, default=300.0)
    partition.add_argument("--solve-limit", type=float, default=30.0)
    partition.add_argument("--backend", default="highs",
                           choices=("highs", "bnb"),
                           help="ILP backend that answers every window "
                           "solve")
    partition.add_argument("--no-cache", action="store_true",
                           help="disable solve memoization")
    _add_scenario_arguments(partition)
    partition.add_argument("--telemetry-json", default=None,
                           help="write execution-layer telemetry "
                           "(backend wins, cache hits, per-solve stats) "
                           "as JSON")
    partition.add_argument("--trace", action="store_true",
                           help="print the iteration trace")
    partition.add_argument("--report", action="store_true",
                           help="print per-partition utilization")
    partition.add_argument("--cluster", action="store_true",
                           help="merge linear task chains before solving "
                           "(smaller ILP; chains stay co-located)")
    partition.add_argument("--out-json", default=None,
                           help="write the assignment as JSON")
    partition.add_argument("--out-dot", default=None,
                           help="write a partition-clustered DOT file")
    partition.add_argument("--trace-jsonl", default=None,
                           help="record structured trace events (spans, "
                           "backend attempts, cache hits) as JSONL; inspect "
                           "with 'repro-tp trace report'")
    partition.add_argument("--trace-chrome", default=None,
                           help="write a Chrome trace-event-format JSON "
                           "for chrome://tracing / Perfetto")
    partition.add_argument("--metrics-json", default=None,
                           help="record labeled counters/histograms "
                           "(window solves, backend attempts, cache tiers) "
                           "and write the snapshot as JSON; inspect with "
                           "'repro-tp metrics report'")
    partition.set_defaults(func=_cmd_partition)

    def _add_service_arguments(sub: argparse.ArgumentParser) -> None:
        _add_device_arguments(sub)
        sub.add_argument(
            "--workers", type=int, default=2,
            help="worker processes, each solving one whole request "
            "at a time; 0 runs inline (no subprocesses), default 2",
        )
        sub.add_argument(
            "--cache", default=None,
            help="persistent solve-cache SQLite file shared by all "
            "workers and requests",
        )
        sub.add_argument("--delta", type=float, default=None,
                         help="latency tolerance (absolute)")
        sub.add_argument("--time-budget", type=float, default=300.0)
        sub.add_argument("--solve-limit", type=float, default=30.0)
        sub.add_argument("--trace", action="store_true",
                         help="include the iteration trace in each "
                         "outcome payload")
        sub.add_argument("--metrics-json", default=None,
                         help="write the merged service+worker metrics "
                         "snapshot as JSON on exit; inspect with "
                         "'repro-tp metrics report'")

    batch = subparsers.add_parser(
        "batch",
        help="solve a batch of partitioning requests via the service",
        description="Read a JSON list of requests (each an object with "
        "'graph' — a task-graph JSON path or inline payload — and "
        "optional 'processor'/'config' overrides in the service wire "
        "format), solve them concurrently over a worker process pool, and "
        "emit the outcomes as JSON.  Exit 0 when every request is "
        "feasible, 1 otherwise.",
    )
    batch.add_argument("requests", help="JSON file with a list of requests")
    _add_service_arguments(batch)
    batch.add_argument("-o", "--output", default=None,
                       help="write outcomes to this file instead of stdout")
    batch.set_defaults(func=_cmd_batch)

    serve = subparsers.add_parser(
        "serve",
        help="JSONL request/response partitioning loop on stdin/stdout",
        description="Read one request object per stdin line (same shape "
        "as 'batch' entries), write one outcome object per stdout line. "
        "A blank line or EOF ends the session.",
    )
    _add_service_arguments(serve)
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve live metrics over HTTP on this port (0 picks a free "
        "one; the chosen URL is printed to stderr): Prometheus text on "
        "/metrics, snapshot JSON on /metrics.json",
    )
    serve.set_defaults(func=_cmd_serve)

    bounds_cmd = subparsers.add_parser(
        "bounds", help="print Section 3.1 bounds without solving"
    )
    bounds_cmd.add_argument("graph")
    _add_device_arguments(bounds_cmd)
    bounds_cmd.set_defaults(func=_cmd_bounds)

    generate = subparsers.add_parser(
        "generate", help="emit a synthetic task graph as JSON"
    )
    generate.add_argument(
        "kind",
        choices=("layered", "fork-join", "series-parallel", "random"),
    )
    generate.add_argument("--levels", type=int, default=3)
    generate.add_argument("--per-level", type=int, default=3)
    generate.add_argument("--branches", type=int, default=3)
    generate.add_argument("--branch-length", type=int, default=2)
    generate.add_argument("--depth", type=int, default=3)
    generate.add_argument("--tasks", type=int, default=10)
    generate.add_argument("--density", type=float, default=0.2)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", default=None)
    generate.set_defaults(func=_cmd_generate)

    estimate = subparsers.add_parser(
        "estimate", help="estimate design points for a DFG template"
    )
    estimate.add_argument(
        "template",
        choices=("vector-product", "filter-section", "fir"),
    )
    estimate.add_argument("--length", type=int, default=4,
                          help="vector length / tap count")
    estimate.add_argument("--data-width", type=int, default=8)
    estimate.add_argument("--max-points", type=int, default=6)
    estimate.set_defaults(func=_cmd_estimate)

    curve = subparsers.add_parser(
        "curve",
        help="map the partition-count/latency trade-off curve",
    )
    curve.add_argument("graph")
    _add_device_arguments(curve)
    curve.add_argument("--min-n", type=int, default=None)
    curve.add_argument("--max-n", type=int, default=None)
    curve.add_argument("--delta", type=float, default=None)
    curve.add_argument("--solve-limit", type=float, default=15.0)
    curve.set_defaults(func=_cmd_curve)

    diagnose = subparsers.add_parser(
        "diagnose",
        help="explain why a graph/device/partition-count combination "
        "has no solution",
    )
    diagnose.add_argument("graph")
    _add_device_arguments(diagnose)
    diagnose.add_argument("--partitions", "-n", type=int, required=True)
    diagnose.add_argument(
        "--d-max", type=float, default=None,
        help="latency upper bound incl. overhead; default MaxLatency(N)",
    )
    diagnose.add_argument("--solve-limit", type=float, default=30.0)
    diagnose.set_defaults(func=_cmd_diagnose)

    analyze = subparsers.add_parser(
        "analyze",
        help="run the pre-solve model analyzer without solving",
        description="Build the window model and run the structural and "
        "paper-conformance analyzer passes (repro.analysis) without "
        "invoking any solver backend.  Exit codes: 0 = no failing "
        "diagnostics, 2 = usage/input error, 3 = diagnostics found at "
        "the failing severity (errors; with --strict also warnings).",
    )
    analyze.add_argument("graph", help="task graph JSON file")
    _add_device_arguments(analyze)
    analyze.add_argument("--partitions", "-n", type=int, required=True)
    analyze.add_argument(
        "--d-max", type=float, default=None,
        help="latency upper bound incl. overhead; default MaxLatency(N)",
    )
    analyze.add_argument(
        "--d-min", type=float, default=0.0,
        help="latency lower bound (adds the eq (10) window row when > 0)",
    )
    _add_scenario_arguments(analyze)
    analyze.add_argument("--json", action="store_true",
                         help="emit the report as JSON")
    analyze.add_argument("--strict", action="store_true",
                         help="exit 3 on warnings too, not just errors")
    analyze.set_defaults(func=_cmd_analyze)

    table = subparsers.add_parser(
        "table", help="regenerate one of the paper's tables"
    )
    table.add_argument("number", type=int, choices=range(1, 9))
    table.add_argument("--solve-limit", type=float, default=15.0)
    table.add_argument("--time-budget", type=float, default=300.0)
    table.set_defaults(func=_cmd_table)

    trace = subparsers.add_parser(
        "trace", help="inspect a recorded trace (JSONL event file)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    report = trace_sub.add_parser(
        "report", help="print the phase profile and span tree"
    )
    report.add_argument("file", help="JSONL event file (--trace-jsonl)")
    report.add_argument("--top", type=int, default=15,
                        help="number of phases to show, default 15")
    report.add_argument("--no-tree", action="store_true",
                        help="skip the span tree")
    report.add_argument("--depth", type=int, default=None,
                        help="maximum span-tree depth")
    report.set_defaults(func=_cmd_trace_report)
    export = trace_sub.add_parser(
        "export-chrome",
        help="convert a JSONL event file to Chrome trace-event JSON",
    )
    export.add_argument("file", help="JSONL event file (--trace-jsonl)")
    export.add_argument("output", help="Chrome trace JSON to write")
    export.set_defaults(func=_cmd_trace_export)

    metrics = subparsers.add_parser(
        "metrics", help="inspect recorded metrics snapshots"
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    metrics_report = metrics_sub.add_parser(
        "report",
        help="merge and pretty-print metrics snapshots (--metrics-json)",
        description="Read one or more metrics snapshot files (a JSON "
        "object, a JSON list, or JSONL with one snapshot per line), "
        "merge them — merging is commutative, so file order does not "
        "matter — and print the result.  Exit 1 when no metrics were "
        "recorded.",
    )
    metrics_report.add_argument(
        "files", nargs="+", help="snapshot JSON/JSONL files (--metrics-json)"
    )
    metrics_report.add_argument(
        "--prom", action="store_true",
        help="emit Prometheus text exposition instead of the table",
    )
    metrics_report.add_argument(
        "--json", action="store_true",
        help="emit the merged snapshot as JSON instead of the table",
    )
    metrics_report.set_defaults(func=_cmd_metrics_report)

    lint = subparsers.add_parser(
        "lint",
        help="run the repo's scope-aware static analysis (RL001-RL009)",
        description="Scope-aware static analysis over the repo sources: "
        "compiled-model immutability, thread/process-pool worker "
        "discipline, async non-blocking, fingerprint determinism and "
        "scenario-builder purity.  Rule catalog: docs/staticcheck.md.  "
        "Exit codes: 0 = clean, 1 = active findings, 2 = usage/IO "
        "error.",
    )
    staticcheck_cli.add_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``repro-tp ... | head``).  Point stdout
        # at devnull so the interpreter's exit-time flush of what is
        # still buffered cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
