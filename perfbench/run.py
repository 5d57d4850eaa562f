"""Run one workload of the layered benchmark and print its metrics.

    python3 perfbench/run.py --workload search_mix --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures passes with
tracing off while the next pass is expected to end within ``--seconds``
(at least one pass) and prints the end-to-end metrics; ``--trace 1``
runs two pairs of untraced and traced passes and prints the per-layer
metrics.  ``--workload all`` runs every workload, each in its own
process, and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value and
unit, named as in ``BENCHMARK.json``).  Workloads and metrics are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from clock import CpuMeter
from layers import median, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Set-up is repeated this often per run; set-up time is the mean.
PREPARE_REPEATS = 5
#: Imports happen once per process, so fresh interpreters time the same
#: imports again, and the import time is their median.  This process's
#: own first import is left out: it alone may compile bytecode.
IMPORT_PROBES = 5
#: Untraced/traced pairs of a ``--trace 1`` run.
TRACE_PAIRS = 2
IMPORT_PROBE = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import clock\n"
    "with clock.CpuMeter() as meter:\n"
    "    import workloads\n"
    "print(meter.seconds)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[w["name"] for w in SPEC["workloads"]] + ["all"],
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="input seed (0: the paper batch)"
    )
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"])
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(kind: str, result) -> None:
    print(
        f"{kind}: {result.seconds:.3f} s on the workload's clock, "
        f"{result.wall_s:.3f} s wall",
        file=sys.stderr,
    )


def measure(workload, seconds: float) -> list:
    """Untraced passes while the next one, as long as the average so
    far, would end within ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(traced=False))
        report(f"pass {len(passes)}", passes[-1])
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def measure_traced(workload) -> tuple[list, list]:
    """Untraced and traced passes in the order plain, traced, traced,
    plain, ...: a steady drift of the host's speed cancels out of the
    traced/untraced ratio."""
    plain, traced = [], []
    for pair in range(TRACE_PAIRS):
        for flag in (False, True) if pair % 2 == 0 else (True, False):
            result = workload.run_pass(traced=flag)
            (traced if flag else plain).append(result)
            report("traced pass" if flag else "plain pass", result)
    return plain, traced


def import_probe() -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return float(done.stdout)


def end_to_end(passes, setup_s: float) -> dict[str, float]:
    windows = [w for p in passes for w in p.windows]
    pool_starts = [s for p in passes for s in p.pool_start_s]
    decided = sum(1 for w in windows if not w.degraded)
    return {
        "pass_s": median(p.seconds for p in passes),
        "setup_s": setup_s + median(pool_starts),
        "decided_frac": decided / len(windows) if windows else 0.0,
        # This process plus the service's worker and manager processes.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0
        + max(p.worker_rss_mib for p in passes),
    }


def per_layer(traced_passes, plain_passes) -> dict[str, float]:
    """The first traced pass's layers, and the tracing overhead over all
    pairs with the spread between untraced passes next to it: an
    overhead inside that spread is not resolved."""
    traced = traced_passes[0]
    plain_s = [p.seconds for p in plain_passes]
    seconds = [w.seconds for w in traced.windows]
    values = {
        "core.windows": len(traced.windows),
        "core.partition_bounds": traced.partition_bounds,
        "core.bound_prunes": traced.bound_prunes,
        "core.d_a_sum_ns": traced.d_a_sum,
        "solve.window_p50_s": median(seconds),
        "solve.window_tail_s": tail(seconds),
        "solve.degraded_windows": sum(1 for w in traced.windows if w.degraded),
        "solve.late_certificates": sum(1 for w in traced.windows if w.late),
        "service.replay_s": median(traced.replay_s),
        "obs.trace_overhead_frac": sum(p.seconds for p in traced_passes)
        / sum(plain_s)
        - 1.0,
        "obs.pass_spread_frac": (max(plain_s) - min(plain_s))
        / median(plain_s),
    }
    values.update(traced.layers)
    names = [m["name"] for m in SPEC["per_layer"]]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise KeyError(f"per-layer values not in BENCHMARK.json: {unknown}")
    # Layers a workload never reaches (or cannot observe across the
    # service's process boundary) read zero.
    return {name: values.get(name, 0.0) for name in names}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The result line: the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no src/repro under {ROOT}; run from the root of a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Keep every temporary file in the checkout: the disk caches, and the
    # sockets of the service's manager process (multiprocessing puts them
    # under TMPDIR and removes them at exit).
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp_root)
    import workloads  # imports repro, numpy and scipy

    scratch = Path(tempfile.mkdtemp(prefix="run-"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        # Set-up is timed like the solver-bound passes: in CPU seconds
        # scaled to the reference host speed (see clock.py).
        with CpuMeter() as preparing:
            for _ in range(PREPARE_REPEATS):
                workload.prepare()
        if args.trace:
            plain, traced = measure_traced(workload)
            passes = plain + traced
            values = per_layer(traced, plain)
            spec = SPEC["per_layer"]
        else:
            import_s = median(import_probe() for _ in range(IMPORT_PROBES))
            passes = measure(workload, args.seconds)
            values = end_to_end(
                passes, import_s + preparing.seconds / PREPARE_REPEATS
            )
            spec = SPEC["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec
    }
    print(f"{args.workload}: {len(passes)} pass(es), seed {args.seed}")
    for name, metric in metrics.items():
        print(f"  {name:<28}{metric['value']:>14.6g} {metric['unit']}")
    emit(failed == 0, attempted, failed, metrics)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table, one JSON line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        command = [
            sys.executable, __file__, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        if done.returncode != 0:
            print(f"perfbench: {workload} exited {done.returncode}",
                  file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}/{name}"] = metric
    emit(correct, attempted, failed, metrics)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
