"""The benchmark's three workloads: seeded inputs, one pass, output checks.

``search_mix``
    Five mixed requests solved one after another through
    :func:`repro.core.refine_partitions_bound`, the search
    :meth:`repro.core.TemporalPartitioner.solve` runs, on an executor
    built here so its memory cache can be timed.  Bound by the solver
    across many small windows; exercises the search loops, the
    templates, the memory cache, the primal-first stage and the
    highs/bnb race; bypasses the service and the disk cache.
``service_batch``
    The same five requests through a one-worker
    :class:`repro.service.PartitionService`: a cold batch writes a fresh
    disk cache, then new services on the same file replay the batch.
    With inputs equal to ``search_mix``, the difference isolates
    sharding, the calls into worker processes and the disk tier.
``dct_windows``
    Single window queries on the full 32-task DCT at R=576 (the Table 3
    device), each on a fresh :class:`repro.solve.SolveExecutor` with
    Table 3's settings and a fixed per-window budget.  The only workload
    where backends time out and the greedy fallback answers; a fresh
    executor per query keeps cache and incumbent reuse from hiding a
    solver change.

Every pass checks its outputs after the timed region; a wrong answer is
counted in ``failed`` and never reads as a speed-up.

A pass is timed on the clock that bounds it (``PassResult.seconds``):
``search_mix`` and ``service_batch`` are bound by the solvers, so their
passes are timed in CPU seconds scaled to a reference host speed
(:class:`clock.CpuMeter`); ``dct_windows`` spends most of a pass waiting
out wall-clock budgets, so its passes are timed in wall seconds.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import multiprocessing
import random
import sys
import time
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from pathlib import Path

from clock import CpuMeter
from layers import (
    QUEUE_WAIT,
    WINDOW_SECONDS,
    SpanIndex,
    TimedCache,
    median,
    registry_layers,
    since,
    span_layers,
    tally,
    total,
)
from repro.arch import ReconfigurableProcessor
from repro.core import (
    PartitionerConfig,
    PartitionRequest,
    RefinementConfig,
    SolverSettings,
    refine_partitions_bound,
)
from repro.core.bounds import max_latency, min_latency, packing_min_latency
from repro.core.formulation import FormulationOptions
from repro.core.heuristics import POLICIES, greedy_partition
from repro.ilp.status import SolveStatus
from repro.obs import MemorySink, MetricsRegistry, Tracer
from repro.service import PartitionService
from repro.solve.cache import SolveCache
from repro.solve.disk_cache import DiskSolveCache
from repro.solve.executor import SolveExecutor
from repro.taskgraph import ar_filter, dct_4x4, generators
from repro.taskgraph.validate import validate_graph

#: D_a each batch request reaches at the seed commit, by graph name.
REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: Per-solve budget of the batch requests (the quick benchmark mode).
SOLVE_LIMIT = 12.0
#: Service worker processes.  One: its two racing backends already fill
#: the host's two cores, and more solver threads than cores would time
#: the scheduler along with the solvers.
WORKERS = 1
#: Warm replays per service pass.
REPLAYS = 2

#: Seeds of the fork-join, layered and series-parallel graphs of the
#: batch of ``benchmarks/test_service.py::build_batch``.
PAPER_SEEDS = (5, 7, 11)
#: The graph seeds a nonzero ``--seed`` draws from, one pool per
#: generator.  Each was checked to stay conclusive at the batch's
#: settings, and the series-parallel graphs of one pool cost the same
#: to within 0.1 CPU seconds (1.2-1.3 s each), so the draw does not
#: widen the spread of the batch's time between seeds.  Not every seed
#: qualifies: series-parallel seeds 0, 2, 5 and 6 degrade, s3 and s8
#: cost twice as much as s1 and s13 nine times, and fork-join seeds up
#: to 12 other than 5, 6 and 11 take 1.15-3x as long as s11.
HELD_OUT_SEEDS = ((11,), (0,), (1, 12, 15))

#: Per-window budget of ``dct_windows``: HiGHS decides the wide windows
#: at N=10-12 in 0.7-1.4 s, so 4 s leaves about 3x margin for verdicts
#: to repeat.
DCT_BUDGET = 4.0
DCT_PARTITIONS = range(8, 13)
#: Where ``d_max`` is drawn, as a share of ``[packing_min_latency(N),
#: MaxLatency(N)]``.  Deep windows time out at every N; wide windows are
#: decided in about a second at N=10-12 and time out at N=8-9 (both
#: checked at a 10 s budget), so no draw sits on a verdict boundary.
DCT_BANDS = ((0.01, 0.05), (0.35, 0.9))


@dataclass(frozen=True)
class Window:
    """One window solve as the caller saw it."""

    seconds: float
    #: Every backend used up its budget.
    degraded: bool
    #: Degraded, but the greedy fallback still found a valid design.
    late: bool


@dataclass
class PassResult:
    """What one pass of a workload measured and checked."""

    wall_s: float = 0.0
    #: The pass's time on the workload's clock (see the module docstring).
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    windows: list[Window] = field(default_factory=list)
    partition_bounds: int = 0
    bound_prunes: int = 0
    d_a_sum: float = 0.0
    #: Scaled CPU seconds to start a service and its worker pool (set-up).
    pool_start_s: list[float] = field(default_factory=list)
    replay_s: list[float] = field(default_factory=list)
    #: Peak resident memory of the service's worker and manager processes.
    worker_rss_mib: float = 0.0
    #: Per-layer values only a traced pass measures.
    layers: dict[str, float] = field(default_factory=dict)

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {why}", file=sys.stderr)

    def add_trace(self, trace) -> None:
        """Account the window solves of one search trace."""
        self.partition_bounds += len({r.num_partitions for r in trace})
        for record in trace:
            if record.backend == "" and not record.degraded:
                # reduce_latency's LP/packing bound emptied the window
                # before any solve.
                self.bound_prunes += 1
                continue
            self.windows.append(
                Window(
                    record.wall_time,
                    record.degraded,
                    record.degraded and record.achieved is not None,
                )
            )


def design_problem(design, processor, achieved, d_max=None) -> str | None:
    """Why ``design`` is not a valid answer with latency ``achieved``."""
    if design is None:
        return "no design"
    violations = design.audit(processor)
    if violations:
        return f"design fails audit: {violations[0]}"
    latency = design.total_latency(processor)
    if achieved is None or abs(latency - achieved) > 1e-6:
        return f"reported latency {achieved} but the design has {latency}"
    if d_max is not None and latency > d_max + 1e-6:
        return f"latency {latency} above the window's d_max {d_max}"
    return None


# -- the five-request batch -----------------------------------------------------


@dataclass(frozen=True)
class BatchRequest:
    request: PartitionRequest
    #: D_a at the seed commit; a result must lie within delta of it.
    reference: float

    @property
    def name(self) -> str:
        return self.request.graph.name

    @property
    def processor(self) -> ReconfigurableProcessor:
        return self.request.processor

    def check(self, result: PassResult, design, achieved) -> None:
        problem = design_problem(design, self.processor, achieved)
        delta = self.request.config.search.delta
        if problem is None and abs(achieved - self.reference) > delta:
            problem = (
                f"D_a {achieved} is more than delta={delta} from the "
                f"reference {self.reference}"
            )
        if problem is not None:
            result.fail(self.name, problem)
        else:
            result.d_a_sum += achieved


def build_batch(seed: int) -> list[BatchRequest]:
    """The five requests: seed 0 is the paper batch; any other seed
    draws its three synthetic graphs from the held-out seeds."""
    rng = random.Random(seed)
    fork_seed, layered_seed, sp_seed = (
        tuple(rng.choice(pool) for pool in HELD_OUT_SEEDS)
        if seed
        else PAPER_SEEDS
    )
    ar_device = ReconfigurableProcessor(400.0, 128.0, 20.0, name="ar_device")
    r576 = ReconfigurableProcessor(576.0, 2048.0, 30.0, name="R576")

    def request(graph, processor, delta) -> PartitionRequest:
        return PartitionRequest(
            graph=graph,
            processor=processor,
            config=PartitionerConfig(
                search=RefinementConfig(delta=delta, time_budget=120.0),
                solver=SolverSettings.fast(time_limit=SOLVE_LIMIT),
            ),
        )

    requests = [
        request(ar_filter(), ar_device, 10.0),
        # Shards open their full latency window, so the reduced DCT needs
        # the paper's coarse Table 6/8 tolerance to stay decidable.
        request(dct_4x4(rows=2), r576, 800.0),
        request(
            generators.fork_join_graph(
                branches=3, branch_length=2, seed=fork_seed
            ),
            ar_device,
            25.0,
        ),
        request(
            generators.layered_graph(
                num_levels=3, tasks_per_level=2, seed=layered_seed
            ),
            ar_device,
            25.0,
        ),
        request(
            generators.series_parallel_graph(depth=2, seed=sp_seed),
            ar_device,
            25.0,
        ),
    ]
    reference = json.loads(REFERENCE_FILE.read_text())
    return [BatchRequest(r, reference[r.graph.name]) for r in requests]


def in_process_layers(sink: MemorySink, registry, caches) -> dict[str, float]:
    flat = tally(registry.snapshot())
    layers = registry_layers(flat)
    layers.update(span_layers(SpanIndex(sink.events), flat))
    layers["solve.cache_s"] = sum(cache.seconds for cache in caches)
    layers["obs.events"] = len(sink.events)
    return layers


# -- workloads ----------------------------------------------------------------


class SearchMix:
    """The batch, one request after another, in this process."""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed

    def prepare(self) -> None:
        self.requests = build_batch(self.seed)

    def run_pass(self, traced: bool) -> PassResult:
        result = PassResult()
        sink = MemorySink()
        tracer = Tracer(sink) if traced else None
        registry = MetricsRegistry() if traced else None
        caches: list[TimedCache] = []
        answers = []
        start = time.perf_counter()
        with CpuMeter() as meter:
            for req in self.requests:
                try:
                    answers.append(self._solve(req, tracer, registry, caches))
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    answers.append(exc)
        result.wall_s = time.perf_counter() - start
        result.seconds = meter.seconds
        for req, answer in zip(self.requests, answers):
            result.attempted += 1
            if isinstance(answer, Exception):
                result.fail(req.name, f"raised {answer!r}")
                continue
            design, achieved, trace = answer
            req.check(result, design, achieved)
            result.add_trace(trace)
        if traced:
            result.layers = in_process_layers(sink, registry, caches)
        return result

    @staticmethod
    def _solve(req: BatchRequest, tracer, registry, caches):
        """``TemporalPartitioner.solve`` without the ``partition_range``
        it adds to the outcome, on the executor that ``solve`` would
        build but with its memory cache wrapped in a timer.  Traced and
        untraced passes both run this."""
        config = req.request.config
        settings = dataclasses.replace(
            config.solver, tracer=tracer, metrics=registry
        )
        cache = TimedCache(SolveCache(metrics=registry))
        caches.append(cache)
        if config.validate:
            validate_graph(
                req.request.graph,
                resource_capacity=req.processor.resource_capacity,
            ).raise_if_failed()
        result = refine_partitions_bound(
            req.request.graph,
            req.processor,
            config=config.search,
            options=config.formulation,
            settings=settings,
            executor=SolveExecutor(settings, cache=cache),
        )
        return result.design, result.achieved, result.trace


class ServiceBatch:
    """The batch through the service: one cold batch, then warm replays."""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self._cache_ids = itertools.count()

    def prepare(self) -> None:
        self.requests = build_batch(self.seed)
        # A one-task request that starts the worker pool before timing;
        # no solve cache, so it leaves the disk file untouched.
        self.warm_up = PartitionRequest(
            graph=generators.layered_graph(
                num_levels=1, tasks_per_level=1, seed=0
            ),
            processor=self.requests[0].processor,
            config=PartitionerConfig(
                solver=SolverSettings(enable_cache=False)
            ),
        )

    def run_pass(self, traced: bool) -> PassResult:
        result = PassResult()
        cache_path = self.scratch / f"solves-{next(self._cache_ids)}.sqlite"
        try:
            # Create the store before the workers open it.  When two
            # workers create a fresh store at once, one can meet a lock
            # that DiskSolveCache takes for corruption: it moves the live
            # file aside, and every request of the batch then fails with
            # "disk I/O error" (about 1 in 5 simultaneous first opens).
            DiskSolveCache(cache_path).close()
            cold = self._serve(cache_path, result, traced)
            file_bytes = sum(
                p.stat().st_size
                for p in self.scratch.glob(cache_path.name + "*")
            )
            replays = [
                self._serve(cache_path, result, traced)
                for _ in range(REPLAYS)
            ]
        finally:
            for path in self.scratch.glob(cache_path.name + "*"):
                path.unlink()
        result.wall_s = cold.wall_s
        result.seconds = cold.seconds
        result.replay_s = [replay.wall_s for replay in replays]
        for req, answer in zip(self.requests, cold.answers):
            result.attempted += 1
            if isinstance(answer, Exception):
                result.fail(req.name, f"raised {answer!r}")
                continue
            req.check(result, answer.design, answer.total_latency)
            result.add_trace(answer.trace)
        for replay in replays:
            for req, before, after in zip(
                self.requests, cold.answers, replay.answers
            ):
                result.attempted += 1
                problem = replay_problem(before, after)
                if problem is not None:
                    result.fail(f"{req.name} (warm replay)", problem)
        if traced:
            layers = registry_layers(cold.counts)
            # The disk tier serves the replays; report one of them.
            warm = registry_layers(replays[0].counts)
            layers["disk.hits"] = warm["disk.hits"]
            layers["disk.hit_frac"] = warm["disk.hit_frac"]
            layers["disk.file_mb"] = file_bytes / 2**20
            shards = [e for e in cold.events if e["name"] == "shard_completed"]
            worker_solve_s = total(cold.counts, f"{WINDOW_SECONDS}_sum")
            layers.update(
                {
                    "service.shards": len(shards),
                    "service.shards_skipped": sum(
                        1 for e in shards if e["attrs"].get("skipped")
                    ),
                    "service.request_p50_s": median(cold.request_s),
                    "service.queue_wait_s": total(
                        cold.counts, f"{QUEUE_WAIT}_sum"
                    ),
                    "service.worker_solve_s": worker_solve_s,
                    "service.utilization": worker_solve_s
                    / (cold.wall_s * WORKERS),
                    "obs.events": len(cold.events),
                }
            )
            result.layers = layers
        return result

    def _serve(self, cache_path: Path, result: PassResult, traced: bool):
        """One batch through a new service on ``cache_path``."""
        sink = MemorySink()
        registry = MetricsRegistry() if traced else None
        # The worker processes count while they run: the meters stop
        # before the service closes.
        with CpuMeter() as starting:
            service = PartitionService(
                max_workers=WORKERS,
                cache_path=str(cache_path),
                tracer=Tracer(sink) if traced else None,
                metrics=registry,
            )
            try:
                service.submit(self.warm_up).result()
            except BaseException:
                service.close()
                raise
        result.pool_start_s.append(starting.seconds)
        try:
            before = tally(registry.snapshot()) if traced else {}
            mark = len(sink.events)
            submitted = time.perf_counter()
            with CpuMeter() as batch:
                futures = {
                    service.submit(req.request): i
                    for i, req in enumerate(self.requests)
                }
                answers: list = [None] * len(futures)
                request_s = [0.0] * len(futures)
                for future in as_completed(futures):
                    i = futures[future]
                    request_s[i] = time.perf_counter() - submitted
                    try:
                        answers[i] = future.result()
                    except Exception as exc:  # noqa: BLE001 - counted
                        answers[i] = exc
            wall_s = time.perf_counter() - submitted
            after = tally(registry.snapshot()) if traced else {}
            result.worker_rss_mib = max(
                result.worker_rss_mib, children_peak_rss_mib()
            )
        finally:
            service.close()
        return Served(
            wall_s=wall_s,
            seconds=batch.seconds,
            answers=answers,
            request_s=request_s,
            counts=since(after, before),
            events=[e for e in sink.events[mark:] if e["type"] == "event"],
        )


def children_peak_rss_mib() -> float:
    """Summed peak resident memory (``VmHWM``) of this process's live
    child processes, in MiB (0 where ``/proc`` is unavailable)."""
    peak = 0.0
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak += int(line.split()[1]) / 1024.0
    return peak


@dataclass
class Served:
    wall_s: float
    #: Scaled CPU seconds of the batch, worker processes included.
    seconds: float
    answers: list
    #: Seconds from submitting the batch to each request's completion.
    request_s: list[float]
    counts: dict
    events: list[dict]


def replay_problem(before, after) -> str | None:
    """Why a warm replay does not reproduce the cold outcome."""
    if isinstance(after, Exception):
        return f"raised {after!r}"
    if isinstance(before, Exception):
        return None  # the cold failure is already counted
    if after.feasible != before.feasible:
        return "feasibility differs from the cold batch"
    if not after.feasible:
        return None
    if after.total_latency != before.total_latency:
        return (
            f"D_a {after.total_latency} differs from the cold batch's "
            f"{before.total_latency}"
        )
    if after.design.as_assignment() != before.design.as_assignment():
        return "design differs from the cold batch"
    return None


@dataclass(frozen=True)
class DctQuery:
    num_partitions: int
    d_min: float
    d_max: float


class DctWindows:
    """Seeded window queries on the full DCT, each on a fresh executor."""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed

    def prepare(self) -> None:
        self.graph = dct_4x4()
        self.processor = ReconfigurableProcessor(
            576.0, 2048.0, 30.0, name="R576_CT30"
        )
        # Symmetry breaking, as Table 3 runs it.
        self.options = FormulationOptions(symmetry_breaking=True)
        c_t = self.processor.reconfiguration_time
        rng = random.Random(self.seed)
        queries = []
        for n in DCT_PARTITIONS:
            low = packing_min_latency(self.graph, self.processor, n)
            high = max_latency(self.graph, n, c_t)
            for band in DCT_BANDS:
                queries.append(
                    DctQuery(
                        n,
                        min_latency(self.graph, n, c_t),
                        low + rng.uniform(*band) * (high - low),
                    )
                )
        rng.shuffle(queries)
        self.queries = queries
        #: Known designs an UNSAT verdict must not contradict.
        self.references = [
            greedy_partition(self.graph, self.processor, policy).design
            for policy in POLICIES
        ]

    def run_pass(self, traced: bool) -> PassResult:
        result = PassResult()
        sink = MemorySink()
        tracer = Tracer(sink) if traced else None
        registry = MetricsRegistry() if traced else None
        caches: list[TimedCache] = []
        answers = []
        start = time.perf_counter()
        for query in self.queries:
            settings = SolverSettings(
                time_limit=DCT_BUDGET, tracer=tracer, metrics=registry
            )
            # The cache SolveExecutor would build, timed; traced and
            # untraced passes both run it.
            cache = TimedCache(SolveCache(metrics=registry))
            caches.append(cache)
            try:
                answers.append(
                    SolveExecutor(settings, cache=cache).solve_window(
                        self.graph,
                        self.processor,
                        query.num_partitions,
                        query.d_max,
                        query.d_min,
                        self.options,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - counted as failed
                answers.append(exc)
        result.wall_s = result.seconds = time.perf_counter() - start
        result.partition_bounds = len(DCT_PARTITIONS)
        known = self.references + [
            a.design
            for a in answers
            if not isinstance(a, Exception) and a.design is not None
        ]
        for query, answer in zip(self.queries, answers):
            result.attempted += 1
            what = f"N={query.num_partitions} d_max={query.d_max:.1f}"
            if isinstance(answer, Exception):
                result.fail(what, f"raised {answer!r}")
                continue
            result.windows.append(
                Window(
                    answer.wall_time,
                    answer.degraded,
                    answer.degraded and answer.design is not None,
                )
            )
            problem = self._problem(query, answer, known)
            if problem is not None:
                result.fail(what, problem)
        if traced:
            result.layers = in_process_layers(sink, registry, caches)
        return result

    def _problem(self, query: DctQuery, answer, known) -> str | None:
        if answer.design is not None:
            if answer.design.num_partitions_used > query.num_partitions:
                return (
                    f"design uses {answer.design.num_partitions_used} "
                    f"partitions"
                )
            return design_problem(
                answer.design, self.processor, answer.achieved, query.d_max
            )
        if answer.status is SolveStatus.INFEASIBLE:
            for design in known:
                if (
                    design.num_partitions_used <= query.num_partitions
                    and design.total_latency(self.processor)
                    <= query.d_max + 1e-6
                ):
                    return (
                        "UNSAT verdict, but a known design with "
                        f"{design.num_partitions_used} partitions and "
                        f"latency {design.total_latency(self.processor)} "
                        "fits the window"
                    )
        return None


WORKLOADS = {
    "search_mix": SearchMix,
    "service_batch": ServiceBatch,
    "dct_windows": DctWindows,
}
