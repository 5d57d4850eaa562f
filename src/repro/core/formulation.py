"""The combined temporal-partitioning + design-space-exploration ILP.

This module implements Section 3.2.3 of the paper.  Given a task graph, a
processor, a partition budget ``N`` and a latency window
``[D_min, D_max]``, :func:`build_model` constructs a
:class:`repro.ilp.Model` with:

========  =====================================================  =========
variable  meaning                                                 paper
========  =====================================================  =========
``Y``     ``Y[t,p,m] = 1`` iff task ``t`` is in partition ``p``   (1)-(2)
          with module set (design point) ``m``
``w``     ``w[p,(t1,t2)] = 1`` iff edge ``t1->t2`` crosses the    (4)-(5)
          boundary of partition ``p`` (producer before ``p``,
          consumer at ``p`` or later)
``d_p``   latency of partition ``p``                              (7)
``eta``   number of partitions actually used                      (8)
========  =====================================================  =========

and the constraints: uniqueness (1), temporal order (2), memory (3),
resource (6), per-path partition latency (7), partition count (8) and the
two-sided latency window (9)-(10).

The non-linear products in (4)-(5) are linearized one-sidedly by default:
``w >= before(t1) + atOrAfter(t2) - 1`` suffices because ``w`` appears
elsewhere only in the memory *capacity* row, which pushes it down (see
:func:`repro.core.families._build_crossing`).  ``FormulationOptions`` can
request the exact two-sided linearization for verification.

The constraint families themselves live in registered builders
(:mod:`repro.core.families`): :func:`_populate_ilp` resolves the
:class:`~repro.core.families.ScenarioSpec` named by
``FormulationOptions.scenario`` (default ``paper_oneshot``, the paper's
exact formulation) and assembles its families in order, recording a
:class:`repro.ilp.compile.RowGroup` provenance span per family.  New
formulation variants are added by registering a scenario, not by
editing this module.

Model construction is two-tier.  :func:`build_model` assembles a fresh
ILP for one latency window — the reference path.  :class:`ModelTemplate`
builds the *window-independent* part once per ``(graph, N, options)``,
compiles it to the sparse standard form of :mod:`repro.ilp.compile`, and
then :meth:`ModelTemplate.instantiate` produces per-window models by
patching only the right-hand sides of the latency rows (9)-(10) —
located via the window family's row group — one ``b_ub`` copy instead
of a full rebuild.  The binary-subdivision search
(:mod:`repro.core.reduce_latency` via
:class:`repro.solve.executor.SolveExecutor`) holds one template across
all its iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.arch.processor import ReconfigurableProcessor
from repro.ilp import CompiledModel, Model, RowGroup, Solution, solve_compiled
from repro.taskgraph.graph import TaskGraph
from repro.core.families import (
    BuildContext,
    build_scenario,
    get_scenario,
    interchangeable_groups,
)
from repro.core.solution import PartitionedDesign, Placement

__all__ = [
    "FormulationOptions",
    "ModelTemplate",
    "TemporalPartitioningModel",
    "build_model",
    "extract_design",
    "interchangeable_groups",
    "lp_latency_lower_bound",
]


@dataclass(frozen=True)
class FormulationOptions:
    """Knobs of the ILP formulation.

    Attributes
    ----------
    order_mode:
        ``"pairwise"`` — the paper's equation (2), one row per edge and
        partition (tighter LP relaxation); ``"index"`` — the compact
        partition-index inequality ``sum p*Y[t1] <= sum p*Y[t2]`` (fewer
        rows, weaker relaxation).  The ablation benchmark compares them.
    two_sided_w:
        Add the exact ``w <= ...`` rows of the linearization instead of
        the sufficient one-sided form.
    include_env_memory:
        Buffer host input until a task's partition and host output from a
        task's partition onward (the ``B(env,t)`` / ``B(t,env)`` terms of
        equation (3)).
    latency_mode:
        How equation (7) is encoded.  ``"paths"`` — the paper's explicit
        per-path rows (tightest; needs path enumeration).  ``"levels"`` —
        a start-time big-M encoding with one row per edge and per
        (task, partition) pair, polynomial regardless of path count
        (weaker LP relaxation; exact on integer points).  ``"auto"``
        (default) uses paths when the graph has at most ``path_limit``
        of them and falls back to levels otherwise.
    path_limit:
        Maximum number of source-sink paths enumerated for the latency
        constraint (7); beyond this, ``"paths"`` raises
        :class:`repro.taskgraph.paths.PathLimitExceeded` and ``"auto"``
        switches to ``"levels"``.
    minimize_latency:
        Attach the objective ``min sum(d_p) + C_T * eta``.  The paper's
        iterative mode leaves the model objective-free (pure constraint
        satisfaction); the optimality oracle of ``core.optimal`` enables
        this.
    symmetry_breaking:
        Add partition-index ordering constraints over *interchangeable*
        tasks (identical design points, predecessors, successors and
        environment I/O).  Such tasks can be permuted in any solution, so
        ordering them removes only duplicates; on the DCT (four identical
        producers and four identical consumers per collection) this
        shrinks the symmetric solution space by ``(4!)^8`` and speeds up
        infeasibility proofs dramatically.  An extension beyond the
        paper; off by default, on in the experiment harness.
    scenario:
        Id of the registered :class:`~repro.core.families.ScenarioSpec`
        whose constraint families build the model.  ``"paper_oneshot"``
        (default) is the paper's formulation; ``"slot_coresident"`` the
        slotted partial-reconfiguration variant.
    scenario_params:
        Scenario parameter overrides as ``(key, value)`` pairs (e.g.
        ``(("num_slots", 3.0),)``).  A mapping or iterable of pairs is
        accepted and normalized to a sorted tuple, keeping options
        hashable (the executor keys its template cache on them) and
        JSON-round-trippable on the wire.
    """

    order_mode: str = "pairwise"
    two_sided_w: bool = False
    include_env_memory: bool = True
    latency_mode: str = "auto"
    path_limit: int = 100_000
    minimize_latency: bool = False
    symmetry_breaking: bool = False
    scenario: str = "paper_oneshot"
    scenario_params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.order_mode not in ("pairwise", "index"):
            raise ValueError(
                f"unknown order_mode {self.order_mode!r}; "
                "expected 'pairwise' or 'index'"
            )
        if self.latency_mode not in ("auto", "paths", "levels"):
            raise ValueError(
                f"unknown latency_mode {self.latency_mode!r}; "
                "expected 'auto', 'paths' or 'levels'"
            )
        get_scenario(self.scenario)  # raises ValueError on unknown ids
        # Normalize mapping / list-of-pairs input (wire decode hands the
        # JSON form straight in) to a sorted tuple of (str, float) pairs.
        params = self.scenario_params
        items = params.items() if isinstance(params, Mapping) else params
        object.__setattr__(
            self,
            "scenario_params",
            tuple(sorted((str(k), float(v)) for k, v in items)),
        )


@dataclass
class TemporalPartitioningModel:
    """A built ILP plus the handles needed to interpret its solutions.

    When produced by :meth:`ModelTemplate.instantiate`, ``compiled``
    carries the window-patched sparse standard form (solves bypass the
    expression layer entirely) and ``base_fingerprint`` the template's
    windowless structure digest (fingerprinting becomes a tuple
    composition instead of a hash).  ``model`` is then the template's
    *shared* expression model, kept in sync with the latest
    instantiation's window rows — use ``compiled`` for anything
    solver-facing.
    """

    model: Model
    graph: TaskGraph
    processor: ReconfigurableProcessor
    num_partitions: int
    d_max: float
    d_min: float
    options: FormulationOptions
    y_name: Mapping[tuple[str, int, int], str] = field(default_factory=dict)
    d_name: Mapping[int, str] = field(default_factory=dict)
    eta_name: str = "eta"
    #: Window-patched sparse standard form (template path); ``None`` when
    #: built freshly by :func:`build_model`.
    compiled: CompiledModel | None = None
    #: Windowless structure digest shared by all sibling instantiations.
    base_fingerprint: str | None = None
    #: Per-family row-group provenance in build order (see
    #: :func:`repro.core.families.build_scenario`).
    row_groups: tuple[RowGroup, ...] | None = None

    def solve(self, **solve_kwargs) -> Solution:
        """Solve the underlying model (see :meth:`repro.ilp.Model.solve`)."""
        if self.compiled is not None:
            return solve_compiled(self.compiled, **solve_kwargs)
        return self.model.solve(**solve_kwargs)

    def compiled_form(self) -> CompiledModel:
        """Compiled standard form with row-group provenance attached."""
        compiled = self.compiled
        if compiled is None:
            compiled = self.model.compile()
        if compiled.row_groups is None and self.row_groups is not None:
            compiled.row_groups = self.row_groups
        return compiled

    def design_from(self, solution: Solution) -> PartitionedDesign:
        """Decode a solver solution into a :class:`PartitionedDesign`."""
        return extract_design(self, solution)


def _populate_ilp(
    graph: TaskGraph,
    processor: ReconfigurableProcessor,
    num_partitions: int,
    options: FormulationOptions,
    d_max: float,
    d_min: float,
    include_lb: bool = False,
) -> tuple[BuildContext, tuple[RowGroup, ...]]:
    """Assemble the scenario's constraint families into a fresh Model.

    Shared by the fresh-build path (:func:`build_model`) and the
    template path (:class:`ModelTemplate`).  The scenario named by
    ``options.scenario`` supplies the family sequence; each family's
    rows are recorded as a :class:`~repro.ilp.compile.RowGroup` span, so
    downstream consumers address rows by family id instead of position.
    The registry guarantees the window-dependent family builds last —
    its rows (``latency_ub`` and, when ``include_lb or d_min > 0``,
    ``latency_lb``) are the only ones whose right-hand sides change
    between bisection windows.  ``include_lb`` makes the lower-bound row
    unconditional so a template can serve windows with ``d_min > 0``.
    """
    scenario = get_scenario(options.scenario)
    model_name = f"tp_{graph.name}_N{num_partitions}"
    if scenario.id != "paper_oneshot":
        model_name += f"_{scenario.id}"
    params = scenario.resolved_params(options)
    ctx = BuildContext(
        graph=graph,
        device=scenario.device(processor, options),
        num_partitions=num_partitions,
        options=options,
        model=Model(model_name),
        d_max=d_max,
        d_min=d_min,
        include_lb=include_lb,
        # An override of a parameter the scenario does not declare (say
        # ``num_slots`` on the paper scenario) changes nothing.
        num_slots=(
            int(params["num_slots"]) if "num_slots" in scenario.params else 1
        ),
    )
    return ctx, build_scenario(scenario, ctx)


def build_model(
    graph: TaskGraph,
    processor: ReconfigurableProcessor,
    num_partitions: int,
    d_max: float,
    d_min: float = 0.0,
    options: FormulationOptions | None = None,
) -> TemporalPartitioningModel:
    """Build the combined partitioning + design-selection ILP.

    ``d_max``/``d_min`` bound the *overall* latency
    ``sum(d_p) + C_T * eta`` (equations (9)-(10)); both include the
    reconfiguration overhead, exactly as produced by
    :func:`repro.core.bounds.max_latency` / ``min_latency``.

    This is the reference single-window path.  A search that slides the
    window over a fixed ``(graph, N, options)`` should build one
    :class:`ModelTemplate` and call :meth:`ModelTemplate.instantiate`
    instead — same model, a fraction of the construction cost.
    """
    if num_partitions < 1:
        raise ValueError("need at least one partition")
    if d_max < d_min:
        raise ValueError(f"empty latency window [{d_min}, {d_max}]")
    options = options or FormulationOptions()
    ctx, row_groups = _populate_ilp(
        graph, processor, num_partitions, options, d_max, d_min
    )
    return TemporalPartitioningModel(
        model=ctx.model,
        graph=graph,
        processor=processor,
        num_partitions=num_partitions,
        d_max=d_max,
        d_min=d_min,
        options=options,
        y_name=ctx.y_name,
        d_name=ctx.d_name,
        eta_name="eta",
        row_groups=row_groups,
    )


class ModelTemplate:
    """Window-independent base model, instantiated per latency window.

    The binary-subdivision search solves the *same* constraint system
    under a sliding window ``[d_min, d_max]``: of the hundreds of rows
    built by :func:`build_model`, only the right-hand sides of
    ``latency_ub`` / ``latency_lb`` (equations (9)-(10)) change between
    iterations.  A template therefore:

    1. builds the expression model **once** with placeholder window rows
       (the lower-bound row is forced in so both window shapes exist),
    2. compiles it **once** to the sparse standard form of
       :mod:`repro.ilp.compile` (CSR arrays, bounds, integrality,
       variable index map),
    3. hashes the windowless structure **once**
       (``base_fingerprint``, the solve cache's native key),

    and :meth:`instantiate` then costs one ``b_ub`` copy plus two scalar
    writes.  When ``d_min == 0`` the trailing ``latency_lb`` row is
    dropped via a zero-copy row truncation, so the instantiated form is
    array-for-array identical to what :func:`build_model` +
    :meth:`repro.ilp.Model.compile` produce for the same window — exact
    solution equivalence, not just agreement.
    """

    def __init__(
        self,
        graph: TaskGraph,
        processor: ReconfigurableProcessor,
        num_partitions: int,
        options: FormulationOptions | None = None,
        tracer=None,
    ) -> None:
        from repro.obs.tracer import as_tracer
        from repro.solve.fingerprint import WINDOW_ROW_NAMES

        if num_partitions < 1:
            raise ValueError("need at least one partition")
        tracer = as_tracer(tracer)
        self.graph = graph
        self.processor = processor
        self.num_partitions = num_partitions
        self.options = options or FormulationOptions()
        scenario = get_scenario(self.options.scenario)
        with tracer.span("template_populate", num_partitions=num_partitions):
            ctx, row_groups = _populate_ilp(
                graph,
                processor,
                num_partitions,
                self.options,
                d_max=0.0,
                d_min=0.0,
                include_lb=True,
            )
        self._model = ctx.model
        self._y_name = ctx.y_name
        self._d_name = ctx.d_name
        #: The scenario's per-partition device (``ScenarioSpec.device``).
        self.device = ctx.device
        with tracer.span("template_compile") as sp:
            compiled = self._model.compile()
            compiled.row_groups = row_groups
            sp.annotate(
                ub_rows=compiled.num_ub_rows,
                eq_rows=compiled.num_eq_rows,
                vars=compiled.num_vars,
            )
        # The window family's rows are located by row-group provenance,
        # not positional convention.  The registry guarantees the family
        # builds last, so dropping its lower-bound row is a zero-copy
        # prefix truncation and every other family's span is untouched.
        window = compiled.row_group(scenario.window_family.id)
        names = tuple(
            compiled.ub_names[i] for i in window.ub_rows()
        )
        if (
            window.num_eq != 0
            or window.num_ub != 2
            or window.ub_stop != compiled.num_ub_rows
            or names != WINDOW_ROW_NAMES
        ):
            raise AssertionError(
                f"window family {scenario.window_family.id!r} must "
                f"contribute exactly the trailing inequality rows "
                f"{WINDOW_ROW_NAMES}; got span {window} with names {names}"
            )
        self._ub_row = window.ub_start
        self._lb_row = window.ub_start + 1
        self._full = compiled
        # Zero-copy prefix view without the latency_lb row, for windows
        # whose lower edge is zero (build_model omits the row there).
        self._no_lb = compiled.truncate_ub_rows(self._lb_row)
        #: Digest of everything but the window rows; shared verbatim by
        #: every instantiation, so per-window fingerprints are composed
        #: without hashing (see :func:`repro.solve.fingerprint
        #: .fingerprint_model`).
        with tracer.span("template_fingerprint"):
            self.base_fingerprint = compiled.fingerprint(
                skip_rows=WINDOW_ROW_NAMES
            )

    def instantiate(
        self, d_min: float, d_max: float
    ) -> TemporalPartitioningModel:
        """Produce the model for one latency window ``[d_min, d_max]``.

        Patches only the right-hand sides of the latency rows (9)-(10);
        matrix structure, bounds, objective and the compiled dense/CSR
        view caches are shared across all windows of this template.
        """
        if d_max < d_min:
            raise ValueError(f"empty latency window [{d_min}, {d_max}]")
        d_min = float(d_min)
        d_max = float(d_max)
        # Keep the shared expression model's window rows in sync so LP
        # dumps and debugging reflect the latest instantiation.
        self._model.set_rhs("latency_ub", d_max)
        self._model.set_rhs("latency_lb", d_min)
        if d_min > 0:
            compiled = self._full.with_b_ub(
                # latency_lb is a >= row: stored negated in the <= block.
                {self._ub_row: d_max, self._lb_row: -d_min}
            )
        else:
            compiled = self._no_lb.with_b_ub({self._ub_row: d_max})
        return TemporalPartitioningModel(
            model=self._model,
            graph=self.graph,
            processor=self.processor,
            num_partitions=self.num_partitions,
            d_max=d_max,
            d_min=d_min,
            options=self.options,
            y_name=self._y_name,
            d_name=self._d_name,
            eta_name="eta",
            compiled=compiled,
            base_fingerprint=self.base_fingerprint,
        )


def lp_latency_lower_bound(
    graph: TaskGraph,
    processor: ReconfigurableProcessor,
    num_partitions: int,
    options: FormulationOptions | None = None,
) -> float:
    """LP-relaxation lower bound on the total latency at ``N`` partitions.

    Solves the *linear relaxation* of the minimize-latency model (no
    latency window), which is a valid lower bound on any integer design's
    ``sum(d_p) + C_T * eta``.  The iterative search uses it to tighten
    ``D_min`` beyond the paper's critical-path bound: bisection windows
    below this value are provably empty and never reach the MILP solver.
    This is an extension over the paper (see DESIGN.md, Ablation E).
    """
    from repro.ilp.scipy_backend import solve_relaxation
    from repro.ilp.status import SolveStatus as _Status

    base = options or FormulationOptions()
    relax_options = replace(base, minimize_latency=True)
    # The serial worst case is always representable, so this d_max never
    # cuts the relaxation's optimum.
    d_max = graph.total_max_latency() + num_partitions * (
        processor.reconfiguration_time
    )
    tp_model = build_model(
        graph, processor, num_partitions, d_max, 0.0, relax_options
    )
    # The compiled sparse form goes straight to linprog — no dense
    # standard-form materialization for a one-shot LP.
    form = tp_model.model.compile()
    status, _x, objective, _iters = solve_relaxation(form)
    if status is _Status.INFEASIBLE:
        return math.inf
    if status is not _Status.OPTIMAL:
        # No usable bound; fall back to "no information".
        return 0.0
    return objective + form.c0


def extract_design(
    tp_model: TemporalPartitioningModel, solution: Solution
) -> PartitionedDesign:
    """Decode the ``Y`` assignment of a feasible solution.

    Raises
    ------
    ValueError
        If the solution carries no assignment or a task has no (or more
        than one) selected ``Y`` variable — which would indicate a solver
        bug, since uniqueness is a hard constraint.
    """
    if not solution.status.has_solution:
        raise ValueError(
            f"solution has status {solution.status}; nothing to extract"
        )
    graph = tp_model.graph
    placements: dict[str, Placement] = {}
    for task in graph:
        chosen: tuple[int, int] | None = None
        for p in range(1, tp_model.num_partitions + 1):
            for k in range(1, len(task.design_points) + 1):
                name = tp_model.y_name[(task.name, p, k)]
                if solution.values.get(name, 0.0) > 0.5:
                    if chosen is not None:
                        raise ValueError(
                            f"task {task.name!r} selected twice "
                            f"(Y at {chosen} and {(p, k)})"
                        )
                    chosen = (p, k)
        if chosen is None:
            raise ValueError(f"task {task.name!r} has no selected Y variable")
        partition, dp_index = chosen
        placements[task.name] = Placement(
            partition=partition,
            design_point=task.design_points[dp_index - 1],
        )
    return PartitionedDesign(graph, placements)
