"""Registered constraint families and scenario specifications.

The formulation of Section 3.2.3 used to live in one monolithic
builder; it is now assembled from self-describing
:class:`ConstraintFamily` builders listed by a :class:`ScenarioSpec`.
Each family declares

* its **id** (the row-group key in the compiled provenance, see
  :class:`repro.ilp.compile.RowGroup`),
* the **paper-equation tags** of the rows it emits (the analyzer's
  conformance pass and the equation-prefix map both derive from these
  instead of a parallel hand-written list),
* its **build** function, which appends variables/rows to the shared
  :class:`BuildContext`,
* whether it is **window-dependent** (its right-hand sides change
  between bisection windows; the registry enforces that exactly one
  such family exists per scenario and that it comes last, so the
  template layer can patch/drop its rows without disturbing any other
  family's span),
* which analyzer **conformance** checker certifies it (a checker id
  resolved in :mod:`repro.analysis.conformance`; the tags the checker
  emits come from the family, keeping one source of truth).

Two scenarios ship:

``paper_oneshot``
    The paper's formulation (1)-(10), bit-identical to the
    pre-registry monolith (golden fingerprints in
    ``tests/golden/paper_oneshot_identity.json`` prove it).

``slot_coresident``
    A lite slotted partial-reconfiguration variant (ROADMAP item 5):
    the device holds ``num_slots`` reconfigurable slots, partition
    ``p`` occupies slot ``(p - 1) mod num_slots``, and a producer's
    output buffer lives in its slot until the slot is reconfigured
    ``num_slots`` steps later — crossings between co-resident slots
    are free.  Reconfiguring one slot costs a fraction of the full
    ``C_T`` (``slot_reconfiguration_time``, default
    ``C_T / num_slots``) and each slot offers ``R_max / num_slots``
    area.  Temporal order (2) is unchanged in the lite model —
    precedence is by step index; co-residency affects buffering and
    capacity, not order.  With ``num_slots = 1`` the scenario reduces
    exactly to ``paper_oneshot``.

Register further scenarios with :func:`register_scenario`; see
``docs/formulation.md`` for a walk-through.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Mapping

from repro.ilp import Model, VarType, lin_sum
from repro.ilp.expr import Sense
from repro.ilp.compile import RowGroup
from repro.taskgraph.paths import count_paths, enumerate_paths

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.arch.processor import ReconfigurableProcessor
    from repro.core.formulation import FormulationOptions
    from repro.taskgraph.graph import TaskGraph

__all__ = [
    "BuildContext",
    "ConstraintFamily",
    "ScenarioSpec",
    "get_scenario",
    "interchangeable_groups",
    "register_scenario",
    "scenario_ids",
]


def interchangeable_groups(graph: "TaskGraph") -> list[tuple[str, ...]]:
    """Partition tasks into groups that any solution may permute freely.

    Two tasks are interchangeable when they have identical design-point
    tuples, the same predecessor and successor sets with the same data
    volumes, and the same environment I/O.  Swapping two such tasks maps
    any feasible partitioned design onto another feasible design with the
    same latency, so ordering them by partition index loses nothing.
    Only groups of size >= 2 are returned, in deterministic task order.
    """
    signatures: dict[tuple, list[str]] = {}
    for task in graph:
        signature = (
            tuple(
                (dp.area, dp.latency, dp.extra_resources)
                for dp in task.design_points
            ),
            tuple(
                sorted(
                    (pred, graph.data_volume(pred, task.name))
                    for pred in graph.predecessors(task.name)
                )
            ),
            tuple(
                sorted(
                    (succ, graph.data_volume(task.name, succ))
                    for succ in graph.successors(task.name)
                )
            ),
            graph.env_input(task.name),
            graph.env_output(task.name),
        )
        signatures.setdefault(signature, []).append(task.name)
    groups = [
        tuple(names) for names in signatures.values() if len(names) >= 2
    ]
    # Tasks that appear in each other's neighbor signatures are never
    # grouped together (their signatures differ), so the ordering
    # constraints below cannot conflict with the temporal order.
    return groups


def _y_name(task: str, partition: int, dp_index: int) -> str:
    return f"Y[{task},{partition},{dp_index}]"


def _w_name(partition: int, src: str, dst: str) -> str:
    return f"w[{partition},{src},{dst}]"


@dataclass
class BuildContext:
    """Shared state the family builders append to.

    Created once per :func:`repro.core.formulation._populate_ilp` call;
    the assignment family fills the variable maps (``y`` / ``d`` /
    ``eta``), subsequent families add rows against ``device``, the
    scenario's per-partition device (:meth:`ScenarioSpec.device`).
    """

    graph: "TaskGraph"
    device: "ReconfigurableProcessor"
    num_partitions: int
    options: "FormulationOptions"
    model: Model
    d_max: float
    d_min: float
    #: Add the ``latency_lb`` row even when ``d_min == 0`` (the template
    #: path needs both window shapes present so either can be patched).
    include_lb: bool = False
    #: Steps a producer's slot stays resident: a value crossing from
    #: partition ``a`` needs buffer memory at step ``p`` only when
    #: ``a + num_slots <= p``.  1 (the paper) unless the scenario
    #: declares a ``num_slots`` parameter.
    num_slots: int = 1
    # -- filled by the assignment family -------------------------------------
    y: dict[tuple[str, int, int], object] = field(default_factory=dict)
    y_name: dict[tuple[str, int, int], str] = field(default_factory=dict)
    d: dict[int, object] = field(default_factory=dict)
    d_name: dict[int, str] = field(default_factory=dict)
    eta: object | None = None
    d_cap: float = 0.0
    w: dict[tuple[int, str, str], object] = field(default_factory=dict)

    @property
    def partitions(self) -> range:
        return range(1, self.num_partitions + 1)

    def y_sum(self, task: str, parts, dp_indices=None):
        count = len(self.graph.task(task).design_points)
        indices = dp_indices or range(1, count + 1)
        return lin_sum(
            self.y[(task, p, k)] for p in parts for k in indices
        )

    def task_index(self, task: str):
        """``sum p * Y[task,p,k]`` — the task's partition index."""
        return lin_sum(
            p * self.y[(task, p, k)]
            for p in self.partitions
            for k in range(
                1, len(self.graph.task(task).design_points) + 1
            )
        )

    def total_latency_expr(self):
        """``sum(d_p) + C_T * eta`` (equations (9)-(10))."""
        return (
            lin_sum(self.d.values())
            + self.device.reconfiguration_time * self.eta
        )


@dataclass(frozen=True)
class ConstraintFamily:
    """One self-describing constraint-family builder.

    ``paper_eq`` lists the equation tags of the rows the family emits
    (most families carry one; the latency window carries ``(9)`` and
    ``(10)``).  ``equation_prefixes`` maps the family's row/column name
    prefixes to tags for the analyzer's name-based tagging
    (:func:`repro.analysis.diagnostics.paper_equation_for`).
    ``conformance`` names the analyzer checker that certifies the
    family (``None`` for families without a conformance pass).
    """

    id: str
    build: Callable[[BuildContext], None]
    paper_eq: tuple[str, ...] = ()
    equation_prefixes: tuple[tuple[str, str], ...] = ()
    window_dependent: bool = False
    conformance: str | None = None
    description: str = ""


@dataclass(frozen=True)
class ScenarioSpec:
    """An ordered family composition plus its objective builder.

    ``families`` build in order (row-group spans follow from it);
    ``partition_device`` maps ``(processor, params)`` to the device one
    partition sees (:meth:`device`); ``objective`` returns the
    expression attached when :attr:`FormulationOptions.minimize_latency`
    is set.  ``params`` are the scenario's default parameters,
    overridable per request through
    :attr:`FormulationOptions.scenario_params`.
    """

    id: str
    description: str
    families: tuple[ConstraintFamily, ...]
    objective: Callable[[BuildContext], object] | None = None
    partition_device: Callable[..., ReconfigurableProcessor] | None = None
    params: Mapping[str, float] = field(default_factory=dict)

    @property
    def window_family(self) -> ConstraintFamily:
        return self.families[-1]

    def family(self, family_id: str) -> ConstraintFamily:
        for fam in self.families:
            if fam.id == family_id:
                return fam
        raise KeyError(family_id)

    def resolved_params(
        self, options: "FormulationOptions | None" = None
    ) -> dict[str, float]:
        """Scenario defaults merged with the request's overrides."""
        merged = {str(k): float(v) for k, v in dict(self.params).items()}
        if options is not None:
            merged.update(
                {str(k): float(v) for k, v in options.scenario_params}
            )
        return merged

    def device(
        self,
        processor: "ReconfigurableProcessor",
        options: "FormulationOptions | None" = None,
    ) -> "ReconfigurableProcessor":
        """The device one partition sees (its ``R_max``, extra
        capacities, ``M_max`` and ``C_T``): what the rows, the search's
        bounds and the executor's latency and fallback all read."""
        if self.partition_device is None:
            return processor
        return self.partition_device(processor, self.resolved_params(options))


# -- registry ------------------------------------------------------------------

_SCENARIOS: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Register a scenario; validates the family composition.

    Exactly one family must be window-dependent and it must come
    *last*: the template layer drops or patches the trailing window
    rows of the compiled form (see
    :meth:`repro.core.formulation.ModelTemplate.instantiate`), which is
    only sound when no other family's rows follow them.
    """
    if spec.id in _SCENARIOS:
        raise ValueError(f"scenario {spec.id!r} is already registered")
    seen: set[str] = set()
    for fam in spec.families:
        if fam.id in seen:
            raise ValueError(
                f"scenario {spec.id!r} lists family {fam.id!r} twice"
            )
        seen.add(fam.id)
    window = [fam for fam in spec.families if fam.window_dependent]
    if len(window) != 1:
        raise ValueError(
            f"scenario {spec.id!r} must declare exactly one "
            f"window-dependent family, found {len(window)}"
        )
    if spec.families[-1] is not window[0]:
        raise ValueError(
            f"scenario {spec.id!r}: the window-dependent family "
            f"{window[0].id!r} must be the last family"
        )
    _SCENARIOS[spec.id] = spec
    return spec


def get_scenario(scenario_id: str) -> ScenarioSpec:
    try:
        return _SCENARIOS[scenario_id]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS))
        raise ValueError(
            f"unknown scenario {scenario_id!r}; registered: {known}"
        ) from None


def scenario_ids() -> tuple[str, ...]:
    return tuple(sorted(_SCENARIOS))


# -- family builders -----------------------------------------------------------
#
# The paper scenario's builders are the monolith's blocks, extracted
# verbatim; insertion order of variables and rows is part of the
# contract (golden compiled-array fingerprints pin it).  The builders
# are generic over the context's device and ``num_slots``, so the
# slot scenario reuses most of them with different context values.


def _build_assignment(ctx: BuildContext) -> None:
    """Decision variables ``Y`` / ``d_p`` / ``eta`` (no rows)."""
    for task in ctx.graph:
        for p in ctx.partitions:
            for k, _dp in enumerate(task.design_points, start=1):
                name = _y_name(task.name, p, k)
                ctx.y[(task.name, p, k)] = ctx.model.add_binary(name)
                ctx.y_name[(task.name, p, k)] = name
    # The slowest serial schedule bounds any d_p from above; a finite
    # upper bound keeps the LP relaxations bounded in feasibility mode.
    ctx.d_cap = ctx.graph.total_max_latency()
    for p in ctx.partitions:
        ctx.d[p] = ctx.model.add_var(f"d[{p}]", lb=0.0, ub=ctx.d_cap)
        ctx.d_name[p] = f"d[{p}]"
    ctx.eta = ctx.model.add_var(
        "eta", lb=1, ub=ctx.num_partitions, vtype=VarType.INTEGER
    )


def _build_uniqueness(ctx: BuildContext) -> None:
    """Equation (1): every task placed exactly once."""
    for task in ctx.graph:
        ctx.model.add_constr(
            ctx.y_sum(task.name, ctx.partitions) == 1,
            name=f"uniq[{task.name}]",
        )


def _build_order(ctx: BuildContext) -> None:
    """Equation (2): producers never after consumers."""
    n = ctx.num_partitions
    if ctx.options.order_mode == "pairwise":
        # t2 in partition p forbids t1 in any later partition.
        for src, dst, _volume in ctx.graph.edges:
            for p in ctx.partitions:
                if p == n:
                    continue  # no later partition exists
                ctx.model.add_constr(
                    ctx.y_sum(dst, [p])
                    + ctx.y_sum(src, range(p + 1, n + 1))
                    <= 1,
                    name=f"order[{src},{dst},{p}]",
                )
    else:
        for src, dst, _volume in ctx.graph.edges:
            ctx.model.add_constr(
                ctx.task_index(src) <= ctx.task_index(dst),
                name=f"order[{src},{dst}]",
            )


def _build_crossing(ctx: BuildContext) -> None:
    """Equations (4)-(5): crossing indicators, slot-aware.

    ``w[p,src,dst] = 1`` when the edge's data needs buffer memory at
    step ``p``: the producer ran early enough that its slot has been
    reconfigured (``partition(src) <= p - num_slots``) while the
    consumer has not run yet (``partition(dst) >= p``).  With
    ``num_slots = 1`` this is exactly the paper's producer-before /
    consumer-at-or-after product.
    """
    n = ctx.num_partitions
    resident = ctx.num_slots
    for p in range(1 + resident, n + 1):
        for src, dst, _volume in ctx.graph.edges:
            name = _w_name(p, src, dst)
            var = ctx.model.add_binary(name)
            ctx.w[(p, src, dst)] = var
            before = ctx.y_sum(src, range(1, p - resident + 1))
            at_or_after = ctx.y_sum(dst, range(p, n + 1))
            ctx.model.add_constr(
                var >= before + at_or_after - 1, name=f"{name}_ge"
            )
            if ctx.options.two_sided_w:
                ctx.model.add_constr(var <= before, name=f"{name}_le_src")
                ctx.model.add_constr(
                    var <= at_or_after, name=f"{name}_le_dst"
                )


def _build_memory(ctx: BuildContext) -> None:
    """Equation (3): buffered data per step within ``M_max``."""
    n = ctx.num_partitions
    resident = ctx.num_slots
    for p in ctx.partitions:
        terms = []
        for src, dst, volume in ctx.graph.edges:
            if p > resident and volume:
                terms.append(volume * ctx.w[(p, src, dst)])
        if ctx.options.include_env_memory:
            for task_name, volume in ctx.graph.env_inputs.items():
                if volume:
                    terms.append(
                        volume * ctx.y_sum(task_name, range(p, n + 1))
                    )
            for task_name, volume in ctx.graph.env_outputs.items():
                if volume and p > resident:
                    terms.append(
                        volume
                        * ctx.y_sum(task_name, range(1, p - resident + 1))
                    )
        if terms:
            ctx.model.add_constr(
                lin_sum(terms) <= ctx.device.memory_capacity,
                name=f"memory[{p}]",
            )


def _build_resource(ctx: BuildContext) -> None:
    """Equation (6): per-step area within the device's capacity."""
    for p in ctx.partitions:
        usage = lin_sum(
            task.design_points[k - 1].area * ctx.y[(task.name, p, k)]
            for task in ctx.graph
            for k in range(1, len(task.design_points) + 1)
        )
        ctx.model.add_constr(
            usage <= ctx.device.resource_capacity, name=f"resource[{p}]"
        )
    # Additional resource types ("similar equations can be added if
    # multiple resource types exist in the FPGA", Section 3.2.3).
    for kind, capacity in ctx.device.extra_capacities:
        for p in ctx.partitions:
            usage = lin_sum(
                task.design_points[k - 1].resource_usage(kind)
                * ctx.y[(task.name, p, k)]
                for task in ctx.graph
                for k in range(1, len(task.design_points) + 1)
            )
            if usage.terms:
                ctx.model.add_constr(
                    usage <= capacity, name=f"resource_{kind}[{p}]"
                )


def _build_partition_latency(ctx: BuildContext) -> None:
    """Equation (7): ``d_p`` dominates every path's load in ``p``."""
    graph, model, options = ctx.graph, ctx.model, ctx.options
    partitions, d = ctx.partitions, ctx.d
    latency_mode = options.latency_mode
    if latency_mode == "auto":
        latency_mode = (
            "paths"
            if count_paths(graph) <= options.path_limit
            else "levels"
        )
    if latency_mode == "paths":
        paths = enumerate_paths(graph, limit=options.path_limit)
        for index, path in enumerate(paths):
            for p in partitions:
                load = lin_sum(
                    graph.task(t).design_points[k - 1].latency
                    * ctx.y[(t, p, k)]
                    for t in path
                    for k in range(
                        1, len(graph.task(t).design_points) + 1
                    )
                )
                model.add_constr(
                    load <= d[p], name=f"pathlat[{index},{p}]"
                )
    else:
        # Start-time big-M encoding: polynomial in |T| + |E| regardless
        # of the number of paths.  s[t] is the task's start offset within
        # its own partition; an edge inside one partition forces the
        # consumer after the producer; d_p dominates every member's
        # finish time.  Exact on integer points, weaker as an LP.
        big_m = ctx.d_cap

        def duration(t: str):
            task = graph.task(t)
            return lin_sum(
                task.design_points[k - 1].latency * ctx.y[(t, p, k)]
                for p in partitions
                for k in range(1, len(task.design_points) + 1)
            )

        s = {
            task.name: model.add_var(
                f"s[{task.name}]", lb=0.0, ub=ctx.d_cap
            )
            for task in graph
        }
        for src, dst, _volume in graph.edges:
            same = model.add_var(f"same[{src},{dst}]", lb=0.0, ub=1.0)
            for p in partitions:
                model.add_constr(
                    same >= ctx.y_sum(src, [p]) + ctx.y_sum(dst, [p]) - 1,
                    name=f"same[{src},{dst},{p}]",
                )
            model.add_constr(
                s[dst] >= s[src] + duration(src) - big_m * (1 - same),
                name=f"prec[{src},{dst}]",
            )
        for task in graph:
            for p in partitions:
                model.add_constr(
                    d[p]
                    >= s[task.name]
                    + duration(task.name)
                    - big_m * (1 - ctx.y_sum(task.name, [p])),
                    name=f"finish[{task.name},{p}]",
                )


def _build_eta(ctx: BuildContext) -> None:
    """Equation (8): ``eta`` counts the partitions actually used."""
    # Valid inequality: every used partition holds at most the step
    # capacity of area, so eta * capacity bounds the total area of the
    # chosen design points.  The cut removes no integer solution but
    # stops the LP relaxation from pretending one reconfiguration
    # suffices, which makes the LP latency bound useful in the large-C_T
    # regime.
    total_area = lin_sum(
        task.design_points[k - 1].area * ctx.y[(task.name, p, k)]
        for task in ctx.graph
        for p in ctx.partitions
        for k in range(1, len(task.design_points) + 1)
    )
    ctx.model.add_constr(
        ctx.device.resource_capacity * ctx.eta >= total_area,
        name="eta_area_cut",
    )
    for sink in ctx.graph.sinks():
        ctx.model.add_constr(
            ctx.eta >= ctx.task_index(sink), name=f"eta[{sink}]"
        )


def _build_symmetry(ctx: BuildContext) -> None:
    """Extension: order interchangeable tasks by partition index."""
    if not ctx.options.symmetry_breaking:
        return
    for group in interchangeable_groups(ctx.graph):
        for first, second in zip(group, group[1:]):
            ctx.model.add_constr(
                ctx.task_index(first) <= ctx.task_index(second),
                name=f"sym[{first},{second}]",
            )


def _build_latency_window(ctx: BuildContext) -> None:
    """Equations (9)-(10): the two-sided total-latency window.

    The only window-dependent family: its right-hand sides are the
    search's bisection bounds.  Row names are fixed
    (``latency_ub`` / ``latency_lb``) across scenarios — the solve
    cache's window fields and :meth:`Model.set_rhs` sync rely on them.
    """
    total_latency = ctx.total_latency_expr()
    ctx.model.add_constr(total_latency <= ctx.d_max, name="latency_ub")
    if ctx.include_lb or ctx.d_min > 0:
        ctx.model.add_constr(total_latency >= ctx.d_min, name="latency_lb")


def _objective_total_latency(ctx: BuildContext):
    """``min sum(d_p) + C_T * eta``."""
    return ctx.total_latency_expr()


# -- scenario assembly -----------------------------------------------------------

_ASSIGNMENT = ConstraintFamily(
    id="assignment",
    build=_build_assignment,
    paper_eq=("(1)-(2)",),
    equation_prefixes=(("Y[", "(1)-(2)"),),
    description="decision variables Y / d_p / eta",
)

_UNIQUENESS = ConstraintFamily(
    id="uniqueness",
    build=_build_uniqueness,
    paper_eq=("(1)",),
    equation_prefixes=(("uniq[", "(1)"),),
    conformance="uniqueness",
    description="every task placed exactly once",
)

_ORDER = ConstraintFamily(
    id="order",
    build=_build_order,
    paper_eq=("(2)",),
    equation_prefixes=(("order[", "(2)"),),
    description="temporal order along every edge",
)

_PARTITION_LATENCY = ConstraintFamily(
    id="partition_latency",
    build=_build_partition_latency,
    paper_eq=("(7)",),
    equation_prefixes=(
        ("pathlat[", "(7)"),
        ("prec[", "(7)"),
        ("finish[", "(7)"),
        ("same[", "(7)"),
        ("s[", "(7)"),
        ("d[", "(7)"),
    ),
    description="per-partition latency d_p",
)

_SYMMETRY = ConstraintFamily(
    id="symmetry",
    build=_build_symmetry,
    paper_eq=("ext",),
    # sym[...] rows intentionally contribute no prefix: they are an
    # extension with no paper equation (paper_equation_for -> None).
    conformance="symmetry",
    description="interchangeable-task ordering (extension)",
)


def _crossing_family(family_id: str, tag: str) -> ConstraintFamily:
    return ConstraintFamily(
        id=family_id,
        build=_build_crossing,
        paper_eq=(tag,),
        equation_prefixes=(("w[", tag),),
        conformance="crossing",
        description="crossing-indicator linearization",
    )


def _memory_family(family_id: str, tag: str) -> ConstraintFamily:
    return ConstraintFamily(
        id=family_id,
        build=_build_memory,
        paper_eq=(tag,),
        equation_prefixes=(("memory[", tag),),
        description="buffered-data memory capacity",
    )


def _resource_family(family_id: str, tag: str) -> ConstraintFamily:
    return ConstraintFamily(
        id=family_id,
        build=_build_resource,
        paper_eq=(tag,),
        equation_prefixes=(("resource", tag),),
        conformance="resource",
        description="per-step area capacity",
    )


def _eta_family(family_id: str, tag: str) -> ConstraintFamily:
    return ConstraintFamily(
        id=family_id,
        build=_build_eta,
        paper_eq=(tag,),
        equation_prefixes=(
            ("eta_area_cut", tag),
            ("eta[", tag),
            ("eta", tag),
        ),
        conformance="eta",
        description="partition-count coupling",
    )


def _window_family(
    family_id: str, ub_tag: str, lb_tag: str
) -> ConstraintFamily:
    return ConstraintFamily(
        id=family_id,
        build=_build_latency_window,
        paper_eq=(ub_tag, lb_tag),
        equation_prefixes=(
            ("latency_ub", ub_tag),
            ("latency_lb", lb_tag),
        ),
        window_dependent=True,
        conformance="latency_window",
        description="two-sided total-latency window",
    )


PAPER_ONESHOT = register_scenario(
    ScenarioSpec(
        id="paper_oneshot",
        description=(
            "the paper's formulation (1)-(10): whole-device "
            "reconfiguration, one partition resident at a time"
        ),
        families=(
            _ASSIGNMENT,
            _UNIQUENESS,
            _ORDER,
            _crossing_family("crossing", "(4)-(5)"),
            _memory_family("memory", "(3)"),
            _resource_family("resource", "(6)"),
            _PARTITION_LATENCY,
            _eta_family("eta", "(8)"),
            _SYMMETRY,
            _window_family("latency_window", "(9)", "(10)"),
        ),
        objective=_objective_total_latency,
    )
)


def _slot_device(
    processor: ReconfigurableProcessor, params: Mapping[str, float]
) -> ReconfigurableProcessor:
    """One slot: ``1 / num_slots`` of every capacity and, by default,
    of ``C_T``; ``M_max`` stays the board's."""
    slots = int(params["num_slots"])
    if slots < 1:
        raise ValueError(f"num_slots must be >= 1, got {slots}")
    return replace(
        processor,
        resource_capacity=processor.resource_capacity / slots,
        extra_capacities=tuple(
            (kind, capacity / slots)
            for kind, capacity in processor.extra_capacities
        ),
        reconfiguration_time=float(params.get(
            "slot_reconfiguration_time",
            processor.reconfiguration_time / slots,
        )),
    )


SLOT_CORESIDENT = register_scenario(
    ScenarioSpec(
        id="slot_coresident",
        description=(
            "lite slotted partial reconfiguration: num_slots "
            "co-resident slots, per-slot area and reconfiguration "
            "cost, free crossings between co-resident slots"
        ),
        families=(
            _ASSIGNMENT,
            _UNIQUENESS,
            _ORDER,
            _crossing_family("slot_crossing", "(4s)-(5s)"),
            _memory_family("slot_memory", "(3s)"),
            _resource_family("slot_resource", "(6s)"),
            _PARTITION_LATENCY,
            _eta_family("slot_eta", "(8s)"),
            _SYMMETRY,
            _window_family("slot_window", "(9s)", "(10s)"),
        ),
        objective=_objective_total_latency,
        partition_device=_slot_device,
        params={"num_slots": 2.0},
    )
)


def build_scenario(
    scenario: ScenarioSpec, ctx: BuildContext
) -> tuple[RowGroup, ...]:
    """Run every family builder, recording row-group provenance.

    Families build sequentially, so each one's rows are contiguous
    within the compiled inequality and equality blocks (the compiler
    splits ``<=``/``>=`` rows from ``==`` rows but preserves insertion
    order inside each block, see
    :func:`repro.ilp.compile.compile_model`).
    """
    groups: list[RowGroup] = []
    ub_count = eq_count = 0
    start = 0
    for family in scenario.families:
        family.build(ctx)
        constraints = ctx.model.constraints
        added_eq = sum(
            1
            for constr in constraints[start:]
            if constr.sense is Sense.EQ
        )
        added_ub = len(constraints) - start - added_eq
        groups.append(
            RowGroup(
                family=family.id,
                ub_start=ub_count,
                ub_stop=ub_count + added_ub,
                eq_start=eq_count,
                eq_stop=eq_count + added_eq,
            )
        )
        ub_count += added_ub
        eq_count += added_eq
        start = len(constraints)
    if scenario.objective is not None and ctx.options.minimize_latency:
        ctx.model.set_objective(scenario.objective(ctx))
    return tuple(groups)
