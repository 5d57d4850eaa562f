"""The MILP model container and the backend dispatcher.

A :class:`Model` collects variables, linear constraints and an optional
linear objective, then dispatches to one of the registered backends:

``highs``
    :func:`scipy.optimize.milp` (HiGHS).  Fast; the production default.
``bnb``
    The from-scratch branch & bound of
    :mod:`repro.ilp.branch_and_bound`, with LP relaxations solved either
    by our own simplex or by scipy's ``linprog``.
``simplex``
    Pure-LP solve with the from-scratch two-phase simplex (ignores
    integrality; used for relaxations and in tests).

Every backend receives the same :class:`repro.ilp.compile.CompiledModel`
(``Model.solve`` hands over its cached compile), so a model built once can
be solved and cross-checked by every backend.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Mapping, Sequence

from repro.ilp.compile import CompiledModel, compile_model
from repro.ilp.errors import BackendNotAvailableError, ModelError
from repro.ilp.expr import Constraint, LinExpr, Sense, Variable, VarType
from repro.ilp.status import Solution

__all__ = ["Model", "ObjectiveSense", "solve_compiled"]


class ObjectiveSense:
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class Model:
    """A mixed-integer linear program under construction.

    Example
    -------
    >>> m = Model("knapsack")
    >>> x = [m.add_var(f"x{i}", vtype=VarType.BINARY) for i in range(3)]
    >>> m.add_constr(2 * x[0] + 3 * x[1] + 4 * x[2] <= 5, name="capacity")
    >>> m.set_objective(3 * x[0] + 4 * x[1] + 5 * x[2],
    ...                 sense=ObjectiveSense.MAXIMIZE)
    >>> sol = m.solve()
    >>> sol.status.has_solution
    True
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: list[Variable] = []
        self._names: set[str] = set()
        self._constraints: list[Constraint] = []
        self._objective: LinExpr = LinExpr()
        self._sense: str = ObjectiveSense.MINIMIZE
        self._compiled: CompiledModel | None = None

    def _invalidate(self) -> None:
        self._compiled = None

    # -- construction ------------------------------------------------------

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        vtype: VarType = VarType.CONTINUOUS,
    ) -> Variable:
        """Create a variable, register it, and return it."""
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r}")
        var = Variable(name, lb=lb, ub=ub, vtype=vtype)
        # Model-scoped ordering key: identical models built at different
        # points of the process lifetime index (and therefore print,
        # sort and compile) identically.
        var.index = len(self._variables)
        self._variables.append(var)
        self._names.add(name)
        self._invalidate()
        return var

    def add_binary(self, name: str) -> Variable:
        return self.add_var(name, vtype=VarType.BINARY)

    def add_integer(
        self, name: str, lb: float = 0.0, ub: float = math.inf
    ) -> Variable:
        return self.add_var(name, lb=lb, ub=ub, vtype=VarType.INTEGER)

    def add_constr(
        self, constraint: Constraint, name: str | None = None
    ) -> Constraint:
        """Register a constraint built with ``<=``, ``>=`` or ``==``."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                f"expected a Constraint, got {type(constraint).__name__}; "
                "build constraints with <=, >= or == on expressions"
            )
        for var in constraint.expr.variables():
            if var.name not in self._names:
                raise ModelError(
                    f"constraint uses variable {var.name!r} that does not "
                    f"belong to model {self.name!r}"
                )
        if name is not None:
            constraint.name = name
        self._constraints.append(constraint)
        self._invalidate()
        return constraint

    def remove_constr(self, name: str) -> Constraint:
        """Remove (and return) the first constraint named ``name``."""
        for position, constraint in enumerate(self._constraints):
            if constraint.name == name:
                del self._constraints[position]
                self._invalidate()
                return constraint
        raise ModelError(f"no constraint named {name!r}")

    def set_rhs(self, name: str, rhs: float) -> None:
        """Update the right-hand side of the constraint named ``name``.

        This is the incremental-update fast path: when a compiled form is
        cached it is replaced by a right-hand-side sibling (one RHS-array
        copy, every other array shared) instead of being rebuilt.  The
        compiled arrays themselves are frozen and never written in
        place — template siblings produced by
        :meth:`repro.ilp.compile.CompiledModel.with_b_ub` /
        ``truncate_ub_rows`` alias them, so an in-place write here would
        silently retarget models that look independent.
        """
        for constraint in self._constraints:
            if constraint.name == name:
                constraint.rhs = float(rhs)
                break
        else:
            raise ModelError(f"no constraint named {name!r}")
        if self._compiled is not None:
            kind, row = self._compiled.row_position(name)
            if kind == "eq":
                self._compiled = self._compiled.with_b_eq({row: float(rhs)})
            elif constraint.sense is Sense.GE:
                self._compiled = self._compiled.with_b_ub({row: -float(rhs)})
            else:
                self._compiled = self._compiled.with_b_ub({row: float(rhs)})

    def set_objective(
        self, expr, sense: str = ObjectiveSense.MINIMIZE
    ) -> None:
        if sense not in (ObjectiveSense.MINIMIZE, ObjectiveSense.MAXIMIZE):
            raise ModelError(f"unknown objective sense {sense!r}")
        self._objective = LinExpr.from_value(expr)
        self._sense = sense
        self._invalidate()

    # -- inspection ----------------------------------------------------------

    @property
    def variables(self) -> Sequence[Variable]:
        return tuple(self._variables)

    @property
    def constraints(self) -> Sequence[Constraint]:
        return tuple(self._constraints)

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def objective_sense(self) -> str:
        return self._sense

    @property
    def num_vars(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    @property
    def num_integer_vars(self) -> int:
        return sum(1 for v in self._variables if v.vtype.is_integral)

    def variable(self, name: str) -> Variable:
        for var in self._variables:
            if var.name == name:
                return var
        raise KeyError(name)

    def check_point(
        self, values: Mapping[str, float], tol: float = 1e-6
    ) -> list[Constraint]:
        """Return the constraints violated by ``values`` (bounds included).

        Used pervasively in tests: any solution returned by any backend is
        replayed through this audit.
        """
        violated = [
            c for c in self._constraints if not c.is_satisfied(values, tol)
        ]
        for var in self._variables:
            val = values[var.name]
            out_of_bounds = val < var.lb - tol or val > var.ub + tol
            not_integral = var.vtype.is_integral and abs(
                val - round(val)
            ) > tol
            if out_of_bounds or not_integral:
                bound_expr = var.to_expr()
                violated.append(
                    Constraint(bound_expr - val, Sense.EQ, name=f"bound[{var.name}]")
                )
        return violated

    # -- standard form ---------------------------------------------------------

    def compile(self) -> CompiledModel:
        """The sparse standard form of this model (cached).

        The compiled view is rebuilt after any structural change
        (``add_var``, ``add_constr``, ``remove_constr``,
        ``set_objective``) and patched in place by :meth:`set_rhs`.  All
        backends consume this form; see :mod:`repro.ilp.compile`.
        """
        if self._compiled is None:
            self._compiled = compile_model(self)
        return self._compiled

    # -- solving -----------------------------------------------------------------

    def solve(
        self,
        backend: str = "highs",
        first_feasible: bool = False,
        time_limit: float | None = None,
        node_limit: int | None = None,
        **options,
    ) -> Solution:
        """Solve the model with the chosen backend.

        Parameters
        ----------
        backend:
            ``"highs"``, ``"bnb"`` or ``"simplex"`` (or any name registered
            via :meth:`register_backend`).
        first_feasible:
            Stop at the first integer-feasible point.  This is the mode the
            paper's ``SolveModel()`` uses: the iterative search only needs
            constraint satisfaction.
        time_limit:
            Wall-clock budget in seconds.
        node_limit:
            Branch & bound node budget (ignored by pure-LP backends).
        """
        return solve_compiled(
            self.compile(),
            backend=backend,
            first_feasible=first_feasible,
            time_limit=time_limit,
            node_limit=node_limit,
            **options,
        )

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_vars} "
            f"({self.num_integer_vars} integer), "
            f"constrs={self.num_constraints})"
        )


def solve_compiled(
    compiled: CompiledModel,
    backend: str = "highs",
    first_feasible: bool = False,
    time_limit: float | None = None,
    node_limit: int | None = None,
    **options,
) -> Solution:
    """Solve a compiled model; :meth:`Model.solve` ends here too.

    This is the hot path of the incremental model templates: a
    :class:`repro.ilp.compile.CompiledModel` produced once (and patched
    per window) is handed straight to the backend, so no expression
    objects are rebuilt and no matrices re-derived per solve.  Options
    mirror :meth:`Model.solve`; a MAXIMIZE model's objective and bound
    are flipped back from the compiled minimization direction.

    An optional ``tracer`` (:class:`repro.obs.Tracer`) wraps the backend
    call in an ``ilp:<backend>`` span; it is forwarded into the backend
    only when the backend's signature can take it, so externally
    registered solvers never see an unexpected keyword.
    """
    tracer = options.pop("tracer", None)
    options.update(
        first_feasible=first_feasible,
        time_limit=time_limit,
        node_limit=node_limit,
    )
    try:
        solver = _BACKENDS[backend]
    except KeyError:
        raise BackendNotAvailableError(
            f"unknown backend {backend!r}; available: {sorted(_BACKENDS)}"
        ) from None
    if tracer is not None and getattr(tracer, "enabled", False):
        if _accepts_tracer(solver):
            options["tracer"] = tracer
        with tracer.span(f"ilp:{backend}", backend=backend) as span:
            start = time.perf_counter()
            solution = solver(compiled, **options)
            elapsed = time.perf_counter() - start
            span.annotate(
                status=solution.status.value,
                iterations=solution.iterations,
            )
    else:
        start = time.perf_counter()
        solution = solver(compiled, **options)
        elapsed = time.perf_counter() - start
    maximize = compiled.maximize
    objective = solution.objective
    if maximize and not math.isnan(objective):
        # The compiled form negates MAXIMIZE objectives; undo for reporting.
        objective = -objective
    bound = solution.bound
    if bound is not None and maximize:
        bound = -bound
    return Solution(
        status=solution.status,
        objective=objective,
        values=solution.values,
        iterations=solution.iterations,
        wall_time=elapsed,
        bound=bound,
    )


_TRACER_SUPPORT: dict[int, bool] = {}


def accepts_keyword(func: Callable, name: str) -> bool:
    """Whether ``func`` can be called with the keyword argument ``name``."""
    import inspect

    try:
        params = inspect.signature(func).parameters
    except (TypeError, ValueError):  # builtins without signatures
        return False
    return name in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


def _accepts_tracer(solver: Callable) -> bool:
    """Whether ``solver`` can be called with a ``tracer=`` keyword."""
    key = id(solver)
    cached = _TRACER_SUPPORT.get(key)
    if cached is None:
        cached = accepts_keyword(solver, "tracer")
        _TRACER_SUPPORT[key] = cached
    return cached


# -- backend registry -----------------------------------------------------------

_BACKENDS: dict[str, Callable[..., Solution]] = {}


def register_backend(name: str, solver: Callable[..., Solution]) -> None:
    """Register a solver callable under ``name``.

    The callable receives the compiled form
    (:class:`repro.ilp.compile.CompiledModel`, also when the caller used
    :meth:`Model.solve`) plus the keyword options of :meth:`Model.solve`,
    and returns a :class:`Solution` whose objective is in the
    *minimization* direction of the compiled form.
    """
    _BACKENDS[name] = solver


def _install_default_backends() -> None:
    # Imported lazily to avoid a circular import at module load.
    from repro.ilp import branch_and_bound, scipy_backend, simplex

    register_backend("highs", scipy_backend.solve_with_highs)
    register_backend("bnb", branch_and_bound.solve_with_bnb)
    register_backend("simplex", simplex.solve_with_simplex)


_install_default_backends()
