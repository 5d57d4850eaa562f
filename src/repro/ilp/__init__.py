"""A self-contained mixed-integer linear programming stack.

This subpackage replaces the CPLEX solver used in the paper.  It provides:

* a modeling layer (:class:`Variable`, :class:`LinExpr`, :class:`Model`)
  with PuLP-like operator syntax,
* the sparse :class:`CompiledModel`, the one form every backend reads,
* three interchangeable backends — scipy/HiGHS (``"highs"``), a
  from-scratch branch & bound over LP relaxations (``"bnb"``), and a
  from-scratch two-phase simplex for pure LPs (``"simplex"``),
* a CPLEX LP-format writer.

Quick example::

    from repro.ilp import Model, VarType

    m = Model("demo")
    x = m.add_var("x", ub=4, vtype=VarType.INTEGER)
    y = m.add_binary("y")
    m.add_constr(2 * x + y <= 7)
    m.set_objective(-(3 * x + 2 * y))    # maximize 3x + 2y
    solution = m.solve(backend="bnb")
"""

from repro.ilp.errors import (
    BackendNotAvailableError,
    ExpressionError,
    IlpError,
    ModelError,
    SolverError,
    UnboundedError,
)
from repro.ilp.compile import (
    CompiledModel,
    RowGroup,
    compile_model,
)
from repro.ilp.expr import Constraint, LinExpr, Sense, Variable, VarType, lin_sum
from repro.ilp.lp_writer import lp_string, write_lp
from repro.ilp.model import (
    Model,
    ObjectiveSense,
    register_backend,
    solve_compiled,
)
from repro.ilp.status import Solution, SolveStatus

__all__ = [
    "BackendNotAvailableError",
    "CompiledModel",
    "RowGroup",
    "Constraint",
    "ExpressionError",
    "IlpError",
    "LinExpr",
    "Model",
    "ModelError",
    "ObjectiveSense",
    "Sense",
    "Solution",
    "SolveStatus",
    "SolverError",
    "UnboundedError",
    "VarType",
    "Variable",
    "compile_model",
    "lin_sum",
    "lp_string",
    "solve_compiled",
    "register_backend",
    "write_lp",
]
