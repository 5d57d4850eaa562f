"""Linear expressions, variables and constraints for the MILP model layer.

The algebra intentionally mirrors what users of PuLP or python-mip expect::

    x = Variable("x", lb=0, ub=4, vtype=VarType.INTEGER)
    y = Variable("y", vtype=VarType.BINARY)
    expr = 3 * x - 2 * y + 1
    constraint = expr <= 10

Only *linear* forms are representable.  Multiplying two expressions that
both contain variables raises :class:`~repro.ilp.errors.ExpressionError`;
a product of binary variables is written as linear rows over a new binary
variable instead.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Iterable, Iterator, Mapping

from repro.ilp.errors import ExpressionError

__all__ = ["VarType", "Variable", "LinExpr", "Constraint", "Sense", "lin_sum"]

#: Process-wide counter behind ``Variable._uid``.  The uid exists solely
#: to make variables hashable by identity; it is never used for ordering.
_uid_counter = itertools.count()


class VarType(enum.Enum):
    """Domain of a decision variable."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"

    @property
    def is_integral(self) -> bool:
        return self is not VarType.CONTINUOUS


class Sense(enum.Enum):
    """Relational sense of a constraint."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Variable:
    """A single decision variable.

    Variables are identified by object identity (hashing uses a private
    process-wide ``_uid``), while ``name`` is a human-readable label used
    in solutions and LP-file export.  Names must therefore be unique
    within one model; :class:`repro.ilp.model.Model` enforces this.

    ``index`` is the variable's *deterministic ordering key*: for
    variables registered in a :class:`~repro.ilp.model.Model` it is the
    position within that model (assigned by ``add_var``), so identical
    models built at different points of the process lifetime order,
    print and compile identically.  Standalone variables fall back to
    their creation order.
    """

    __slots__ = ("name", "lb", "ub", "vtype", "index", "_uid")

    def __init__(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        vtype: VarType = VarType.CONTINUOUS,
    ) -> None:
        if not name:
            raise ExpressionError("variable name must be a non-empty string")
        if vtype is VarType.BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if lb > ub:
            raise ExpressionError(
                f"variable {name!r} has empty domain [{lb}, {ub}]"
            )
        self.name = name
        self.lb = float(lb)
        self.ub = float(ub)
        self.vtype = vtype
        self._uid = next(_uid_counter)
        self.index = self._uid

    # -- conversion to expressions ------------------------------------

    def to_expr(self) -> "LinExpr":
        return LinExpr({self: 1.0})

    # -- algebra (delegates to LinExpr) --------------------------------

    def __add__(self, other):
        return self.to_expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.to_expr() - other

    def __rsub__(self, other):
        return (-self.to_expr()) + other

    def __neg__(self):
        return -self.to_expr()

    def __mul__(self, other):
        return self.to_expr() * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.to_expr() / other

    # -- comparisons build constraints ---------------------------------

    def __le__(self, other):
        return self.to_expr() <= other

    def __ge__(self, other):
        return self.to_expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float)):
            return self.to_expr() == other
        return NotImplemented

    def __hash__(self) -> int:
        return self._uid

    def __repr__(self) -> str:
        return (
            f"Variable({self.name!r}, lb={self.lb}, ub={self.ub}, "
            f"vtype={self.vtype.value})"
        )


class LinExpr:
    """An affine form ``sum(coef_i * var_i) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(
        self,
        terms: Mapping[Variable, float] | None = None,
        constant: float = 0.0,
    ) -> None:
        self.terms: dict[Variable, float] = dict(terms) if terms else {}
        self.constant = float(constant)

    # -- construction helpers ------------------------------------------

    @staticmethod
    def from_value(value) -> "LinExpr":
        """Coerce a variable, expression, or number into a LinExpr."""
        if isinstance(value, LinExpr):
            return value.copy()
        if isinstance(value, Variable):
            return value.to_expr()
        if isinstance(value, (int, float)):
            return LinExpr(constant=float(value))
        raise ExpressionError(
            f"cannot interpret {value!r} as a linear expression"
        )

    def copy(self) -> "LinExpr":
        return LinExpr(self.terms, self.constant)

    # -- inspection ------------------------------------------------------

    def coefficient(self, var: Variable) -> float:
        return self.terms.get(var, 0.0)

    def variables(self) -> Iterator[Variable]:
        return iter(self.terms)

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def evaluate(self, values: Mapping[str, float]) -> float:
        """Evaluate at a point given as a ``name -> value`` mapping."""
        total = self.constant
        for var, coef in self.terms.items():
            total += coef * values[var.name]
        return total

    def simplified(self, tol: float = 0.0) -> "LinExpr":
        """Return a copy with coefficients of magnitude <= ``tol`` dropped."""
        kept = {v: c for v, c in self.terms.items() if abs(c) > tol}
        return LinExpr(kept, self.constant)

    # -- in-place accumulation (used by model builders in hot loops) -----

    def add_term(self, var: Variable, coef: float) -> "LinExpr":
        """Add ``coef * var`` in place and return ``self``."""
        new = self.terms.get(var, 0.0) + coef
        if new == 0.0:
            self.terms.pop(var, None)
        else:
            self.terms[var] = new
        return self

    # -- algebra ---------------------------------------------------------

    def __add__(self, other) -> "LinExpr":
        other = LinExpr.from_value(other)
        result = self.copy()
        result.constant += other.constant
        for var, coef in other.terms.items():
            result.add_term(var, coef)
        return result

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self + (-LinExpr.from_value(other))

    def __rsub__(self, other) -> "LinExpr":
        return (-self) + other

    def __neg__(self) -> "LinExpr":
        return LinExpr(
            {var: -coef for var, coef in self.terms.items()}, -self.constant
        )

    def __mul__(self, other) -> "LinExpr":
        if isinstance(other, (Variable, LinExpr)):
            other_expr = LinExpr.from_value(other)
            if self.is_constant:
                return other_expr * self.constant
            if other_expr.is_constant:
                return self * other_expr.constant
            raise ExpressionError(
                "product of two non-constant expressions is not linear; "
                "write a binary product as linear rows over a new variable"
            )
        scale = float(other)
        return LinExpr(
            {var: coef * scale for var, coef in self.terms.items()},
            self.constant * scale,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LinExpr":
        divisor = float(other)
        if divisor == 0.0:
            raise ZeroDivisionError("division of linear expression by zero")
        return self * (1.0 / divisor)

    # -- comparisons build constraints ------------------------------------

    def __le__(self, other) -> "Constraint":
        return Constraint(self - LinExpr.from_value(other), Sense.LE)

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - LinExpr.from_value(other), Sense.GE)

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float)):
            return Constraint(self - LinExpr.from_value(other), Sense.EQ)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # expressions are mutable

    def __repr__(self) -> str:
        parts = []
        for var, coef in sorted(self.terms.items(), key=lambda kv: kv[0].index):
            parts.append(f"{coef:+g}*{var.name}")
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return "LinExpr(" + " ".join(parts) + ")"


class Constraint:
    """A linear constraint in the normalized form ``expr (sense) rhs``.

    Internally the expression's constant is moved to the right-hand side,
    so ``expr`` always has ``constant == 0``.
    """

    __slots__ = ("expr", "sense", "rhs", "name")

    def __init__(
        self, expr: LinExpr, sense: Sense, name: str | None = None
    ) -> None:
        # Zero coefficients (e.g. from `0 * x`) are dropped so downstream
        # consumers (the compiled rows, cover-cut supports) see true arity.
        self.expr = LinExpr(
            {var: coef for var, coef in expr.terms.items() if coef != 0.0}
        )
        self.sense = sense
        self.rhs = -expr.constant + 0.0   # "+ 0.0" normalizes -0.0
        self.name = name

    def named(self, name: str) -> "Constraint":
        """Return ``self`` after attaching a name (builder-style helper)."""
        self.name = name
        return self

    def violation(self, values: Mapping[str, float]) -> float:
        """Amount by which a point violates the constraint (0 if satisfied)."""
        lhs = self.expr.evaluate(values)
        if self.sense is Sense.LE:
            return max(0.0, lhs - self.rhs)
        if self.sense is Sense.GE:
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)

    def is_satisfied(
        self, values: Mapping[str, float], tol: float = 1e-6
    ) -> bool:
        return self.violation(values) <= tol

    def __repr__(self) -> str:
        label = f" [{self.name}]" if self.name else ""
        return f"Constraint({self.expr!r} {self.sense.value} {self.rhs:g}{label})"


def lin_sum(items: Iterable) -> LinExpr:
    """Sum variables/expressions/numbers into one LinExpr.

    Equivalent to ``sum(items)`` but avoids quadratic blowup from repeated
    expression copies: terms are accumulated in place into one result.
    """
    result = LinExpr()
    for item in items:
        if isinstance(item, Variable):
            result.add_term(item, 1.0)
        elif isinstance(item, LinExpr):
            result.constant += item.constant
            for var, coef in item.terms.items():
                result.add_term(var, coef)
        else:
            result.constant += float(item)
    return result
