"""Sparse standard-form compilation of MILP models.

A :class:`CompiledModel` is the canonical *solver-facing* view of a
model: CSR-style numpy arrays for the constraint matrix, right-hand
sides, variable bounds, an integrality mask and a stable name -> column
index map.  It is built once per model structure
(:func:`compile_model` / :meth:`repro.ilp.model.Model.compile`) and is
the only form a backend, an LP relaxation or a primal heuristic sees:
the HiGHS adapter and the LP relaxations consume the sparse rows
directly, the dense simplex reads the cached dense views, and
:mod:`repro.solve.fingerprint` hashes the arrays instead of re-walking
``dict``-of-terms expressions.

Cheap derived views make incremental re-solves possible without
recompiling:

* :meth:`CompiledModel.with_b_ub` — a sibling sharing every array except
  a patched copy of ``b_ub`` (used by the model templates of
  :mod:`repro.core.formulation` to slide the latency window),
* :meth:`CompiledModel.truncate_ub_rows` — a prefix view dropping
  trailing inequality rows without copying the matrix (used to drop the
  optional ``latency_lb`` row when the window's lower edge is zero).

Row order follows constraint insertion: inequality rows (``>=``
negated to ``<=``) in insertion order form the ``ub`` block, equality
rows in insertion order the ``eq`` block.  :attr:`CompiledModel.ub_names`
and :attr:`CompiledModel.eq_names` name each row, so row duals and patches
map back to constraint names without re-deriving the order.

Because the derived views *alias* their parent's arrays, every array of
a :class:`CompiledModel` is frozen (``writeable=False``) at compile
time: an accidental in-place write — which would silently corrupt every
template sibling sharing the buffer — fails loudly with numpy's
``ValueError: assignment destination is read-only`` instead.  Backends
needing scratch space must ``.copy()`` first (they all do); the custom
lint rule RL001 (``repro-tp lint``) guards call sites.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.ilp.expr import Sense, Variable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ilp.model import Model

__all__ = ["CompiledModel", "RowGroup", "compile_model"]


@dataclass(frozen=True)
class RowGroup:
    """Provenance of one constraint family in the compiled blocks.

    Families are built sequentially (see
    :mod:`repro.core.families`), so each family's rows occupy one
    contiguous span per block: ``[ub_start, ub_stop)`` in the
    inequality block and ``[eq_start, eq_stop)`` in the equality
    block.  Consumers patch or scan rows *by family id* through
    :meth:`CompiledModel.row_group` instead of relying on positional
    conventions or name-prefix scans.
    """

    family: str
    ub_start: int
    ub_stop: int
    eq_start: int
    eq_stop: int

    @property
    def num_ub(self) -> int:
        return self.ub_stop - self.ub_start

    @property
    def num_eq(self) -> int:
        return self.eq_stop - self.eq_start

    def ub_rows(self) -> range:
        """Inequality-row indices owned by this family."""
        return range(self.ub_start, self.ub_stop)

    def eq_rows(self) -> range:
        """Equality-row indices owned by this family."""
        return range(self.eq_start, self.eq_stop)

    def clipped_ub(self, num_rows: int) -> "RowGroup":
        """The group after truncating the ub block to ``num_rows``."""
        return RowGroup(
            family=self.family,
            ub_start=min(self.ub_start, num_rows),
            ub_stop=min(self.ub_stop, num_rows),
            eq_start=self.eq_start,
            eq_stop=self.eq_stop,
        )


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only and return it.

    Compiled arrays are shared across template siblings (see
    :meth:`CompiledModel.with_b_ub` / :meth:`CompiledModel
    .truncate_ub_rows`), so in-place mutation would corrupt models that
    look independent; freezing turns that silent corruption into an
    immediate ``ValueError``.  Views taken of a frozen array (the
    truncated prefix siblings) inherit the read-only flag from numpy.
    """
    array.flags.writeable = False
    return array


class _ViewCache:
    """Lazily materialized dense/scipy views, shared by RHS siblings.

    All :class:`CompiledModel` instances produced by
    :meth:`CompiledModel.with_b_ub` share one ``_ViewCache`` because
    they share the same matrix structure; the dense and scipy-sparse
    renderings are therefore built at most once per structure no matter
    how many windows are instantiated from it.
    """

    __slots__ = ("dense_ub", "dense_eq", "csr_ub", "csr_eq")

    def __init__(self) -> None:
        self.dense_ub: np.ndarray | None = None
        self.dense_eq: np.ndarray | None = None
        self.csr_ub = None
        self.csr_eq = None


def _dense_from_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    num_rows: int,
    num_cols: int,
) -> np.ndarray:
    out = np.zeros((num_rows, num_cols))
    for i in range(num_rows):
        lo, hi = indptr[i], indptr[i + 1]
        out[i, indices[lo:hi]] = data[lo:hi]
    return out


@dataclass
class CompiledModel:
    """CSR standard form of one MILP, shared by every backend.

    The objective is always stored in the *minimization* direction (a
    MAXIMIZE model is negated at compile time); ``maximize`` records the
    original sense so :func:`repro.ilp.model.solve_compiled` can flip
    reported values back.
    """

    variables: tuple[Variable, ...]
    c: np.ndarray
    c0: float
    # Inequality block, normalized to `<=` (GE rows negated).
    ub_indptr: np.ndarray
    ub_indices: np.ndarray
    ub_data: np.ndarray
    b_ub: np.ndarray
    ub_names: tuple[str | None, ...]
    # Equality block.
    eq_indptr: np.ndarray
    eq_indices: np.ndarray
    eq_data: np.ndarray
    b_eq: np.ndarray
    eq_names: tuple[str | None, ...]
    lb: np.ndarray
    ub: np.ndarray
    is_integral: np.ndarray
    maximize: bool = False
    #: Named row-group provenance (family id -> contiguous row spans),
    #: attached by builders that know the family structure (the
    #: formulation layer); ``None`` for models compiled without one.
    #: Purely metadata: excluded from :meth:`fingerprint`, which hashes
    #: the raw arrays only.
    row_groups: "tuple[RowGroup, ...] | None" = None
    _views: _ViewCache = field(default_factory=_ViewCache, repr=False)
    _var_index: dict[str, int] | None = field(default=None, repr=False)
    _fingerprints: dict[tuple[str, ...], str] = field(
        default_factory=dict, repr=False
    )

    # -- shapes --------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_ub_rows(self) -> int:
        return len(self.b_ub)

    @property
    def num_eq_rows(self) -> int:
        return len(self.b_eq)

    @property
    def var_index(self) -> dict[str, int]:
        """Stable ``name -> column`` map (model insertion order)."""
        if self._var_index is None:
            self._var_index = {
                var.name: j for j, var in enumerate(self.variables)
            }
        return self._var_index

    # -- dense / scipy views (cached, shared across RHS siblings) ------------

    @property
    def a_ub(self) -> np.ndarray:
        """Dense inequality matrix (cached; rows normalized to ``<=``)."""
        cache = self._views
        if cache.dense_ub is None or cache.dense_ub.shape[0] < self.num_ub_rows:
            cache.dense_ub = _frozen(
                _dense_from_csr(
                    self.ub_indptr,
                    self.ub_indices,
                    self.ub_data,
                    self.num_ub_rows,
                    self.num_vars,
                )
            )
        return cache.dense_ub[: self.num_ub_rows]

    @property
    def a_eq(self) -> np.ndarray:
        """Dense equality matrix (cached)."""
        cache = self._views
        if cache.dense_eq is None or cache.dense_eq.shape[0] < self.num_eq_rows:
            cache.dense_eq = _frozen(
                _dense_from_csr(
                    self.eq_indptr,
                    self.eq_indices,
                    self.eq_data,
                    self.num_eq_rows,
                    self.num_vars,
                )
            )
        return cache.dense_eq[: self.num_eq_rows]

    def a_ub_csr(self):
        """Scipy CSR view of the inequality block (cached, zero-copy)."""
        from scipy import sparse

        cache = self._views
        if cache.csr_ub is None or cache.csr_ub.shape[0] != self.num_ub_rows:
            cache.csr_ub = sparse.csr_matrix(
                (self.ub_data, self.ub_indices, self.ub_indptr),
                shape=(self.num_ub_rows, self.num_vars),
            )
        return cache.csr_ub

    def a_eq_csr(self):
        """Scipy CSR view of the equality block (cached, zero-copy)."""
        from scipy import sparse

        cache = self._views
        if cache.csr_eq is None or cache.csr_eq.shape[0] != self.num_eq_rows:
            cache.csr_eq = sparse.csr_matrix(
                (self.eq_data, self.eq_indices, self.eq_indptr),
                shape=(self.num_eq_rows, self.num_vars),
            )
        return cache.csr_eq

    # -- solution helpers ----------------------------------------------------

    def values_to_dict(self, x: Sequence[float]) -> dict[str, float]:
        return {var.name: float(val) for var, val in zip(self.variables, x)}

    def objective_at(self, x: np.ndarray) -> float:
        return float(self.c @ x) + self.c0

    # -- incremental views ---------------------------------------------------

    def row_group(self, family: str) -> RowGroup:
        """The row span of one constraint family, by family id.

        Raises :class:`KeyError` when the model carries no provenance
        (``row_groups is None``) or the family is unknown.
        """
        for group in self.row_groups or ():
            if group.family == family:
                return group
        raise KeyError(family)

    def row_position(self, name: str) -> tuple[str, int]:
        """Locate a named row: ``("ub"|"eq", index within its block)``.

        For ``>=`` rows the stored right-hand side is the *negated*
        bound; callers patching ``b_ub`` must negate accordingly.
        """
        for i, row_name in enumerate(self.ub_names):
            if row_name == name:
                return ("ub", i)
        for i, row_name in enumerate(self.eq_names):
            if row_name == name:
                return ("eq", i)
        raise KeyError(name)

    def with_b_ub(self, updates: Mapping[int, float]) -> "CompiledModel":
        """Sibling sharing every array except a patched copy of ``b_ub``.

        ``updates`` maps inequality-row indices to new stored right-hand
        sides (already in the normalized ``<=`` direction).  The matrix
        structure, bounds, objective and the dense/scipy view caches are
        shared, so instantiating a new window costs one ``b_ub`` copy.
        The patched copy is frozen again before it is handed out.
        """
        b_ub = self.b_ub.copy()
        for row, value in updates.items():
            b_ub[row] = value
        b_ub = _frozen(b_ub)
        return CompiledModel(
            variables=self.variables,
            c=self.c,
            c0=self.c0,
            ub_indptr=self.ub_indptr,
            ub_indices=self.ub_indices,
            ub_data=self.ub_data,
            b_ub=b_ub,
            ub_names=self.ub_names,
            eq_indptr=self.eq_indptr,
            eq_indices=self.eq_indices,
            eq_data=self.eq_data,
            b_eq=self.b_eq,
            eq_names=self.eq_names,
            lb=self.lb,
            ub=self.ub,
            is_integral=self.is_integral,
            maximize=self.maximize,
            row_groups=self.row_groups,
            _views=self._views,
            _var_index=self._var_index,
        )

    def with_b_eq(self, updates: Mapping[int, float]) -> "CompiledModel":
        """Sibling sharing every array except a patched copy of ``b_eq``.

        The equality-block counterpart of :meth:`with_b_ub`; used by
        :meth:`repro.ilp.model.Model.set_rhs` to patch an equality
        right-hand side without mutating arrays that template siblings
        may alias.
        """
        b_eq = self.b_eq.copy()
        for row, value in updates.items():
            b_eq[row] = value
        b_eq = _frozen(b_eq)
        return CompiledModel(
            variables=self.variables,
            c=self.c,
            c0=self.c0,
            ub_indptr=self.ub_indptr,
            ub_indices=self.ub_indices,
            ub_data=self.ub_data,
            b_ub=self.b_ub,
            ub_names=self.ub_names,
            eq_indptr=self.eq_indptr,
            eq_indices=self.eq_indices,
            eq_data=self.eq_data,
            b_eq=b_eq,
            eq_names=self.eq_names,
            lb=self.lb,
            ub=self.ub,
            is_integral=self.is_integral,
            maximize=self.maximize,
            row_groups=self.row_groups,
            _views=self._views,
            _var_index=self._var_index,
        )

    def truncate_ub_rows(self, num_rows: int) -> "CompiledModel":
        """Prefix view keeping only the first ``num_rows`` inequality rows.

        Shares the underlying arrays via numpy slices (no copy); used to
        drop trailing optional rows such as the latency-window lower
        bound.  The dense cache is shared with the parent: the truncated
        view renders as a row-slice of the parent's dense matrix.
        """
        if not 0 <= num_rows <= self.num_ub_rows:
            raise ValueError(
                f"cannot keep {num_rows} of {self.num_ub_rows} rows"
            )
        nnz = int(self.ub_indptr[num_rows])
        return CompiledModel(
            variables=self.variables,
            c=self.c,
            c0=self.c0,
            ub_indptr=self.ub_indptr[: num_rows + 1],
            ub_indices=self.ub_indices[:nnz],
            ub_data=self.ub_data[:nnz],
            b_ub=self.b_ub[:num_rows],
            ub_names=self.ub_names[:num_rows],
            eq_indptr=self.eq_indptr,
            eq_indices=self.eq_indices,
            eq_data=self.eq_data,
            b_eq=self.b_eq,
            eq_names=self.eq_names,
            lb=self.lb,
            ub=self.ub,
            is_integral=self.is_integral,
            maximize=self.maximize,
            row_groups=(
                None
                if self.row_groups is None
                else tuple(
                    group.clipped_ub(num_rows) for group in self.row_groups
                )
            ),
            _views=self._views,
            _var_index=self._var_index,
        )

    def point_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Cheap feasibility certificate: does ``x`` satisfy this model?

        Evaluates bounds and both row blocks through the cached sparse
        views — no solver involved.  LP rounding
        (:mod:`repro.ilp.rounding`) checks its candidates with it, and the
        solve executor checks every backend point with it.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != self.lb.shape or not np.all(np.isfinite(x)):
            return False
        if np.any(x < self.lb - tol) or np.any(x > self.ub + tol):
            return False
        if self.num_ub_rows and np.any(self.a_ub_csr() @ x > self.b_ub + tol):
            return False
        if self.num_eq_rows and np.any(
            np.abs(self.a_eq_csr() @ x - self.b_eq) > tol
        ):
            return False
        return True

    # -- identity ------------------------------------------------------------

    def fingerprint(self, skip_rows: tuple[str, ...] = ()) -> str:
        """SHA-256 digest of the compiled structure, skipping named rows.

        Hashes the raw array bytes (variables, sparse rows, right-hand
        sides, bounds, integrality, objective) — no expression walking,
        no string-formatting of thousands of terms.  Cached per
        ``skip_rows`` tuple, so repeated fingerprinting of one compiled
        model is free.
        """
        key = tuple(skip_rows)
        cached = self._fingerprints.get(key)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        update = digest.update
        for var in self.variables:
            update(
                f"v|{var.name}|{var.lb!r}|{var.ub!r}|{var.vtype.value}\n".encode()
            )
        skip = set(skip_rows)

        def hash_block(indptr, indices, data, rhs, names, tag: bytes) -> None:
            for i, name in enumerate(names):
                if name is not None and name in skip:
                    continue
                lo, hi = int(indptr[i]), int(indptr[i + 1])
                update(tag)
                update(f"{name}|{rhs[i]!r}|".encode())
                update(np.ascontiguousarray(indices[lo:hi]).tobytes())
                update(np.ascontiguousarray(data[lo:hi]).tobytes())

        hash_block(
            self.ub_indptr, self.ub_indices, self.ub_data,
            self.b_ub, self.ub_names, b"u|",
        )
        hash_block(
            self.eq_indptr, self.eq_indices, self.eq_data,
            self.b_eq, self.eq_names, b"e|",
        )
        update(b"o|")
        update(b"max|" if self.maximize else b"min|")
        update(f"{self.c0!r}|".encode())
        update(np.ascontiguousarray(self.c).tobytes())
        value = digest.hexdigest()
        self._fingerprints[key] = value
        return value


def compile_model(model: "Model") -> CompiledModel:
    """Compile a :class:`repro.ilp.model.Model` into sparse standard form.

    One pass over the constraint list; every ``>=`` row is negated into
    the ``<=`` block, equalities go to their own block, and a MAXIMIZE
    objective is negated.
    """
    from repro.ilp.model import ObjectiveSense

    variables = tuple(model.variables)
    index = {var: j for j, var in enumerate(variables)}
    n = len(variables)

    c = np.zeros(n)
    for var, coef in model.objective.terms.items():
        c[index[var]] = coef
    c0 = model.objective.constant
    maximize = model.objective_sense == ObjectiveSense.MAXIMIZE
    if maximize:
        c, c0 = -c, -c0

    ub_indptr = [0]
    ub_indices: list[int] = []
    ub_data: list[float] = []
    b_ub: list[float] = []
    ub_names: list[str | None] = []
    eq_indptr = [0]
    eq_indices: list[int] = []
    eq_data: list[float] = []
    b_eq: list[float] = []
    eq_names: list[str | None] = []

    for constr in model.constraints:
        cols = [index[var] for var in constr.expr.terms]
        coefs = list(constr.expr.terms.values())
        if constr.sense is Sense.EQ:
            eq_indices.extend(cols)
            eq_data.extend(coefs)
            eq_indptr.append(len(eq_indices))
            b_eq.append(constr.rhs)
            eq_names.append(constr.name)
        elif constr.sense is Sense.LE:
            ub_indices.extend(cols)
            ub_data.extend(coefs)
            ub_indptr.append(len(ub_indices))
            b_ub.append(constr.rhs)
            ub_names.append(constr.name)
        else:  # GE: negate into the <= block
            ub_indices.extend(cols)
            ub_data.extend(-coef for coef in coefs)
            ub_indptr.append(len(ub_indices))
            b_ub.append(-constr.rhs)
            ub_names.append(constr.name)

    return CompiledModel(
        variables=variables,
        c=_frozen(c),
        c0=float(c0),
        ub_indptr=_frozen(np.asarray(ub_indptr, dtype=np.intp)),
        ub_indices=_frozen(np.asarray(ub_indices, dtype=np.intp)),
        ub_data=_frozen(np.asarray(ub_data, dtype=float)),
        b_ub=_frozen(np.asarray(b_ub, dtype=float)),
        ub_names=tuple(ub_names),
        eq_indptr=_frozen(np.asarray(eq_indptr, dtype=np.intp)),
        eq_indices=_frozen(np.asarray(eq_indices, dtype=np.intp)),
        eq_data=_frozen(np.asarray(eq_data, dtype=float)),
        b_eq=_frozen(np.asarray(b_eq, dtype=float)),
        eq_names=tuple(eq_names),
        lb=_frozen(np.array([v.lb for v in variables])),
        ub=_frozen(np.array([v.ub for v in variables])),
        is_integral=_frozen(
            np.array([v.vtype.is_integral for v in variables], dtype=bool)
        ),
        maximize=maximize,
    )

