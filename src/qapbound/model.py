"""Sparse cost models for assignment problems and their LP duals.

Three problem classes share one storage scheme:

* ``LapInstance``: equal-size vertex and label sets, the assignment is a
  bijection restricted to per-vertex allowed labels.
* ``IlapInstance``: a dummy label (``DUMMY``) may absorb any number of
  vertices; each non-dummy label is used at most once.  Vertex and label
  counts are unrelated.
* ``IqapInstance``: an ILAP plus pairwise costs on a loopless graph over the
  vertices.  Pairwise entries that are not stored are zero.

Costs are kept per vertex as a sorted tuple of allowed labels with a parallel
cost tuple.  Integer-valued costs are stored as Python ints so that integral
instances can be processed in exact arithmetic.

A unary instance is a *structure* and its *costs*.  The structure (the
sorted ``allowed`` rows, the label-index and vertices-per-label tables) is
validated and built once, by the constructor.  ``with_costs``
returns a new instance over the same structure: it checks and normalizes
only the new costs, through the same code path as the constructor, and
shares the structure objects.  This is how the exact label step re-prices
the unary subproblem every iteration.  Data that other modules derive from
the structure alone, such as the index layout of the reduced square
instance (see ``reduction``), is computed on first use and shared the same
way, so loading an instance never pays for it.  Instances are immutable
after construction (the lazily filled caches hold values that depend only
on what they are derived from) and safe to share across threads or
processes.

Every tolerance comparison in the package goes through the instance's
``atol``: the relative knob ``tolerance`` (``DEFAULT_TOLERANCE`` unless
given) scaled by ``1 + max_abs_cost``.  The knob is fixed when an instance
is built, by its constructor or by ``with_costs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

DUMMY = -1

DEFAULT_TOLERANCE = 1e-9

Assignment = Sequence[int]


class FeasibilityError(ValueError):
    """An assignment or primal vector violates the problem constraints."""


class DualInfeasibleError(ValueError):
    """A dual vector violates the dual constraints beyond tolerance."""


@dataclass(frozen=True)
class Violation:
    """Diagnosis of the first violated constraint found by a check."""

    kind: str
    message: str
    vertex: int | None = None
    label: int | None = None

    def __str__(self) -> str:
        return self.message


def _half(c):
    """Half of a cost, kept an int when ``c`` is an even int."""
    if isinstance(c, int) and c % 2 == 0:
        return c // 2
    return c / 2


def _as_cost(value, where: str):
    if isinstance(value, bool):
        raise TypeError(f"{where}: boolean is not a valid cost")
    if isinstance(value, int):
        return value
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{where}: cost must be finite, got {value!r}")
    if x.is_integer() and abs(x) <= 2.0**53:
        return int(x)
    return x


def _check_tolerance(tolerance) -> float:
    """The relative tolerance knob as a float, if finite and non-negative."""
    if not (tolerance >= 0 and math.isfinite(tolerance)):
        raise ValueError("tolerance must be finite and non-negative")
    return float(tolerance)


def _sort_rows(allowed, costs, num_labels: int, *, dummy_required: bool):
    """Structure half of construction: sort and validate each label list.

    Returns the allowed rows as nested tuples and the cost rows permuted
    into the same order, not yet normalized.
    """
    if len(allowed) != len(costs):
        raise ValueError("allowed and costs must have one entry per vertex")
    low = DUMMY if dummy_required else 0
    rows = []
    cost_rows = []
    for v, (labs, cs) in enumerate(zip(allowed, costs)):
        labs = list(labs)
        cs = list(cs)
        if len(labs) != len(cs):
            raise ValueError(f"vertex {v}: label list and cost list differ in length")
        if not labs:
            raise ValueError(f"vertex {v}: needs at least one allowed label")
        order = sorted(range(len(labs)), key=labs.__getitem__)
        prev = None
        for i in order:
            lab = labs[i]
            if lab == prev:
                raise ValueError(f"vertex {v}: duplicate allowed label {lab}")
            if not (low <= lab < num_labels):
                raise ValueError(f"vertex {v}: label {lab} out of range")
            prev = lab
        if dummy_required and labs[order[0]] != DUMMY:
            raise ValueError(f"vertex {v}: dummy label missing from allowed set")
        rows.append(tuple([labs[i] for i in order]))
        cost_rows.append([cs[i] for i in order])
    return tuple(rows), cost_rows


def _normalize_costs(costs, allowed):
    """Cost half of construction, for cost rows parallel to ``allowed``.

    Checks the row lengths and normalizes every cost with ``_as_cost``.
    Returns (cost rows as nested tuples, max abs cost, all-int flag).
    """
    if len(costs) != len(allowed):
        raise ValueError("allowed and costs must have one entry per vertex")
    rows = []
    max_abs = 0
    integral = True
    for v, (cs, labs) in enumerate(zip(costs, allowed)):
        if len(cs) != len(labs):
            raise ValueError(f"vertex {v}: label list and cost list differ in length")
        where = f"vertex {v}"
        # Ints and finite non-integer floats are already normal; this skips
        # the call for nearly every cell.
        row = tuple([c if type(c) is int or (type(c) is float and c - c == 0
                                             and not c.is_integer())
                     else _as_cost(c, where) for c in cs])
        rows.append(row)
        row_max = max(map(abs, row))
        if row_max > max_abs:
            max_abs = row_max
        if integral:
            integral = all(isinstance(c, int) for c in row)
    return tuple(rows), max_abs, integral


class _BaseInstance:
    """Shared helpers for the two unary instance classes.

    An instance is a *structure* (vertex and label counts, the sorted
    ``allowed`` rows, the index tables built from them) plus *costs*
    (``costs``, ``max_abs_cost``, ``integral``, ``tolerance``).
    ``with_costs`` makes a new instance that shares the structure of this
    one, including ``_structure_cache``.
    """

    num_vertices: int
    num_labels: int
    allowed: tuple[tuple[int, ...], ...]
    costs: tuple[tuple, ...]

    _STRUCTURE = ("num_vertices", "num_labels", "allowed", "_index",
                  "vertices_for_label", "_structure_cache")

    def _finish_init(self, costs, tolerance: float):
        self._set_costs(costs, tolerance)
        self._index = tuple(
            {lab: i for i, lab in enumerate(row)} for row in self.allowed
        )
        vfl = [[] for _ in range(self.num_labels)]
        for v, row in enumerate(self.allowed):
            for lab in row:
                if lab != DUMMY:
                    vfl[lab].append(v)
        self.vertices_for_label = tuple(tuple(vs) for vs in vfl)
        # Data derived from the structure alone, computed by other modules
        # on first use and shared by every ``with_costs`` copy.
        self._structure_cache = {}

    def _set_costs(self, costs, tolerance: float):
        self.costs, self.max_abs_cost, self.integral = _normalize_costs(
            costs, self.allowed)
        self.tolerance = _check_tolerance(tolerance)

    def with_costs(self, costs, *, tolerance: float | None = None):
        """New instance over this structure with ``costs``.

        ``costs`` has one row per vertex, parallel to ``allowed``; it is
        checked and normalized exactly as by the constructor.  The structure
        is shared, not rebuilt.  ``tolerance`` defaults to this instance's.
        """
        new = object.__new__(type(self))
        for name in self._STRUCTURE:
            setattr(new, name, getattr(self, name))
        new._set_costs(costs, self.tolerance if tolerance is None else tolerance)
        return new

    @property
    def atol(self) -> float:
        return self.tolerance * (1 + self.max_abs_cost)

    def allows(self, v: int, lab: int) -> bool:
        return lab in self._index[v]

    def label_index(self, v: int, lab: int) -> int:
        """Position of ``lab`` inside ``allowed[v]``; KeyError if disallowed."""
        return self._index[v][lab]

    def cost(self, v: int, lab: int):
        return self.costs[v][self._index[v][lab]]


class LapInstance(_BaseInstance):
    """Square assignment instance: n vertices, n labels, bijective solutions."""

    def __init__(self, allowed, costs, *, tolerance: float = DEFAULT_TOLERANCE):
        n = len(allowed)
        self.num_vertices = n
        self.num_labels = n
        self.allowed, costs = _sort_rows(allowed, costs, n,
                                         dummy_required=False)
        self._finish_init(costs, tolerance)

    def __repr__(self):
        return f"LapInstance(n={self.num_vertices}, pairs={sum(map(len, self.allowed))})"


class IlapInstance(_BaseInstance):
    """Assignment instance with a dummy label allowed for every vertex.

    ``num_labels`` counts only the non-dummy labels; the dummy is the
    sentinel ``DUMMY`` and must appear in every allowed list.
    """

    # This instance's reduction, memoized by ``reduction.reduce_ilap_to_lap``.
    _reduced = None

    def __init__(self, allowed, costs, num_labels: int, *,
                 tolerance: float = DEFAULT_TOLERANCE):
        if num_labels < 0:
            raise ValueError("num_labels must be non-negative")
        self.num_vertices = len(allowed)
        self.num_labels = num_labels
        self.allowed, costs = _sort_rows(allowed, costs, num_labels,
                                         dummy_required=True)
        self._finish_init(costs, tolerance)

    def dummy_cost(self, v: int):
        return self.costs[v][self._index[v][DUMMY]]

    def scale_costs(self, factor: int) -> "IlapInstance":
        """New instance with every cost multiplied by ``factor``."""
        return self.with_costs([[c * factor for c in row] for row in self.costs])

    def __repr__(self):
        return (f"IlapInstance(vertices={self.num_vertices}, "
                f"labels={self.num_labels})")


class PairwiseEdge:
    """Pairwise costs of one unordered vertex pair, stored with ``u < v``.

    ``cells`` maps ``(label of u, label of v)`` to a cost; absent cells are
    zero.  ``rows_u`` and ``rows_v`` hold the same cells as row tables in
    local label indices (positions in ``allowed[u]``/``allowed[v]``), the
    layout that the per-edge minima of ``wcsp`` read.  ``rows_u`` has one
    entry per label of ``u`` with the labels of ``v`` as columns, and
    ``rows_v`` is its transpose.  An entry is

    * ``None`` for a row with no stored cell;
    * ``(False, stored, cells)`` for a sparse row (at most half of the
      columns stored): the stored column indices and the ``(column, cost)``
      cells;
    * ``(True, unstored, cells)`` for a dense row: the column indices that
      are *not* stored, then the cells.

    A row's minimum over its unstored (zero) cells is what the tables are
    for.  A sparse row finds it by walking the columns in ascending order
    past the few stored ones; a dense row would walk past most of them, so
    it keeps the short complement and takes the minimum over that instead.
    """

    __slots__ = ("u", "v", "cells", "rows_u", "rows_v", "max_abs_cost")

    def __init__(self, u: int, v: int, cells: Mapping, unary: IlapInstance):
        if u == v:
            raise ValueError(f"pairwise edge ({u}, {v}) is a loop")
        if u > v:
            u, v = v, u
            cells = {(l, k): c for (k, l), c in cells.items()}
        if u < 0 or v >= unary.num_vertices:
            raise ValueError(f"edge ({u}, {v}) references unknown vertex")
        self.u = u
        self.v = v
        index_u = unary._index[u]
        index_v = unary._index[v]
        norm = {}
        rows = [[] for _ in index_u]
        cols = [[] for _ in index_v]
        max_abs = 0
        for (k, l), c in cells.items():
            ki = index_u.get(k)
            li = index_v.get(l)
            # The message is formatted only for a cell that needs checking.
            if ki is None or li is None or (k, l) in norm or type(c) is not int:
                where = f"edge ({u}, {v}) cell ({k}, {l})"
                if ki is None:
                    raise ValueError(f"{where}: label {k} not allowed for vertex {u}")
                if li is None:
                    raise ValueError(f"{where}: label {l} not allowed for vertex {v}")
                if (k, l) in norm:
                    raise ValueError(f"{where}: duplicate cell")
                c = _as_cost(c, where)
            norm[(k, l)] = c
            rows[ki].append((li, c))
            cols[li].append((ki, c))
            if abs(c) > max_abs:
                max_abs = abs(c)
        self.cells = norm
        self.rows_u = _row_table(rows, len(cols))
        self.rows_v = _row_table(cols, len(rows))
        self.max_abs_cost = max_abs


def _row_table(grouped: list, num_cols: int) -> tuple:
    """``PairwiseEdge`` row entries from the ``(column, cost)`` list of
    each row."""
    table = []
    for cells in grouped:
        if not cells:
            table.append(None)
        elif 2 * len(cells) <= num_cols:
            table.append((False, tuple([j for j, _ in cells]), tuple(cells)))
        else:
            free = [True] * num_cols
            for j, _ in cells:
                free[j] = False
            unstored = tuple([j for j in range(num_cols) if free[j]])
            table.append((True, unstored, tuple(cells)))
    return tuple(table)


class IqapInstance:
    """ILAP core plus sparse pairwise costs over a vertex graph."""

    def __init__(self, unary: IlapInstance, edges: Iterable = ()):
        self.unary = unary
        self._edge_by_pair = {}
        for u, v, cells in edges:
            edge = PairwiseEdge(u, v, cells, unary)
            if (edge.u, edge.v) in self._edge_by_pair:
                raise ValueError(f"duplicate edge ({edge.u}, {edge.v})")
            self._edge_by_pair[edge.u, edge.v] = edge
        self.edges = tuple(sorted(self._edge_by_pair.values(),
                                  key=lambda e: (e.u, e.v)))
        pair_max = max((e.max_abs_cost for e in self.edges), default=0)
        self.max_abs_cost = max(unary.max_abs_cost, pair_max)
        self.integral = unary.integral and all(
            isinstance(c, int) for e in self.edges for c in e.cells.values())

    @property
    def num_vertices(self) -> int:
        return self.unary.num_vertices

    @property
    def num_labels(self) -> int:
        return self.unary.num_labels

    @property
    def tolerance(self) -> float:
        return self.unary.tolerance

    @property
    def atol(self) -> float:
        return self.unary.tolerance * (1 + self.max_abs_cost)

    def edge_between(self, u: int, v: int) -> PairwiseEdge | None:
        if u > v:
            u, v = v, u
        return self._edge_by_pair.get((u, v))

    def pairwise_cost(self, u: int, v: int, k: int, l: int):
        """Cost of labeling ``u`` with ``k`` and ``v`` with ``l`` (0 if unstored)."""
        edge = self.edge_between(u, v)
        if edge is None:
            raise ValueError(f"no edge between vertices {u} and {v}")
        if not self.unary.allows(u, k):
            raise ValueError(f"label {k} not allowed for vertex {u}")
        if not self.unary.allows(v, l):
            raise ValueError(f"label {l} not allowed for vertex {v}")
        key = (k, l) if u == edge.u else (l, k)
        return edge.cells.get(key, 0)

    def __repr__(self):
        return (f"IqapInstance(vertices={self.num_vertices}, "
                f"labels={self.num_labels}, edges={len(self.edges)})")


def unary_part(inst) -> _BaseInstance:
    """The unary instance behind any of the three problem classes."""
    return inst.unary if isinstance(inst, IqapInstance) else inst


# ---------------------------------------------------------------------------
# Assignments


def check_feasible(inst, x: Assignment) -> Violation | None:
    """Diagnose the first constraint ``x`` violates, or None if feasible."""
    unary = unary_part(inst)
    n = unary.num_vertices
    if len(x) != n:
        return Violation("dimension",
                         f"assignment has {len(x)} entries, expected {n}")
    for v, lab in enumerate(x):
        if not unary.allows(v, lab):
            return Violation(
                "disallowed",
                f"vertex {v} takes label {lab}, not in its allowed set",
                v, lab)
    seen: dict[int, int] = {}
    for v, lab in enumerate(x):
        if lab == DUMMY:
            continue
        if lab in seen:
            return Violation(
                "duplicate",
                f"label {lab} assigned to both vertex {seen[lab]} and vertex {v}",
                v, lab)
        seen[lab] = v
    return None


def require_feasible(inst, x: Assignment) -> None:
    viol = check_feasible(inst, x)
    if viol is not None:
        raise FeasibilityError(viol.message)


def lap_objective(inst: LapInstance | IlapInstance, x: Assignment):
    """Cost of a feasible assignment of a ``LapInstance`` or ``IlapInstance``."""
    require_feasible(inst, x)
    return sum(inst.cost(v, lab) for v, lab in enumerate(x))


ilap_objective = lap_objective


def iqap_objective(inst: IqapInstance, x: Assignment):
    require_feasible(inst, x)
    total = sum(inst.unary.cost(v, lab) for v, lab in enumerate(x))
    for e in inst.edges:
        total += e.cells.get((x[e.u], x[e.v]), 0)
    return total


# ---------------------------------------------------------------------------
# Dual vectors


@dataclass
class LapDual:
    """Vertex potentials ``alpha`` and label potentials ``beta``."""

    alpha: list
    beta: list


@dataclass
class IlapDual:
    """Vertex potentials and non-positive potentials for non-dummy labels."""

    alpha: list
    beta: list


def dual_feasible(inst, dual, tol: float | None = None) -> Violation | None:
    """Diagnose the first dual constraint violated beyond ``tol``.

    ``tol`` defaults to the instance ``atol``.  Dimension mismatches raise
    ValueError; constraint violations are returned as a diagnosis.
    """
    unary = unary_part(inst)
    if tol is None:
        tol = inst.atol
    if len(dual.alpha) != unary.num_vertices:
        raise ValueError("alpha length does not match the vertex count")
    if isinstance(unary, LapInstance):
        if not isinstance(dual, LapDual):
            raise ValueError("expected a LapDual for a LapInstance")
        if len(dual.beta) != unary.num_labels:
            raise ValueError("beta length does not match the label count")
    else:
        if not isinstance(dual, IlapDual):
            raise ValueError("expected an IlapDual for this instance")
        if len(dual.beta) != unary.num_labels:
            raise ValueError("beta length does not match the non-dummy label count")
        for lab, b in enumerate(dual.beta):
            if b > tol:
                return Violation("dual", f"beta[{lab}] = {b} exceeds zero", None, lab)
    for v, (labs, cs) in enumerate(zip(unary.allowed, unary.costs)):
        av = dual.alpha[v]
        for lab, c in zip(labs, cs):
            b = 0 if lab == DUMMY else dual.beta[lab]
            if c - av - b < -tol:
                return Violation(
                    "dual",
                    f"dual constraint violated at vertex {v}, label {lab}",
                    v, lab)
    return None


def require_dual_feasible(inst, dual, tol: float | None = None) -> None:
    viol = dual_feasible(inst, dual, tol)
    if viol is not None:
        raise DualInfeasibleError(viol.message)


def dual_objective(inst, dual):
    """Sum of all dual variables (beta runs over non-dummy labels for ILAP)."""
    unary = unary_part(inst)
    if len(dual.alpha) != unary.num_vertices or len(dual.beta) != unary.num_labels:
        raise ValueError("dual dimensions do not match the instance")
    return sum(dual.alpha) + sum(dual.beta)


# ---------------------------------------------------------------------------
# Primal vectors (mu), used by the mapping and oracle checks

PrimalVector = Mapping[int, Mapping[int, float]]


def lap_primal_feasible(inst: LapInstance | IlapInstance, mu: PrimalVector,
                        tol: float | None = None) -> Violation | None:
    """Diagnose the first primal constraint ``mu`` violates beyond ``tol``.

    Rows are keyed by vertices and sum to one.  Columns of a
    ``LapInstance`` sum to one; those of an ``IlapInstance`` sum to at most
    one, and its dummy column is free.
    """
    if tol is None:
        tol = inst.atol
    for v in mu:
        if v not in range(inst.num_vertices):
            return Violation("dimension", f"mu has a row for {v!r}, "
                             f"outside vertices 0..{inst.num_vertices - 1}")
    square = isinstance(inst, LapInstance)
    col = [0] * inst.num_labels
    for v in range(inst.num_vertices):
        row_sum = 0
        for lab, value in mu.get(v, {}).items():
            if not inst.allows(v, lab):
                return Violation("disallowed",
                                 f"mu[{v}][{lab}] set on a disallowed pair", v, lab)
            if value < -tol:
                return Violation("negative", f"mu[{v}][{lab}] = {value} < 0", v, lab)
            row_sum += value
            if lab != DUMMY:
                col[lab] += value
        if abs(row_sum - 1) > tol:
            return Violation("row", f"mu row {v} sums to {row_sum}, expected 1", v)
    for lab, s in enumerate(col):
        if square and abs(s - 1) > tol:
            return Violation("column", f"mu column {lab} sums to {s}, expected 1",
                             None, lab)
        if s > 1 + tol:
            return Violation("column", f"mu column {lab} sums to {s} > 1",
                             None, lab)
    return None
