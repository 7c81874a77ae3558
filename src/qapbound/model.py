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

The pairwise row tables of an ``IqapInstance`` share their cells: all edges
of one instance take their immutable ``(column, cost)`` cells from one
table, so equal cells are one tuple object (the benchmark's dense QAPLIB
instance, n = 28, holds 15,680 cell references in its 10 pairs of row
tables, and 1,012 distinct cells).
Only int cells are shared, so a cell always has the type of its own edge's
cost.  The table lives only while the instance is built.

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
processes.  An ``IqapInstance`` keeps no reference to the cell maps it was
built from: each ``PairwiseEdge`` stores its cells only as row tables.
Edges given one map object, with the same orientation and equal allowed
rows at their endpoints, share the row tables built from that map at its
first edge.  ``convert_qaplib_to_iqap`` gives all vertex pairs with one
flow pair one map, so the benchmark's QAPLIB instance builds 10 pairs of
tables for its 189 edges.

Every tolerance comparison in the package goes through the instance's
``atol``, one window for every instance: ``DEFAULT_TOLERANCE`` scaled by
``1 + max_abs_cost``.  Whether a dual constraint is tight is exact on an
integral instance (``_tight_slack``).  ``require_feasible`` and
``require_dual_feasible`` are the only constraint checks; each raises at
the first violation it finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

DUMMY = -1

DEFAULT_TOLERANCE = 1e-9

# Sort key of a ``(column, cost)`` row cell.
_COST = itemgetter(1)

Assignment = Sequence[int]


class FeasibilityError(ValueError):
    """An assignment violates the problem constraints."""


class DualInfeasibleError(ValueError):
    """A dual vector violates the dual constraints beyond tolerance."""


def _half_cost(c):
    """Half of ``c`` in the normal form of a cost (see ``_as_cost``): an
    int when the half is an integer of at most 2**53 in size (or ``c`` is an
    even int), else a float.

    It covers the halvings of the exact step and of the relative-interior
    shift: the reduction's cross costs, the potentials that
    ``reduction.lift_dual`` and ``reduction.solve_ilap`` halve, and the
    shift's slack.  So on an integral instance a potential that equals an
    integer is an int.  The message pass and the coordinate label step
    (``wcsp._handshake``, ``beta_steps.beta_coordinate_update``) halve
    with a plain ``/ 2`` instead, which always gives a float.  An even int
    halves exactly here; anything else halves in floats, exactly except
    for an odd int above 2**53 and for a subnormal float."""
    if type(c) is int and c % 2 == 0:
        return c // 2
    h = c / 2
    return int(h) if h.is_integer() and abs(h) <= 2.0**53 else h


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


# The type sets of the rows that ``_normalize_costs`` keeps as they are.
_INT_ONLY = {int}
_FLOAT_ONLY = {float}


def _normalize_costs(costs, allowed):
    """Cost half of construction, for cost rows parallel to ``allowed``.

    Checks the row lengths and normalizes every cost with ``_as_cost``.
    Returns (cost rows as nested tuples, max abs cost, all-int flag).

    Each row is screened in C first.  A row of ints only is normal as it
    is, and so is a row of floats only whose sum is finite (so every cell
    is) and none of whose cells ``is_integer()``.  Any other row goes
    through ``_as_cost`` cell by cell, which raises its errors.
    """
    if len(costs) != len(allowed):
        raise ValueError("allowed and costs must have one entry per vertex")
    rows = []
    for v, (cs, labs) in enumerate(zip(costs, allowed)):
        if len(cs) != len(labs):
            raise ValueError(f"vertex {v}: label list and cost list differ in length")
        kinds = set(map(type, cs))
        if kinds == _INT_ONLY or (
                kinds == _FLOAT_ONLY and math.isfinite(sum(cs))
                and not any(map(float.is_integer, cs))):
            rows.append(tuple(cs))
            continue
        where = f"vertex {v}"
        rows.append(tuple([_as_cost(c, where) for c in cs]))
    return (tuple(rows), *_cost_summary(rows))


def _cost_summary(rows) -> tuple:
    """(max abs cost, all-int flag) of normalized cost rows."""
    max_abs = 0
    integral = True
    for row in rows:
        row_max = max(map(abs, row))
        if row_max > max_abs:
            max_abs = row_max
        if integral:
            integral = all(map(int.__instancecheck__, row))
    return max_abs, integral


class _BaseInstance:
    """Shared helpers for the two unary instance classes.

    An instance is a *structure* (vertex and label counts, the sorted
    ``allowed`` rows, the index tables built from them) plus *costs*
    (``costs``, ``max_abs_cost``, ``integral``).
    ``with_costs`` makes a new instance that shares the structure of this
    one, including ``_structure_cache``.
    """

    num_vertices: int
    num_labels: int
    allowed: tuple[tuple[int, ...], ...]
    costs: tuple[tuple, ...]

    _STRUCTURE = ("num_vertices", "num_labels", "allowed", "_index",
                  "vertices_for_label", "_structure_cache")

    def _finish_init(self, costs):
        self._set_costs(costs)
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

    def _set_costs(self, costs):
        self.costs, self.max_abs_cost, self.integral = _normalize_costs(
            costs, self.allowed)

    def with_costs(self, costs):
        """New instance over this structure with ``costs``.

        ``costs`` has one row per vertex, parallel to ``allowed``; it is
        checked and normalized exactly as by the constructor.  The structure
        is shared, not rebuilt.
        """
        new = self._sharing_structure()
        new._set_costs(costs)
        return new

    def _with_normal_costs(self, rows: tuple):
        """``with_costs`` for cost rows that are already normal: a tuple of
        tuples, parallel to ``allowed``, each cell an int or a float that
        ``_as_cost`` returns unchanged.  Nothing is checked."""
        new = self._sharing_structure()
        new.costs = rows
        new.max_abs_cost, new.integral = _cost_summary(rows)
        return new

    def _sharing_structure(self):
        new = object.__new__(type(self))
        for name in self._STRUCTURE:
            setattr(new, name, getattr(self, name))
        return new

    @property
    def atol(self) -> float:
        return DEFAULT_TOLERANCE * (1 + self.max_abs_cost)

    def allows(self, v: int, lab: int) -> bool:
        return lab in self._index[v]

    def label_index(self, v: int, lab: int) -> int:
        """Position of ``lab`` inside ``allowed[v]``; KeyError if disallowed."""
        return self._index[v][lab]

    def cost(self, v: int, lab: int):
        return self.costs[v][self._index[v][lab]]


class LapInstance(_BaseInstance):
    """Square assignment instance: n vertices, n labels, bijective solutions."""

    def __init__(self, allowed, costs):
        n = len(allowed)
        self.num_vertices = n
        self.num_labels = n
        self.allowed, costs = _sort_rows(allowed, costs, n,
                                         dummy_required=False)
        self._finish_init(costs)

    def __repr__(self):
        return f"LapInstance(n={self.num_vertices}, pairs={sum(map(len, self.allowed))})"


class IlapInstance(_BaseInstance):
    """Assignment instance with a dummy label allowed for every vertex.

    ``num_labels`` counts only the non-dummy labels; the dummy is the
    sentinel ``DUMMY`` and must appear in every allowed list.
    """

    # This instance's reduction, memoized by ``reduction.reduce_ilap_to_lap``.
    _reduced = None

    def __init__(self, allowed, costs, num_labels: int):
        if num_labels < 0:
            raise ValueError("num_labels must be non-negative")
        self.num_vertices = len(allowed)
        self.num_labels = num_labels
        self.allowed, costs = _sort_rows(allowed, costs, num_labels,
                                         dummy_required=True)
        self._finish_init(costs)

    def scale_costs(self, factor: int) -> "IlapInstance":
        """New instance with every cost multiplied by ``factor``."""
        return self.with_costs([[c * factor for c in row] for row in self.costs])

    def __repr__(self):
        return (f"IlapInstance(vertices={self.num_vertices}, "
                f"labels={self.num_labels})")


class PairwiseEdge:
    """Pairwise costs of one unordered vertex pair, stored with ``u < v``.

    The constructor reads the given map from ``(label of u, label of v)``
    to a cost once, normalizes each cost, and keeps no reference to the
    map, so later changes to it do not reach the edge.  Absent cells are
    zero.  The edge stores its cells only as two row tables in local label
    indices (positions in ``allowed[u]``/``allowed[v]``), the layout that
    the per-edge minima of ``wcsp`` read; ``cells`` is a new dict read from
    them on each access.  ``rows_u`` has one entry per label of ``u`` with
    the labels of ``v`` as columns, and ``rows_v`` is its transpose.  An
    entry is

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

    Every row's ``cells`` are in ascending cost order (ties keep insertion
    order).  A scan of a row can then stop at the first cell whose cost
    plus the cheapest column cannot beat the running minimum: every later
    cell costs at least as much and sits on a column at least as cheap,
    and rounding is monotone in the one arithmetic each scan uses (see
    ``wcsp.IqapDualState``).

    Cells are immutable tuples and may be shared: every int cell is taken
    from ``_cell_table``, a dict from a cell to its one shared object.
    ``IqapInstance`` passes one table to all of its edges; an edge built on
    its own uses a private one.  Float cells are never shared, because a
    float can equal an int (``2.0**60 == 2**60``) and an integral edge must
    hold int cells only.

    ``integral`` is true when every stored cost is an int, and
    ``nonnegative`` when no stored cost is below zero; then a row that does
    not store the cheapest column has that column as its minimum, which
    ``wcsp`` uses to skip it.
    """

    __slots__ = ("u", "v", "_labels", "rows_u", "rows_v", "max_abs_cost",
                 "integral", "nonnegative")

    def __init__(self, u: int, v: int, cells: Mapping, unary: IlapInstance,
                 _cell_table: dict | None = None):
        low, high = _edge_ends(u, v, unary.num_vertices)
        if low != u:
            cells = {(l, k): c for (k, l), c in cells.items()}
        u, v = low, high
        self.u = u
        self.v = v
        index_u = unary._index[u]
        index_v = unary._index[v]
        rows = [[] for _ in index_u]
        cols = [[] for _ in index_v]
        share = ({} if _cell_table is None else _cell_table).setdefault
        integral = True
        for (k, l), c in cells.items():
            ki = index_u.get(k)
            li = index_v.get(l)
            # The message is formatted only for a cell that needs checking.
            if ki is None or li is None or type(c) is not int:
                where = f"edge ({u}, {v}) cell ({k}, {l})"
                if ki is None:
                    raise ValueError(f"{where}: label {k} not allowed for vertex {u}")
                if li is None:
                    raise ValueError(f"{where}: label {l} not allowed for vertex {v}")
                c = _as_cost(c, where)
                if type(c) is not int:
                    integral = False
            row_cell = (li, c)
            col_cell = (ki, c)
            if type(c) is int:
                row_cell = share(row_cell, row_cell)
                col_cell = share(col_cell, col_cell)
            rows[ki].append(row_cell)
            cols[li].append(col_cell)
        self._labels = (unary.allowed[u], unary.allowed[v])
        self.rows_u = _row_table(rows, len(cols))
        self.rows_v = _row_table(cols, len(rows))
        # Each row ascends by cost, so the least stored cost starts a row
        # and the greatest ends one.
        low = min([row[2][0][1] for row in self.rows_u if row], default=0)
        high = max([row[2][-1][1] for row in self.rows_u if row], default=0)
        self.max_abs_cost = max(abs(low), abs(high))
        self.integral = integral
        self.nonnegative = low >= 0

    @property
    def cells(self) -> dict:
        """A new ``(label of u, label of v) -> cost`` dict of the stored
        cells, read from ``rows_u``."""
        labels_u, labels_v = self._labels
        return {(labels_u[ki], labels_v[j]): c for ki, row
                in enumerate(self.rows_u) if row for j, c in row[2]}

    def _moved(self, u: int, v: int, allowed: tuple) -> "PairwiseEdge":
        """A new edge on ``u < v`` with this edge's row tables and flags;
        ``allowed[u]`` and ``allowed[v]`` must equal this edge's rows."""
        edge = object.__new__(PairwiseEdge)
        for name in self.__slots__[3:]:
            setattr(edge, name, getattr(self, name))
        edge.u = u
        edge.v = v
        edge._labels = (allowed[u], allowed[v])
        return edge


def _edge_ends(u: int, v: int, num_vertices: int) -> tuple:
    """The endpoints of an edge as ``(low, high)``, checked."""
    if u == v:
        raise ValueError(f"pairwise edge ({u}, {v}) is a loop")
    if u > v:
        u, v = v, u
    if u < 0 or v >= num_vertices:
        raise ValueError(f"edge ({u}, {v}) references unknown vertex")
    return u, v


def _row_table(grouped: list, num_cols: int) -> tuple:
    """``PairwiseEdge`` row entries from the ``(column, cost)`` list of
    each row, with each row's cells sorted by cost."""
    table = []
    for cells in grouped:
        if not cells:
            table.append(None)
            continue
        cells.sort(key=_COST)
        if 2 * len(cells) <= num_cols:
            table.append((False, tuple([j for j, _ in cells]), tuple(cells)))
        else:
            free = [True] * num_cols
            for j, _ in cells:
                free[j] = False
            unstored = tuple([j for j in range(num_cols) if free[j]])
            table.append((True, unstored, tuple(cells)))
    return tuple(table)


class IqapInstance:
    """ILAP core plus sparse pairwise costs over a vertex graph.

    ``edges`` yields ``(u, v, cells)`` triples, ``cells`` a map from
    ``(label of u, label of v)`` to a cost, each built into a
    ``PairwiseEdge``.  A map object given for several edges is read once,
    at its first edge: each later edge with the same orientation and equal
    allowed rows at its endpoints is a new edge object with its own
    endpoints that holds the first edge's row tables and flags.
    """

    def __init__(self, unary: IlapInstance, edges: Iterable = ()):
        self.unary = unary
        self._edge_by_pair = {}
        allowed = unary.allowed
        # One cell table for all edges, and one built edge per cell map,
        # orientation and pair of endpoint rows, whose tables every later
        # edge with that key shares; both are dropped when construction
        # ends.  An entry holds its map, so no other map takes its ``id``.
        cell_table = {}
        built = {}
        for u, v, cells in edges:
            low, high = _edge_ends(u, v, unary.num_vertices)
            key = (id(cells), low != u, allowed[low], allowed[high])
            first = built.get(key)
            if first is None:
                edge = PairwiseEdge(u, v, cells, unary, cell_table)
                built[key] = (cells, edge)
            else:
                edge = first[1]._moved(low, high, allowed)
            if (edge.u, edge.v) in self._edge_by_pair:
                raise ValueError(f"duplicate edge ({edge.u}, {edge.v})")
            self._edge_by_pair[edge.u, edge.v] = edge
        self.edges = tuple(sorted(self._edge_by_pair.values(),
                                  key=lambda e: (e.u, e.v)))
        pair_max = max((e.max_abs_cost for e in self.edges), default=0)
        self.max_abs_cost = max(unary.max_abs_cost, pair_max)
        self.integral = unary.integral and all(e.integral for e in self.edges)

    @property
    def num_vertices(self) -> int:
        return self.unary.num_vertices

    @property
    def num_labels(self) -> int:
        return self.unary.num_labels

    @property
    def atol(self) -> float:
        return DEFAULT_TOLERANCE * (1 + self.max_abs_cost)

    def edge_between(self, u: int, v: int) -> PairwiseEdge | None:
        if u > v:
            u, v = v, u
        return self._edge_by_pair.get((u, v))

    def pairwise_cost(self, u: int, v: int, k: int, l: int):
        """Cost of labeling ``u`` with ``k`` and ``v`` with ``l`` (0 if
        unstored), read from the edge's row for ``k``: a row of ``rows_u``
        if ``u`` is the edge's ``u``, else of ``rows_v``."""
        edge = self.edge_between(u, v)
        if edge is None:
            raise ValueError(f"no edge between vertices {u} and {v}")
        if not self.unary.allows(u, k):
            raise ValueError(f"label {k} not allowed for vertex {u}")
        if not self.unary.allows(v, l):
            raise ValueError(f"label {l} not allowed for vertex {v}")
        rows = edge.rows_u if u == edge.u else edge.rows_v
        row = rows[self.unary.label_index(u, k)]
        j = self.unary.label_index(v, l)
        return next((c for i, c in row[2] if i == j), 0) if row else 0

    def __repr__(self):
        return (f"IqapInstance(vertices={self.num_vertices}, "
                f"labels={self.num_labels}, edges={len(self.edges)})")


def unary_part(inst) -> _BaseInstance:
    """The unary instance behind any of the three problem classes."""
    return inst.unary if isinstance(inst, IqapInstance) else inst


# ---------------------------------------------------------------------------
# Assignments


def require_feasible(inst, x: Assignment) -> None:
    """Raise ``FeasibilityError`` at the first constraint ``x`` violates."""
    unary = unary_part(inst)
    n = unary.num_vertices
    if len(x) != n:
        raise FeasibilityError(f"assignment has {len(x)} entries, expected {n}")
    for v, lab in enumerate(x):
        if not unary.allows(v, lab):
            raise FeasibilityError(
                f"vertex {v} takes label {lab}, not in its allowed set")
    seen: dict[int, int] = {}
    for v, lab in enumerate(x):
        if lab == DUMMY:
            continue
        if lab in seen:
            raise FeasibilityError(
                f"label {lab} assigned to both vertex {seen[lab]} and vertex {v}")
        seen[lab] = v


def lap_objective(inst: LapInstance | IlapInstance, x: Assignment):
    """Cost of a feasible assignment of a ``LapInstance`` or ``IlapInstance``."""
    require_feasible(inst, x)
    return sum(inst.cost(v, lab) for v, lab in enumerate(x))


def iqap_objective(inst: IqapInstance, x: Assignment):
    require_feasible(inst, x)
    total = sum(inst.unary.cost(v, lab) for v, lab in enumerate(x))
    for e in inst.edges:
        total += inst.pairwise_cost(e.u, e.v, x[e.u], x[e.v])
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


def require_dual_feasible(inst, dual) -> None:
    """Raise ``DualInfeasibleError`` at the first dual constraint violated
    beyond ``inst.atol``.  A dual of the wrong class or length raises
    ``ValueError``."""
    unary = unary_part(inst)
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
                raise DualInfeasibleError(f"beta[{lab}] = {b} exceeds zero")
    for v, (labs, cs) in enumerate(zip(unary.allowed, unary.costs)):
        av = dual.alpha[v]
        for lab, c in zip(labs, cs):
            b = 0 if lab == DUMMY else dual.beta[lab]
            if c - av - b < -tol:
                raise DualInfeasibleError(
                    f"dual constraint violated at vertex {v}, label {lab}")


def _tight_slack(inst):
    """The largest slack at which a dual constraint of ``inst`` is tight:
    0 on an integral instance, whose slacks are exact (there ``atol`` can
    reach 1 and merge two integer slacks), else ``atol``.  The oracle
    counts an assignment optimal within the same window of the optimum."""
    return 0 if inst.integral else inst.atol


def dual_objective(inst, dual):
    """Sum of all dual variables (beta runs over non-dummy labels for ILAP)."""
    unary = unary_part(inst)
    if len(dual.alpha) != unary.num_vertices or len(dual.beta) != unary.num_labels:
        raise ValueError("dual dimensions do not match the instance")
    return sum(dual.alpha) + sum(dual.beta)
