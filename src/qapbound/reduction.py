"""Reduction of dummy-label assignment problems to square ones.

An instance with a dummy label over vertices V and non-dummy labels L
becomes a square instance on the node set V + L, mirrored on both sides:

* vertex node v may take label node (shifted) l at half the original cost,
  and itself at the original dummy cost;
* label node l may take any vertex node that allows l, again at half cost,
  and itself at cost zero.

Self-assignment encodes "unassigned".  The reduced instance always has a
perfect matching (all self-loops), its optimal value equals the original
optimum, and its dual solutions map back by summing the two potentials each
original vertex or label received, preserving feasibility, optimality and
membership in the relative interior of the dual optimal set.

Node layout: nodes 0 .. |V|-1 are the vertices, nodes |V| .. |V|+|L|-1 are
the non-dummy labels, identically on both sides of the square instance.

The index layout of the square instance (its allowed rows, index tables and
names, and the original cell behind each cross cell) depends only on the
allowed sets.  It is built once per instance structure, on the first
reduction, and shared by every instance made from that structure with
``with_costs`` or ``scale_costs``.  Each reduction then only prices the
layout with the instance's costs, and its result is memoized on the
instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lap import solve_lap
from .model import (
    DUMMY,
    Assignment,
    FeasibilityError,
    IlapDual,
    IlapInstance,
    LapDual,
    LapInstance,
    PrimalVector,
    _half,
    ilap_objective,
    lap_primal_feasible,
    require_dual_feasible,
    require_feasible,
)
from .relative_interior import shift_to_relative_interior

SOLVE_MODES = ("optimal", "relative_interior")


@dataclass(frozen=True)
class ReducedLap:
    """Square instance produced by the reduction plus the index layout."""

    lap: LapInstance
    num_vertices: int  # vertex count of the original instance
    num_labels: int    # non-dummy label count of the original instance

    def label_node(self, lab: int) -> int:
        return self.num_vertices + lab


@dataclass(frozen=True)
class _Layout:
    """The reduced instance's structure for one ILAP structure.

    ``template`` carries the allowed rows, index tables and names of the
    square instance (its costs are placeholders); ``label_cells`` lists,
    for each non-dummy label, the ``(vertex, position in allowed[vertex])``
    of the original cell behind each cross cell of the label node's row.
    """

    template: LapInstance
    label_cells: tuple


def _layout(inst: IlapInstance) -> _Layout:
    """The layout for ``inst``'s structure, built on first use and shared."""
    layout = inst._structure_cache.get("reduction")
    if layout is not None:
        return layout
    nv = inst.num_vertices
    nl = inst.num_labels
    # Vertex node v: itself, then its non-dummy labels (the dummy sorts
    # first in ``allowed[v]``).
    allowed = [[v] + [nv + lab for lab in inst.allowed[v][1:]]
               for v in range(nv)]
    label_cells = []
    for lab in range(nl):
        vertices = inst.vertices_for_label[lab]
        label_cells.append(tuple((u, inst.label_index(u, lab))
                                 for u in vertices))
        allowed.append(list(vertices) + [nv + lab])
    names = None
    if inst.vertex_names or inst.label_names:
        names = tuple(inst.vertex_name(v) for v in range(nv)) + tuple(
            inst.label_name(lab) for lab in range(nl))
    template = LapInstance(allowed, [[0] * len(row) for row in allowed],
                           vertex_names=names, label_names=names,
                           tolerance=inst.tolerance)
    layout = _Layout(template, tuple(label_cells))
    inst._structure_cache["reduction"] = layout
    return layout


def reduce_ilap_to_lap(inst: IlapInstance) -> ReducedLap:
    """Build the mirrored square instance for ``inst``.

    The result is always feasible (every node may take itself) and its size
    is linear in the number of allowed (vertex, label) pairs.  The index
    layout is built once per structure; each call only prices it with
    ``inst``'s costs, and the result is memoized on ``inst``.
    """
    reduced = inst._reduced
    if reduced is not None:
        return reduced
    layout = _layout(inst)
    costs = inst.costs
    # Row v: the dummy cost, then the halved costs of v's non-dummy labels.
    rows = [[row[0], *map(_half, row[1:])] for row in costs]
    for cells in layout.label_cells:
        row = [_half(costs[u][i]) for u, i in cells]
        row.append(0)
        rows.append(row)
    lap = layout.template.with_costs(rows, tolerance=inst.tolerance)
    reduced = inst._reduced = ReducedLap(lap, inst.num_vertices,
                                         inst.num_labels)
    return reduced


def lift_assignment(inst: IlapInstance, x: Assignment) -> list[int]:
    """Mirror a feasible assignment into the reduced instance.

    Matched pairs map to each other, unassigned vertices and unused labels
    map to themselves; the result is an involution whose reduced-instance
    cost equals the original cost of ``x``.
    """
    require_feasible(inst, x)
    nv = inst.num_vertices
    xp = list(range(nv + inst.num_labels))
    for v, lab in enumerate(x):
        if lab != DUMMY:
            xp[v] = nv + lab
            xp[nv + lab] = v
    return xp


def decompose_assignment(inst: IlapInstance, xp: Assignment):
    """Split a reduced-instance assignment into its two original ones.

    The vertex rows of ``xp`` give the first assignment, the inverse of its
    label rows the second; twice the reduced cost of ``xp`` equals the sum
    of their two original costs.
    """
    reduced = reduce_ilap_to_lap(inst)
    require_feasible(reduced.lap, xp)
    nv = inst.num_vertices
    x1 = [xp[v] - nv if xp[v] >= nv else DUMMY for v in range(nv)]
    inv = [0] * len(xp)
    for node, target in enumerate(xp):
        inv[target] = node
    x2 = [inv[v] - nv if inv[v] >= nv else DUMMY for v in range(nv)]
    return x1, x2


def map_dual(inst: IlapInstance, dual_p: LapDual) -> IlapDual:
    """Fold a reduced-instance dual back onto the original instance.

    Each original vertex or label collects the sum of the two potentials its
    node carries.  Feasibility, optimality and relative-interior membership
    carry over, and the objectives agree.
    """
    reduced = reduce_ilap_to_lap(inst)
    require_dual_feasible(reduced.lap, dual_p)
    return _map_dual_unchecked(inst.num_vertices, inst.num_labels, dual_p)


def _map_dual_unchecked(nv: int, nl: int, dual_p: LapDual) -> IlapDual:
    alpha = [dual_p.alpha[v] + dual_p.beta[v] for v in range(nv)]
    beta = [dual_p.alpha[nv + lab] + dual_p.beta[nv + lab] for lab in range(nl)]
    return IlapDual(alpha, beta)


def map_primal(inst: IlapInstance, mu_p: PrimalVector) -> dict[int, dict[int, float]]:
    """Fold a reduced-instance primal vector back onto the original instance.

    Non-dummy mass averages the two mirrored entries; dummy mass is the
    vertex self-loop mass.  Preserves feasibility, optimality and
    relative-interior membership.
    """
    reduced = reduce_ilap_to_lap(inst)
    viol = lap_primal_feasible(reduced.lap, mu_p)
    if viol is not None:
        raise FeasibilityError(viol.message)
    nv = inst.num_vertices
    mu: dict[int, dict[int, float]] = {}
    for v in range(nv):
        row_p = mu_p.get(v, {})
        row: dict[int, float] = {}
        for lab in inst.allowed[v]:
            if lab == DUMMY:
                row[DUMMY] = row_p.get(v, 0)
            else:
                node = nv + lab
                mirrored = mu_p.get(node, {}).get(v, 0)
                row[lab] = (row_p.get(node, 0) + mirrored) / 2
        mu[v] = row
    return mu


def solve_ilap(inst: IlapInstance, mode: str = "optimal"):
    """Exact solve via the reduction; returns ``(assignment, dual)``.

    Always feasible (the all-dummy assignment exists).  The assignment is
    the cheaper of the two decompositions of the reduced optimum, taking the
    first on ties.  In ``relative_interior`` mode the reduced dual is first
    shifted into the relative interior, so the mapped dual lies in the
    relative interior of the original dual optimal set.

    Integral instances take an exact path: all costs are doubled before the
    reduction, so the halved cross costs stay integers, and the dual is
    halved on the way back.
    """
    if mode not in SOLVE_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {SOLVE_MODES}")
    if inst.integral:
        base = inst.scale_costs(2)
        unscale = True
    else:
        base = inst
        unscale = False
    reduced = reduce_ilap_to_lap(base)
    solved = solve_lap(reduced.lap)
    assert solved is not None, "reduced instance must admit the self-loop matching"
    xp, dual_p = solved
    if mode == "relative_interior":
        dual_p = shift_to_relative_interior(reduced.lap, dual_p, xp)
    dual = _map_dual_unchecked(inst.num_vertices, inst.num_labels, dual_p)
    if unscale:
        dual = IlapDual([_half(a) for a in dual.alpha],
                        [_half(b) for b in dual.beta])
    # ``base`` has ``inst``'s structure, so it decomposes ``xp`` the same
    # way, and its reduction is already memoized.
    x1, x2 = decompose_assignment(base, xp)
    if ilap_objective(inst, x1) <= ilap_objective(inst, x2):
        return x1, dual
    return x2, dual
