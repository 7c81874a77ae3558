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

Maps between the two: ``lift_assignment`` and ``decompose_assignment`` for
assignments, ``lift_dual`` for duals into the reduced instance.  The way
back for duals is the sum of each node's two potentials, which
``solve_ilap`` takes.

``solve_ilap`` is the exact step: reduce, solve, optionally shift into the
relative interior, and map back.  It reduces an integral instance at double
scale, so that the step stays in exact arithmetic; ``_exact_base`` is that
rule, and ``_relative_interior_flag`` checks a certificate on the same
reduction.  ``_solve_interior`` and ``_relative_interior_flag`` are the
solve-and-certify pair, for square and dummy-label instances alike, that
``qapbound lap`` and ``qapbound verify`` use.

Node layout: nodes 0 .. |V|-1 are the vertices, nodes |V| .. |V|+|L|-1 are
the non-dummy labels, identically on both sides of the square instance.

The index layout of the square instance (its allowed rows and index tables,
and the original cell behind each cross cell) depends only on the allowed
sets.  It is built once per instance structure, on the first
reduction, and shared by every instance made from that structure with
``with_costs`` or ``scale_costs``.  Each reduction then only prices the
layout with the instance's costs, and its result is memoized on the
instance.  Pricing halves each cost with ``model._half_cost``, the one
halving rule for costs and potentials alike, which returns a normal cost,
so the priced rows go into the template as they are, without a second
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lap import equality_subgraph, solve_lap
from .model import (
    DUMMY,
    Assignment,
    IlapDual,
    IlapInstance,
    LapDual,
    LapInstance,
    _half_cost,
    require_feasible,
)
from .relative_interior import (perfectly_matchable_edges,
                                shift_to_relative_interior)

@dataclass(frozen=True)
class _Layout:
    """The reduced instance's structure for one ILAP structure.

    ``template`` carries the allowed rows and index tables of the square
    instance (its costs are placeholders); ``label_cells``
    lists, for each non-dummy label, the ``(vertex, position in
    allowed[vertex])`` of the original cell behind each cross cell of the
    label node's row.
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
    template = LapInstance(allowed, [[0] * len(row) for row in allowed])
    layout = _Layout(template, tuple(label_cells))
    inst._structure_cache["reduction"] = layout
    return layout


def reduce_ilap_to_lap(inst: IlapInstance) -> LapInstance:
    """Build the mirrored square instance for ``inst``.

    The result is always feasible (every node may take itself) and its size
    is linear in the number of allowed (vertex, label) pairs.  The index
    layout is built once per structure; each call only prices it with
    ``inst``'s costs, and the result is memoized on ``inst``.

    Each non-dummy cost is halved once, by ``_half_cost``, and that half
    prices both its vertex row and its label row.  The halves are normal
    costs, so the priced rows are not normalized a second time.
    """
    reduced = inst._reduced
    if reduced is not None:
        return reduced
    layout = _layout(inst)
    # Row v: the dummy cost, then the halves of v's non-dummy costs, each
    # at its position in ``allowed[v]``; the label rows reuse those halves.
    rows = [(row[0], *map(_half_cost, row[1:])) for row in inst.costs]
    for cells in layout.label_cells:
        rows.append((*[rows[u][i] for u, i in cells], 0))
    reduced = layout.template._with_normal_costs(tuple(rows))
    inst._reduced = reduced
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
    require_feasible(reduce_ilap_to_lap(inst), xp)
    nv = inst.num_vertices
    x1 = [xp[v] - nv if xp[v] >= nv else DUMMY for v in range(nv)]
    inv = [0] * len(xp)
    for node, target in enumerate(xp):
        inv[target] = node
    x2 = [inv[v] - nv if inv[v] >= nv else DUMMY for v in range(nv)]
    return x1, x2


def lift_dual(inst: IlapInstance, dual: IlapDual) -> LapDual:
    """Mirror a dual of ``inst`` into the reduced instance.

    Each node gets half of its vertex's or label's potential on both sides,
    so summing each node's two potentials gives ``dual`` back.  Feasibility,
    optimality and relative-interior membership carry over, and the
    objectives agree.  Only the dimensions are checked here; the reduced
    instance's own checks judge feasibility.
    """
    if len(dual.alpha) != inst.num_vertices or len(dual.beta) != inst.num_labels:
        raise ValueError("dual dimensions do not match the instance")
    halves = [_half_cost(p) for p in (*dual.alpha, *dual.beta)]
    return LapDual(halves, list(halves))


def _map_dual_unchecked(nv: int, nl: int, dual_p: LapDual) -> IlapDual:
    """Fold a reduced-instance dual back onto ``nv`` vertices and ``nl``
    labels: each gets the sum of its node's two potentials.  Feasibility,
    optimality and relative-interior membership carry over; nothing is
    checked."""
    alpha = [dual_p.alpha[v] + dual_p.beta[v] for v in range(nv)]
    beta = [dual_p.alpha[nv + lab] + dual_p.beta[nv + lab] for lab in range(nl)]
    return IlapDual(alpha, beta)


def _exact_base(inst: IlapInstance):
    """``(base, doubled)``: the instance whose reduction stands for
    ``inst``, and whether it is ``inst`` with every cost doubled.

    An integral instance is doubled, so that the halved cross costs of its
    reduction stay integers and the reduced tight sets are exact; its duals
    are doubled on the way in and halved on the way back.  Any other
    instance is reduced as it is.
    """
    if inst.integral:
        return inst.scale_costs(2), True
    return inst, False


def solve_ilap(inst: IlapInstance, *, relative_interior: bool = False):
    """Exact solve via the reduction; returns ``(assignment, dual)``.

    Always feasible (the all-dummy assignment exists).  The assignment is
    the first decomposition of the reduced optimum: the two decompositions
    cost twice the reduced optimum together and neither costs less than it,
    so both are optimal.  With ``relative_interior`` the reduced dual is
    first shifted into the relative interior, so the mapped dual lies in the
    relative interior of the original dual optimal set.

    An integral instance is reduced at double scale (``_exact_base``), so
    its solve is exact.
    """
    base, doubled = _exact_base(inst)
    reduced = reduce_ilap_to_lap(base)
    solved = solve_lap(reduced)
    assert solved is not None, "reduced instance must admit the self-loop matching"
    xp, dual_p = solved
    if relative_interior:
        dual_p = shift_to_relative_interior(reduced, dual_p, xp)
    dual = _map_dual_unchecked(inst.num_vertices, inst.num_labels, dual_p)
    if doubled:
        dual = IlapDual([_half_cost(a) for a in dual.alpha],
                        [_half_cost(b) for b in dual.beta])
    # ``base`` has ``inst``'s structure, so it decomposes ``xp`` the same
    # way, and its reduction is already memoized.
    x, _ = decompose_assignment(base, xp)
    return x, dual


def _solve_interior(inst: LapInstance | IlapInstance):
    """An optimal assignment and a dual in the relative interior of the dual
    optimal set, or None for a square instance without a perfect matching."""
    if isinstance(inst, IlapInstance):
        return solve_ilap(inst, relative_interior=True)
    solved = solve_lap(inst)
    if solved is None:
        return None
    x, dual = solved
    return x, shift_to_relative_interior(inst, dual, x)


def _relative_interior_flag(inst: LapInstance | IlapInstance, dual,
                            x: Assignment) -> bool:
    """Whether exactly the tight edges of ``dual`` lie on optimal assignments.

    ``dual`` and ``x`` must be optimal for ``inst``.  A dummy-label instance
    is checked on the reduction that ``solve_ilap`` solves, with ``dual``
    and ``x`` lifted there: the lifted dual is in the relative interior
    exactly when ``dual`` is.
    """
    if isinstance(inst, IlapInstance):
        base, doubled = _exact_base(inst)
        if doubled:
            dual = IlapDual([2 * a for a in dual.alpha],
                            [2 * b for b in dual.beta])
        dual = lift_dual(base, dual)
        x = lift_assignment(base, x)
        inst = reduce_ilap_to_lap(base)
    subgraph = equality_subgraph(inst, dual)
    return set(subgraph.edges()) == perfectly_matchable_edges(subgraph, x)
