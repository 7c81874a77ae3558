"""Label-potential updates: coordinate ascent and exact subproblem solves.

With the messages fixed, the remaining dual is a concave piecewise-affine
function of the non-positive label potentials.  Three interchangeable steps
improve it:

* ``beta_coordinate_update``: closed-form ascent in one coordinate, placed
  at the midpoint of the optimal interval so repeated sweeps keep choices in
  the relative interior of each coordinate's optimal set,
* ``beta_bca_pass``: one sweep of coordinate updates in ascending label
  order (the result need not be optimal for the subproblem),
* ``beta_exact_update``: replaces the whole vector by an exact optimum of
  the unary subproblem, optionally shifted into the relative interior.

A coordinate step reads each vertex's *discounted row*: ``theta_phi[v]``
minus the potential of each label in ``allowed[v]``.  A sweep builds one
discounted row per vertex at its start and keeps them for the whole sweep:
each label step takes a vertex's best alternative as the C-level ``min`` of
its row, and after the step only that label's cells are re-priced, one
subtraction per cell.  Every entry is the subtraction that a fresh row
would make from the current potentials, so a sweep gives exactly the
``beta`` of one ``beta_coordinate_update`` per label in ascending order.
"""

from __future__ import annotations

from math import inf
from operator import sub

from .model import DUMMY, _label_cells, _label_potentials
from .reduction import solve_ilap
from .wcsp import IqapDualState


def _discounted_rows(state: IqapDualState, vertices) -> dict:
    """The discounted row of each of ``vertices`` at the current ``beta``."""
    pot = _label_potentials(state.beta)
    allowed = state.inst.unary.allowed
    theta_phi = state.theta_phi
    return {v: list(map(sub, theta_phi[v], map(pot.__getitem__, allowed[v])))
            for v in vertices}


def _label_step(cells, theta_phi: list, red: dict):
    """The coordinate step's new potential for the label whose cells are
    ``cells``, its ``(vertex, position)`` pairs, given the discounted rows
    ``red`` of their vertices.

    For every cell, compare the vertex's reparametrized cost against its
    best alternative label, the least entry of its discounted row with the
    cell's own entry set to ``inf`` (which this leaves in ``red``); the two
    smallest differences bound the optimal interval.  A vertex set of size
    one contributes zero as the second value, an empty one fixes the result
    at zero.
    """
    b1 = b2 = None
    for v, i in cells:
        row = red[v]
        row[i] = inf
        t = theta_phi[v][i] - min(row)  # the dummy is always an alternative
        if b1 is None or t < b1:
            b1, b2 = t, b1
        elif b2 is None or t < b2:
            b2 = t
    if b1 is None:
        b1 = b2 = 0
    elif b2 is None:
        b2 = 0
    return (min(b1, 0) + min(b2, 0)) / 2


def beta_coordinate_update(state: IqapDualState, lab: int) -> None:
    """Closed-form ascent step in the single coordinate ``lab``, placed at
    the midpoint of its optimal interval (see ``_label_step``)."""
    if lab == DUMMY:
        raise ValueError("the dummy label has no potential to update")
    inst = state.inst.unary
    if not (0 <= lab < inst.num_labels):
        raise ValueError(f"label {lab} out of range")
    red = _discounted_rows(state, inst.vertices_for_label[lab])
    state.beta[lab] = _label_step(_label_cells(inst)[lab], state.theta_phi,
                                  red)


def beta_bca_pass(state: IqapDualState) -> None:
    """One sweep of coordinate updates over all non-dummy labels, on
    discounted rows built once and re-priced at each moved label's cells."""
    inst = state.inst.unary
    theta_phi = state.theta_phi
    beta = state.beta
    red = _discounted_rows(state, range(inst.num_vertices))
    for lab, cells in enumerate(_label_cells(inst)):
        b = beta[lab] = _label_step(cells, theta_phi, red)
        for v, i in cells:
            red[v][i] = theta_phi[v][i] - b


def beta_exact_update(state: IqapDualState, *,
                      relative_interior: bool = False) -> None:
    """Replace ``beta`` by an exact optimum of the unary subproblem.

    The subproblem is the dummy-label assignment problem over the current
    reparametrized unaries; when those are integral it is solved in exact
    arithmetic.  With ``relative_interior`` the installed optimum lies in
    the relative interior of the subproblem's dual optimal set.
    """
    _, dual = solve_ilap(state.inst.unary.with_costs(state.theta_phi),
                         relative_interior=relative_interior)
    state.beta = [min(b, 0) for b in dual.beta]
