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
"""

from __future__ import annotations

from .model import DUMMY, _label_potentials
from .reduction import solve_ilap
from .wcsp import IqapDualState


def beta_coordinate_update(state: IqapDualState, lab: int) -> None:
    """Closed-form ascent step in the single coordinate ``lab``.

    For every vertex allowing ``lab``, compare its reparametrized cost
    against the best alternative label; the two smallest differences bound
    the optimal interval.  A vertex set of size one contributes zero as the
    second value, an empty one fixes the result at zero.
    """
    if lab == DUMMY:
        raise ValueError("the dummy label has no potential to update")
    inst = state.inst.unary
    if not (0 <= lab < inst.num_labels):
        raise ValueError(f"label {lab} out of range")
    pot = _label_potentials(state.beta)
    b1 = b2 = None
    for v in inst.vertices_for_label[lab]:
        row_labs = inst.allowed[v]
        row_cost = state.theta_phi[v]
        own = None
        alt = None
        for lab2, cost in zip(row_labs, row_cost):
            if lab2 == lab:
                own = cost
                continue
            value = cost - pot[lab2]
            if alt is None or value < alt:
                alt = value
        t = own - alt  # alt exists: the dummy is always an alternative
        if b1 is None or t < b1:
            b1, b2 = t, b1
        elif b2 is None or t < b2:
            b2 = t
    if b1 is None:
        b1 = b2 = 0
    elif b2 is None:
        b2 = 0
    state.beta[lab] = (min(b1, 0) + min(b2, 0)) / 2


def beta_bca_pass(state: IqapDualState) -> None:
    """One sweep of coordinate updates over all non-dummy labels."""
    for lab in range(state.inst.num_labels):
        beta_coordinate_update(state, lab)


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
