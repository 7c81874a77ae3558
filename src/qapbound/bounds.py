"""Alternating dual ascent: orchestration, bound evaluation, reports.

One iteration improves the messages with a message-passing sweep, then the
label potentials with the configured step, and records the bound.  The
bound of a state is

    sum over vertices of the cheapest reparametrized unary (non-dummy
    labels discounted by their potential)
  + sum of all label potentials
  + sum over edges of the cheapest reparametrized pairwise cell,

which lower-bounds the optimum for any messages and non-positive label
potentials: every feasible assignment's cost is invariant under
reparametrization, each non-dummy label is used at most once, and the label
potentials are non-positive, so dropping the unused ones only decreases the
total.

A run evaluates that sum in full twice, with ``dual_bound``: on the
all-zero start, and on the final state for the reported ``final_bound``.
``dual_bound`` is exact (integer arithmetic after scaling every dyadic
float by one power of two) and rounds down to a float, so the reported
bound is certified.  It copies no int pairwise cell: the message-passing
kernel multiplies each cell it reads by the power of two, and its early
exit leaves most cells unread.  The bound holds for non-positive
potentials only, so any positive potential is an error: both label steps
keep every potential at or below 0 exactly.  After a full message pass
every edge term is 0 in exact arithmetic, and the label step leaves the
messages alone, so each iteration records only ``sum(beta)`` plus each
vertex's cheapest reparametrized unary, in floats.  Those per-iteration
values drive early stopping and the trajectory; they are not certified.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from itertools import chain
from operator import add, sub

from .beta_steps import beta_bca_pass, beta_exact_update
from .model import IqapInstance, _label_potentials
from .wcsp import IqapDualState, _edge_minimum, mplp_pp_pass

METHODS = ("bca", "hung", "hung-ri")

DEFAULT_EPSILON = 1e-9


@dataclass
class SolverConfig:
    """Run parameters; at least one of the two budgets must be set."""

    method: str = "hung-ri"
    time_limit: float | None = None
    max_iterations: int | None = None
    bound_improvement_epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.time_limit is None and self.max_iterations is None:
            raise ValueError("set a time limit or an iteration cap")
        if self.time_limit is not None and not 0 < self.time_limit < math.inf:
            raise ValueError("time_limit must be finite and positive")
        cap = self.max_iterations
        if cap is not None and (type(cap) is not int or cap <= 0):
            raise ValueError(f"max_iterations must be positive and an int, "
                             f"got {cap!r}")
        if not self.bound_improvement_epsilon >= 0:
            raise ValueError("bound_improvement_epsilon must be non-negative")


@dataclass
class BoundReport:
    """Outcome of one solver run on one instance."""

    instance: str
    method: str
    final_bound: float
    bound_trajectory: list = field(default_factory=list)
    iterations: int = 0
    wall_time: float = 0.0

    def to_dict(self, *, include_trajectory: bool = True) -> dict:
        """The fields in definition order, the trajectory moved last."""
        out = asdict(self)
        trajectory = out.pop("bound_trajectory")
        if include_trajectory:
            out["bound_trajectory"] = trajectory
        return out


def dual_bound(inst: IqapInstance, state: IqapDualState) -> float:
    """Lower bound certified by ``state``: the exact value of its bound.

    The unaries are rebuilt from ``inst.unary.costs`` plus the outgoing
    messages, not read from ``theta_phi``, whose float updates drift.
    Every float is dyadic, so one common power of two (``_common_scale``)
    turns every cost, message and potential into an int, and the bound is
    summed in ints, edge by edge.  An edge whose cells are all ints hands
    its own row table and the power of two to the kernel, which scales
    only the cells it reads; an edge holding a float cell is scaled in
    full by ``_scaled_rows``.  A positive potential, however small, is an
    error.  A state that holds no float gives the int sum; otherwise the
    result is the largest float not above the exact value.
    """
    for lab, b in enumerate(state.beta):
        if b > 0:
            raise ValueError(f"beta[{lab}] = {b} is positive")
    unary = inst.unary
    phi = state.phi
    groups = [state.beta, *phi.values()]
    if not inst.integral:
        groups += [*unary.costs, *(e.cells.values() for e in inst.edges)]
    # ``float.__instancecheck__(x)`` is ``isinstance(x, float)``, in C.
    scale = _common_scale(
        list(filter(float.__instancecheck__, chain.from_iterable(groups))))
    sums = [_scaled(row, scale) for row in unary.costs]
    total = 0
    for e in inst.edges:
        out_u = _scaled(phi[(e.u, e.v)], scale)
        out_v = _scaled(phi[(e.v, e.u)], scale)
        sums[e.u] = list(map(add, sums[e.u], out_u))
        sums[e.v] = list(map(add, sums[e.v], out_v))
        if e.integral:
            total += _edge_minimum(out_u, out_v, e, e.rows_u, scale or 1)
        else:
            total += _edge_minimum(out_u, out_v, e,
                                   _scaled_rows(e.rows_u, scale))
    pot = _label_potentials(_scaled(state.beta, scale))
    total += sum(pot)
    for labs, row in zip(unary.allowed, sums):
        total += min(map(sub, row, map(pot.__getitem__, labs)))
    return _round_down(total, scale) if scale else total


def _common_scale(floats: list) -> int:
    """A power of two whose product with every float in ``floats`` is an
    int, or 0 when there is no float.

    A float is a multiple of its unit in the last place, and a larger
    magnitude has a unit no smaller, so the reciprocal of the unit of the
    smallest non-zero magnitude serves every float (1 if all are zeros).
    """
    if not floats:
        return 0
    tiny = min(map(abs, filter(None, floats)), default=0.0)
    return math.ulp(tiny).as_integer_ratio()[1] if tiny else 1


def _scaled(row, scale: int) -> list:
    """``row`` times ``scale`` as ints, or a copy of ``row`` for scale 0.

    ``scale`` is a power of two and a multiple of every float's
    denominator, so a float times it is an integral float, exact unless it
    overflows.  An overflow, in ``float(scale)`` or ``int(inf)``, takes the
    slower exact path.
    """
    if not scale:
        return list(row)
    try:
        fscale = float(scale)
        return [x * scale if type(x) is int else int(x * fscale) for x in row]
    except OverflowError:
        return [n * (scale // d)
                for n, d in (x.as_integer_ratio() for x in row)]


def _scaled_rows(rows: tuple, scale: int):
    """A ``PairwiseEdge`` row table with its cells scaled by ``_scaled``."""
    out = []
    for row in rows:
        if row is not None:
            dense, cols, cells = row
            scaled = _scaled([c for _, c in cells], scale)
            row = (dense, cols, list(zip([j for j, _ in cells], scaled)))
        out.append(row)
    return out


def _round_down(num: int, den: int) -> float:
    """Largest float not above ``num / den`` (``den`` positive)."""
    q = num / den  # correctly rounded
    n, d = q.as_integer_ratio()
    if n * den > num * d:
        q = math.nextafter(q, -math.inf)
    return q


def _bound_after_pass(state: IqapDualState) -> float:
    """The bound of ``state`` without its edge terms: ``sum(beta)`` plus,
    per vertex, the least of its reparametrized unaries minus the label
    potentials (``model._label_potentials``, 0 for the dummy).

    After a full ``mplp_pp_pass`` each edge's cheapest reparametrized cell
    is 0 in exact arithmetic, and the label step does not touch messages,
    so this float value is the bound up to rounding.
    """
    total = sum(state.beta)
    pot = _label_potentials(state.beta)
    for labs, row in zip(state.inst.unary.allowed, state.theta_phi):
        total += min(map(sub, row, map(pot.__getitem__, labs)))
    return total


def run(inst: IqapInstance, config: SolverConfig,
        instance_tag: str = "") -> BoundReport:
    """Run the alternating scheme under the configured budgets.

    Starts from the all-zero dual; the trajectory records the initial bound
    and then one value per iteration, measured after the label step without
    the edge terms (see the module docstring).  The run stops at the
    iteration cap, the time limit, or as soon as one full iteration improves
    the bound by less than the configured epsilon (an epsilon of zero
    disables early stopping).  ``final_bound`` is ``dual_bound`` of the
    final state.
    """
    state = IqapDualState(inst)
    start = time.perf_counter()
    trajectory = [dual_bound(inst, state)]
    iterations = 0
    while True:
        if config.max_iterations is not None and iterations >= config.max_iterations:
            break
        if (config.time_limit is not None
                and time.perf_counter() - start >= config.time_limit):
            break
        mplp_pp_pass(state)
        if config.method == "bca":
            beta_bca_pass(state)
        else:
            beta_exact_update(state,
                              relative_interior=config.method == "hung-ri")
        trajectory.append(_bound_after_pass(state))
        iterations += 1
        if (config.bound_improvement_epsilon > 0
                and trajectory[-1] - trajectory[-2]
                < config.bound_improvement_epsilon):
            break
    return BoundReport(
        instance=instance_tag,
        method=config.method,
        final_bound=dual_bound(inst, state),
        bound_trajectory=trajectory,
        iterations=iterations,
        wall_time=time.perf_counter() - start,
    )
