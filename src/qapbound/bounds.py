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
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from .beta_steps import beta_bca_pass, beta_exact_update
from .model import IqapInstance
from .wcsp import IqapDualState, mplp_pp_pass, pairwise_minimum

METHODS = ("bca", "hung", "hung-ri")


@dataclass
class SolverConfig:
    """Run parameters; at least one of the two budgets must be set."""

    method: str = "hung-ri"
    time_limit: float | None = None
    max_iterations: int | None = None
    bound_improvement_epsilon: float = 1e-9
    tolerance: float | None = None
    backward_mplp_pass: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.time_limit is None and self.max_iterations is None:
            raise ValueError("set a time limit or an iteration cap")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.max_iterations is not None and self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.bound_improvement_epsilon < 0:
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
    """Lower bound on the optimum certified by the current dual state."""
    atol = inst.atol
    for lab, b in enumerate(state.beta):
        if b > atol:
            raise ValueError(f"beta[{lab}] = {b} is positive beyond tolerance")
    total = sum(state.beta)
    for v in range(inst.num_vertices):
        total += min(state.tilde(v))
    for e in inst.edges:
        total += pairwise_minimum(state, e)
    return total


def run(inst: IqapInstance, config: SolverConfig,
        instance_tag: str = "") -> BoundReport:
    """Run the alternating scheme under the configured budgets.

    Starts from the all-zero dual; the trajectory records the initial bound
    and then one value per iteration, measured after the label step.  The
    run stops at the iteration cap, the time limit, or as soon as one full
    iteration improves the bound by less than the configured epsilon (an
    epsilon of zero disables early stopping).
    """
    if config.tolerance is not None and config.tolerance != inst.tolerance:
        inst = inst.replace_tolerance(config.tolerance)
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
        mplp_pp_pass(state, backward=config.backward_mplp_pass)
        if config.method == "bca":
            beta_bca_pass(state)
        elif config.method == "hung":
            beta_exact_update(state, relative_interior=False)
        else:
            beta_exact_update(state, relative_interior=True)
        trajectory.append(dual_bound(inst, state))
        iterations += 1
        if (config.bound_improvement_epsilon > 0
                and trajectory[-1] - trajectory[-2]
                < config.bound_improvement_epsilon):
            break
    return BoundReport(
        instance=instance_tag,
        method=config.method,
        final_bound=trajectory[-1],
        bound_trajectory=trajectory,
        iterations=iterations,
        wall_time=time.perf_counter() - start,
    )
