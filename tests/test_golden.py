"""Golden pins: exact solver output on tie-heavy inputs.

When several labels share the smallest tentative distance, ``solve_lap``
takes the smallest label index.  Which optimal assignment and which optimal
dual come out depends on that rule, and the exact label steps of ``hung``
and ``hung-ri`` feed that dual into the next iteration.  These values were
recorded from the linear-scan solver; any change to the search order that
moves them shows up here.  Values are compared by ``repr`` so that an int
turning into a float, or a last-digit float change, also fails.

The ``bca`` trajectories and the final bounds on ``row_kinds_instance`` pin
the message-passing sweep and bound evaluation (``wcsp``) the same way.
They were recorded before the per-edge rows moved to their current layout.
The ``bca`` pins with a backward sweep were recorded through ``run``'s
former option; ``run`` no longer takes that sweep, so they replay its loop
with ``mplp_pp_pass(backward=True)``.
The three final bounds on ``row_kinds_instance`` were re-recorded when the
final bound became the exact value of the final state rounded down to a
float; each old value was a float sum that lay above that exact value.

The pins on ``tiny.ilap`` and ``row_kinds_instance().unary`` (edge-free
exact steps, ``solve_ilap`` in both modes, the ``lap`` subcommand's JSON)
were recorded before the exact step started re-pricing a shared structure
instead of building and reducing a new instance each time.  With no edges
the messages stay zero, so every exact step on ``tiny.ilap`` takes the
integral path that doubles the costs.
"""

import json
import random
from pathlib import Path

import pytest

from qapbound.beta_steps import beta_bca_pass
from qapbound.bounds import SolverConfig, _bound_after_pass, dual_bound, run
from qapbound.cli import main
from qapbound.formats import load_instance
from qapbound.lap import solve_lap
from qapbound.model import DUMMY, IlapInstance, IqapInstance, LapInstance
from qapbound.reduction import solve_ilap
from qapbound.wcsp import IqapDualState, mplp_pp_pass

FIXTURES = Path(__file__).parent / "fixtures"


def sparse_ties(n=16):
    """Five labels per row, costs in {1, 2, 3}: many equal tentative distances."""
    allowed, costs = [], []
    for v in range(n):
        labs = sorted({v, (v + 1) % n, (v + 2) % n, (v + 5) % n, (3 * v + 1) % n})
        allowed.append(labs)
        costs.append([1 + (v * v + lab) % 3 for lab in labs])
    return LapInstance(allowed, costs)


LAP_INSTANCES = {
    "all_equal": lambda: LapInstance([list(range(5))] * 5, [[7] * 5] * 5),
    "example1": lambda: load_instance(FIXTURES / "example1.lap"),
    "sparse_ties": sparse_ties,
}

LAP_GOLDEN = {
    "all_equal": "([0, 1, 2, 3, 4], [7, 7, 7, 7, 7], [0, 0, 0, 0, 0])",
    "example1": "([4, 1, 3, 0, 2], [6, 6, 7, 7, 7], [-3, -3, -3, 0, 0])",
    "sparse_ties": (
        "([0, 2, 7, 3, 4, 5, 6, 12, 8, 9, 10, 11, 13, 14, 15, 1], "
        "[2, 3, 3, 2, 3, 3, 2, 3, 3, 2, 3, 3, 2, 3, 3, 2], "
        "[-1, 0, -2, -1, 0, -2, -1, 0, -2, -1, 0, -2, -1, 0, -2, -1])"),
}

TRAJECTORY_GOLDEN = {
    ("toy1.dd", "hung"): "[-3" + ", -1.0" * 20 + "]",
    ("toy1.dd", "hung-ri"): "[-3" + ", -1.0" * 20 + "]",
    ("toy2.dd", "hung"): (
        "[-6" + ", -5.0" * 18 + ", -4.999999999999999, -5.0]"),
    ("toy2.dd", "hung-ri"): (
        "[-6" + ", -5.0" * 18 + ", -5.000000000000001, -4.999999999999999]"),
    ("toy3.dd", "hung"): "[-6" + ", -3.0" * 20 + "]",
    ("toy3.dd", "hung-ri"): "[-6" + ", -3.0" * 20 + "]",
    ("qap3.dat", "hung"): (
        "[-183, -155.0, -152.0, -150.0, -148.75, -148.0, -147.5625, "
        "-147.32421875, -147.205078125, -147.1455078125, -147.11572265625, "
        "-147.100830078125, -147.0933837890625, -147.08966064453125, "
        "-147.08779907226562, -147.0868682861328, -147.0864028930664, "
        "-147.0861701965332, -147.0860538482666, -147.0859956741333, "
        "-147.08596658706665]"),
    ("qap3.dat", "hung-ri"): (
        "[-183, -155.0, -151.578125, -149.47265625, -148.2080078125, "
        "-147.487060546875, -147.20127487182617, -147.05115473270416, "
        "-146.9771661348641, -146.94102697371272, -146.91805809610014, "
        "-146.9025704098006, -146.89183391385203, -146.88430189942466, "
        "-146.87899169441738, -146.8752402823131, -146.87258788213296, "
        "-146.87071189276463, -146.869384860194, -146.86844609458433, "
        "-146.86778198050968]"),
}


BCA_GOLDEN = {
    ("toy1.dd", False): "[-3" + ", -1.0" * 20 + "]",
    ("toy1.dd", True): "[-3" + ", -1.0" * 20 + "]",
    ("toy2.dd", False): "[-6" + ", -5.0" * 20 + "]",
    ("toy2.dd", True): "[-6" + ", -5.0" * 20 + "]",
    ("toy3.dd", False): "[-6" + ", -3.0" * 20 + "]",
    ("toy3.dd", True): (
        "[-6" + ", -3.0" * 14 + ", -2.9999999999999996, -3.0, -3.0, "
        "-2.999999999999999, -3.0, -2.9999999999999996]"),
    ("qap3.dat", False): "[-183" + ", -159.0" * 20 + "]",
    ("qap3.dat", True): "[-183" + ", -159.0" * 20 + "]",
}


def row_kinds_instance():
    """Five vertices, all ten edges, float costs.

    Row ``r`` of edge ``(u, v)`` stores no cell, at most half of the
    columns, more than half but not all, or every column, as
    ``(u + v + r) % 4`` says, so every edge mixes the four row kinds.
    """
    rng = random.Random(20261018)
    nl, nv = 6, 5
    allowed = [[DUMMY] + sorted(rng.sample(range(nl), k=rng.randint(3, nl)))
               for _ in range(nv)]
    costs = [[round(rng.uniform(-4, 4), 3) for _ in labs] for labs in allowed]
    core = IlapInstance(allowed, costs, nl)
    edges = []
    for u in range(nv):
        for v in range(u + 1, nv):
            cols = allowed[v]
            cells = {}
            for r, k in enumerate(allowed[u]):
                kind = (u + v + r) % 4
                if kind == 0:
                    stored = []
                elif kind == 1:
                    stored = rng.sample(cols, k=rng.randint(1, len(cols) // 2))
                elif kind == 2:
                    stored = rng.sample(
                        cols, k=rng.randint(len(cols) // 2 + 1, len(cols) - 1))
                else:
                    stored = cols
                for l in stored:
                    cells[(k, l)] = round(rng.uniform(-3, 5), 3)
            edges.append((u, v, cells))
    return IqapInstance(core, edges)


ROW_KINDS_GOLDEN = {
    "bca": "-15.119416583663043",
    "hung": "-15.207202072758408",
    "hung-ri": "-15.139707508021626",
}


def load_fixture(name):
    qaplib = name.endswith(".dat")
    return load_instance(FIXTURES / name, fmt="qaplib" if qaplib else "auto",
                         augment=qaplib)


@pytest.mark.parametrize("name", sorted(LAP_GOLDEN))
def test_solve_lap_output_is_pinned(name):
    x, dual = solve_lap(LAP_INSTANCES[name]())
    assert repr((x, dual.alpha, dual.beta)) == LAP_GOLDEN[name]


@pytest.mark.parametrize("name, method", sorted(TRAJECTORY_GOLDEN))
def test_exact_step_trajectory_is_pinned(name, method):
    inst = load_fixture(name)
    config = SolverConfig(method=method, max_iterations=20,
                          bound_improvement_epsilon=0)
    report = run(inst, config)
    assert repr(report.bound_trajectory) == TRAJECTORY_GOLDEN[(name, method)]


def bca_with_backward_sweep(inst, iterations):
    """The trajectory ``run`` records for ``bca`` at epsilon 0, with each
    message pass followed by its reverse sweep."""
    state = IqapDualState(inst)
    trajectory = [dual_bound(inst, state)]
    for _ in range(iterations):
        mplp_pp_pass(state, backward=True)
        beta_bca_pass(state)
        trajectory.append(_bound_after_pass(state))
    return trajectory


@pytest.mark.parametrize("name, backward", sorted(BCA_GOLDEN))
def test_bca_trajectory_is_pinned(name, backward):
    inst = load_fixture(name)
    if backward:
        trajectory = bca_with_backward_sweep(inst, 20)
    else:
        config = SolverConfig(method="bca", max_iterations=20,
                              bound_improvement_epsilon=0)
        trajectory = run(inst, config).bound_trajectory
    assert repr(trajectory) == BCA_GOLDEN[(name, backward)]


@pytest.mark.parametrize("method", sorted(ROW_KINDS_GOLDEN))
def test_final_bound_over_all_row_kinds_is_pinned(method):
    config = SolverConfig(method=method, max_iterations=20,
                          bound_improvement_epsilon=0)
    report = run(row_kinds_instance(), config)
    assert repr(report.final_bound) == ROW_KINDS_GOLDEN[method]


EDGELESS_GOLDEN = {
    "hung": "[0" + ", 4" * 20 + "]",
    "hung-ri": "[0" + ", 4" * 20 + "]",
}


@pytest.mark.parametrize("method", sorted(EDGELESS_GOLDEN))
def test_edgeless_exact_step_trajectory_is_pinned(method):
    inst = IqapInstance(load_instance(FIXTURES / "tiny.ilap"), [])
    config = SolverConfig(method=method, max_iterations=20,
                          bound_improvement_epsilon=0)
    report = run(inst, config)
    assert repr(report.bound_trajectory) == EDGELESS_GOLDEN[method]


SOLVE_ILAP_GOLDEN = {
    (1, "optimal"): (
        "([-1, 1, 0, -1, 5], [-3.229, 1.004, -3.482, -3.537, -0.2775], "
        "[-0.26, 0.0, 0.0, 0.0, 0.0, -0.2775])"),
    (1, "relative_interior"): (
        "([-1, 1, 0, -1, 5], [-3.229, 1.07325, -3.559, -3.537, -0.2775], "
        "[-0.183, -0.06925000000000003, 0.0, 0.0, 0.0, -0.2775])"),
    (1000, "optimal"): (
        "([-1, 1, 0, -1, 5], [-3229, 1004, -3482, -3537, -277.5], "
        "[-260, 0, 0, 0, 0, -277.5])"),
    (1000, "relative_interior"): (
        "([-1, 1, 0, -1, 5], [-3229, 1073.25, -3559, -3537, -277.5], "
        "[-183, -69.25, 0, 0, 0, -277.5])"),
}


@pytest.mark.parametrize("factor, mode", sorted(SOLVE_ILAP_GOLDEN))
def test_solve_ilap_output_is_pinned(factor, mode):
    """Float costs, and the same costs x1000 (integral, doubled path)."""
    inst = row_kinds_instance().unary.scale_costs(factor)
    x, dual = solve_ilap(inst, relative_interior=mode == "relative_interior")
    assert repr((x, dual.alpha, dual.beta)) == SOLVE_ILAP_GOLDEN[(factor, mode)]


LAP_COMMAND_GOLDEN = {
    "tiny.ilap": {
        "status": "optimal", "value": 4,
        "assignment": {"0": "#", "1": "1", "2": "0"},
        "alpha": [4, 4, 4], "beta": [-4, -4],
        "dual_objective": 4, "relative_interior": True,
    },
    "example1.lap": {
        "status": "optimal", "value": 24,
        "assignment": {"0": "4", "1": "1", "2": "3", "3": "0", "4": "2"},
        "alpha": [6, 7, 9, 8, 9], "beta": [-4, -4, -5, -2, 0],
        "dual_objective": 24, "relative_interior": True,
    },
}


@pytest.mark.parametrize("name", sorted(LAP_COMMAND_GOLDEN))
def test_lap_command_output_is_pinned(name, capsys):
    assert main(["lap", "--input", str(FIXTURES / name)]) == 0
    expected = json.dumps(LAP_COMMAND_GOLDEN[name], indent=2) + "\n"
    assert capsys.readouterr().out == expected
