"""Golden pins: exact solver output on tie-heavy inputs.

When several labels share the smallest tentative distance, ``solve_lap``
takes the smallest label index.  Which optimal assignment and which optimal
dual come out depends on that rule, and the exact label steps of ``hung``
and ``hung-ri`` feed that dual into the next iteration.  These values were
recorded from the linear-scan solver; any change to the search order that
moves them shows up here.  Values are compared by ``repr`` so that an int
turning into a float, or a last-digit float change, also fails.
"""

from pathlib import Path

import pytest

from qapbound.bounds import SolverConfig, run
from qapbound.formats import load_instance
from qapbound.lap import solve_lap
from qapbound.model import LapInstance

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


@pytest.mark.parametrize("name", sorted(LAP_GOLDEN))
def test_solve_lap_output_is_pinned(name):
    x, dual = solve_lap(LAP_INSTANCES[name]())
    assert repr((x, dual.alpha, dual.beta)) == LAP_GOLDEN[name]


@pytest.mark.parametrize("name, method", sorted(TRAJECTORY_GOLDEN))
def test_exact_step_trajectory_is_pinned(name, method):
    qaplib = name.endswith(".dat")
    inst = load_instance(FIXTURES / name, fmt="qaplib" if qaplib else "auto",
                         augment=qaplib)
    config = SolverConfig(method=method, max_iterations=20,
                          bound_improvement_epsilon=0)
    report = run(inst, config)
    assert repr(report.bound_trajectory) == TRAJECTORY_GOLDEN[(name, method)]
