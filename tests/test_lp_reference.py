"""Soundness past the enumeration guard: every method's certified bound
against the optimum of the LP relaxation whose dual it ascends.

The instances are far too large to enumerate.  Dual ascent need not reach
the LP optimum, so only ``bound <= LP`` is asserted, with a tolerance for
the LP solver; where every method does reach it (grid QAP), that is pinned.
"""

import random

import pytest

from qapbound.bounds import METHODS, SolverConfig, run
from qapbound.formats import load_instance

from helpers import benchmark_generators, lp_relaxation_optimum


def _scattered_qap_text(seed, n=10, density=0.3):
    """QAPLIB text: flows 1-10 on a ``density`` share of the facility
    pairs, Manhattan distances between random points in [0, 100)^2."""
    rng = random.Random(seed)
    points = [(rng.randrange(100), rng.randrange(100)) for _ in range(n)]
    flow = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                flow[u][v] = flow[v][u] = rng.randint(1, 10)
    dist = [[abs(px - qx) + abs(py - qy) for qx, qy in points]
            for px, py in points]
    return "\n".join([str(n), *(" ".join(map(str, row))
                                for row in flow + dist)]) + "\n"


def _final_bounds(inst):
    return {method: run(inst, SolverConfig(
        method=method, max_iterations=100, bound_improvement_epsilon=0,
    )).final_bound for method in METHODS}


def _assert_at_most(bounds, lp, inst):
    slack = 1e-6 * (1 + inst.max_abs_cost)
    for method, bound in bounds.items():
        assert bound <= lp + slack, (method, bound, lp)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_graph_matching(tmp_path, seed):
    path = tmp_path / "gm.dd"
    benchmark_generators().write_gm(path, seed, vertices=40, candidates=6)
    inst = load_instance(path, dummy_cost=150)
    _assert_at_most(_final_bounds(inst), lp_relaxation_optimum(inst), inst)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scattered_point_qap(tmp_path, seed):
    path = tmp_path / "scattered.dat"
    path.write_text(_scattered_qap_text(seed))
    inst = load_instance(path, fmt="qaplib", augment=True)
    _assert_at_most(_final_bounds(inst), lp_relaxation_optimum(inst), inst)


@pytest.mark.parametrize("seed", [1, 2])
def test_grid_qap_reaches_the_lp_optimum(tmp_path, seed):
    path = tmp_path / "grid.dat"
    benchmark_generators().write_qaplib(path, seed, size=8)
    inst = load_instance(path, fmt="qaplib", augment=True)
    lp = lp_relaxation_optimum(inst)
    assert lp == pytest.approx(-4038, abs=1e-6 * (1 + inst.max_abs_cost))
    assert _final_bounds(inst) == dict.fromkeys(METHODS, -4038)
