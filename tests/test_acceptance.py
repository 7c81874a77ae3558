"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

from qapbound.beta_steps import beta_bca_pass, beta_exact_update
from qapbound.bounds import METHODS, SolverConfig, dual_bound, run
from qapbound.cli import main as cli_main
from qapbound.formats import augment_instance
from qapbound.lap import equality_subgraph, solve_lap
from qapbound.model import (
    DUMMY,
    IlapInstance,
    dual_objective,
    lap_objective,
)
from qapbound.oracle import (
    SEARCH_SPACE_GUARD,
    _exact_optimum,
    brute_force_optimum,
    check_dual_relative_interior,
    search_space_size,
)
from qapbound.reduction import (
    decompose_assignment,
    reduce_ilap_to_lap,
    solve_ilap,
)
from qapbound.relative_interior import shift_to_relative_interior
from qapbound.batch import run_batch

from helpers import (
    EXAMPLE1_MATCHING,
    check_primal_relative_interior,
    copy_state,
    example1_initial_dual,
    example1_instance,
    map_dual,
    map_primal,
    minimally_assignable_pairs,
    random_iqap,
    random_lap,
    random_reduced_matching,
    seeded,
    tight_pairs,
)

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def iqap_corpus(count=500, base_seed=5000):
    """Shared quadratic corpus: n <= 5, <= 4 extra labels, <= 6 edges,
    integer costs in [-5, 5]."""
    instances = []
    for i in range(count):
        rng = seeded(base_seed + i)
        instances.append(random_iqap(
            rng, max_vertices=5, max_labels=4, max_edges=6, lo=-5, hi=5))
    return instances


def test_criterion_1_worked_example_golden():
    with criterion(1, "worked example shift"):
        inst = example1_instance()
        dual = example1_initial_dual()
        log = []
        start = time.perf_counter()
        shifted = shift_to_relative_interior(
            inst, dual, EXAMPLE1_MATCHING, delta_log=log)
        elapsed = time.perf_counter() - start
        assert shifted.alpha == [2, 3, 5, 4, 5]
        assert shifted.beta == [0, 0, -1, 2, 4]
        assert log == [4, 2]
        assert dual_objective(inst, shifted) == 24
        best = min(elapsed, *(
            _timed(lambda: shift_to_relative_interior(
                inst, dual, EXAMPLE1_MATCHING)) for _ in range(3)))
        assert best < 1e-3, f"shift took {best * 1e6:.1f} us"


def test_criterion_2_relative_interior_characterization():
    with criterion(2, "relative-interior characterization, 1000 instances"):
        start = time.perf_counter()
        sizes = [2, 3, 4, 5, 6, 7]
        checked = 0
        seed = 0
        while checked < 1000:
            rng = seeded(20_000 + seed)
            seed += 1
            n = sizes[checked % len(sizes)]
            inst = random_lap(rng, n, extra=rng.choice([0.15, 0.35, 0.6]),
                              lo=0, hi=9)
            solved = solve_lap(inst)
            assert solved is not None, "planted matching keeps feasibility"
            x, dual = solved
            shifted = shift_to_relative_interior(inst, dual, x)
            active = tight_pairs(equality_subgraph(inst, shifted))
            assert active == minimally_assignable_pairs(inst)
            assert dual_objective(inst, shifted) == dual_objective(inst, dual)
            again = shift_to_relative_interior(inst, shifted, x)
            assert tight_pairs(equality_subgraph(inst, again)) == active
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"suite took {elapsed:.1f} s"


def test_criterion_3_reduction_suite():
    with criterion(3, "reduction suite, 1000 instances"):
        for i in range(1000):
            rng = seeded(30_000 + i)
            nv = rng.randint(1, 6)
            nl = rng.randint(1, 6)
            allowed = [[DUMMY] + [lab for lab in range(nl)
                                  if rng.random() < 0.5]
                       for _ in range(nv)]
            costs = [[rng.randint(-5, 9) for _ in labs] for labs in allowed]
            inst = IlapInstance(allowed, costs, nl)
            assert inst.integral
            value, _ = brute_force_optimum(inst)
            reduced = reduce_ilap_to_lap(inst)
            xp, dual_p = solve_lap(reduced)
            assert lap_objective(reduced, xp) == value
            x, dual = solve_ilap(inst)
            assert lap_objective(inst, x) == value
            for _ in range(100):
                sample = random_reduced_matching(rng, inst, reduced)
                theta_p = lap_objective(reduced, sample)
                x1, x2 = decompose_assignment(inst, sample)
                assert (2 * theta_p
                        == lap_objective(inst, x1) + lap_objective(inst, x2))
            shifted = shift_to_relative_interior(reduced, dual_p, xp)
            mapped = map_dual(inst, shifted)
            assert check_dual_relative_interior(inst, mapped)


def test_criterion_4_primal_mapping_suite():
    with criterion(4, "primal mapping suite, 200 instances"):
        accepted = 0
        seed = 0
        while accepted < 200:
            rng = seeded(40_000 + seed)
            seed += 1
            nv = rng.randint(1, 4)
            nl = rng.randint(1, 4)
            allowed = [[DUMMY] + [lab for lab in range(nl)
                                  if rng.random() < 0.5]
                       for _ in range(nv)]
            costs = [[rng.randint(-2, 4) for _ in labs] for labs in allowed]
            inst = IlapInstance(allowed, costs, nl)
            reduced = reduce_ilap_to_lap(inst)
            if search_space_size(reduced) > SEARCH_SPACE_GUARD:
                continue
            _, optima = brute_force_optimum(reduced)
            assert optima
            accepted += 1
            weight = 1 / len(optima)
            mu_p = {}
            for xp in optima:
                for node, lab in enumerate(xp):
                    row = mu_p.setdefault(node, {})
                    row[lab] = row.get(lab, 0) + weight
            # mirrored entries share their support on the mixture
            for v in range(nv):
                for lab in inst.allowed[v]:
                    if lab == DUMMY:
                        continue
                    node = inst.num_vertices + lab
                    assert ((mu_p.get(v, {}).get(node, 0) > 0)
                            == (mu_p.get(node, {}).get(v, 0) > 0))
            mu = map_primal(inst, mu_p)
            assert check_primal_relative_interior(inst, mu)


def test_criterion_5_bound_soundness_and_monotonicity():
    with criterion(5, "bound soundness and monotonicity, 500 instances"):
        start = time.perf_counter()
        for inst in iqap_corpus():
            optimum, optima = brute_force_optimum(inst)
            exact = _exact_optimum(inst, optima)
            scale = 1 + inst.max_abs_cost
            for method in METHODS:
                report = run(inst, SolverConfig(
                    method=method, max_iterations=20,
                    bound_improvement_epsilon=0.0))
                trajectory = report.bound_trajectory
                assert report.iterations == 20
                assert all(b >= a - 1e-8 * scale
                           for a, b in zip(trajectory, trajectory[1:]))
                assert report.final_bound <= optimum + 1e-8 * scale
                assert report.final_bound <= exact
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"suite took {elapsed:.1f} s"


def test_criterion_6_exact_step_dominates_coordinate_step():
    with criterion(6, "exact label step dominance, paired snapshots"):
        from qapbound.wcsp import IqapDualState, mplp_pp_pass

        for inst in iqap_corpus():
            scale = 1 + inst.max_abs_cost
            state = IqapDualState(inst)
            for _ in range(3):
                mplp_pp_pass(state)
                coordinate = copy_state(state)
                exact = copy_state(state)
                beta_bca_pass(coordinate)
                beta_exact_update(exact)
                assert (dual_bound(inst, exact)
                        >= dual_bound(inst, coordinate) - 1e-8 * scale)
                state = coordinate


def test_criterion_7_augmentation_preserves_optimum():
    with criterion(7, "augmentation preserves the optimum"):
        for inst in iqap_corpus():
            assert search_space_size(inst) <= SEARCH_SPACE_GUARD
            before, _ = brute_force_optimum(inst)
            after, _ = brute_force_optimum(augment_instance(inst))
            assert before == after


def test_criterion_8_batch_harness():
    with criterion(8, "batch harness on a synthetic manifest"):
        start = time.perf_counter()
        methods, rows, groups = run_batch(FIXTURES / "manifest.json")
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"batch took {elapsed:.1f} s"
        assert methods == ["bca", "hung", "hung-ri"]
        assert len(rows) == 15  # 5 instances x 3 methods
        # aggregate table carries per-method best counts and average bounds
        for summary in groups:
            assert set(summary.best_counts) == set(methods)
            assert set(summary.average_bounds) == set(methods)
        # the tie rule, re-applied independently
        by_instance = {}
        for row in rows:
            by_instance.setdefault(row.instance, []).append(row)
        for group in by_instance.values():
            top = max(r.final_bound for r in group)
            threshold = min((1 + 1e-10) * top, top / (1 + 1e-10))
            for r in group:
                assert r.best == (r.final_bound >= threshold)
            assert any(r.best for r in group)
        # both file families were ingested
        assert {"toy1", "qap3"} <= set(by_instance)


def test_criterion_9_deterministic_reports():
    with criterion(9, "byte-identical repeated runs"):
        import io
        from contextlib import redirect_stdout

        for name in ("toy1.dd", "toy2.dd", "toy3.dd"):
            for method in METHODS:
                canonical = None
                for _ in range(10):
                    buffer = io.StringIO()
                    with redirect_stdout(buffer):
                        code = cli_main([
                            "solve", "--method", method,
                            "--input", str(FIXTURES / name),
                            "--max-iters", "6", "--trajectory",
                            "--output", "json"])
                    assert code == 0
                    payload = json.loads(buffer.getvalue())
                    del payload["wall_time"]
                    frozen = json.dumps(payload, sort_keys=True).encode()
                    if canonical is None:
                        canonical = frozen
                    assert frozen == canonical


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
