import json

import pytest

from qapbound.bounds import METHODS, BoundReport, SolverConfig, dual_bound, run
from qapbound.model import DUMMY, IlapInstance, IqapInstance
from qapbound.oracle import brute_force_optimum
from qapbound.wcsp import IqapDualState

from helpers import random_iqap, seeded


def edgeless(allowed, costs, num_labels):
    return IqapInstance(IlapInstance(allowed, costs, num_labels), [])


class TestConfig:
    def test_requires_some_budget(self):
        with pytest.raises(ValueError, match="budget|limit|cap"):
            SolverConfig(method="bca")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            SolverConfig(method="subgradient", max_iterations=1)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            SolverConfig(method="bca", max_iterations=1,
                         bound_improvement_epsilon=-1)

    @pytest.mark.parametrize("settings", [
        {"time_limit": float("nan")},
        {"time_limit": float("inf")},
        {"max_iterations": 1, "bound_improvement_epsilon": float("nan")},
    ], ids=["nan-time-limit", "infinite-time-limit", "nan-epsilon"])
    def test_rejects_non_finite_settings(self, settings):
        with pytest.raises(ValueError):
            SolverConfig(method="bca", **settings)


class TestDualBound:
    def test_initial_state_formula(self):
        core = IlapInstance([[DUMMY, 0, 1]] * 2, [[3, 1, 2]] * 2, 2)
        inst = IqapInstance(core, [(0, 1, {(0, 1): 5, (1, 0): 2})])
        state = IqapDualState(inst)
        # unary minima 1 + 1, pairwise minimum 0 (implicit empty cells)
        assert dual_bound(inst, state) == 2

    def test_negative_stored_cell_found(self):
        core = IlapInstance([[DUMMY, 0, 1]] * 2, [[0, 0, 0]] * 2, 2)
        inst = IqapInstance(core, [(0, 1, {(0, 1): -7})])
        state = IqapDualState(inst)
        assert dual_bound(inst, state) == -7

    def test_dense_edge_min_over_stored_cells(self):
        core = IlapInstance([[DUMMY, 0]] * 2, [[0, 0]] * 2, 1)
        cells = {(k, l): 3 for k in (DUMMY, 0) for l in (DUMMY, 0)}
        inst = IqapInstance(core, [(0, 1, cells)])
        state = IqapDualState(inst)
        assert dual_bound(inst, state) == 3

    def test_zero_instance(self):
        inst = edgeless([[DUMMY, 0]] * 2, [[0, 0]] * 2, 1)
        assert dual_bound(inst, IqapDualState(inst)) == 0

    def test_positive_beta_rejected(self):
        inst = edgeless([[DUMMY, 0]] * 2, [[0, 0]] * 2, 1)
        state = IqapDualState(inst)
        state.beta[0] = 1.0
        with pytest.raises(ValueError, match="positive"):
            dual_bound(inst, state)

    def test_sound_on_reachable_states(self):
        rng = seeded(83)
        from qapbound.beta_steps import beta_bca_pass
        from qapbound.wcsp import mplp_pp_pass

        for _ in range(30):
            inst = random_iqap(rng)
            value, _ = brute_force_optimum(inst)
            state = IqapDualState(inst)
            atol = 1e-8 * (1 + inst.max_abs_cost)
            for _ in range(3):
                mplp_pp_pass(state)
                beta_bca_pass(state)
                assert dual_bound(inst, state) <= value + atol


class TestRun:
    def test_edgeless_exact_step_solves_in_one_iteration(self):
        rng = seeded(89)
        for _ in range(15):
            inst = random_iqap(rng, max_edges=0)
            value, _ = brute_force_optimum(inst)
            report = run(inst, SolverConfig(method="hung", max_iterations=1))
            assert report.final_bound == pytest.approx(
                value, abs=1e-9 * (1 + inst.max_abs_cost))
            assert report.iterations == 1

    def test_zero_costs_early_stop(self):
        inst = edgeless([[DUMMY, 0]] * 2, [[0, 0]] * 2, 1)
        for method in METHODS:
            report = run(inst, SolverConfig(method=method, max_iterations=50))
            assert report.final_bound == 0
            assert report.bound_trajectory[1] == 0
            assert report.iterations < 50

    def test_trajectories_monotone_for_all_methods(self):
        rng = seeded(97)
        for _ in range(15):
            inst = random_iqap(rng)
            atol = 1e-8 * (1 + inst.max_abs_cost)
            for method in METHODS:
                report = run(inst, SolverConfig(
                    method=method, max_iterations=12,
                    bound_improvement_epsilon=0.0))
                t = report.bound_trajectory
                assert report.final_bound == t[-1]
                assert all(b >= a - atol for a, b in zip(t, t[1:]))

    def test_exact_variants_agree_within_first_iteration(self):
        rng = seeded(103)
        for _ in range(15):
            inst = random_iqap(rng)
            atol = 1e-8 * (1 + inst.max_abs_cost)
            hung = run(inst, SolverConfig(method="hung", max_iterations=1))
            hung_ri = run(inst, SolverConfig(method="hung-ri", max_iterations=1))
            assert hung.final_bound == pytest.approx(
                hung_ri.final_bound, abs=atol)

    def test_deterministic_trajectories(self):
        rng = seeded(107)
        inst = random_iqap(rng)
        for method in METHODS:
            config = SolverConfig(method=method, max_iterations=8,
                                  bound_improvement_epsilon=0.0)
            a = run(inst, config)
            b = run(inst, config)
            assert a.bound_trajectory == b.bound_trajectory

    def test_time_limit_stops(self):
        rng = seeded(109)
        inst = random_iqap(rng)
        report = run(inst, SolverConfig(
            method="bca", time_limit=0.2, bound_improvement_epsilon=0.0))
        assert report.wall_time < 5.0

    def test_tolerance_override(self):
        inst = IqapInstance(IlapInstance([[DUMMY, 0]] * 2, [[0, 0]] * 2, 1,
                                         tolerance=1e-6), [])
        report = run(inst, SolverConfig(method="bca", max_iterations=1))
        assert report.final_bound == 0

    def test_backward_pass_stays_monotone_and_sound(self):
        rng = seeded(113)
        for _ in range(10):
            inst = random_iqap(rng)
            value, _ = brute_force_optimum(inst)
            atol = 1e-8 * (1 + inst.max_abs_cost)
            report = run(inst, SolverConfig(
                method="hung-ri", max_iterations=8,
                bound_improvement_epsilon=0.0, backward_mplp_pass=True))
            t = report.bound_trajectory
            assert all(b >= a - atol for a, b in zip(t, t[1:]))
            assert report.final_bound <= value + atol


class TestReport:
    def test_to_dict_round_trips_through_json(self):
        report = BoundReport(instance="x", method="bca", final_bound=-1.5,
                             bound_trajectory=[-2.0, -1.5], iterations=1,
                             wall_time=0.1)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["final_bound"] == -1.5
        assert payload["bound_trajectory"] == [-2.0, -1.5]

    def test_trajectory_can_be_omitted(self):
        report = BoundReport(instance="x", method="bca", final_bound=0.0)
        assert "bound_trajectory" not in report.to_dict(include_trajectory=False)
