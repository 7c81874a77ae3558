import pytest

from qapbound.beta_steps import (
    beta_bca_pass,
    beta_coordinate_update,
    beta_exact_update,
)
from qapbound.bounds import dual_bound
from qapbound.formats import load_instance
from qapbound.model import (DEFAULT_TOLERANCE, DUMMY, IlapInstance,
                            IqapInstance)
from qapbound.oracle import brute_force_optimum
from qapbound.reduction import solve_ilap
from qapbound.wcsp import IqapDualState, mplp_pp_pass

from helpers import benchmark_generators, copy_state, random_iqap, seeded


def edgeless(allowed, costs, num_labels):
    return IqapInstance(IlapInstance(allowed, costs, num_labels), [])


def coordinate_interval(state, lab):
    """Independent recomputation of the two smallest cost differences."""
    inst = state.inst.unary
    diffs = []
    for v in inst.vertices_for_label[lab]:
        own = None
        alt = None
        for lab2, cost in zip(inst.allowed[v], state.theta_phi[v]):
            if lab2 == lab:
                own = cost
                continue
            t = cost if lab2 == DUMMY else cost - state.beta[lab2]
            if alt is None or t < alt:
                alt = t
        diffs.append(own - alt)
    diffs.sort()
    if not diffs:
        return 0, 0
    return diffs[0], (diffs[1] if len(diffs) > 1 else 0)


def restricted_objective(state, lab, value):
    """Objective of the label subproblem as a function of one potential."""
    inst = state.inst.unary
    beta = list(state.beta)
    beta[lab] = value
    total = sum(b for b in beta)
    for v in range(inst.num_vertices):
        best = None
        for lab2, cost in zip(inst.allowed[v], state.theta_phi[v]):
            t = cost if lab2 == DUMMY else cost - beta[lab2]
            if best is None or t < best:
                best = t
        total += best
    return total


class TestCoordinateUpdate:
    def test_unconstrained_label_resets_to_zero(self):
        # label 1 is allowed nowhere
        inst = edgeless([[DUMMY, 0]], [[0, 1]], 2)
        state = IqapDualState(inst)
        state.beta[1] = -3
        beta_coordinate_update(state, 1)
        assert state.beta[1] == 0

    def test_midpoint_of_two_differences(self):
        # two vertices, alternatives cost 0, label 0 costs -3 and -1
        inst = edgeless([[DUMMY, 0], [DUMMY, 0]], [[0, -3], [0, -1]], 1)
        state = IqapDualState(inst)
        beta_coordinate_update(state, 0)
        assert state.beta[0] == -2

    def test_positive_differences_clamp_to_zero(self):
        inst = edgeless([[DUMMY, 0], [DUMMY, 0]], [[0, 2], [0, 5]], 1)
        state = IqapDualState(inst)
        beta_coordinate_update(state, 0)
        assert state.beta[0] == 0

    def test_single_vertex_second_value_is_zero(self):
        inst = edgeless([[DUMMY, 0]], [[0, -4]], 1)
        state = IqapDualState(inst)
        beta_coordinate_update(state, 0)
        assert state.beta[0] == -2  # (min(-4,0) + min(0,0)) / 2

    def test_dummy_rejected(self):
        inst = edgeless([[DUMMY, 0]], [[0, 0]], 1)
        state = IqapDualState(inst)
        with pytest.raises(ValueError):
            beta_coordinate_update(state, DUMMY)

    @pytest.mark.parametrize("lab", [1, -2])
    def test_label_out_of_range_rejected(self, lab):
        state = IqapDualState(edgeless([[DUMMY, 0]], [[0, 0]], 1))
        with pytest.raises(ValueError) as info:
            beta_coordinate_update(state, lab)
        assert str(info.value) == f"label {lab} out of range"

    def test_coordinate_optimality_and_interior(self):
        rng = seeded(43)
        for _ in range(40):
            inst = random_iqap(rng, max_vertices=4, max_labels=3)
            state = IqapDualState(inst)
            mplp_pp_pass(state)
            eps = 10 * DEFAULT_TOLERANCE * (1 + inst.max_abs_cost)
            for lab in range(inst.num_labels):
                b1, b2 = coordinate_interval(state, lab)
                beta_coordinate_update(state, lab)
                value = state.beta[lab]
                assert value <= 0
                assert value == (min(b1, 0) + min(b2, 0)) / 2
                if b1 < b2 < 0:
                    assert b1 < value < b2
                here = restricted_objective(state, lab, value)
                if value + eps <= 0:  # stay inside the sign constraint
                    assert restricted_objective(state, lab, value + eps) <= here + 1e-12
                assert restricted_objective(state, lab, value - eps) <= here + 1e-12


class TestPasses:
    def test_single_label_pass_is_idempotent(self):
        inst = edgeless([[DUMMY, 0], [DUMMY, 0]], [[0, -3], [0, -1]], 1)
        state = IqapDualState(inst)
        beta_bca_pass(state)
        first = list(state.beta)
        beta_bca_pass(state)
        assert state.beta == first

    def test_bound_monotone_under_bca(self):
        rng = seeded(53)
        for _ in range(30):
            inst = random_iqap(rng)
            state = IqapDualState(inst)
            atol = 1e-8 * (1 + inst.max_abs_cost)
            previous = dual_bound(inst, state)
            for _ in range(3):
                mplp_pp_pass(state)
                beta_bca_pass(state)
                assert all(b <= 0 for b in state.beta)
                current = dual_bound(inst, state)
                assert current >= previous - atol
                previous = current



def assert_sweeps_match_coordinate_updates(state, sweeps=3):
    """Each of ``sweeps`` sweeps from ``state`` gives the ``beta`` (to the
    last bit, types and signed zeros included) of one
    ``beta_coordinate_update`` per label in ascending order, each on rows
    built afresh from the current ``beta``."""
    for _ in range(sweeps):
        updated = copy_state(state)
        for lab in range(state.inst.num_labels):
            beta_coordinate_update(updated, lab)
        beta_bca_pass(state)
        assert repr(state.beta) == repr(updated.beta)


def tie_instance():
    """Label 4 has no vertex, labels 2 and 3 one each; vertex 0 is
    edge-free with four equal costs, vertices 1 and 2 share an edge and
    tie within their rows."""
    core = IlapInstance([[DUMMY, 0, 1, 2], [DUMMY, 0, 1], [DUMMY, 0, 3]],
                        [[2, 2, 2, 2], [1, 0, 0], [0, -1, -1]], 5)
    return IqapInstance(core, [(1, 2, {(0, 0): 1, (1, 3): -1})])


class TestPassMatchesCoordinateUpdates:
    @pytest.mark.parametrize("passes", [0, 1, 3])
    def test_random_instances(self, passes):
        rng = seeded(211 + passes)
        for _ in range(60):
            inst = random_iqap(rng, max_vertices=7, max_labels=6)
            state = IqapDualState(inst)
            for _ in range(passes):
                mplp_pp_pass(state)
            assert_sweeps_match_coordinate_updates(state)

    @pytest.mark.parametrize("passes", [0, 1, 3])
    def test_edge_free_rows_hold_ints(self, passes):
        rng = seeded(223 + passes)
        for _ in range(30):
            inst = random_iqap(rng, max_vertices=6, max_labels=5, max_edges=1)
            state = IqapDualState(inst)
            for _ in range(passes):
                mplp_pp_pass(state)
            edge_free = set(range(inst.num_vertices)).difference(
                *[(e.u, e.v) for e in inst.edges])
            assert all(type(c) is int
                       for v in edge_free for c in state.theta_phi[v])
            assert_sweeps_match_coordinate_updates(state)

    @pytest.mark.parametrize("passes", [0, 1, 3])
    @pytest.mark.parametrize("beta", [[0] * 5, [-1, -1.0, 0, -0.5, 0]])
    def test_empty_and_single_vertex_labels_and_tied_rows(self, passes, beta):
        inst = tie_instance()
        unary = inst.unary
        assert [len(unary.vertices_for_label[lab]) for lab in (2, 3, 4)] == [1, 1, 0]
        state = IqapDualState(inst)
        state.beta = list(beta)
        for _ in range(passes):
            mplp_pp_pass(state)
        assert_sweeps_match_coordinate_updates(state)
        assert state.beta[4] == 0

    @pytest.mark.parametrize("passes", [0, 1, 3])
    def test_benchmark_style_instance(self, tmp_path, passes):
        path = tmp_path / "gm.dd"
        benchmark_generators().write_gm(path, 7, vertices=30)
        inst = load_instance(path, dummy_cost=150)
        state = IqapDualState(inst)
        for _ in range(passes):
            mplp_pp_pass(state)
        assert_sweeps_match_coordinate_updates(state)


class TestExactUpdate:
    def test_edgeless_reaches_enumerated_optimum(self):
        rng = seeded(59)
        for _ in range(25):
            inst = random_iqap(rng, max_edges=0)
            value, _ = brute_force_optimum(inst)
            state = IqapDualState(inst)
            beta_exact_update(state)
            assert dual_bound(inst, state) == pytest.approx(
                value, abs=1e-9 * (1 + inst.max_abs_cost))

    def test_zero_costs_stay_zero(self):
        inst = edgeless([[DUMMY, 0]] * 2, [[0, 0]] * 2, 1)
        state = IqapDualState(inst)
        beta_exact_update(state)
        assert state.beta == [0]
        assert dual_bound(inst, state) == 0

    def test_dominates_coordinate_pass_from_same_snapshot(self):
        rng = seeded(67)
        for _ in range(40):
            inst = random_iqap(rng)
            state = IqapDualState(inst)
            mplp_pp_pass(state)
            bca_state = copy_state(state)
            exact_state = copy_state(state)
            beta_bca_pass(bca_state)
            beta_exact_update(exact_state)
            atol = 1e-8 * (1 + inst.max_abs_cost)
            assert (dual_bound(inst, exact_state)
                    >= dual_bound(inst, bca_state) - atol)
            assert all(b <= 0 for b in exact_state.beta)

    def test_both_exact_variants_reach_the_same_bound(self):
        rng = seeded(71)
        for _ in range(30):
            inst = random_iqap(rng)
            state = IqapDualState(inst)
            mplp_pp_pass(state)
            plain = copy_state(state)
            interior = copy_state(state)
            beta_exact_update(plain, relative_interior=False)
            beta_exact_update(interior, relative_interior=True)
            atol = 1e-8 * (1 + inst.max_abs_cost)
            assert dual_bound(inst, plain) == pytest.approx(
                dual_bound(inst, interior), abs=atol)

    def test_coordinate_ascent_stalls_where_exact_does_not(self):
        # three vertices sharing two free labels, unassignment costs 4:
        # coordinate steps cannot leave the all-zero potentials, the exact
        # step reaches the true optimum
        core = IlapInstance([[DUMMY, 0, 1]] * 3, [[4, 0, 0]] * 3, 2)
        inst = IqapInstance(core, [])
        value, _ = brute_force_optimum(inst)
        assert value == 4
        stalled = IqapDualState(inst)
        for _ in range(25):
            beta_bca_pass(stalled)
        assert dual_bound(inst, stalled) == 0
        exact = IqapDualState(inst)
        beta_exact_update(exact)
        assert dual_bound(inst, exact) == 4


class TestExactUpdateMatchesFreshInstance:
    def test_same_beta_as_solving_a_constructed_subproblem(self):
        rng = seeded(353)
        for trial in range(60):
            inst = random_iqap(rng)
            state = IqapDualState(inst)
            for _ in range(trial % 4):
                mplp_pp_pass(state)
            unary = inst.unary
            sub = IlapInstance(unary.allowed, state.theta_phi,
                               unary.num_labels)
            for relative_interior in (False, True):
                _, dual = solve_ilap(sub, relative_interior=relative_interior)
                updated = copy_state(state)
                beta_exact_update(updated, relative_interior=relative_interior)
                assert repr(updated.beta) == repr([min(b, 0) for b in dual.beta])
