import itertools
from fractions import Fraction

import pytest

from qapbound.model import (
    DUMMY,
    FeasibilityError,
    IlapDual,
    IlapInstance,
    IqapInstance,
    LapDual,
    LapInstance,
    lap_primal_feasible,
)
from qapbound.oracle import (
    GuardExceeded,
    _exact_optimum,
    brute_force_optimum,
    check_dual_relative_interior,
    check_primal_relative_interior,
    minimally_assignable_pairs,
    search_space_size,
)

from helpers import (
    EXAMPLE1_MATCHING,
    EXAMPLE1_OPTIMAL_PAIRS,
    example1_final_dual,
    example1_initial_dual,
    example1_instance,
    random_iqap,
    seeded,
)


class TestBruteForce:
    def test_example_value_and_membership(self):
        inst = example1_instance()
        value, optima = brute_force_optimum(inst)
        assert value == 24
        assert EXAMPLE1_MATCHING in optima

    def test_all_dummy_only(self):
        inst = IlapInstance([[DUMMY]] * 3, [[2], [1], [4]], 1)
        value, optima = brute_force_optimum(inst)
        assert value == 7
        assert optima == [[DUMMY, DUMMY, DUMMY]]

    def test_two_vertex_quadratic_by_hand(self):
        core = IlapInstance([[DUMMY, 0, 1]] * 2, [[1, 0, 0]] * 2, 2)
        inst = IqapInstance(core, [(0, 1, {(0, 1): -4, (1, 0): 3})])
        value, optima = brute_force_optimum(inst)
        # best: x = (A, B) with unaries 0 and pairwise -4
        assert value == -4
        assert optima == [[0, 1]]

    def test_exact_optimum_of_float_instances(self):
        inst = IqapInstance(IlapInstance([[DUMMY]] * 10, [[0.1]] * 10, 0), [])
        value, optima = brute_force_optimum(inst)
        assert value == 0.9999999999999999
        assert _exact_optimum(inst, optima) == 10 * Fraction(0.1)
        rng = seeded(11)
        for _ in range(40):
            ints = random_iqap(rng)
            unary = ints.unary
            inst = IqapInstance(
                IlapInstance(unary.allowed,
                             [[c / 10 for c in row] for row in unary.costs],
                             unary.num_labels),
                [(e.u, e.v, {kl: c / 10 for kl, c in e.cells.items()})
                 for e in ints.edges])
            exact = []
            for x in itertools.product(*unary.allowed):
                used = [lab for lab in x if lab != DUMMY]
                if len(used) == len(set(used)):
                    terms = [inst.unary.cost(v, lab) for v, lab in enumerate(x)]
                    terms += [e.cells.get((x[e.u], x[e.v]), 0)
                              for e in inst.edges]
                    exact.append(sum(map(Fraction, terms)))
            _, optima = brute_force_optimum(inst)
            assert _exact_optimum(inst, optima) == min(exact)

    def test_infeasible_square_instance(self):
        inst = LapInstance([[0], [0]], [[1], [1]])
        assert brute_force_optimum(inst) == (None, [])

    def test_guard(self):
        inst = LapInstance([list(range(9))] * 9, [[0] * 9] * 9)
        assert search_space_size(inst) == 9**9
        with pytest.raises(GuardExceeded):
            brute_force_optimum(inst)

    def test_relative_interior_checks_respect_the_guard(self):
        inst = LapInstance([list(range(9))] * 9, [[0] * 9] * 9)
        with pytest.raises(GuardExceeded):
            check_dual_relative_interior(inst, LapDual([0] * 9, [0] * 9))
        with pytest.raises(GuardExceeded):
            check_primal_relative_interior(inst, {v: {v: 1} for v in range(9)})

    def test_optimal_indicators_are_primal_feasible(self):
        inst = example1_instance()
        value, optima = brute_force_optimum(inst)
        for x in optima:
            mu = {v: {lab: 1} for v, lab in enumerate(x)}
            assert lap_primal_feasible(inst, mu) is None
            assert sum(inst.cost(v, lab) for v, lab in enumerate(x)) == value


class TestMinimallyAssignable:
    def test_example_circled_pairs(self):
        assert minimally_assignable_pairs(
            example1_instance()) == EXAMPLE1_OPTIMAL_PAIRS

    def test_unique_optimum(self):
        inst = LapInstance([[0, 1], [0, 1]], [[0, 5], [5, 0]])
        assert minimally_assignable_pairs(inst) == {(0, 0), (1, 1)}

    def test_zero_costs_make_everything_assignable(self):
        inst = LapInstance([[0, 1, 2]] * 3, [[0, 0, 0]] * 3)
        assert minimally_assignable_pairs(inst) == {
            (v, lab) for v in range(3) for lab in range(3)}


class TestDualInteriorCheck:
    def test_example_initial_is_boundary(self):
        assert not check_dual_relative_interior(
            example1_instance(), example1_initial_dual())

    def test_example_final_is_interior(self):
        assert check_dual_relative_interior(
            example1_instance(), example1_final_dual())

    def test_unique_optimum_with_strict_slack(self):
        inst = LapInstance([[0, 1], [0, 1]], [[0, 5], [5, 0]])
        assert check_dual_relative_interior(inst, LapDual([0, 0], [0, 0]))

    def test_infeasible_dual_rejected(self):
        with pytest.raises(Exception):
            check_dual_relative_interior(
                example1_instance(), LapDual([10] * 5, [10] * 5))

    def test_ilap_sign_strictness_matters(self):
        # unique optimum assigns the single label; its potential sits on a
        # segment of optimal duals, so the endpoint with zero potential is
        # not interior even though its tight pairs match
        inst = IlapInstance([[DUMMY, 0]], [[5, -1]], 1)
        boundary = IlapDual([-1], [0])
        interior = IlapDual([1], [-2])
        assert not check_dual_relative_interior(inst, boundary)
        assert check_dual_relative_interior(inst, interior)


class TestPrimalInteriorCheck:
    def test_uniform_average_is_interior(self):
        inst = example1_instance()
        _, optima = brute_force_optimum(inst)
        weight = 1 / len(optima)
        mu = {}
        for x in optima:
            for v, lab in enumerate(x):
                row = mu.setdefault(v, {})
                row[lab] = row.get(lab, 0) + weight
        assert check_primal_relative_interior(inst, mu)

    def test_single_vertex_of_multi_optimum_face_is_boundary(self):
        inst = example1_instance()
        mu = {v: {lab: 1} for v, lab in enumerate(EXAMPLE1_MATCHING)}
        assert not check_primal_relative_interior(inst, mu)

    def test_feasible_non_optimal_is_rejected_by_support(self):
        inst = LapInstance([[0, 1], [0, 1]], [[0, 5], [5, 0]])
        mu = {0: {1: 1}, 1: {0: 1}}  # the expensive matching
        assert not check_primal_relative_interior(inst, mu)

    def test_infeasible_mu_raises(self):
        inst = LapInstance([[0, 1], [0, 1]], [[0, 5], [5, 0]])
        with pytest.raises(FeasibilityError):
            check_primal_relative_interior(inst, {0: {0: 0.5}, 1: {1: 0.5}})

    def test_row_outside_the_vertices_raises(self):
        inst = LapInstance([[0, 1], [0, 1]], [[0, 5], [5, 0]])
        with pytest.raises(FeasibilityError, match="row for 7"):
            check_primal_relative_interior(
                inst, {0: {0: 1}, 1: {1: 1}, 7: {0: 5.0}})

    def test_ilap_column_strictness_matters(self):
        # two vertices, one label, all costs zero: the saturated mixture
        # hits the column bound although some optimum leaves the label free
        inst = IlapInstance([[DUMMY, 0]] * 2, [[0, 0]] * 2, 1)
        saturated = {0: {DUMMY: 0.5, 0: 0.5}, 1: {DUMMY: 0.5, 0: 0.5}}
        assert not check_primal_relative_interior(inst, saturated)
        mixed = {0: {DUMMY: 0.625, 0: 0.375}, 1: {DUMMY: 0.625, 0: 0.375}}
        assert check_primal_relative_interior(inst, mixed)

    def test_quadratic_instance_is_rejected(self):
        inst = IqapInstance(IlapInstance([[DUMMY, 0]], [[0, 0]], 1), [])
        with pytest.raises(TypeError, match="unary instances only"):
            check_primal_relative_interior(inst, {0: {DUMMY: 1}})
