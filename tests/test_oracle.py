import itertools
from fractions import Fraction

import pytest

from qapbound.model import (
    DUMMY,
    Dual,
    FeasibilityError,
    IlapInstance,
    IqapInstance,
    LapInstance,
)
from qapbound.oracle import (
    GuardExceeded,
    _exact_optimum,
    brute_force_optimum,
    certificate_checks,
    check_dual_relative_interior,
    search_space_size,
)
from qapbound.reduction import _solve_interior

from helpers import (
    EXAMPLE1_MATCHING,
    EXAMPLE1_OPTIMAL_PAIRS,
    check_primal_relative_interior,
    lap_primal_feasible,
    minimally_assignable_pairs,
    example1_final_dual,
    example1_initial_dual,
    example1_instance,
    random_ilap,
    random_iqap,
    random_lap,
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
            edges = [(e.u, e.v, e.cells) for e in inst.edges]
            exact = []
            for x in itertools.product(*unary.allowed):
                used = [lab for lab in x if lab != DUMMY]
                if len(used) == len(set(used)):
                    terms = [inst.unary.cost(v, lab) for v, lab in enumerate(x)]
                    terms += [cells.get((x[u], x[v]), 0)
                              for u, v, cells in edges]
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
            check_dual_relative_interior(inst, Dual([0] * 9, [0] * 9))
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
        assert check_dual_relative_interior(inst, Dual([0, 0], [0, 0]))

    def test_infeasible_dual_rejected(self):
        with pytest.raises(Exception):
            check_dual_relative_interior(
                example1_instance(), Dual([10] * 5, [10] * 5))

    def test_quadratic_instance_is_rejected(self):
        inst = IqapInstance(IlapInstance([[DUMMY, 0]], [[0, 0]], 1), [])
        with pytest.raises(TypeError) as info:
            check_dual_relative_interior(inst, Dual([0], [0]))
        assert str(info.value) == "dual checks cover unary instances only"

    def test_ilap_sign_strictness_matters(self):
        # unique optimum assigns the single label; its potential sits on a
        # segment of optimal duals, so the endpoint with zero potential is
        # not interior even though its tight pairs match
        inst = IlapInstance([[DUMMY, 0]], [[5, -1]], 1)
        boundary = Dual([-1], [0])
        interior = Dual([1], [-2])
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


class TestCertificateChecks:
    CHECKS = ["assignment is feasible", "dual is feasible",
              "dual objective equals the assignment's value"]

    def test_solver_certificates_pass(self):
        rng = seeded(307)
        for i in range(200):
            inst = (random_ilap(rng, max_vertices=5, max_labels=5) if i % 2
                    else random_lap(rng, rng.randint(1, 5)))
            if i % 4 > 1:
                inst = inst.with_costs([[c + 0.25 for c in row]
                                        for row in inst.costs])
            x, dual = _solve_interior(inst)
            checks = certificate_checks(inst, x, dual)
            assert [name for name, _, _ in checks] == self.CHECKS
            assert all(ok for _, ok, _ in checks), checks
            value, _ = brute_force_optimum(inst)
            assert f"value {value}," in checks[2][2] or not inst.integral

    @pytest.mark.parametrize("base, nudge, holds", [
        # an integral instance is checked exactly, although its atol > 1
        (10**9, 0.5, False),
        (10**9, 2.0**-20, False),
        # a float one within atol
        (0.5, 1e-10, True),
        (0.5, 1e-8, False),
    ])
    def test_objective_window(self, base, nudge, holds):
        inst = LapInstance([[0, 1], [0, 1]], [[base, base + 1], [base + 1, base]])
        dual = Dual([base - nudge, base], [0, 0])
        checks = certificate_checks(inst, [0, 1], dual)
        assert [ok for _, ok, _ in checks] == [True, True, holds]

    @pytest.mark.parametrize("inst, dual, detail", [
        (IlapInstance([[DUMMY, 0]], [[3, 1]], 1), Dual([1], [0.5]),
         "beta[0] = 0.5 exceeds zero"),
        (IlapInstance([[DUMMY, 0]], [[3, 1]], 1), Dual([4, 0], [-3]),
         "dual dimensions do not match the instance"),
        # the dummy's potential is 0, not ``beta[-1]``
        (IlapInstance([[DUMMY, 0]], [[3, 1]], 1), Dual([4], [-3]),
         "constraint at vertex 0, label -1 violated by 1"),
        (IlapInstance([[DUMMY, 0]], [[3, 1]], 1), Dual([3.5], [-3]),
         "constraint at vertex 0, label -1 violated by 0.5"),
        (LapInstance([[0]], [[10**9]]), Dual([10**9], [Fraction(1, 2)]),
         "constraint at vertex 0, label 0 violated by 0.5"),
    ])
    def test_dual_violations(self, inst, dual, detail):
        assert certificate_checks(inst, [0], dual)[1] == (
            "dual is feasible", False, detail)

    def test_infeasible_assignment_has_no_value(self):
        inst = LapInstance([[0, 1], [0, 1]], [[1, 2], [2, 1]])
        checks = certificate_checks(inst, [0, 0], Dual([1, 1], [0, 0]))
        assert checks[0] == (
            "assignment is feasible", False,
            "label 0 assigned to both vertex 0 and vertex 1")
        assert checks[2] == ("dual objective equals the assignment's value",
                             False, "no value to compare")
