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
    check_feasible,
    dual_feasible,
    dual_objective,
    ilap_objective,
    iqap_objective,
    lap_objective,
    lap_primal_feasible,
)
from qapbound.oracle import brute_force_optimum

from helpers import (
    EXAMPLE1_MATCHING,
    EXAMPLE1_VALUE,
    example1_initial_dual,
    example1_final_dual,
    example1_instance,
    random_ilap,
    random_lap,
    seeded,
)


class TestInstanceConstruction:
    def test_rows_sorted_and_costs_parallel(self):
        inst = LapInstance([[1, 0], [0, 1]], [[5, 2], [1, 4]])
        assert inst.allowed == ((0, 1), (0, 1))
        assert inst.costs == ((2, 5), (1, 4))

    def test_integral_detection(self):
        assert LapInstance([[0]], [[3.0]]).integral
        assert not LapInstance([[0]], [[3.5]]).integral

    def test_rejects_duplicate_label(self):
        with pytest.raises(ValueError, match="duplicate"):
            LapInstance([[0, 0]], [[1, 2]])

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError, match="at least one"):
            LapInstance([[0], []], [[1], []])

    def test_rejects_non_finite_cost(self):
        with pytest.raises(ValueError, match="finite"):
            LapInstance([[0]], [[float("inf")]])

    def test_ilap_requires_dummy(self):
        with pytest.raises(ValueError, match="dummy"):
            IlapInstance([[0]], [[1]], 1)

    def test_ilap_rejects_negative_label_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            IlapInstance([[DUMMY]], [[0]], -1)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_rejects_non_finite_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="finite and non-negative"):
            LapInstance([[0]], [[1]], tolerance=tolerance)
        with pytest.raises(ValueError, match="finite and non-negative"):
            LapInstance([[0]], [[1]]).with_costs([[1]], tolerance=tolerance)

    def test_ilap_sizes_unconstrained(self):
        inst = IlapInstance([[DUMMY, 0], [DUMMY]], [[1, 2], [0]], 7)
        assert inst.num_vertices == 2
        assert inst.num_labels == 7

    def test_vertices_for_label(self):
        inst = IlapInstance([[DUMMY, 0, 1], [DUMMY, 1]], [[0, 1, 2], [0, 3]], 2)
        assert inst.vertices_for_label == ((0,), (0, 1))

    def test_iqap_rejects_loop(self):
        core = IlapInstance([[DUMMY]] * 2, [[0]] * 2, 0)
        with pytest.raises(ValueError, match="loop"):
            IqapInstance(core, [(1, 1, {})])

    def test_iqap_rejects_duplicate_edge(self):
        core = IlapInstance([[DUMMY]] * 2, [[0]] * 2, 0)
        with pytest.raises(ValueError, match="duplicate edge"):
            IqapInstance(core, [(0, 1, {}), (1, 0, {})])

    def test_atol_scales_with_costs(self):
        small = LapInstance([[0]], [[1]], tolerance=1e-9)
        big = LapInstance([[0]], [[10**6]], tolerance=1e-9)
        assert big.atol > small.atol
        assert small.atol == pytest.approx(2e-9)


class TestObjectives:
    def test_example_matching_value(self):
        inst = example1_instance()
        assert lap_objective(inst, EXAMPLE1_MATCHING) == EXAMPLE1_VALUE

    def test_single_pair(self):
        assert lap_objective(LapInstance([[0]], [[0]]), [0]) == 0

    def test_two_by_two_sum(self):
        inst = LapInstance([[0, 1], [0, 1]], [[1, 2], [3, 4]])
        assert lap_objective(inst, [0, 1]) == 5

    def test_infeasible_raises_named_error(self):
        inst = LapInstance([[0, 1], [0, 1]], [[1, 2], [3, 4]])
        with pytest.raises(FeasibilityError, match="label 0 assigned to both"):
            lap_objective(inst, [0, 0])

    def test_all_dummy_sums_dummy_costs(self):
        inst = IlapInstance([[DUMMY, 0], [DUMMY, 1]], [[2, 9], [5, 9]], 2)
        assert ilap_objective(inst, [DUMMY, DUMMY]) == 7

    def test_edgeless_iqap_matches_ilap(self):
        rng = seeded(11)
        for _ in range(20):
            core = random_ilap(rng, max_vertices=4, max_labels=4)
            inst = IqapInstance(core, [])
            x = [row[-1] if len(set(row) - {DUMMY}) == len(row) - 1 else DUMMY
                 for row in core.allowed]
            x = [DUMMY] * core.num_vertices
            assert iqap_objective(inst, x) == ilap_objective(core, x)

    def test_single_pairwise_term(self):
        core = IlapInstance([[DUMMY, 0], [DUMMY, 1]], [[0, 0], [0, 0]], 2)
        inst = IqapInstance(core, [(0, 1, {(0, 1): 7})])
        assert iqap_objective(inst, [0, 1]) == 7

    def test_pairwise_symmetry_under_endpoint_swap(self):
        core = IlapInstance([[DUMMY, 0], [DUMMY, 1]], [[0, 1], [0, 2]], 2)
        a = IqapInstance(core, [(0, 1, {(0, 1): 5})])
        b = IqapInstance(core, [(1, 0, {(1, 0): 5})])
        for x in ([0, 1], [0, DUMMY], [DUMMY, 1], [DUMMY, DUMMY]):
            assert iqap_objective(a, x) == iqap_objective(b, x)
        assert a.pairwise_cost(1, 0, 1, 0) == 5


class TestFeasibility:
    def test_lap_duplicate(self):
        inst = LapInstance([[0, 1], [0, 1]], [[0, 0], [0, 0]])
        viol = check_feasible(inst, [1, 1])
        assert viol is not None and viol.kind == "duplicate"

    def test_two_dummies_fine(self):
        inst = IlapInstance([[DUMMY, 0], [DUMMY, 0]], [[0, 0], [0, 0]], 1)
        assert check_feasible(inst, [DUMMY, DUMMY]) is None

    def test_disallowed(self):
        inst = LapInstance([[0], [0, 1]], [[0], [0, 0]])
        viol = check_feasible(inst, [1, 0])
        assert viol is not None and viol.kind == "disallowed"

    def test_dimension(self):
        inst = LapInstance([[0]], [[0]])
        viol = check_feasible(inst, [0, 0])
        assert viol is not None and viol.kind == "dimension"

    @pytest.mark.parametrize("x", [[DUMMY, 0], [DUMMY, DUMMY], [1, DUMMY]])
    def test_dummy_in_square_assignment_is_disallowed(self, x):
        inst = LapInstance([[0, 1], [0, 1]], [[0, 0], [0, 0]])
        viol = check_feasible(inst, x)
        v = x.index(DUMMY)
        assert (viol.kind, viol.message, viol.vertex, viol.label) == (
            "disallowed", f"vertex {v} takes label -1, not in its allowed set",
            v, DUMMY)


PRIMAL_LAP = LapInstance([[0, 1], [1]], [[1, 2], [3]])
PRIMAL_ILAP = IlapInstance([[DUMMY, 0, 1], [DUMMY, 1]], [[0, 1, 2], [0, 3]], 2)


def outside_row(key):
    return ("dimension", f"mu has a row for {key}, outside vertices 0..1")


class TestPrimalFeasible:
    """One checker for both unary classes.  The verdicts were recorded from
    the separate square and dummy-label checkers this one replaced."""

    @pytest.mark.parametrize("inst, mu, expected", [
        (PRIMAL_LAP, {0: {0: 1}, 1: {1: 1}}, None),
        (PRIMAL_LAP, {0: {0: 1}, 1: {0: 1}},
         ("disallowed", "mu[1][0] set on a disallowed pair")),
        (PRIMAL_LAP, {0: {0: 1.5, 1: -0.5}, 1: {1: 1}},
         ("negative", "mu[0][1] = -0.5 < 0")),
        (PRIMAL_LAP, {0: {0: 0.5}, 1: {1: 1}},
         ("row", "mu row 0 sums to 0.5, expected 1")),
        (PRIMAL_LAP, {0: {1: 1}, 1: {1: 1}},
         ("column", "mu column 0 sums to 0, expected 1")),
        (PRIMAL_LAP, {0: {DUMMY: 1}, 1: {1: 1}},
         ("disallowed", "mu[0][-1] set on a disallowed pair")),
        (PRIMAL_ILAP, {0: {0: 1}, 1: {1: 1}}, None),
        (PRIMAL_ILAP, {0: {0: 1}, 1: {0: 1}},
         ("disallowed", "mu[1][0] set on a disallowed pair")),
        (PRIMAL_ILAP, {0: {0: 1.5, DUMMY: -0.5}, 1: {1: 1}},
         ("negative", "mu[0][-1] = -0.5 < 0")),
        (PRIMAL_ILAP, {0: {0: 0.5}, 1: {1: 1}},
         ("row", "mu row 0 sums to 0.5, expected 1")),
        (PRIMAL_ILAP, {0: {1: 1}, 1: {1: 1}},
         ("column", "mu column 1 sums to 2 > 1")),
        # the dummy column is free and other columns may stay below one
        (PRIMAL_ILAP, {0: {DUMMY: 1}, 1: {DUMMY: 1}}, None),
        (PRIMAL_ILAP, {0: {DUMMY: 0.5, 0: 0.5}, 1: {DUMMY: 0.5, 1: 0.5}},
         None),
        # rows keyed outside the vertices, checked before any row
        (PRIMAL_LAP, {0: {0: 1}, 1: {1: 1}, 2: {0: 5.0}}, outside_row(2)),
        (PRIMAL_LAP, {0: {0: 1}, 1: {1: 1}, -1: {0: 5.0}}, outside_row(-1)),
        (PRIMAL_LAP, {0: {0: 0.5}, 1: {1: 1}, 7: {}}, outside_row(7)),
        (PRIMAL_ILAP, {0: {0: 1}, 1: {1: 1}, 2: {0: 5.0}}, outside_row(2)),
        (PRIMAL_ILAP, {0: {0: 1}, 1: {1: 1}, -1: {0: 5.0}}, outside_row(-1)),
        (PRIMAL_ILAP, {0: {0: 0.5}, 1: {1: 1}, 7: {}}, outside_row(7)),
    ])
    def test_violation_kinds(self, inst, mu, expected):
        viol = lap_primal_feasible(inst, mu)
        got = None if viol is None else (viol.kind, viol.message)
        assert got == expected


DUAL_LAP = LapInstance([[0, 1], [0, 1]], [[1, 2], [1, 0]])
DUAL_ILAP = IlapInstance([[DUMMY, 0, 1], [DUMMY, 1]], [[3, 1, 2], [3, 1]], 2)


class TestDuals:
    def test_example_initial_dual(self):
        inst = example1_instance()
        dual = example1_initial_dual()
        assert dual_feasible(inst, dual) is None
        assert dual_objective(inst, dual) == 24

    def test_example_final_dual(self):
        inst = example1_instance()
        dual = example1_final_dual()
        assert dual_feasible(inst, dual) is None
        assert dual_objective(inst, dual) == 24

    def test_zero_dual_infeasible_on_negative_costs(self):
        inst = LapInstance([[0]], [[-1]])
        viol = dual_feasible(inst, LapDual([0], [0]))
        assert viol is not None and viol.kind == "dual"

    def test_dimension_mismatch_raises(self):
        inst = example1_instance()
        with pytest.raises(ValueError):
            dual_feasible(inst, LapDual([0], [0]))

    def test_ilap_beta_sign(self):
        inst = IlapInstance([[DUMMY, 0]], [[0, 5]], 1)
        viol = dual_feasible(inst, IlapDual([0], [1.0]))
        assert viol is not None and "exceeds zero" in viol.message

    @pytest.mark.parametrize("inst, dual, message", [
        (DUAL_LAP, IlapDual([0, 0], [0, 0]),
         "expected a LapDual for a LapInstance"),
        (DUAL_LAP, IlapDual([0, 0], [0]),
         "expected a LapDual for a LapInstance"),
        (DUAL_LAP, LapDual([0], [0, 0]),
         "alpha length does not match the vertex count"),
        (DUAL_LAP, IlapDual([0], [0]),
         "alpha length does not match the vertex count"),
        (DUAL_LAP, LapDual([0, 0], [0]),
         "beta length does not match the label count"),
        (DUAL_ILAP, LapDual([0, 0], [0, 0]),
         "expected an IlapDual for this instance"),
        (DUAL_ILAP, IlapDual([0, 0, 0], [0, 0]),
         "alpha length does not match the vertex count"),
        (DUAL_ILAP, IlapDual([0, 0], [5, 5, 5]),
         "beta length does not match the non-dummy label count"),
    ])
    def test_malformed_dual_messages(self, inst, dual, message):
        with pytest.raises(ValueError) as info:
            dual_feasible(inst, dual)
        assert str(info.value) == message

    @pytest.mark.parametrize("inst, dual, expected", [
        (DUAL_LAP, LapDual([0, 0], [0, 0]), None),
        (DUAL_LAP, LapDual([0, 2], [0, 0]),
         (1, 0, "dual constraint violated at vertex 1, label 0")),
        (DUAL_ILAP, IlapDual([0, 0], [0, 0]), None),
        (DUAL_ILAP, IlapDual([0, 0], [-1, 0.5]),
         (None, 1, "beta[1] = 0.5 exceeds zero")),
        # the sign rule is checked before any constraint
        (DUAL_ILAP, IlapDual([9, 0], [0, 0.5]),
         (None, 1, "beta[1] = 0.5 exceeds zero")),
        (DUAL_ILAP, IlapDual([2, 0], [0, 0]),
         (0, 0, "dual constraint violated at vertex 0, label 0")),
        (DUAL_ILAP, IlapDual([0, 4], [0, 0]),
         (1, DUMMY, "dual constraint violated at vertex 1, label -1")),
        (DUAL_ILAP, IlapDual([4, 0], [0, 0]),
         (0, DUMMY, "dual constraint violated at vertex 0, label -1")),
    ])
    def test_violation_messages(self, inst, dual, expected):
        viol = dual_feasible(inst, dual)
        if expected is None:
            assert viol is None
        else:
            assert viol.kind == "dual"
            assert (viol.vertex, viol.label, viol.message) == expected

    def test_weak_duality(self):
        rng = seeded(23)
        for _ in range(40):
            inst = random_lap(rng, rng.randint(2, 5))
            value, optima = brute_force_optimum(inst)
            if value is None:
                continue
            # a feasible dual built directly from the constraints
            alpha = [min(cs) - rng.randint(0, 3) for cs in inst.costs]
            beta = []
            for lab in range(inst.num_labels):
                vs = inst.vertices_for_label[lab]
                if not vs:
                    beta.append(0)
                    continue
                beta.append(min(inst.cost(v, lab) - alpha[v] for v in vs)
                            - rng.randint(0, 3))
            dual = LapDual(alpha, beta)
            assert dual_feasible(inst, dual) is None
            assert dual_objective(inst, dual) <= value + inst.atol


def _cost_kinds(rng):
    """One cost of each kind the constructor normalizes differently."""
    return rng.choice([
        rng.randint(-9, 9),                      # int
        float(rng.randint(-9, 9)),               # integer-valued float -> int
        rng.randint(-19, 19) / 2,                # half
        round(rng.uniform(-9, 9), 3),            # decimal
        Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])),
        2.0**60,                                 # integer-valued, stays float
        -(2**60),                                # big int
    ])


def _describe(inst):
    return (repr(inst.costs), repr(inst.max_abs_cost), inst.integral,
            repr(inst.atol), inst.tolerance)


class TestWithCosts:
    """``with_costs`` normalizes exactly like the constructor and shares
    the structure."""

    def test_matches_constructor(self):
        rng = seeded(307)
        for trial in range(200):
            unary = random_ilap(rng, tolerance=rng.choice([0, 1e-9, 1e-6]))
            rows = [[_cost_kinds(rng) for _ in labs] for labs in unary.allowed]
            new = unary.with_costs(rows)
            ref = IlapInstance(unary.allowed, rows, unary.num_labels,
                               tolerance=unary.tolerance)
            assert _describe(new) == _describe(ref)
            for name in ("allowed", "_index", "vertices_for_label",
                         "_structure_cache"):
                assert getattr(new, name) is getattr(unary, name)
            assert new._reduced is None

    def test_lap_matches_constructor(self):
        rng = seeded(311)
        for _ in range(100):
            lap = random_lap(rng, rng.randint(1, 7))
            rows = [[_cost_kinds(rng) for _ in labs] for labs in lap.allowed]
            new = lap.with_costs(rows, tolerance=1e-6)
            ref = LapInstance(lap.allowed, rows, tolerance=1e-6)
            assert _describe(new) == _describe(ref)
            assert new.allowed is lap.allowed

    def test_scale_and_tolerance_match_constructor(self):
        rng = seeded(313)
        for _ in range(50):
            unary = random_ilap(rng)
            unary = unary.with_costs(
                [[_cost_kinds(rng) for _ in labs] for labs in unary.allowed])
            scaled = IlapInstance(
                unary.allowed, [[2 * c for c in row] for row in unary.costs],
                unary.num_labels, tolerance=unary.tolerance)
            assert _describe(unary.scale_costs(2)) == _describe(scaled)
            relaxed = IlapInstance(unary.allowed, unary.costs,
                                   unary.num_labels, tolerance=1e-3)
            assert (_describe(unary.with_costs(unary.costs, tolerance=1e-3))
                    == _describe(relaxed))

    @pytest.mark.parametrize("bad, error", [
        (float("nan"), ValueError),
        (float("inf"), ValueError),
        (True, TypeError),
    ])
    def test_bad_cost_raises_as_constructor(self, bad, error):
        unary = IlapInstance([[DUMMY, 0], [DUMMY, 0, 1]], [[0, 1], [2, 3, 4]], 2)
        rows = [[0, 1], [2, bad, 4]]
        with pytest.raises(error) as new:
            unary.with_costs(rows)
        with pytest.raises(error) as ref:
            IlapInstance(unary.allowed, rows, 2)
        assert str(new.value) == str(ref.value)

    @pytest.mark.parametrize("rows", [
        [[0, 1], [2, 3]],            # vertex 1 row one cost short
        [[0, 1], [2, 3, 4, 5]],      # vertex 1 row one cost long
        [[0, 1]],                    # one row missing
    ])
    def test_wrong_shape_raises_as_constructor(self, rows):
        unary = IlapInstance([[DUMMY, 0], [DUMMY, 0, 1]], [[0, 1], [2, 3, 4]], 2)
        with pytest.raises(ValueError) as new:
            unary.with_costs(rows)
        with pytest.raises(ValueError) as ref:
            IlapInstance(unary.allowed, rows, 2)
        assert str(new.value) == str(ref.value)

    def test_negative_tolerance_rejected(self):
        unary = IlapInstance([[DUMMY]], [[0]], 0)
        with pytest.raises(ValueError, match="non-negative"):
            unary.with_costs([[1]], tolerance=-1)

    def test_objective_names_share_one_function(self):
        assert ilap_objective is lap_objective
