import math
from fractions import Fraction
from types import MappingProxyType

import pytest

from qapbound.bounds import SolverConfig, dual_bound, run
from qapbound.formats import convert_qaplib_to_iqap
from qapbound.model import (
    DEFAULT_TOLERANCE,
    DUMMY,
    Dual,
    DualInfeasibleError,
    FeasibilityError,
    IlapInstance,
    IqapInstance,
    LapInstance,
    PairwiseEdge,
    dual_objective,
    iqap_objective,
    lap_objective,
    require_dual_feasible,
    require_feasible,
)
from qapbound.model import _MAX_COST_SUM, _as_cost, _normalize_costs
from qapbound.oracle import brute_force_optimum
from qapbound.reduction import reduce_ilap_to_lap
from qapbound.wcsp import IqapDualState

from helpers import (
    EXAMPLE1_MATCHING,
    EXAMPLE1_VALUE,
    example1_initial_dual,
    example1_final_dual,
    example1_instance,
    lap_primal_feasible,
    random_ilap,
    edge_layout,
    random_lap,
    seeded,
    serialize_dd,
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

    @pytest.mark.parametrize("make, message", [
        (lambda: LapInstance([[0, 1], [1, 2]], [[0, 0], [0, 0]]),
         "vertex 1: label 2 out of range"),
        (lambda: LapInstance([[0], [DUMMY]], [[0], [0]]),
         "vertex 1: label -1 out of range"),
        (lambda: IlapInstance([[DUMMY, 1]], [[0, 0]], 1),
         "vertex 0: label 1 out of range"),
    ], ids=["lap-above", "lap-dummy", "ilap-above"])
    def test_rejects_label_out_of_range(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_ilap_requires_dummy(self):
        with pytest.raises(ValueError, match="dummy"):
            IlapInstance([[0]], [[1]], 1)

    def test_ilap_rejects_negative_label_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            IlapInstance([[DUMMY]], [[0]], -1)

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
        small = LapInstance([[0]], [[1]])
        big = LapInstance([[0]], [[10**6]])
        assert big.atol > small.atol
        assert small.atol == pytest.approx(2e-9)


_LIMIT = _MAX_COST_SUM
_ABOVE = math.nextafter(_LIMIT, math.inf)


def _lap(*row_maxima):
    """A square instance whose row ``v`` holds ``row_maxima[v]`` and 0."""
    n = len(row_maxima)
    return LapInstance([[0, 1] if n > 1 else [0]] * n,
                       [[m, 0] if n > 1 else [m] for m in row_maxima])


def _ilap(*row_maxima):
    return IlapInstance([[DUMMY]] * len(row_maxima),
                        [[m] for m in row_maxima], 0)


def _iqap(unary_max, edge_max):
    core = IlapInstance([[DUMMY, 0], [DUMMY, 0]],
                        [[0, unary_max], [0, 0]], 1)
    return IqapInstance(core, [(0, 1, {(0, DUMMY): -edge_max})])


class TestCostRange:
    """Each vertex's largest absolute cost plus each edge's may sum to at
    most ``_MAX_COST_SUM``, checked once by each constructor."""

    @pytest.mark.parametrize("build", [
        lambda: _lap(_LIMIT / 2, -_LIMIT / 2),
        # ``num_vertices * max_abs_cost`` is above the limit, the sum is not
        lambda: _lap(_LIMIT / 2, _LIMIT / 4, -_LIMIT / 4),
        lambda: _ilap(-_LIMIT, 0),
        lambda: _iqap(_LIMIT / 2, _LIMIT / 2),
        lambda: _iqap(0, _LIMIT),
    ], ids=["lap", "lap-rows-below-n-times-max", "ilap", "iqap", "iqap-edge"])
    def test_sum_at_the_limit_is_taken(self, build):
        build()

    @pytest.mark.parametrize("build", [
        lambda: _lap(_ABOVE / 2, -_LIMIT / 2),
        lambda: _lap(1.7e308, 1.7e308),
        lambda: _lap(10**400, 1),
        lambda: _ilap(_ABOVE, 0),
        lambda: _ilap(-10**400),
        lambda: _iqap(_LIMIT / 2, _ABOVE / 2),
        lambda: _iqap(0, _ABOVE),
        lambda: _iqap(_LIMIT / 2, 1.7e308),
    ], ids=["lap", "lap-overflowing-sum", "lap-big-int", "ilap",
            "ilap-big-int", "iqap", "iqap-edge", "iqap-overflowing-sum"])
    def test_sum_above_the_limit_is_rejected(self, build):
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is ValueError
        assert str(info.value) == (
            "costs too large: the largest absolute costs of the vertices "
            f"and edges must sum to at most {_LIMIT!r}")


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
        assert lap_objective(inst, [DUMMY, DUMMY]) == 7

    def test_edgeless_iqap_matches_ilap(self):
        rng = seeded(11)
        for _ in range(20):
            core = random_ilap(rng, max_vertices=4, max_labels=4)
            inst = IqapInstance(core, [])
            x = [row[-1] if len(set(row) - {DUMMY}) == len(row) - 1 else DUMMY
                 for row in core.allowed]
            x = [DUMMY] * core.num_vertices
            assert iqap_objective(inst, x) == lap_objective(core, x)

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

    @pytest.mark.parametrize("args, message", [
        ((0, 2, 0, 1), "no edge between vertices 0 and 2"),
        ((0, 1, 1, 1), "label 1 not allowed for vertex 0"),
        ((1, 0, 1, 1), "label 1 not allowed for vertex 0"),
        ((0, 1, 0, 0), "label 0 not allowed for vertex 1"),
    ])
    def test_pairwise_cost_rejects_a_missing_edge_or_label(self, args,
                                                           message):
        core = IlapInstance([[DUMMY, 0], [DUMMY, 1], [DUMMY]],
                            [[0, 0], [0, 0], [0]], 2)
        inst = IqapInstance(core, [(0, 1, {(0, 1): 5})])
        with pytest.raises(ValueError) as info:
            inst.pairwise_cost(*args)
        assert str(info.value) == message


def _raised(check, *args):
    """The type and message of the error ``check(*args)`` raises."""
    with pytest.raises(ValueError) as info:
        check(*args)
    return type(info.value), str(info.value)


class TestFeasibility:
    def test_lap_duplicate(self):
        inst = LapInstance([[0, 1], [0, 1]], [[0, 0], [0, 0]])
        assert _raised(require_feasible, inst, [1, 1]) == (
            FeasibilityError, "label 1 assigned to both vertex 0 and vertex 1")

    def test_two_dummies_fine(self):
        inst = IlapInstance([[DUMMY, 0], [DUMMY, 0]], [[0, 0], [0, 0]], 1)
        require_feasible(inst, [DUMMY, DUMMY])

    def test_disallowed(self):
        inst = LapInstance([[0], [0, 1]], [[0], [0, 0]])
        assert _raised(require_feasible, inst, [1, 0]) == (
            FeasibilityError, "vertex 0 takes label 1, not in its allowed set")

    def test_dimension(self):
        inst = LapInstance([[0]], [[0]])
        assert _raised(require_feasible, inst, [0, 0]) == (
            FeasibilityError, "assignment has 2 entries, expected 1")

    @pytest.mark.parametrize("x", [[DUMMY, 0], [DUMMY, DUMMY], [1, DUMMY]])
    def test_dummy_in_square_assignment_is_disallowed(self, x):
        inst = LapInstance([[0, 1], [0, 1]], [[0, 0], [0, 0]])
        v = x.index(DUMMY)
        assert _raised(require_feasible, inst, x) == (
            FeasibilityError,
            f"vertex {v} takes label -1, not in its allowed set")


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
        require_dual_feasible(inst, dual)
        assert dual_objective(inst, dual) == 24

    def test_example_final_dual(self):
        inst = example1_instance()
        dual = example1_final_dual()
        require_dual_feasible(inst, dual)
        assert dual_objective(inst, dual) == 24

    @pytest.mark.parametrize("dual", [Dual([0] * 4, [0] * 5),
                                      Dual([0] * 5, [0] * 6)],
                             ids=["alpha", "beta"])
    def test_dual_objective_rejects_wrong_dimensions(self, dual):
        with pytest.raises(ValueError) as info:
            dual_objective(example1_instance(), dual)
        assert str(info.value) == "dual dimensions do not match the instance"

    def test_zero_dual_infeasible_on_negative_costs(self):
        inst = LapInstance([[0]], [[-1]])
        assert _raised(require_dual_feasible, inst, Dual([0], [0])) == (
            DualInfeasibleError,
            "dual constraint violated at vertex 0, label 0")

    def test_dimension_mismatch_raises(self):
        inst = example1_instance()
        assert _raised(require_dual_feasible, inst, Dual([0], [0])) == (
            ValueError, "alpha length does not match the vertex count")

    def test_ilap_beta_sign(self):
        inst = IlapInstance([[DUMMY, 0]], [[0, 5]], 1)
        assert _raised(require_dual_feasible, inst, Dual([0], [1.0])) == (
            DualInfeasibleError, "beta[0] = 1.0 exceeds zero")

    @pytest.mark.parametrize("inst, dual, message", [
        (DUAL_LAP, Dual([0, 0], [0, 0, 0]),
         "beta length does not match the label count"),
        (DUAL_LAP, Dual([0, 0], [0]),
         "beta length does not match the label count"),
        (DUAL_LAP, Dual([0], [0, 0]),
         "alpha length does not match the vertex count"),
        (DUAL_LAP, Dual([0], [0]),
         "alpha length does not match the vertex count"),
        (DUAL_LAP, Dual([0, 0], [0]),
         "beta length does not match the label count"),
        (DUAL_ILAP, Dual([0, 0], [0]),
         "beta length does not match the non-dummy label count"),
        (DUAL_ILAP, Dual([0, 0, 0], [0, 0]),
         "alpha length does not match the vertex count"),
        (DUAL_ILAP, Dual([0, 0], [5, 5, 5]),
         "beta length does not match the non-dummy label count"),
    ])
    def test_malformed_dual_messages(self, inst, dual, message):
        assert _raised(require_dual_feasible, inst, dual) == (
            ValueError, message)

    @pytest.mark.parametrize("inst, dual, expected", [
        (DUAL_LAP, Dual([0, 0], [0, 0]), None),
        (DUAL_LAP, Dual([0, 2], [0, 0]),
         (DualInfeasibleError,
          "dual constraint violated at vertex 1, label 0")),
        (DUAL_ILAP, Dual([0, 0], [0, 0]), None),
        (DUAL_ILAP, Dual([0, 0], [-1, 0.5]),
         (DualInfeasibleError, "beta[1] = 0.5 exceeds zero")),
        # the sign rule is checked before any constraint
        (DUAL_ILAP, Dual([9, 0], [0, 0.5]),
         (DualInfeasibleError, "beta[1] = 0.5 exceeds zero")),
        (DUAL_ILAP, Dual([2, 0], [0, 0]),
         (DualInfeasibleError,
          "dual constraint violated at vertex 0, label 0")),
        (DUAL_ILAP, Dual([0, 4], [0, 0]),
         (DualInfeasibleError,
          "dual constraint violated at vertex 1, label -1")),
        (DUAL_ILAP, Dual([4, 0], [0, 0]),
         (DualInfeasibleError,
          "dual constraint violated at vertex 0, label -1")),
        # ``model._label_potentials``: each label reads its own ``beta``
        # (the labels' slacks are 0 only at -2), and the dummy reads 0,
        # not ``beta[-1]`` (which would give it a slack of 0, not -1)
        (DUAL_ILAP, Dual([3, 3], [-2, -2]), None),
        (DUAL_ILAP, Dual([4, 0], [-3, -1]),
         (DualInfeasibleError,
          "dual constraint violated at vertex 0, label -1")),
    ])
    def test_violation_messages(self, inst, dual, expected):
        if expected is None:
            require_dual_feasible(inst, dual)
        else:
            assert _raised(require_dual_feasible, inst, dual) == expected

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
            dual = Dual(alpha, beta)
            require_dual_feasible(inst, dual)
            assert dual_objective(inst, dual) <= value + inst.atol


CONTRACT_IQAP = IqapInstance(DUAL_ILAP, [(0, 1, {(0, 1): -7.5})])


class TestCheckContract:
    """The two checks raise at the first violation, each branch with its
    own exception type and message, and judge every instance in one
    window."""

    @pytest.mark.parametrize("check, inst, arg, expected", [
        (require_feasible, DUAL_LAP, [0],
         (FeasibilityError, "assignment has 1 entries, expected 2")),
        (require_feasible, DUAL_ILAP, [DUMMY, 0],
         (FeasibilityError, "vertex 1 takes label 0, not in its allowed set")),
        (require_feasible, CONTRACT_IQAP, [1, 1],
         (FeasibilityError, "label 1 assigned to both vertex 0 and vertex 1")),
        (require_dual_feasible, DUAL_ILAP, Dual([0], [0, 0]),
         (ValueError, "alpha length does not match the vertex count")),
        (require_dual_feasible, DUAL_LAP, Dual([0, 0], [0, 0, 0]),
         (ValueError, "beta length does not match the label count")),
        (require_dual_feasible, DUAL_ILAP, Dual([0, 0], [0]),
         (ValueError, "beta length does not match the non-dummy label count")),
        (require_dual_feasible, CONTRACT_IQAP, Dual([0, 0], [0, 1e-3]),
         (DualInfeasibleError, "beta[1] = 0.001 exceeds zero")),
        (require_dual_feasible, CONTRACT_IQAP, Dual([0, 1.5], [0, 0]),
         (DualInfeasibleError,
          "dual constraint violated at vertex 1, label 1")),
    ], ids=["dimension", "disallowed", "duplicate", "alpha-length",
            "lap-beta-length", "ilap-beta-length", "positive-beta",
            "violated-constraint"])
    def test_every_branch_raises_its_error(self, check, inst, arg, expected):
        assert _raised(check, inst, arg) == expected

    def test_one_window_for_every_instance(self):
        lap = LapInstance([[0, 1], [0, 1]], [[1.5, -4.25], [3, 0]])
        ilap = IlapInstance([[DUMMY, 0], [DUMMY, 0, 1]],
                            [[0, 2.5], [1, -6, 0.125]], 2)
        iqap = IqapInstance(ilap, [(0, 1, {(0, 1): -9.75})])
        for inst in (lap, ilap, ilap.with_costs([[0, 11], [1, 2, 3.5]]),
                     reduce_ilap_to_lap(ilap), iqap):
            assert repr(inst.atol) == repr(
                DEFAULT_TOLERANCE * (1 + inst.max_abs_cost))
        assert iqap.max_abs_cost == 9.75 > ilap.max_abs_cost
        assert not hasattr(lap, "tolerance")
        assert not hasattr(iqap, "tolerance")


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
            repr(inst.atol))


class TestWithCosts:
    """``with_costs`` normalizes exactly like the constructor and shares
    the structure."""

    def test_matches_constructor(self):
        rng = seeded(307)
        for trial in range(200):
            unary = random_ilap(rng)
            rows = [[_cost_kinds(rng) for _ in labs] for labs in unary.allowed]
            new = unary.with_costs(rows)
            ref = IlapInstance(unary.allowed, rows, unary.num_labels)
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
            new = lap.with_costs(rows)
            ref = LapInstance(lap.allowed, rows)
            assert _describe(new) == _describe(ref)
            assert new.allowed is lap.allowed

    def test_scale_and_tolerance_match_constructor(self):
        # ``_describe`` covers the tolerance window ``atol``.
        rng = seeded(313)
        for _ in range(50):
            unary = random_ilap(rng)
            unary = unary.with_costs(
                [[_cost_kinds(rng) for _ in labs] for labs in unary.allowed])
            scaled = IlapInstance(
                unary.allowed, [[2 * c for c in row] for row in unary.costs],
                unary.num_labels)
            assert _describe(unary.scale_costs(2)) == _describe(scaled)

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


def _per_cell_rule(costs):
    """``_normalize_costs`` without its row screen: ``_as_cost`` on every
    cell, then the largest magnitude and the all-int flag."""
    rows = []
    max_abs = 0
    integral = True
    for v, cs in enumerate(costs):
        row = tuple([_as_cost(c, f"vertex {v}") for c in cs])
        rows.append(row)
        row_max = max(map(abs, row))
        if row_max > max_abs:
            max_abs = row_max
        if integral:
            integral = all(isinstance(c, int) for c in row)
    return tuple(rows), max_abs, integral


def _outcome(normalize, costs):
    """``repr`` of what ``normalize(costs)`` returns, or the type and
    message of what it raises."""
    try:
        return "returns", repr(normalize(costs))
    except (TypeError, ValueError) as exc:
        return "raises", type(exc), str(exc)


class _Int(int):
    pass


class _Float(float):
    pass


_INF = float("inf")
_NAN = float("nan")

SCREEN_ROWS = [
    [1, 2, 3], [2**70, -2**70, 0],                    # ints: kept
    [0.5, -2.25, 1e-300], [5e-324, -0.1],             # clean floats: kept
    [1.0, 2.5], [3.0, 4.0], [2.0**53], [2.0**53 + 2, 0.5],
    [-(2.0**60), 0.5],                                # integral floats
    [_INF, 0.5], [0.5, -_INF], [_NAN, 0.5], [0.5, _NAN], [_INF, -_INF],
    [-0.0, 0.5], [0.0], [-0.0],                       # zeros become int 0
    [True, 1], [1, False], [True], [0.5, True],       # booleans
    [1, 2.5], [2.5, 1], [1, 2.0], [Fraction(1, 2), 0.5],  # mixed rows
    [_Int(3), 4], [_Float(0.5), 0.25], [_Float(2.0)],     # subclasses
    [1e308, 1e308], [1e308, 1e308, 0.5], [-1e308, -1e308, 0.25],
    [1.7e308, 0.5, 1.7e308],                          # sums overflow
]


class TestNormalizeScreen:
    """``_normalize_costs`` screens each row in C; whatever the screen
    passes or hands to the per-cell rule, the result is that of the
    per-cell rule, and so are the errors."""

    @staticmethod
    def normalize(costs):
        return _normalize_costs(costs, [range(len(row)) for row in costs])

    @pytest.mark.parametrize("row", SCREEN_ROWS, ids=repr)
    def test_row_agrees_with_the_per_cell_rule(self, row):
        for costs in ([row], [[7, 0.5], row], [row, [1.5]]):
            assert (_outcome(self.normalize, costs)
                    == _outcome(_per_cell_rule, costs))

    def test_random_rows_agree_with_the_per_cell_rule(self):
        rng = seeded(331)
        pool = [row[0] for row in SCREEN_ROWS] + [-3, 0.75, 2**53 + 1]
        kinds = set()
        for _ in range(2000):
            costs = [rng.choices(pool, k=rng.randint(1, 4))
                     for _ in range(rng.randint(1, 3))]
            outcome = _outcome(self.normalize, costs)
            assert outcome == _outcome(_per_cell_rule, costs)
            kinds.add(outcome[0])
        assert kinds == {"returns", "raises"}

    @pytest.mark.parametrize("row", [(1, 2, 3), (0.5, -2.25), (5e-324,)])
    def test_int_and_clean_float_rows_are_kept_as_they_are(self, row):
        rows, _, integral = self.normalize([row])
        assert rows[0] is row
        assert integral is (type(row[0]) is int)


class TestEdgeIntegrality:
    def test_one_float_cell_makes_the_instance_non_integral(self):
        core = IlapInstance([[DUMMY, 0], [DUMMY, 1]], [[0, 1], [0, 2]], 2)
        ints = IqapInstance(core, [(0, 1, {(0, 1): 3, (DUMMY, 1): 4.0})])
        assert ints.edges[0].integral and ints.integral
        mixed = IqapInstance(core, [(0, 1, {(0, 1): 3, (DUMMY, 1): 0.5})])
        assert not mixed.edges[0].integral and not mixed.integral

    def test_float_unary_makes_the_instance_non_integral(self):
        core = IlapInstance([[DUMMY, 0], [DUMMY, 1]], [[0, 1.5], [0, 2]], 2)
        inst = IqapInstance(core, [(0, 1, {(0, 1): 3})])
        assert inst.edges[0].integral and not inst.integral


class TestPairwiseEdge:
    """``PairwiseEdge``'s checks and the cells it stores."""

    core = IlapInstance([[DUMMY, 0, 1], [DUMMY, 1, 2], [DUMMY, 0]],
                        [[0, 1, 2], [0, 3, 4], [0, 5]], 3)

    def test_loop(self):
        with pytest.raises(ValueError) as info:
            PairwiseEdge(1, 1, {}, self.core)
        assert str(info.value) == "pairwise edge (1, 1) is a loop"

    @pytest.mark.parametrize("u, v, where", [(0, 3, "(0, 3)"), (-1, 0, "(-1, 0)"),
                                             (3, 0, "(0, 3)")])
    def test_unknown_vertex(self, u, v, where):
        with pytest.raises(ValueError) as info:
            PairwiseEdge(u, v, {}, self.core)
        assert str(info.value) == f"edge {where} references unknown vertex"

    @pytest.mark.parametrize("cell, message", [
        ((2, 1), "edge (0, 1) cell (2, 1): label 2 not allowed for vertex 0"),
        ((0, 0), "edge (0, 1) cell (0, 0): label 0 not allowed for vertex 1"),
    ])
    def test_label_not_allowed(self, cell, message):
        with pytest.raises(ValueError) as info:
            PairwiseEdge(0, 1, {(DUMMY, 1): 1, cell: 1}, self.core)
        assert str(info.value) == message

    @pytest.mark.parametrize("cost, error, message", [
        (True, TypeError, "edge (0, 1) cell (0, 1): boolean is not a valid cost"),
        (float("nan"), ValueError,
         "edge (0, 1) cell (0, 1): cost must be finite, got nan"),
    ])
    def test_bad_cost(self, cost, error, message):
        with pytest.raises(error) as info:
            PairwiseEdge(0, 1, {(0, 1): cost}, self.core)
        assert str(info.value) == message

    def test_integral_float_is_stored_as_an_int(self):
        edge = PairwiseEdge(0, 1, {(0, 1): 3.0, (1, 2): -2}, self.core)
        assert type(edge.cells[0, 1]) is int and edge.cells == {(0, 1): 3, (1, 2): -2}
        assert edge.rows_u[1] == (False, (1,), ((1, 3),))
        assert edge.integral and edge.max_abs_cost == 3

    def test_fractional_cost_makes_the_edge_non_integral(self):
        edge = PairwiseEdge(0, 1, {(0, 1): 2.5, (1, 2): -3}, self.core)
        assert edge.cells == {(0, 1): 2.5, (1, 2): -3}
        assert not edge.integral and edge.max_abs_cost == 3

    @pytest.mark.parametrize("cells, nonnegative", [
        ({}, True),
        ({(0, 1): 0, (1, 2): 2.5, (DUMMY, 1): 0.0}, True),
        ({(0, 1): 3, (1, 2): -0.5}, False),
        ({(DUMMY, 2): -1}, False),
    ])
    def test_nonnegative_flags_a_negative_cell(self, cells, nonnegative):
        assert PairwiseEdge(0, 1, cells, self.core).nonnegative is nonnegative

    def test_given_dict_is_read_once_and_normalized(self):
        given = {(0, 1): 3, (1, 2): 2.5}
        edge = PairwiseEdge(0, 1, given, self.core)
        assert edge.cells == given and edge.cells is not given
        given[0, 1] = 0
        del given[1, 2]
        assert edge.cells == {(0, 1): 3, (1, 2): 2.5}
        given = {(0, 1): 3.0, (1, 2): -1}
        edge = PairwiseEdge(0, 1, given, self.core)
        assert edge.cells == {(0, 1): 3, (1, 2): -1}
        assert type(edge.cells[0, 1]) is int and type(given[0, 1]) is float

    def test_swapped_endpoints_give_the_same_edge(self):
        cells = {(0, 1): 3, (1, 2): 2.5, (DUMMY, 1): -4}
        edge = PairwiseEdge(0, 1, cells, self.core)
        swapped = PairwiseEdge(1, 0, {(l, k): c for (k, l), c in cells.items()},
                               self.core)
        assert (swapped.u, swapped.v) == (0, 1)
        for name in PairwiseEdge.__slots__[2:]:
            assert getattr(swapped, name) == getattr(edge, name), name
        assert list(swapped.cells.items()) == list(edge.cells.items())


class TestEdgeOwnsCells:
    """An edge reads its cell map once; ``cells`` is derived from its rows."""

    def test_changing_the_given_dict_changes_nothing(self):
        # Any two non-dummy labels cost 10 on the edge, a dummy 100: the
        # optimum is 10.  Zeroing two cells of the given dict afterwards
        # must not make it 0 to any reader.
        core = IlapInstance([[DUMMY, 0, 1]] * 2, [[100, 0, 0]] * 2, 2)
        given = {(k, l): 10 for k in (0, 1) for l in (0, 1)}
        inst = IqapInstance(core, [(0, 1, given)])
        text = serialize_dd(inst)
        given[0, 1] = given[1, 0] = 0
        report = run(inst, SolverConfig(method="hung-ri", max_iterations=10,
                                        bound_improvement_epsilon=0))
        assert report.final_bound == 10.0
        assert brute_force_optimum(inst)[0] == 10
        assert iqap_objective(inst, [0, 1]) == 10
        assert serialize_dd(inst) == text

    @pytest.mark.parametrize("seed", range(8))
    def test_cells_round_trip_the_normalized_input(self, seed):
        rng = seeded(seed)
        labels = [[DUMMY, *rng.sample(range(6), rng.randint(1, 5))]
                  for _ in range(2)]
        core = IlapInstance(labels, [[0] * len(labs) for labs in labels], 6)
        pool = [-3, 0, 7, 2**60, 2.5, -0.25, 4.0, -2.0**60, Fraction(1, 3),
                Fraction(-6, 2)]
        cells = {(k, l): rng.choice(pool) for k in labels[0]
                 for l in labels[1] if rng.random() < 0.6}
        expected = {key: _as_cost(c, "cell") for key, c in cells.items()}
        swapped = {(l, k): c for (k, l), c in cells.items()}
        for edge in (PairwiseEdge(0, 1, cells, core),
                     PairwiseEdge(1, 0, swapped, core),
                     PairwiseEdge(0, 1, MappingProxyType(cells), core)):
            got = edge.cells
            assert got == expected
            assert [type(got[key]) for key in expected] == list(
                map(type, expected.values()))
            assert edge.cells is not got
            rows = edge.rows_u
            got.clear()
            assert edge.rows_u is rows and edge.cells == expected
            assert edge.max_abs_cost == max(map(abs, expected.values()),
                                            default=0)
        inst = IqapInstance(core, [(1, 0, swapped)])
        for k in labels[0]:
            for l in labels[1]:
                cost = expected.get((k, l), 0)
                assert inst.pairwise_cost(0, 1, k, l) == cost
                assert inst.pairwise_cost(1, 0, l, k) == cost
                assert type(inst.pairwise_cost(1, 0, l, k)) is type(cost)


class TestSharedCells:
    """The edges of one instance share their equal int cells."""

    labels = [DUMMY, 0, 1]
    core = IlapInstance([labels] * 3, [[0, -1, 2], [0, 1, -3], [0, 2, 1]], 2)

    # Facilities on a 2 x 3 grid with repeated flows; both directions of a
    # pair add up to each cell, so many cells of different edges are equal.
    flow = [[0, 1, 2, 0, 1, 2],
            [1, 0, 1, 2, 0, 1],
            [2, 1, 0, 1, 2, 0],
            [0, 2, 1, 0, 1, 2],
            [1, 0, 2, 1, 0, 1],
            [2, 1, 0, 2, 1, 0]]
    dist = [[abs(a // 3 - b // 3) + abs(a % 3 - b % 3) for b in range(6)]
            for a in range(6)]

    @staticmethod
    def row_cells(inst, edge):
        """Each row cell of ``edge`` with the ``cells`` key it stores."""
        labs_u = inst.unary.allowed[edge.u]
        labs_v = inst.unary.allowed[edge.v]
        for ki, row in enumerate(edge.rows_u):
            for cell in row[2] if row else ():
                yield (labs_u[ki], labs_v[cell[0]]), cell
        for li, row in enumerate(edge.rows_v):
            for cell in row[2] if row else ():
                yield (labs_u[cell[0]], labs_v[li]), cell

    @classmethod
    def all_cells(cls, inst):
        return [cell for edge in inst.edges
                for _, cell in cls.row_cells(inst, edge)]

    @pytest.mark.parametrize("int_first", [True, False])
    def test_an_equal_float_cell_keeps_its_type(self, int_first):
        # Edge (0, 1) stores the int 2**60 and edge (1, 2) the equal float
        # 2.0**60 in the same row and column; every other cell of (0, 1)
        # is larger, so the int is that edge's cheapest cell.
        ints = {(k, l): 2**60 + 5 + 3 * k + l
                for k in self.labels for l in self.labels}
        ints[0, 1] = 2**60
        floats = {(0, 1): 2.0**60, (1, 1): 3, (0, DUMMY): -2}
        edges = [(0, 1, ints), (1, 2, floats)]
        inst = IqapInstance(self.core, edges if int_first else edges[::-1])
        for edge in inst.edges:
            for key, (_, c) in self.row_cells(inst, edge):
                assert type(c) is type(edge.cells[key]), (edge.u, edge.v, key)
        int_edge = inst.edge_between(0, 1)
        assert int_edge.integral
        assert all(type(c) is int for _, (_, c) in self.row_cells(inst, int_edge))
        # The exact zero-state bound is 2**60 + (-2) + (-1 - 3 + 0), and
        # 2**60 - 128 is the largest float not above it.  A float cell in
        # the int edge's rows would sum it in floats and report 2**60.
        # Three ``hung`` iterations leave the certified bound there.
        assert dual_bound(inst, IqapDualState(inst)) == 2**60 - 128
        report = run(inst, SolverConfig(method="hung", max_iterations=3,
                                        bound_improvement_epsilon=0))
        assert report.final_bound == 2**60 - 128

    def test_equal_int_cells_are_one_object(self):
        inst = convert_qaplib_to_iqap(self.flow, self.dist, augment=True)
        cells = self.all_cells(inst)
        assert all(type(c) is int for _, c in cells)
        distinct = set(cells)
        assert len(distinct) < len(cells)
        assert len({id(cell) for cell in cells}) == len(distinct)

    def test_float_cells_are_not_shared(self):
        # Edges of one flow pair share whole row tables, so one edge per
        # table is compared: edges of different cell maps share no float
        # cell, and no float cell goes through the shared cell table.
        flow = [[f / 4 for f in row] for row in self.flow]
        inst = convert_qaplib_to_iqap(flow, self.dist, augment=True)
        built = list({id(edge.rows_u): edge for edge in inst.edges}.values())
        assert 1 < len(built) < len(inst.edges)
        cells = [cell for edge in built for _, cell in self.row_cells(inst, edge)]
        floats = [cell for cell in cells if type(cell[1]) is float]
        ints = [cell for cell in cells if type(cell[1]) is int]
        assert len(set(floats)) < len(floats)
        assert len({id(cell) for cell in floats}) == len(floats)
        assert len(set(ints)) < len(ints)
        assert len({id(cell) for cell in ints}) == len(set(ints))


class TestSharedEdgeTables:
    """Edges given one cell map share the row tables built from it."""

    # Vertices 0-3 allow the same labels; vertex 4 allows fewer, so a row
    # that stores two cells is sparse against it and dense against 0-3.
    core = IlapInstance([[DUMMY, 0, 1, 2]] * 4 + [[DUMMY, 0, 1]],
                        [[0, 1, 2, 3]] * 4 + [[0, 4, 5]], 3)
    given = {(0, 0): 4, (0, 1): -2.5, (1, DUMMY): 7, (DUMMY, 1): 2**60,
             (1, 1): 3.0}
    # Endpoints in given order.  Each group shares one orientation and
    # the allowed rows of its endpoints, so it is built once.
    groups = [[(0, 1), (2, 3)], [(3, 1), (2, 0)], [(0, 4), (1, 4)], [(4, 2)]]

    @pytest.mark.parametrize("proxy", [False, True])
    def test_a_shared_map_builds_what_copies_build(self, proxy):
        cells = MappingProxyType(self.given) if proxy else self.given
        ends = [pair for group in self.groups for pair in group]
        inst = IqapInstance(self.core, [(u, v, cells) for u, v in ends])
        copies = IqapInstance(self.core,
                              [(u, v, dict(self.given)) for u, v in ends])
        assert edge_layout(inst) == edge_layout(copies)
        assert [(e.max_abs_cost, e.nonnegative) for e in inst.edges] == [
            (e.max_abs_cost, e.nonnegative) for e in copies.edges]
        assert (inst.integral, inst.max_abs_cost) == (
            copies.integral, copies.max_abs_cost)
        tables = []
        for group in self.groups:
            edges = [inst.edge_between(u, v) for u, v in group]
            assert all(e.rows_u is edges[0].rows_u for e in edges)
            assert all(e.rows_v is edges[0].rows_v for e in edges)
            tables.append(edges[0].rows_u)
        assert len({id(rows) for rows in tables}) == len(self.groups)
        allowed = self.core.allowed
        for e in inst.edges:
            assert e._labels[0] is allowed[e.u] and e._labels[1] is allowed[e.v]
            for k in allowed[e.u]:
                for l in allowed[e.v]:
                    assert inst.pairwise_cost(e.v, e.u, l, k) == (
                        copies.pairwise_cost(e.u, e.v, k, l))

    def test_a_map_given_again_is_read_only_at_its_first_edge(self):
        cells = {(0, 1): 3}

        def edges():
            yield 0, 1, cells
            cells[0, 1] = 5
            yield 2, 3, cells

        inst = IqapInstance(self.core, edges())
        assert [e.cells for e in inst.edges] == [{(0, 1): 3}] * 2

    def test_new_maps_are_never_taken_for_freed_ones(self):
        # Each map is freed by the caller once it is built; the memo holds
        # it, so a later map cannot reuse its ``id`` and its tables.
        edges = ((u, u + 1, {(0, 1): u + 1}) for u in range(4))
        inst = IqapInstance(self.core, edges)
        assert [e.cells for e in inst.edges] == [{(0, 1): u + 1} for u in range(4)]

    @pytest.mark.parametrize("second, message", [
        ((1, 1), "pairwise edge (1, 1) is a loop"),
        ((2, 5), "edge (2, 5) references unknown vertex"),
        ((-1, 2), "edge (-1, 2) references unknown vertex"),
        ((1, 0), "duplicate edge (0, 1)"),
        ((0, 4), "edge (0, 4) cell (0, 2): label 2 not allowed for vertex 4"),
    ])
    def test_every_edge_of_a_shared_map_is_checked(self, second, message):
        cells = {(0, 2): 1}
        edges = [(0, 1, cells), (*second, cells)]
        with pytest.raises(ValueError) as info:
            IqapInstance(self.core, edges)
        assert str(info.value) == message
