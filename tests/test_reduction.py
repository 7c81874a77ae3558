import math
import struct
from fractions import Fraction

import pytest

from qapbound.lap import solve_lap
from qapbound.model import (
    DUMMY,
    DualInfeasibleError,
    FeasibilityError,
    IlapDual,
    IlapInstance,
    LapDual,
    LapInstance,
    _as_cost,
    _half_cost,
    dual_objective,
    lap_objective,
    require_dual_feasible,
)
from qapbound.oracle import brute_force_optimum, check_dual_relative_interior
from qapbound.reduction import (
    decompose_assignment,
    lift_assignment,
    lift_dual,
    reduce_ilap_to_lap,
    solve_ilap,
)
from qapbound.relative_interior import shift_to_relative_interior

from helpers import (
    assert_exact_dual_feasible,
    check_primal_relative_interior,
    lap_primal_feasible,
    map_dual,
    map_primal,
    random_ilap,
    random_reduced_matching,
    seeded,
)


def example2_instance(rng=None):
    """Vertices a..d, labels A..E plus the dummy; costs arbitrary."""
    rng = rng or seeded(0)
    allowed = [
        [DUMMY, 0, 1],  # a: {A, B, #}
        [DUMMY, 0, 1],  # b: {A, B, #}
        [DUMMY, 1, 2],  # c: {B, C, #}
        [DUMMY, 3, 4],  # d: {D, E, #}
    ]
    costs = [[rng.randint(-4, 6) for _ in labs] for labs in allowed]
    return IlapInstance(allowed, costs, 5)


def indicator(x, reduced):
    return {node: {lab: 1} for node, lab in enumerate(x)}


class TestReduce:
    def test_example2_structure(self):
        inst = example2_instance()
        lap = reduce_ilap_to_lap(inst)
        assert lap.num_vertices == 4 + 5
        # vertex a (node 0) may take itself or labels A, B (nodes 4, 5)
        assert lap.allowed[0] == (0, 4, 5)
        # label B (node 5) may take vertices a, b, c or itself
        assert lap.allowed[5] == (0, 1, 2, 5)
        # label D (node 7) may take vertex d or itself
        assert lap.allowed[7] == (3, 7)

    def test_costs_single_vertex(self):
        inst = IlapInstance([[DUMMY, 0]], [[1, 4]], 1)
        lap = reduce_ilap_to_lap(inst)
        assert lap.allowed == ((0, 1), (0, 1))
        # self-cost is the dummy cost, cross costs are halved, label self 0
        assert lap.costs == ((1, 2), (2, 0))

    def test_all_dummy_instance_reduces_to_self_loops(self):
        inst = IlapInstance([[DUMMY]] * 3, [[2]] * 3, 2)
        lap = reduce_ilap_to_lap(inst)
        assert lap.allowed == ((0,), (1,), (2,), (3,), (4,))
        assert solve_lap(lap)[0] == [0, 1, 2, 3, 4]

    def test_size_linear_in_pairs(self):
        rng = seeded(5)
        for _ in range(20):
            inst = random_ilap(rng)
            lap = reduce_ilap_to_lap(inst)
            pairs = sum(len(row) for row in inst.allowed)
            reduced_pairs = sum(len(row) for row in lap.allowed)
            # each non-dummy pair appears twice, each node adds one self edge
            non_dummy = pairs - inst.num_vertices
            assert reduced_pairs == 2 * non_dummy + lap.num_vertices

    def test_odd_costs_halved_exactly(self):
        inst = IlapInstance([[DUMMY, 0]], [[0, 3]], 1)
        lap = reduce_ilap_to_lap(inst)
        assert lap.costs[0] == (0, 1.5)


class TestLiftAndDecompose:
    def test_example2_lift(self):
        inst = example2_instance()
        x = [1, 0, DUMMY, DUMMY]  # a->B, b->A, c,d unassigned
        xp = lift_assignment(inst, x)
        assert xp == [5, 4, 2, 3, 1, 0, 6, 7, 8]
        reduced = reduce_ilap_to_lap(inst)
        assert lap_objective(reduced, xp) == lap_objective(inst, x)
        # involution
        assert all(xp[xp[node]] == node for node in range(len(xp)))

    def test_all_dummy_lifts_to_identity(self):
        inst = example2_instance()
        xp = lift_assignment(inst, [DUMMY] * 4)
        assert xp == list(range(9))

    def test_lift_then_decompose_round_trip(self):
        rng = seeded(9)
        for _ in range(30):
            inst = random_ilap(rng, max_vertices=5, max_labels=5)
            x = _random_feasible(rng, inst)
            x1, x2 = decompose_assignment(inst, lift_assignment(inst, x))
            assert x1 == x and x2 == x

    def test_example2_asymmetric_decomposition(self):
        inst = example2_instance()
        xp = [5, 4, 2, 3, 0, 1, 6, 7, 8]  # label side swapped vs the lift
        x1, x2 = decompose_assignment(inst, xp)
        assert x1 == [1, 0, DUMMY, DUMMY]
        assert x2 == [0, 1, DUMMY, DUMMY]

    def test_cost_split_identity(self):
        rng = seeded(21)
        for _ in range(40):
            inst = random_ilap(rng, max_vertices=5, max_labels=5)
            reduced = reduce_ilap_to_lap(inst)
            xp = random_reduced_matching(rng, inst, reduced)
            x1, x2 = decompose_assignment(inst, xp)
            theta_p = lap_objective(reduced, xp)
            theta_1 = lap_objective(inst, x1)
            theta_2 = lap_objective(inst, x2)
            assert 2 * Fraction(theta_p) == theta_1 + theta_2
            assert min(theta_1, theta_2) <= theta_p

    def test_decompose_rejects_infeasible(self):
        inst = example2_instance()
        with pytest.raises(FeasibilityError):
            decompose_assignment(inst, [0] * 9)

    def test_lift_rejects_infeasible(self):
        inst = example2_instance()
        with pytest.raises(FeasibilityError):
            lift_assignment(inst, [0, 0, DUMMY, DUMMY])


class TestMapDual:
    def test_zero_cost_zero_dual(self):
        inst = IlapInstance([[DUMMY, 0], [DUMMY, 0]], [[0, 0], [0, 0]], 1)
        reduced = reduce_ilap_to_lap(inst)
        dual = map_dual(inst, LapDual([0] * 3, [0] * 3))
        assert dual.alpha == [0, 0] and dual.beta == [0]
        assert dual_objective(inst, dual) == 0

    def test_rejects_infeasible_dual(self):
        inst = example2_instance()
        with pytest.raises(DualInfeasibleError):
            map_dual(inst, LapDual([100] * 9, [0] * 9))

    def test_optimal_duals_map_to_optimal(self):
        rng = seeded(33)
        for _ in range(60):
            inst = random_ilap(rng, max_vertices=5, max_labels=5)
            value, _ = brute_force_optimum(inst)
            reduced = reduce_ilap_to_lap(inst)
            xp, dual_p = solve_lap(reduced)
            dual = map_dual(inst, dual_p)
            require_dual_feasible(inst, dual)
            assert max(dual.beta, default=0) <= inst.atol
            assert abs(dual_objective(inst, dual)
                       - dual_objective(reduced, dual_p)) <= inst.atol
            assert abs(dual_objective(inst, dual) - value) <= inst.atol

    def test_relative_interior_preserved(self):
        rng = seeded(34)
        for _ in range(40):
            inst = random_ilap(rng, max_vertices=4, max_labels=4)
            reduced = reduce_ilap_to_lap(inst)
            xp, dual_p = solve_lap(reduced)
            shifted = shift_to_relative_interior(reduced, dual_p, xp)
            dual = map_dual(inst, shifted)
            assert check_dual_relative_interior(inst, dual)


def _costs_of_kind(rng, inst, kind):
    """``inst`` with int, half-integer or dyadic (multiples of 2**-10) costs."""
    if kind == "int":
        return inst
    if kind == "half":
        return inst.with_costs([[c / 2 for c in row] for row in inst.costs])
    return inst.with_costs([[c + rng.randint(-512, 512) / 1024 for c in row]
                            for row in inst.costs])


class TestLiftDual:
    @pytest.mark.parametrize("kind", ["int", "half", "dyadic"])
    def test_inverse_of_map_dual_on_solved_duals(self, kind):
        rng = seeded({"int": 51, "half": 52, "dyadic": 53}[kind])
        for _ in range(60):
            inst = _costs_of_kind(rng, random_ilap(rng), kind)
            nv = inst.num_vertices
            reduced = reduce_ilap_to_lap(inst)
            # halving is exact on these costs, so feasibility holds exactly
            for relative_interior in (False, True):
                _, dual = solve_ilap(inst, relative_interior=relative_interior)
                lifted = lift_dual(inst, dual)
                assert_exact_dual_feasible(reduced, lifted)
                folded = map_dual(inst, lifted)
                assert (folded.alpha, folded.beta) == (dual.alpha, dual.beta)
                assert (sum(map(Fraction, (*lifted.alpha, *lifted.beta)))
                        == sum(map(Fraction, (*dual.alpha, *dual.beta))))
                for v, a in enumerate(dual.alpha):
                    assert 2 * lifted.alpha[v] == 2 * lifted.beta[v] == a
                for lab, b in enumerate(dual.beta):
                    node = nv + lab
                    assert 2 * lifted.alpha[node] == 2 * lifted.beta[node] == b

    def test_relative_interior_membership_carries_over(self):
        rng = seeded(54)
        outside = 0
        for _ in range(40):
            inst = random_ilap(rng, max_vertices=4, max_labels=4)
            reduced = reduce_ilap_to_lap(inst)
            for relative_interior in (False, True):
                _, dual = solve_ilap(inst, relative_interior=relative_interior)
                expected = check_dual_relative_interior(inst, dual)
                assert check_dual_relative_interior(
                    reduced, lift_dual(inst, dual)) == expected
                outside += not expected
        assert outside > 0  # unshifted optima are sometimes not interior

    def test_rejects_wrong_dimensions(self):
        inst = example2_instance()
        with pytest.raises(ValueError, match="dimensions"):
            lift_dual(inst, IlapDual([0] * 4, [0] * 4))


class TestMapPrimal:
    def test_lifted_indicator_maps_to_indicator(self):
        rng = seeded(41)
        inst = example2_instance(rng)
        x = [1, 0, DUMMY, DUMMY]
        xp = lift_assignment(inst, x)
        mu = map_primal(inst, indicator(xp, None))
        expected = {v: {lab: (1 if lab == x[v] else 0)
                        for lab in inst.allowed[v]}
                    for v in range(4)}
        assert mu == expected

    def test_asymmetric_indicator_maps_to_half_mix(self):
        inst = example2_instance()
        xp = [5, 4, 2, 3, 0, 1, 6, 7, 8]
        mu = map_primal(inst, indicator(xp, None))
        # vertex a: upper part says B, lower part says A
        assert mu[0][0] == 0.5 and mu[0][1] == 0.5 and mu[0][DUMMY] == 0
        assert mu[2] == {DUMMY: 1, 1: 0, 2: 0}
        # exactly the half/half mixture of the two decompositions
        x1, x2 = decompose_assignment(inst, xp)
        expected = {
            v: {lab: ((lab == x1[v]) + (lab == x2[v])) / 2
                for lab in inst.allowed[v]}
            for v in range(4)}
        assert mu == expected

    def test_rejects_infeasible(self):
        inst = example2_instance()
        with pytest.raises(FeasibilityError):
            map_primal(inst, {0: {0: 2.0}})

    def test_rejects_rows_outside_the_reduced_nodes(self):
        inst = example2_instance()
        xp = lift_assignment(inst, [1, 0, DUMMY, DUMMY])
        for key in (len(xp), -1):
            with pytest.raises(FeasibilityError, match=f"row for {key},"):
                map_primal(inst, {**indicator(xp, None), key: {0: 5.0}})

    def test_uniform_mixture_is_interior(self):
        rng = seeded(47)
        done = 0
        while done < 25:
            inst = random_ilap(rng, max_vertices=4, max_labels=4, allow=0.45)
            reduced = reduce_ilap_to_lap(inst)
            value, optima = brute_force_optimum(reduced)
            if not 1 <= len(optima) <= 400:
                continue
            done += 1
            mu_p = _uniform_mixture(optima)
            assert lap_primal_feasible(reduced, mu_p) is None
            # mirrored supports agree on the mixture
            nv = inst.num_vertices
            for v in range(nv):
                for lab in inst.allowed[v]:
                    if lab == DUMMY:
                        continue
                    node = nv + lab
                    a = mu_p.get(v, {}).get(node, 0) > 0
                    b = mu_p.get(node, {}).get(v, 0) > 0
                    assert a == b
            mu = map_primal(inst, mu_p)
            assert check_primal_relative_interior(inst, mu)


class TestSolveIlap:
    def test_single_vertex(self):
        inst = IlapInstance([[DUMMY, 0]], [[1, 4]], 1)
        x, dual = solve_ilap(inst)
        assert x == [DUMMY]
        assert lap_objective(inst, x) == 1
        assert dual.alpha == [1]
        assert dual.beta[0] <= min(0, 3)

    def test_zero_cost(self):
        inst = IlapInstance([[DUMMY, 0], [DUMMY, 0]], [[0, 0], [0, 0]], 1)
        x, _ = solve_ilap(inst)
        assert lap_objective(inst, x) == 0

    def test_matches_enumeration(self):
        rng = seeded(61)
        for _ in range(80):
            inst = random_ilap(rng)
            value, optima = brute_force_optimum(inst)
            for relative_interior in (False, True):
                x, dual = solve_ilap(inst, relative_interior=relative_interior)
                assert lap_objective(inst, x) == value
                require_dual_feasible(inst, dual)
                assert abs(dual_objective(inst, dual) - value) <= inst.atol

    def test_reduced_optimum_iff_both_parts_optimal(self):
        rng = seeded(71)
        done = 0
        while done < 20:
            inst = random_ilap(rng, max_vertices=3, max_labels=3)
            reduced = reduce_ilap_to_lap(inst)
            value, _ = brute_force_optimum(inst)
            red_value, red_optima = brute_force_optimum(reduced)
            if red_value is None:
                continue
            done += 1
            assert red_value == value
            seen = set()
            for xp in red_optima:
                x1, x2 = decompose_assignment(inst, xp)
                assert lap_objective(inst, x1) == value
                assert lap_objective(inst, x2) == value
                seen.add(tuple(xp))
            # a feasible non-optimal matching decomposes into a non-optimal part
            xp = random_reduced_matching(rng, inst, reduced)
            if tuple(xp) not in seen:
                x1, x2 = decompose_assignment(inst, xp)
                assert (lap_objective(inst, x1) > value
                        or lap_objective(inst, x2) > value)

    def test_tie_prefers_first_decomposition(self):
        inst = IlapInstance([[DUMMY, 0], [DUMMY, 0]], [[0, 0], [0, 0]], 1)
        x1, _ = solve_ilap(inst)
        # deterministic: repeated solves return the same assignment
        for _ in range(5):
            assert solve_ilap(inst)[0] == x1


def _random_feasible(rng, inst):
    x = []
    used = set()
    for v in range(inst.num_vertices):
        options = [lab for lab in inst.allowed[v]
                   if lab == DUMMY or lab not in used]
        lab = rng.choice(options)
        if lab != DUMMY:
            used.add(lab)
        x.append(lab)
    return x


def _uniform_mixture(optima):
    weight = 1 / len(optima)
    mu = {}
    for xp in optima:
        for node, lab in enumerate(xp):
            row = mu.setdefault(node, {})
            row[lab] = row.get(lab, 0) + weight
    return mu


_CENTRES = [0, 2**52, 2**53, 2**54, 2**55]


def _edge_pool(centre):
    """Costs near ``centre`` and near the subnormals, whose halves can
    round."""
    pool = [centre + d for d in range(-3, 4)]
    pool += [float(centre) + d for d in (-4.0, 2.0, 4.0, 0.5)]
    return pool + [5e-324, -5e-324, 1.5e-323, 2.5e-308, 0.5, -3]


def _is_normal(c):
    return type(c) is type(_as_cost(c, "cost"))


def _plain_half(c):
    """Half of ``c`` before normalization: an int for an even int, else
    the float quotient."""
    if isinstance(c, int) and c % 2 == 0:
        return c // 2
    return c / 2


def _constructed_reduction(inst):
    """The reduced square instance built row by row through the
    ``LapInstance`` constructor, as the reduction is defined."""
    nv = inst.num_vertices
    nl = inst.num_labels
    allowed, costs = [], []
    for v in range(nv):
        allowed.append([v] + [nv + lab for lab in inst.allowed[v] if lab != DUMMY])
        costs.append([inst.cost(v, DUMMY)] + [
            c / 2 if not isinstance(c, int) or c % 2 else c // 2
            for lab, c in zip(inst.allowed[v], inst.costs[v]) if lab != DUMMY])
    for lab in range(nl):
        vertices = list(inst.vertices_for_label[lab])
        allowed.append(vertices + [nv + lab])
        costs.append([c / 2 if not isinstance(c, int) or c % 2 else c // 2
                      for c in (inst.cost(u, lab) for u in vertices)]
                     + [0 if inst.integral else 0.0])
    return LapInstance(allowed, costs)


class TestReducedLayout:
    """The reduction prices a layout built once per structure."""

    def test_matches_constructed_instance(self):
        rng = seeded(331)
        for trial in range(150):
            inst = random_ilap(rng)
            if trial % 3 == 1:
                inst = inst.with_costs([[c / 2 for c in row] for row in inst.costs])
            for _ in range(3):
                lap = reduce_ilap_to_lap(inst)
                ref = _constructed_reduction(inst)
                for name in ("allowed", "_index", "vertices_for_label",
                             "num_vertices"):
                    assert getattr(lap, name) == getattr(ref, name)
                assert (repr(lap.costs), repr(lap.max_abs_cost), lap.integral,
                        repr(lap.atol)) == (repr(ref.costs),
                                            repr(ref.max_abs_cost),
                                            ref.integral, repr(ref.atol))
                # re-price the same structure with new costs
                inst = inst.with_costs([[c + rng.choice([0, 1, 0.25, -3])
                                         for c in row] for row in inst.costs])

    @pytest.mark.parametrize("centre", _CENTRES)
    def test_halves_near_the_edges_match_constructed_instance(self, centre):
        # Odd ints and integer-valued floats just above 2**53 halve to
        # integer-valued floats that the constructor makes ints, and
        # +-5e-324 halves to a zero; other subnormals round to non-integers.
        rng = seeded(353)
        pool = _edge_pool(centre)
        rounded = 0
        for _ in range(150):
            inst = random_ilap(rng)
            inst = inst.with_costs([[rng.choice(pool) for _ in labs]
                                    for labs in inst.allowed])
            lap = reduce_ilap_to_lap(inst)
            ref = _constructed_reduction(inst)
            assert (repr(lap.costs), repr(lap.max_abs_cost), lap.integral,
                    repr(lap.atol)) == (repr(ref.costs),
                                        repr(ref.max_abs_cost),
                                        ref.integral, repr(ref.atol))
            rounded += any(not _is_normal(_plain_half(c))
                           for row in inst.costs for c in row)
        assert rounded > 0

    @pytest.mark.parametrize("centre", _CENTRES)
    def test_half_cost_is_the_normalized_half(self, centre):
        rng = seeded(359)
        costs = [_as_cost(c, "pool") for c in _edge_pool(centre)]
        for _ in range(2000):
            x, = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))
            if math.isfinite(x):
                costs.append(_as_cost(x, "random"))
            costs.append(_as_cost(rng.uniform(-1e3, 1e3), "random"))
        for c in costs:
            want = _as_cost(_plain_half(c), "half")
            assert (type(_half_cost(c)), repr(_half_cost(c))) == (
                type(want), repr(want))

    def test_memoized_per_instance(self):
        inst = random_ilap(seeded(337))
        assert reduce_ilap_to_lap(inst) is reduce_ilap_to_lap(inst)
        again = inst.with_costs(inst.costs)
        assert reduce_ilap_to_lap(again) is not reduce_ilap_to_lap(inst)
        assert reduce_ilap_to_lap(again).allowed is \
            reduce_ilap_to_lap(inst).allowed
