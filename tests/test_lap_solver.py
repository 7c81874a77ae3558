import pytest

from qapbound.lap import equality_subgraph, solve_lap
from qapbound.model import (
    DUMMY,
    Dual,
    DualInfeasibleError,
    IlapInstance,
    LapInstance,
    dual_objective,
    lap_objective,
    require_dual_feasible,
)
from qapbound.oracle import brute_force_optimum
from qapbound.reduction import reduce_ilap_to_lap

from helpers import (
    EXAMPLE1_INITIAL_ACTIVE,
    EXAMPLE1_OPTIMAL_PAIRS,
    EXAMPLE1_VALUE,
    assert_exact_dual_feasible,
    example1_final_dual,
    example1_initial_dual,
    example1_instance,
    random_ilap,
    random_lap,
    reference_solve_lap,
    seeded,
    tight_pairs,
)


def find_perfect_matching(adjacency):
    """Independent augmenting-path matcher used to audit solver output."""
    n = len(adjacency)
    match_vertex = [-1] * n

    def try_assign(v, visited):
        for lab in adjacency[v]:
            if visited[lab]:
                continue
            visited[lab] = True
            if match_vertex[lab] < 0 or try_assign(match_vertex[lab], visited):
                match_vertex[lab] = v
                return True
        return False

    for v in range(n):
        if not try_assign(v, [False] * n):
            return None
    x = [-1] * n
    for lab, v in enumerate(match_vertex):
        x[v] = lab
    return x


class TestSolveLap:
    def test_example_value(self):
        inst = example1_instance()
        x, dual = solve_lap(inst)
        assert lap_objective(inst, x) == EXAMPLE1_VALUE
        assert dual_objective(inst, dual) == EXAMPLE1_VALUE

    def test_forced_diagonal(self):
        costs = [4, -1, 7]
        inst = LapInstance([[v] for v in range(3)], [[c] for c in costs])
        x, dual = solve_lap(inst)
        assert x == [0, 1, 2]
        assert lap_objective(inst, x) == 10

    def test_infeasible_when_label_demanded_twice(self):
        inst = LapInstance([[0], [0]], [[1], [1]])
        assert solve_lap(inst) is None

    def test_empty_instance(self):
        x, dual = solve_lap(LapInstance([], []))
        assert x == []

    def test_deterministic(self):
        rng = seeded(3)
        inst = random_lap(rng, 6)
        first = solve_lap(inst)
        second = solve_lap(inst)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_matches_enumeration_and_certifies(self):
        rng = seeded(101)
        solved = 0
        infeasible = 0
        while solved < 150:
            n = rng.randint(1, 7)
            inst = random_lap(rng, n, extra=rng.choice([0.1, 0.3, 0.6]))
            value, _ = brute_force_optimum(inst)
            result = solve_lap(inst)
            if value is None:
                assert result is None
                infeasible += 1
                continue
            assert result is not None
            x, dual = result
            solved += 1
            assert lap_objective(inst, x) == value
            require_dual_feasible(inst, dual)
            assert dual_objective(inst, dual) == value
            # matched constraints are tight (exact: integer instance)
            for v, lab in enumerate(x):
                assert dual.alpha[v] + dual.beta[lab] == inst.cost(v, lab)
            # the tight-edge subgraph supports a perfect matching
            rows = equality_subgraph(inst, dual)
            assert find_perfect_matching(rows) is not None

    def test_unbalanced_sparsity_infeasible_detected(self):
        # vertices 0..2 all demand labels {0, 1} only
        inst = LapInstance([[0, 1]] * 3, [[1, 2]] * 3)
        assert solve_lap(inst) is None

    def test_large_dense_against_scipy(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        import numpy as np

        rng = seeded(17)
        for _ in range(5):
            n = 20
            matrix = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
            inst = LapInstance([list(range(n))] * n, matrix)
            x, dual = solve_lap(inst)
            rows, cols = scipy_opt.linear_sum_assignment(np.array(matrix))
            expected = sum(matrix[r][c] for r, c in zip(rows, cols))
            assert lap_objective(inst, x) == expected
            assert dual_objective(inst, dual) == expected

    def test_float_costs_against_scipy(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        import numpy as np

        rng = seeded(18)
        for _ in range(5):
            n = 15
            matrix = [[round(rng.uniform(-10, 10), 3) for _ in range(n)]
                      for _ in range(n)]
            inst = LapInstance([list(range(n))] * n, matrix)
            x, dual = solve_lap(inst)
            rows, cols = scipy_opt.linear_sum_assignment(np.array(matrix))
            expected = sum(matrix[r][c] for r, c in zip(rows, cols))
            assert lap_objective(inst, x) == pytest.approx(expected, abs=1e-9)
            require_dual_feasible(inst, dual)
            assert dual_objective(inst, dual) == pytest.approx(expected, abs=1e-9)

    def test_integral_instances_keep_integer_potentials(self):
        rng = seeded(19)
        for _ in range(20):
            inst = random_lap(rng, rng.randint(1, 6))
            result = solve_lap(inst)
            if result is None:
                continue
            _, dual = result
            assert all(isinstance(a, int) for a in dual.alpha)
            assert all(isinstance(b, int) for b in dual.beta)



def sparse_lap(rng, n, *, per_row=10, integral=True):
    """Random labels per row plus the diagonal, costs in [1, 1000]."""
    allowed = []
    costs = []
    for v in range(n):
        labs = sorted({v, *(rng.randrange(n) for _ in range(per_row))})
        allowed.append(labs)
        if integral:
            costs.append([rng.randint(1, 1000) for _ in labs])
        else:
            costs.append([rng.uniform(1, 1000) for _ in labs])
    return LapInstance(allowed, costs)


def scipy_matching_value(inst):
    """Optimum by scipy's sparse matcher; raises ValueError if infeasible."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    rows, cols, data = [], [], []
    for v, (labs, cs) in enumerate(zip(inst.allowed, inst.costs)):
        rows.extend([v] * len(labs))
        cols.extend(labs)
        data.extend(cs)
    n = inst.num_vertices
    graph = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    matched_rows, matched_cols = csgraph.min_weight_full_bipartite_matching(graph)
    return sum(inst.cost(v, lab) for v, lab in zip(matched_rows, matched_cols))


class TestScaleAgainstScipy:
    """Sparse instances far past the enumeration guard, checked by scipy."""

    @pytest.mark.parametrize("n, seed", [(1000, 23), (2000, 24)])
    def test_integer_optimum_and_certificate(self, n, seed):
        inst = sparse_lap(seeded(seed), n)
        expected = scipy_matching_value(inst)
        x, dual = solve_lap(inst)
        assert lap_objective(inst, x) == expected
        assert dual_objective(inst, dual) == expected
        assert_exact_dual_feasible(inst, dual)
        for v, lab in enumerate(x):
            assert dual.alpha[v] + dual.beta[lab] == inst.cost(v, lab)

    def test_infeasible(self):
        n = 1000
        base = sparse_lap(seeded(25), n)
        # the first three vertices compete for labels 0 and 1 only
        allowed = [[0, 1]] * 3 + list(base.allowed[3:])
        costs = [[5, 7]] * 3 + list(base.costs[3:])
        inst = LapInstance(allowed, costs)
        with pytest.raises(ValueError):
            scipy_matching_value(inst)
        assert solve_lap(inst) is None

    def test_float_costs(self):
        inst = sparse_lap(seeded(26), 500, integral=False)
        expected = scipy_matching_value(inst)
        x, dual = solve_lap(inst)
        assert lap_objective(inst, x) == pytest.approx(expected, abs=inst.atol)
        assert dual_objective(inst, dual) == pytest.approx(expected,
                                                           abs=inst.atol)
        require_dual_feasible(inst, dual)
        for v, lab in enumerate(x):
            assert dual.alpha[v] + dual.beta[lab] == pytest.approx(
                inst.cost(v, lab), abs=inst.atol)

class TestEqualitySubgraph:
    def test_example_initial_active_set(self):
        inst = example1_instance()
        rows = equality_subgraph(inst, example1_initial_dual())
        assert tight_pairs(rows) == EXAMPLE1_INITIAL_ACTIVE
        assert sum(map(len, rows)) == 13

    def test_example_final_active_set(self):
        inst = example1_instance()
        rows = equality_subgraph(inst, example1_final_dual())
        assert tight_pairs(rows) == EXAMPLE1_OPTIMAL_PAIRS
        assert sum(map(len, rows)) == 9

    def test_strict_slack_everywhere_gives_empty_subgraph(self):
        inst = example1_instance()
        dual = Dual([min(cs) - 1 for cs in inst.costs], [0] * 5)
        assert equality_subgraph(inst, dual) == ((),) * 5

    def test_rejects_infeasible_dual(self):
        inst = example1_instance()
        with pytest.raises(DualInfeasibleError):
            equality_subgraph(inst, Dual([100] * 5, [0] * 5))

    def test_raises_the_error_of_require_dual_feasible(self):
        # Duals violated in one row or several, by a little more than the
        # tolerance or a lot: the message names the first violation.
        rng = seeded(269)
        raised = 0
        for _ in range(300):
            inst = random_lap(rng, rng.randint(1, 8), extra=0.5)
            _, dual = solve_lap(inst)
            alpha = list(dual.alpha)
            for v in rng.sample(range(len(alpha)),
                                k=rng.randint(1, min(2, len(alpha)))):
                alpha[v] += rng.choice([2 * inst.atol, 1, 7])
            dual = Dual(alpha, list(dual.beta))
            try:
                require_dual_feasible(inst, dual)
            except DualInfeasibleError as err:
                want = str(err)
            else:
                assert equality_subgraph(inst, dual) is not None
                continue
            with pytest.raises(DualInfeasibleError) as got:
                equality_subgraph(inst, dual)
            assert str(got.value) == want
            raised += 1
        assert raised > 100

    @pytest.mark.parametrize("dual", [
        Dual([0] * 4, [0] * 5),
        Dual([0] * 5, [0] * 6),
        Dual([0] * 5, []),
    ])
    def test_rejects_a_dual_of_the_wrong_kind_or_length(self, dual):
        inst = example1_instance()
        with pytest.raises(ValueError) as want:
            require_dual_feasible(inst, dual)
        with pytest.raises(ValueError) as got:
            equality_subgraph(inst, dual)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_rejects_a_dummy_label_instance(self):
        inst = IlapInstance([[DUMMY, 0]], [[0, 1]], 1)
        with pytest.raises(ValueError, match="LapInstance"):
            equality_subgraph(inst, Dual([0], [0]))

    def test_tight_labels_match_a_scan_of_every_cell(self):
        # Feasible duals whose slacks land on, just inside and just outside
        # the tolerance.
        rng = seeded(271)
        for _ in range(300):
            inst = _random_costs(rng, random_lap(rng, rng.randint(1, 8),
                                                 extra=0.5),
                                 rng.choice(["int", "float", "tied"]))
            _, dual = solve_lap(inst)
            atol = inst.atol
            alpha = [a - rng.choice([0, atol / 2, atol, 2 * atol, 1])
                     for a in dual.alpha]
            dual = Dual(alpha, list(dual.beta))
            # An integral instance's tight test is exact.
            tight = 0 if inst.integral else atol
            want = tuple(
                tuple(lab for lab, c in zip(labs, cs)
                      if c - av - dual.beta[lab] <= tight)
                for labs, cs, av in zip(inst.allowed, inst.costs, alpha))
            assert equality_subgraph(inst, dual) == want


def _random_costs(rng, inst, kind):
    """``inst`` re-priced: ``int`` keeps its costs, ``float`` draws
    fractional floats, ``tied`` draws from a few ints and floats so that
    distances tie often, also after float rounding."""
    if kind == "int":
        return inst
    pool = [0, 1, 2, 0.5, 0.1, 0.2, 0.3, 1.5]
    return inst.with_costs(
        [[rng.uniform(-20, 20) if kind == "float" else rng.choice(pool)
          for _ in labs] for labs in inst.allowed])


def _random_allowed_lap(rng, n, extra):
    """A square instance without a planted matching, so some have none."""
    allowed = [sorted(rng.sample(range(n), k=rng.randint(1, n)))
               if rng.random() < extra else [rng.randrange(n)]
               for _ in range(n)]
    return LapInstance(allowed, [[rng.randint(0, 9) for _ in labs]
                                 for labs in allowed])


class TestAgainstReferenceSolver:
    """``solve_lap`` returns what ``helpers.reference_solve_lap`` returns,
    ``repr`` for ``repr``: the same assignment, and the same potentials
    with the same types."""

    @pytest.mark.parametrize("kind", ["int", "float", "tied"])
    @pytest.mark.parametrize("density", ["sparse", "dense"])
    def test_random_laps(self, kind, density):
        rng = seeded({"sparse": 241, "dense": 251}[density]
                     + {"int": 0, "float": 1, "tied": 2}[kind])
        extra = {"sparse": 0.15, "dense": 1.0}[density]
        infeasible = 0
        for _ in range(150):
            n = rng.randint(1, 14)
            inst = _random_costs(rng, random_lap(rng, n, extra=extra), kind)
            assert repr(solve_lap(inst)) == repr(reference_solve_lap(inst))
            inst = _random_costs(rng, _random_allowed_lap(rng, n, extra),
                                 kind)
            want = reference_solve_lap(inst)
            assert repr(solve_lap(inst)) == repr(want)
            infeasible += want is None
        assert infeasible > 0

    @pytest.mark.parametrize("kind", ["int", "float", "tied"])
    def test_reduced_random_ilaps(self, kind):
        rng = seeded(257 + {"int": 0, "float": 1, "tied": 2}[kind])
        for _ in range(200):
            inst = _random_costs(rng, random_ilap(rng, max_vertices=8,
                                                  max_labels=8), kind)
            for base in (inst, inst.scale_costs(2)):
                reduced = reduce_ilap_to_lap(base)
                assert (repr(solve_lap(reduced))
                        == repr(reference_solve_lap(reduced)))

    def test_workload_sized_reduction(self):
        # A reduced 60-vertex graph-matching label step, float costs.
        rng = seeded(263)
        inst = random_ilap(rng, max_vertices=60, max_labels=60, allow=0.15)
        inst = inst.with_costs([[c + rng.random() for c in row]
                                for row in inst.costs])
        reduced = reduce_ilap_to_lap(inst)
        assert repr(solve_lap(reduced)) == repr(reference_solve_lap(reduced))
