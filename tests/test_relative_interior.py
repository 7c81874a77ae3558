import time

import pytest

from qapbound.lap import equality_subgraph, solve_lap
from qapbound.model import (
    Dual,
    DualInfeasibleError,
    FeasibilityError,
    LapInstance,
    dual_objective,
    require_dual_feasible,
)
from qapbound.oracle import check_dual_relative_interior
from qapbound.relative_interior import (
    _condense,
    _exchange_adjacency,
    perfectly_matchable_edges,
    shift_to_relative_interior,
)

from helpers import (
    EXAMPLE1_MATCHING,
    EXAMPLE1_OPTIMAL_PAIRS,
    example1_initial_dual,
    example1_instance,
    minimally_assignable_pairs,
    random_lap,
    seeded,
    tight_pairs,
)


def example1_rows():
    return equality_subgraph(example1_instance(), example1_initial_dual())


class TestExchangeDigraph:
    def test_example_edges_and_cycles(self):
        adjacency, _ = _exchange_adjacency(example1_rows(), EXAMPLE1_MATCHING)
        edges = tight_pairs(adjacency)
        assert edges == {
            (0, 1), (0, 3), (0, 4), (1, 3), (3, 1), (2, 4), (4, 2), (3, 4)}
        cycle_edges = {(u, v) for (u, v) in edges if (v, u) in edges}
        assert cycle_edges == {(1, 3), (3, 1), (2, 4), (4, 2)}

    def test_example_condensation(self):
        components, _, has_incoming, _ = _condense(example1_rows(),
                                                   EXAMPLE1_MATCHING)
        assert [set(c) for c in components] == [{0}, {1, 3}, {2, 4}]
        assert has_incoming == [False, True, True]

    def test_matching_only_subgraph(self):
        x = [2, 0, 1]
        rows = ((2,), (0,), (1,))
        adjacency, _ = _exchange_adjacency(rows, x)
        assert all(not adj for adj in adjacency)
        components, _, has_incoming, _ = _condense(rows, x)
        assert len(components) == 3
        assert has_incoming == [False, False, False]

    def test_rejects_matching_outside_subgraph(self):
        with pytest.raises(FeasibilityError):
            _exchange_adjacency(((0,), (1,)), [1, 0])

    # Under the zero dual every pair of ``[[0, 0], [0, 0]]`` is tight, and
    # only the diagonal of ``[[0, 1], [1, 0]]``.
    @pytest.mark.parametrize("costs, x, message", [
        ([[0, 0], [0, 0]], [0], "assignment has 1 entries, expected 2"),
        ([[0, 0], [0, 0]], [1, 1],
         "assignment is not a perfect matching: label 1 reused or "
         "out of range"),
        ([[0, 0], [0, 0]], [0, 2],
         "assignment is not a perfect matching: label 2 reused or "
         "out of range"),
        ([[0, 1], [1, 0]], [1, 0],
         "matched edge (0, 1) is missing from the tight-edge subgraph"),
    ], ids=["wrong-length", "reused-label", "label-out-of-range",
            "matched-edge-not-tight"])
    def test_rejects_an_assignment_that_is_no_perfect_matching(self, costs,
                                                              x, message):
        inst = LapInstance([[0, 1], [0, 1]], costs)
        dual = Dual([0, 0], [0, 0])
        with pytest.raises(FeasibilityError) as info:
            perfectly_matchable_edges(equality_subgraph(inst, dual), x)
        assert str(info.value) == message
        with pytest.raises(FeasibilityError) as info:
            shift_to_relative_interior(inst, dual, x)
        assert str(info.value) == "inputs are not an optimal pair: " + message


class TestPerfectlyMatchableEdges:
    def test_example_circled_set(self):
        assert perfectly_matchable_edges(
            example1_rows(), EXAMPLE1_MATCHING) == EXAMPLE1_OPTIMAL_PAIRS

    def test_matching_only(self):
        assert perfectly_matchable_edges(((1,), (0,)), [1, 0]) == {
            (0, 1), (1, 0)}

    def test_complete_bipartite_all_matchable(self):
        rows = tuple((0, 1, 2) for _ in range(3))
        pm = perfectly_matchable_edges(rows, [0, 1, 2])
        assert pm == {(v, lab) for v in range(3) for lab in range(3)}
        # cross-checked against enumeration on an all-zero instance
        zero = LapInstance([[0, 1, 2]] * 3, [[0, 0, 0]] * 3)
        assert pm == minimally_assignable_pairs(zero)


class TestShift:
    def test_example_golden(self):
        inst = example1_instance()
        log = []
        shifted = shift_to_relative_interior(
            inst, example1_initial_dual(), EXAMPLE1_MATCHING, delta_log=log)
        assert shifted.alpha == [2, 3, 5, 4, 5]
        assert shifted.beta == [0, 0, -1, 2, 4]
        assert log == [4, 2]
        assert dual_objective(inst, shifted) == 24

    def test_example_runtime(self):
        inst = example1_instance()
        dual = example1_initial_dual()
        best = min(
            _timed(lambda: shift_to_relative_interior(
                inst, dual, EXAMPLE1_MATCHING))
            for _ in range(5))
        assert best < 1e-3

    def test_isolated_components_leave_dual_unchanged(self):
        inst = LapInstance([[v] for v in range(3)], [[5], [1], [2]])
        x, dual = solve_lap(inst)
        shifted = shift_to_relative_interior(inst, dual, x)
        assert shifted.alpha == dual.alpha
        assert shifted.beta == dual.beta

    def test_rejects_non_optimal_pair(self):
        inst = example1_instance()
        with pytest.raises(FeasibilityError, match="not an optimal pair"):
            # b->C is not tight under the initial dual
            shift_to_relative_interior(
                inst, example1_initial_dual(), [4, 2, 3, 1, 0])

    def test_rejects_infeasible_dual(self):
        inst = example1_instance()
        dual = example1_initial_dual()
        dual.alpha[0] += 1  # a takes A at 3 - 3 - 1 < 0
        with pytest.raises(DualInfeasibleError,
                           match=r"^dual constraint violated at vertex 0, "
                                 r"label 0$"):
            shift_to_relative_interior(inst, dual, EXAMPLE1_MATCHING)

    def test_component_without_leaving_edge_takes_the_floor(self):
        # Costs near 1e17: the window is near 2e8, so a slack of 1 is lost
        # to rounding.  Component {3} (vertex 3, label 1) has no edge
        # leaving it and must be shifted by more than the floor, or the
        # tight edge (1, 1) into it stays tight, or goes below zero, when
        # component {1} takes the floor next.
        f = 2.247116418577893e16
        inst = LapInstance(
            [[0, 3], [1, 2], [1, 2, 3], [1]],
            [[c * f for c in row]
             for row in [[-8, -7], [-3, -2], [0, -7, 3], [-2]]])
        x, dual = solve_lap(inst)
        shifted = shift_to_relative_interior(inst, dual, x)
        assert check_dual_relative_interior(inst, shifted)
        require_dual_feasible(inst, shifted)
        assert dual_objective(inst, shifted) == dual_objective(inst, dual)

    def test_random_instances_active_set_matches_enumeration(self):
        rng = seeded(55)
        done = 0
        while done < 120:
            inst = random_lap(rng, 6, extra=rng.choice([0.15, 0.35, 0.6]))
            solved = solve_lap(inst)
            if solved is None:
                continue
            done += 1
            x, dual = solved
            log = []
            shifted = shift_to_relative_interior(inst, dual, x, delta_log=log)
            assert all(d > 0 for d in log)
            rows = equality_subgraph(inst, dual)
            before = tight_pairs(rows)
            after = tight_pairs(equality_subgraph(inst, shifted))
            assert after <= before
            # removed edges cross component boundaries of the exchange digraph
            _, component_of, _, xinv = _condense(rows, x)
            for (v, lab) in before - after:
                assert component_of[v] != component_of[xinv[lab]]
            # objective preserved, characterization, enumeration agreement
            assert dual_objective(inst, shifted) == dual_objective(inst, dual)
            assert after == perfectly_matchable_edges(rows, x)
            assert after == minimally_assignable_pairs(inst)
            # idempotence on the tight-edge set
            again = shift_to_relative_interior(inst, shifted, x)
            assert tight_pairs(equality_subgraph(inst, again)) == after


    def test_large_single_cycle(self):
        # one 5000-vertex strongly connected component; exercises the
        # iterative component search and leaves the dual untouched
        n = 5000
        allowed = [sorted((v, (v + 1) % n)) for v in range(n)]
        inst = LapInstance(allowed, [[0, 0]] * n)
        dual = Dual([0] * n, [0] * n)
        x = list(range(n))
        start = time.perf_counter()
        out = shift_to_relative_interior(inst, dual, x)
        assert time.perf_counter() - start < 2.0
        assert out.alpha == [0] * n and out.beta == [0] * n
        rows = equality_subgraph(inst, out)
        assert sum(map(len, rows)) == 2 * n
        assert perfectly_matchable_edges(rows, x) == tight_pairs(rows)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
