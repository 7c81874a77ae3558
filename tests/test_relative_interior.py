import time

import pytest

from qapbound.lap import EqualitySubgraph, equality_subgraph, solve_lap
from qapbound.model import (
    DualInfeasibleError,
    FeasibilityError,
    LapDual,
    LapInstance,
    dual_objective,
)
from qapbound.relative_interior import (
    build_exchange_digraph,
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
)


def example1_subgraph():
    inst = example1_instance()
    return inst, equality_subgraph(inst, example1_initial_dual())


class TestExchangeDigraph:
    def test_example_edges_and_cycles(self):
        _, subgraph = example1_subgraph()
        digraph = build_exchange_digraph(subgraph, EXAMPLE1_MATCHING)
        assert set(digraph.edges()) == {
            (0, 1), (0, 3), (0, 4), (1, 3), (3, 1), (2, 4), (4, 2), (3, 4)}
        cycle_edges = {(u, v) for (u, v) in digraph.edges()
                       if (v, u) in set(digraph.edges())}
        assert cycle_edges == {(1, 3), (3, 1), (2, 4), (4, 2)}

    def test_example_condensation(self):
        _, subgraph = example1_subgraph()
        digraph = build_exchange_digraph(subgraph, EXAMPLE1_MATCHING)
        assert [set(c) for c in digraph.components] == [{0}, {1, 3}, {2, 4}]
        assert digraph.has_incoming == (False, True, True)

    def test_matching_only_subgraph(self):
        x = [2, 0, 1]
        subgraph = EqualitySubgraph(((2,), (0,), (1,)))
        digraph = build_exchange_digraph(subgraph, x)
        assert all(not adj for adj in digraph.adjacency)
        assert len(digraph.components) == 3
        assert digraph.has_incoming == (False, False, False)

    def test_rejects_matching_outside_subgraph(self):
        subgraph = EqualitySubgraph(((0,), (1,)))
        with pytest.raises(FeasibilityError):
            build_exchange_digraph(subgraph, [1, 0])

    @pytest.mark.parametrize("x, message", [
        ([0], "assignment has 1 entries, expected 2"),
        ([1, 1], "assignment is not a perfect matching: label 1 reused or "
                 "out of range"),
        ([0, 2], "assignment is not a perfect matching: label 2 reused or "
                 "out of range"),
    ], ids=["wrong-length", "reused-label", "label-out-of-range"])
    def test_rejects_an_assignment_that_is_no_perfect_matching(self, x,
                                                              message):
        with pytest.raises(FeasibilityError) as info:
            build_exchange_digraph(EqualitySubgraph(((0, 1), (0, 1))), x)
        assert str(info.value) == message
        # every pair is tight under the zero dual
        inst = LapInstance([[0, 1], [0, 1]], [[0, 0], [0, 0]])
        with pytest.raises(FeasibilityError) as info:
            shift_to_relative_interior(inst, LapDual([0, 0], [0, 0]), x)
        assert str(info.value) == "inputs are not an optimal pair: " + message


class TestPerfectlyMatchableEdges:
    def test_example_circled_set(self):
        _, subgraph = example1_subgraph()
        assert perfectly_matchable_edges(
            subgraph, EXAMPLE1_MATCHING) == EXAMPLE1_OPTIMAL_PAIRS

    def test_matching_only(self):
        subgraph = EqualitySubgraph(((1,), (0,)))
        assert perfectly_matchable_edges(subgraph, [1, 0]) == {(0, 1), (1, 0)}

    def test_complete_bipartite_all_matchable(self):
        subgraph = EqualitySubgraph(tuple((0, 1, 2) for _ in range(3)))
        pm = perfectly_matchable_edges(subgraph, [0, 1, 2])
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
            before = set(equality_subgraph(inst, dual).edges())
            after = set(equality_subgraph(inst, shifted).edges())
            assert after <= before
            # removed edges cross component boundaries of the exchange digraph
            digraph = build_exchange_digraph(
                equality_subgraph(inst, dual), x)
            xinv = [0] * 6
            for v, lab in enumerate(x):
                xinv[lab] = v
            for (v, lab) in before - after:
                assert digraph.component_of[v] != digraph.component_of[xinv[lab]]
            # objective preserved, characterization, enumeration agreement
            assert dual_objective(inst, shifted) == dual_objective(inst, dual)
            assert after == perfectly_matchable_edges(
                equality_subgraph(inst, dual), x)
            assert after == minimally_assignable_pairs(inst)
            # idempotence on the tight-edge set
            again = shift_to_relative_interior(inst, shifted, x)
            assert set(equality_subgraph(inst, again).edges()) == after


    def test_large_single_cycle(self):
        # one 5000-vertex strongly connected component; exercises the
        # iterative component search and leaves the dual untouched
        n = 5000
        allowed = [sorted((v, (v + 1) % n)) for v in range(n)]
        inst = LapInstance(allowed, [[0, 0]] * n)
        dual = LapDual([0] * n, [0] * n)
        x = list(range(n))
        start = time.perf_counter()
        out = shift_to_relative_interior(inst, dual, x)
        assert time.perf_counter() - start < 2.0
        assert out.alpha == [0] * n and out.beta == [0] * n
        subgraph = equality_subgraph(inst, out)
        assert len(list(subgraph.edges())) == 2 * n
        assert perfectly_matchable_edges(subgraph, x) == set(subgraph.edges())


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
