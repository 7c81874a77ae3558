import pytest

from qapbound.bounds import dual_bound
from qapbound.model import DUMMY, IlapInstance, IqapInstance, iqap_objective
from qapbound.wcsp import (
    IqapDualState,
    mplp_pp_edge_update,
    mplp_pp_pass,
    pairwise_minimum,
    reparam_pairwise,
)

from helpers import random_iqap, seeded


def two_vertex_instance(costs_u, costs_v, cells, num_labels=2):
    core = IlapInstance(
        [[DUMMY] + list(range(num_labels))] * 2,
        [costs_u, costs_v], num_labels)
    return IqapInstance(core, [(0, 1, cells)])


def row_kinds_iqap(rng):
    """Random instance whose edge rows are empty, sparse, dense or full.

    Up to eight labels, so that a sparse row (at most half of the columns
    stored) can store the cheapest column; costs from a short list with
    zeros, halves and negatives, so that sums tie often.
    """
    nl = rng.randint(4, 8)
    nv = rng.randint(2, 4)
    allowed = [[DUMMY] + sorted(rng.sample(range(nl), k=rng.randint(2, nl)))
               for _ in range(nv)]
    costs = [[rng.choice([-2, -1, 0, 0, 0.5, 1, 2]) for _ in labs]
             for labs in allowed]
    core = IlapInstance(allowed, costs, nl)
    edges = []
    for u in range(nv):
        for v in range(u + 1, nv):
            cols = allowed[v]
            half = len(cols) // 2
            cells = {}
            for k in allowed[u]:
                count = rng.choice([0, rng.randint(1, half),
                                    rng.randint(half + 1, len(cols)),
                                    len(cols)])
                for l in rng.sample(cols, k=count):
                    cells[(k, l)] = rng.choice([-3, -1, -0.5, 0, 1, 2])
            edges.append((u, v, cells))
    return IqapInstance(core, edges)


def row_kind(edge, state, k, allowed_v):
    """How row ``k`` of ``edge`` (oriented from ``u``) stores its cells."""
    stored = [l for l in allowed_v if (k, l) in edge.cells]
    if not stored:
        return "empty"
    if len(stored) == len(allowed_v):
        return "full"
    if 2 * len(stored) > len(allowed_v):
        return "dense"
    base = [-p for p in state.phi[(edge.v, edge.u)]]
    cheapest = allowed_v[base.index(min(base))]
    return "sparse, cheapest stored" if cheapest in stored else "sparse"


def enumerate_feasible(inst):
    unary = inst.unary
    n = unary.num_vertices

    def rec(v, x, used):
        if v == n:
            yield list(x)
            return
        for lab in unary.allowed[v]:
            if lab != DUMMY and lab in used:
                continue
            if lab != DUMMY:
                used.add(lab)
            x.append(lab)
            yield from rec(v + 1, x, used)
            x.pop()
            if lab != DUMMY:
                used.discard(lab)

    yield from rec(0, [], set())


def reparam_objective(state, x):
    """Objective of ``x`` evaluated through the reparametrized costs."""
    inst = state.inst
    total = 0
    for v, lab in enumerate(x):
        total += state.theta_phi[v][inst.unary.label_index(v, lab)]
    for e in inst.edges:
        total += reparam_pairwise(state, e.u, e.v, x[e.u], x[e.v])
    return total


class TestReparam:
    def test_zero_messages_return_stored_cost(self):
        inst = two_vertex_instance([0, 1, 2], [0, 3, 4], {(0, 1): 7})
        state = IqapDualState(inst)
        assert reparam_pairwise(state, 0, 1, 0, 1) == 7
        assert reparam_pairwise(state, 0, 1, 1, 0) == 0
        assert reparam_pairwise(state, 1, 0, 1, 0) == 7

    def test_messages_subtract(self):
        inst = two_vertex_instance([0, 0, 0], [0, 0, 0], {})
        state = IqapDualState(inst)
        iu = inst.unary.label_index(0, 0)
        iv = inst.unary.label_index(1, 1)
        state.phi[(0, 1)][iu] = 2
        state.phi[(1, 0)][iv] = 1
        assert reparam_pairwise(state, 0, 1, 0, 1) == -3

    def test_rejects_unknown_edge_or_label(self):
        inst = two_vertex_instance([0, 0, 0], [0, 0, 0], {})
        state = IqapDualState(inst)
        with pytest.raises(ValueError):
            reparam_pairwise(state, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            reparam_pairwise(state, 0, 1, 5, 0)

    def test_objective_invariant_under_updates(self):
        rng = seeded(13)
        for _ in range(25):
            inst = random_iqap(rng, max_vertices=4, max_labels=3, max_edges=4)
            state = IqapDualState(inst)
            baseline = {tuple(x): iqap_objective(inst, x)
                        for x in enumerate_feasible(inst)}
            for _ in range(3):
                mplp_pp_pass(state)
            for x, value in baseline.items():
                assert reparam_objective(state, list(x)) == pytest.approx(
                    value, abs=1e-9 * (1 + inst.max_abs_cost))

    def test_cached_unaries_track_messages(self):
        rng = seeded(14)
        for _ in range(15):
            inst = random_iqap(rng, max_vertices=4, max_labels=3)
            state = IqapDualState(inst)
            mplp_pp_pass(state)
            mplp_pp_pass(state, backward=True)
            atol = 1e-9 * (1 + inst.max_abs_cost)
            for v in range(inst.num_vertices):
                for i, base in enumerate(inst.unary.costs[v]):
                    total = base
                    for e in inst.edges:
                        if e.u == v:
                            total += state.phi[(v, e.v)][i]
                        elif e.v == v:
                            total += state.phi[(v, e.u)][i]
                    assert state.theta_phi[v][i] == pytest.approx(total, abs=atol)


class TestEdgeUpdate:
    def test_handshake_splits_min_marginals(self):
        core = IlapInstance([[DUMMY, 0], [DUMMY, 0]], [[1, 3], [2, 4]], 1)
        inst = IqapInstance(core, [(0, 1, {})])
        state = IqapDualState(inst)
        mplp_pp_edge_update(state, 0, 1)
        assert state.tilde(0) == [1.5, 2.5]
        assert state.tilde(1) == [1.5, 2.5]

    def test_all_zero_is_noop(self):
        core = IlapInstance([[DUMMY, 0]] * 2, [[0, 0]] * 2, 1)
        inst = IqapInstance(core, [(0, 1, {})])
        state = IqapDualState(inst)
        mplp_pp_edge_update(state, 0, 1)
        assert all(value == 0 for row in state.theta_phi for value in row)
        assert all(value == 0 for vals in state.phi.values() for value in vals)

    def test_idempotent_within_tolerance(self):
        rng = seeded(19)
        for _ in range(25):
            inst = random_iqap(rng, max_vertices=3, max_labels=3, max_edges=1)
            if not inst.edges:
                continue
            e = inst.edges[0]
            state = IqapDualState(inst)
            mplp_pp_edge_update(state, e.u, e.v)
            snapshot = [list(row) for row in state.theta_phi]
            mplp_pp_edge_update(state, e.u, e.v)
            atol = 1e-9 * (1 + inst.max_abs_cost)
            for before, after in zip(snapshot, state.theta_phi):
                for b, a in zip(before, after):
                    assert a == pytest.approx(b, abs=atol)

    def test_post_update_pairwise_nonnegative_and_tight_at_min(self):
        rng = seeded(29)
        for _ in range(25):
            inst = random_iqap(rng, max_vertices=3, max_labels=3, max_edges=1)
            if not inst.edges:
                continue
            e = inst.edges[0]
            state = IqapDualState(inst)
            mplp_pp_edge_update(state, e.u, e.v)
            atol = 1e-9 * (1 + inst.max_abs_cost)
            values = [
                reparam_pairwise(state, e.u, e.v, k, l)
                for k in inst.unary.allowed[e.u]
                for l in inst.unary.allowed[e.v]
            ]
            assert min(values) >= -atol
            assert min(values) <= atol


    def test_non_edge_is_rejected(self):
        core = IlapInstance([[DUMMY, 0]] * 3, [[0, 1]] * 3, 1)
        inst = IqapInstance(core, [(0, 1, {(0, 0): 2})])
        state = IqapDualState(inst)
        for u, v in [(0, 2), (2, 1), (1, 1)]:
            with pytest.raises(ValueError, match="no edge"):
                mplp_pp_edge_update(state, u, v)

    def test_orientation_does_not_matter(self):
        rng = seeded(41)
        for _ in range(30):
            inst = row_kinds_iqap(rng)
            state = IqapDualState(inst)
            mplp_pp_pass(state)
            for e in inst.edges:
                forward = state.copy()
                reverse = state.copy()
                mplp_pp_edge_update(forward, e.u, e.v)
                mplp_pp_edge_update(reverse, e.v, e.u)
                assert forward.phi == reverse.phi
                assert forward.theta_phi == reverse.theta_phi


class TestPairwiseMinimum:
    def test_equals_brute_force_over_all_row_kinds(self):
        rng = seeded(43)
        kinds = set()
        for _ in range(60):
            inst = row_kinds_iqap(rng)
            state = IqapDualState(inst)
            allowed = inst.unary.allowed
            for _ in range(rng.randint(0, 3)):
                mplp_pp_pass(state, backward=rng.random() < 0.5)
            for e in inst.edges:
                brute = min(reparam_pairwise(state, e.u, e.v, k, l)
                            for k in allowed[e.u] for l in allowed[e.v])
                assert pairwise_minimum(state, e) == brute
                kinds.update(row_kind(e, state, k, allowed[e.v])
                             for k in allowed[e.u])
        assert kinds == {"empty", "sparse", "sparse, cheapest stored",
                         "dense", "full"}


class TestPass:
    def test_no_edges_is_noop(self):
        core = IlapInstance([[DUMMY, 0]] * 2, [[1, 2]] * 2, 1)
        inst = IqapInstance(core, [])
        state = IqapDualState(inst)
        mplp_pp_pass(state)
        assert state.theta_phi == [[1, 2], [1, 2]]

    def test_single_edge_pass_equals_edge_update(self):
        core = IlapInstance([[DUMMY, 0, 1]] * 2, [[1, -2, 3]] * 2, 2)
        inst = IqapInstance(core, [(0, 1, {(0, 1): 4})])
        a = IqapDualState(inst)
        b = IqapDualState(inst)
        mplp_pp_pass(a)
        mplp_pp_edge_update(b, 0, 1)
        assert a.theta_phi == b.theta_phi
        assert a.phi == b.phi

    def test_bound_never_decreases(self):
        rng = seeded(37)
        for _ in range(30):
            inst = random_iqap(rng)
            state = IqapDualState(inst)
            atol = 1e-8 * (1 + inst.max_abs_cost)
            previous = dual_bound(inst, state)
            for _ in range(4):
                mplp_pp_pass(state)
                current = dual_bound(inst, state)
                assert current >= previous - atol
                previous = current
