from pathlib import Path

import pytest

from qapbound import wcsp
from qapbound.beta_steps import beta_bca_pass
from qapbound.bounds import _scaled, dual_bound
from qapbound.formats import augment_instance, load_instance, parse_dd
from qapbound.model import (DUMMY, IlapInstance, IqapInstance, _label_potentials,
                            iqap_objective)
from qapbound.wcsp import IqapDualState, _row_minima, _transposes, mplp_pp_pass

from helpers import (
    copy_state,
    mplp_pp_edge_update,
    pairwise_minimum,
    random_iqap,
    reparam_pairwise,
    seeded,
)

FIXTURES = Path(__file__).parent / "fixtures"


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
    cells = edge.cells
    stored = [l for l in allowed_v if (k, l) in cells]
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
        pot = _label_potentials(state.beta)
        for v in (0, 1):
            assert [c - pot[lab] for lab, c in zip(
                inst.unary.allowed[v], state.theta_phi[v])] == [1.5, 2.5]

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

    def test_edge_updates_in_pass_order_give_the_pass_bitwise(self):
        # Label steps between passes make ``beta`` non-zero, so the pass's
        # potential rows and the update's own ones are both exercised.
        rng = seeded(47)
        for _ in range(40):
            inst = row_kinds_iqap(rng)
            state = IqapDualState(inst)
            for _ in range(rng.randint(0, 2)):
                mplp_pp_pass(state)
                beta_bca_pass(state)
            backward = rng.random() < 0.5
            passed = copy_state(state)
            mplp_pp_pass(passed, backward=backward)
            order = list(inst.edges)
            if backward:
                order += reversed(inst.edges)
            for e in order:
                u, v = (e.u, e.v) if rng.random() < 0.5 else (e.v, e.u)
                mplp_pp_edge_update(state, u, v)
            for key, messages in passed.phi.items():
                assert (list(map(_bits, state.phi[key]))
                        == list(map(_bits, messages)))
            for got, want in zip(state.theta_phi, passed.theta_phi):
                assert list(map(_bits, got)) == list(map(_bits, want))

    def test_orientation_does_not_matter(self):
        rng = seeded(41)
        for _ in range(30):
            inst = row_kinds_iqap(rng)
            state = IqapDualState(inst)
            mplp_pp_pass(state)
            for e in inst.edges:
                forward = copy_state(state)
                reverse = copy_state(state)
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


# ---------------------------------------------------------------------------
# The early exit of ``_row_minima`` over cost-sorted rows


def _bits(x):
    """A value with its type and, for a float, every bit."""
    return (type(x), x.hex() if isinstance(x, float) else x)


def _full_scan(base, stored):
    """Per row: min over every column of ``base[j]`` plus the stored cell."""
    return [min(b + row.get(j, 0) for j, b in enumerate(base))
            for row in stored]


def _full_scan_of_rows(base, rows, trans, scale=1):
    """``_full_scan`` over the cells of a ``PairwiseEdge`` row table, as
    the handshake calls ``_row_minima``."""
    assert scale == 1
    return _full_scan(base, [dict(row[2]) if row else {} for row in rows])


def _stored(edge, inst):
    """The cells of ``edge`` as one ``{column: cost}`` dict per row of
    ``rows_u``, keyed by labels in ``edge.cells`` and mapped here to
    column indices."""
    cols = {lab: j for j, lab in enumerate(inst.unary.allowed[edge.v])}
    rows = [{} for _ in inst.unary.allowed[edge.u]]
    rows_of = {lab: i for i, lab in enumerate(inst.unary.allowed[edge.u])}
    for (k, l), c in edge.cells.items():
        rows[rows_of[k]][cols[l]] = c
    return rows


def _random_cost(rng):
    """Tied small ints, negative and fractional values, floats from 1e-3
    to 1e17, where ``cheapest + c`` rounds, and floats next to 2**53,
    where adding a small int rounds half to even."""
    pick = rng.random()
    if pick < 0.25:
        return rng.choice([-2, -1, 0, 0, 1, 2])
    if pick < 0.4:
        return rng.choice([-1.5, -0.5, 0.25, 0.5, 0.5, 1.5])
    if pick < 0.55:
        return 2.0**53 + rng.choice([-1, 0, 2, 4, 6])
    magnitude = rng.choice([1e-3, 0.1, 7.0, 1e6, 2.0**53, 1e15, 1e17])
    return rng.choice([-1, 1]) * magnitude * rng.uniform(0.5, 2)


def _random_int_cost(rng):
    """Tied small ints, and ints next to 2**53 and 10**17, where converting
    to a float rounds."""
    pick = rng.random()
    if pick < 0.5:
        return rng.choice([-2, -1, 0, 0, 1, 2])
    centre = rng.choice([2**53, -2**53, 10**17])
    return centre + rng.randint(-3, 3)


def _near(rng, centre):
    """An int or a float within a few units of ``centre``."""
    value = centre + rng.randint(-3, 3)
    if rng.random() < 0.5:
        return value
    return float(value) + rng.choice([0, 0.5, 0.25, -0.5])


def _large_costs_iqap(rng):
    """Three to five vertices with int unaries, and int or float cells,
    within a few units of 0, ±2**50, 2**52, 2**53 or 2**54; half of the
    vertices have one unary cost on every label.  Vertex 0 has no edge; the
    others are joined at random."""
    centres = [0, -2**50, 2**50, 2**52, 2**53, 2**54]
    nv = rng.randint(3, 5)
    nl = rng.randint(1, 4)
    allowed = [[DUMMY, *rng.sample(range(nl), k=rng.randint(0, nl))]
               for _ in range(nv)]

    def near_a_centre():
        return rng.choice(centres) + rng.randint(-3, 3)

    costs = []
    for labs in allowed:
        # Equal unaries leave ties that a rounded sum can break.
        same = near_a_centre()
        tied = rng.random() < 0.5
        costs.append([same if tied else near_a_centre() for _ in labs])
    core = IlapInstance(allowed, costs, nl)
    edges = []
    for u in range(1, nv):
        for v in range(u + 1, nv):
            if rng.random() < 0.6:
                cells = {(k, l): _near(rng, rng.choice(centres))
                         for k in allowed[u] for l in allowed[v]
                         if rng.random() < 0.6}
                edges.append((u, v, cells))
    return IqapInstance(core, edges)


def _stored_columns(rng, kind, n, first):
    """Random stored columns of one row of ``kind`` over ``n`` columns;
    ``first`` is the cheapest column."""
    others = [j for j in range(n) if j != first]
    half = n // 2
    if kind == "sparse":
        return rng.sample(others, k=rng.randint(1, half))
    if kind == "sparse, cheapest stored":
        return [first, *rng.sample(others, k=rng.randint(0, half - 1))]
    if kind == "dense":
        return rng.sample(range(n), k=rng.randint(half + 1, n - 1))
    if kind == "full":
        return list(range(n))
    return []


def _sorted_rows_edge(rng, base, cost=_random_cost):
    """A two-vertex instance whose edge rows (over ``len(base)`` columns)
    are empty, sparse, sparse with the cheapest column of ``base`` stored,
    dense or full, with the kind of each row; each cell is ``cost(rng)``."""
    n = len(base)
    kinds = ["empty", "full"]
    if n >= 2:
        kinds += ["sparse", "sparse, cheapest stored"]
    if n >= 3:
        kinds.append("dense")
    num_rows = rng.randint(1, 6)
    core = IlapInstance([[DUMMY, *range(num_rows - 1)], [DUMMY, *range(n - 1)]],
                        [[0] * num_rows, [0] * n], max(num_rows, n) - 1)
    first = base.index(min(base))
    cells = {}
    row_kinds = []
    for k in core.allowed[0]:
        kind = rng.choice(kinds)
        for j in _stored_columns(rng, kind, n, first):
            cells[(k, core.allowed[1][j])] = cost(rng)
        row_kinds.append(kind)
    return IqapInstance(core, [(0, 1, cells)]), row_kinds


def _assert_ascending(rows):
    for row in rows:
        if row is not None:
            costs = [c for _, c in row[2]]
            assert costs == sorted(costs)


def _column_kind(edge, base):
    """The kind of the ``rows_v`` entry for the cheapest column of ``base``,
    the entry the transposed scan reads, or why it is not read."""
    if not edge.nonnegative:
        return "negative cell"
    column = edge.rows_v[base.index(min(base))]
    if column is None:
        return "stored by no row"
    return "dense" if column[0] else "sparse"


def _nonnegative(cost):
    return lambda rng: abs(cost(rng))


def _negative_off_the_cheapest_column(rng, base, cost):
    """A ``_sorted_rows_edge`` instance with ``cost`` made non-negative in
    the rows that store the cheapest column of ``base`` and negative in
    every other row.  The edge holds at least one negative cell."""
    while True:
        inst, _ = _sorted_rows_edge(rng, base, _nonnegative(cost))
        labels = inst.unary.allowed[1]
        cheapest = labels[base.index(min(base))]
        given = inst.edges[0].cells
        rows = {k for k, l in given if l == cheapest}
        cells = {(k, l): c if k in rows else -c - 1
                 for (k, l), c in given.items()}
        if any(c < 0 for c in cells.values()):
            return IqapInstance(inst.unary, [(0, 1, cells)])


class TestRowMinimaEarlyExit:
    @staticmethod
    def check_float_base(cost):
        """The handshake's call against full scans, bit for bit, on edges
        of ``cost`` cells over every row kind; returns the column kinds."""
        rng = seeded(211)
        kinds = set()
        columns = set()
        for _ in range(400):
            n = rng.randint(1, 12)
            base = [float(_random_cost(rng)) for _ in range(n)]
            inst, row_kinds = _sorted_rows_edge(rng, base, cost)
            edge = inst.edges[0]
            _assert_ascending(edge.rows_u)
            got = _row_minima(base, edge.rows_u, _transposes(edge)[0])
            want = _full_scan(base, _stored(edge, inst))
            assert list(map(_bits, got)) == list(map(_bits, want))
            kinds.update(row_kinds)
            columns.add(_column_kind(edge, base))
        assert kinds == {"empty", "sparse", "sparse, cheapest stored",
                         "dense", "full"}
        return columns

    def test_equals_full_scan_bitwise(self):
        assert "negative cell" in self.check_float_base(_random_cost)

    def test_transposed_scan_equals_full_scan_bitwise(self):
        columns = self.check_float_base(_nonnegative(_random_cost))
        assert columns == {"stored by no row", "sparse", "dense"}

    @pytest.mark.parametrize("cells", ["float", "int"])
    def test_negative_cells_off_the_cheapest_column(self, cells):
        # Rows that do not store the cheapest column hold negative cells,
        # so they can undercut it and must be scanned: ``_transposes``
        # gives ``None``.  ``float`` is the handshake's call (a float base,
        # ``scale`` 1), ``int`` is ``dual_bound``'s (an int base and int
        # cells, a power of two).
        rng = seeded({"float": 229, "int": 233}[cells])
        undercut = 0
        for _ in range(300):
            # With one column, every stored cell is on the cheapest one.
            n = rng.randint(2, 12)
            base = [float(_random_cost(rng)) for _ in range(n)]
            cost = _random_cost if cells == "float" else _random_int_cost
            inst = _negative_off_the_cheapest_column(rng, base, cost)
            edge = inst.edges[0]
            assert not edge.nonnegative
            assert _transposes(edge) == (None, None)
            stored = _stored(edge, inst)
            scale = 1
            if cells == "int":
                scale = max(x.as_integer_ratio()[1] for x in base)
                base = _scaled(base, scale)
                stored = [{j: c * scale for j, c in row.items()}
                          for row in stored]
            want = _full_scan(base, stored)
            got = _row_minima(base, edge.rows_u, None, scale)
            assert list(map(_bits, got)) == list(map(_bits, want))
            # The transposed scan would keep a row at the cheapest column.
            skipped = _row_minima(base, edge.rows_u, edge.rows_v, scale)
            undercut += skipped != want
        assert undercut > 0

    @pytest.mark.parametrize("base, cells", [
        # 1 + 2**53 rounds half to even, down to 2**53: below the unstored
        # column, although 2**53 + 2 - 1 also rounds down to 2**53.
        ([1.0, 2.0**53 + 2], {0: 2**53}),
        ([1.0, 2.0**53 + 2, 3.0], {0: 2**53, 2: 2.0**53 + 2}),
        ([0.25, 1e17, 5.0], {0: 1e17 - 16, 1: -1e17, 2: 1e17}),
        ([-0.5, 1e-3, 2.0], {0: 1e-3, 1: -1e-3, 2: 0.5}),
    ])
    def test_rounding_near_the_exit(self, base, cells):
        core = IlapInstance([[DUMMY], [DUMMY, *range(len(base) - 1)]],
                            [[0], [0] * len(base)], len(base) - 1)
        labels = core.allowed[1]
        inst = IqapInstance(core, [(0, 1, {(DUMMY, labels[j]): c
                                           for j, c in cells.items()})])
        edge = inst.edges[0]
        want = _full_scan(base, _stored(edge, inst))
        got = _row_minima(base, edge.rows_u, _transposes(edge)[0])
        assert list(map(_bits, got)) == list(map(_bits, want))

    def test_float_unaries_on_edge_vertices_and_pass_matches_full_scan(
            self, monkeypatch):
        # Int unaries and int or float cells next to 0, ±2**50, 2**52,
        # 2**53 and 2**54, where an int sum is exact and a float sum
        # rounds.  The state holds floats on every vertex with an edge, so
        # the early exit gives, bit for bit, the messages of full scans.
        # First the case that mixed an int base with an int 0 and a 0.5 in
        # one row: 2**53 + 1 + 0 is exact, 2**53 + 1 + 0.5 rounds.
        big = 2**53 + 1
        cases = [two_vertex_instance([1, 1, 1], [big] * 3,
                                     {(DUMMY, DUMMY): 0, (DUMMY, 0): 0.5})]
        rng = seeded(227)
        cases += [_large_costs_iqap(rng) for _ in range(300)]
        for inst in cases:
            state = IqapDualState(inst)
            has_edge = {v for e in inst.edges for v in (e.u, e.v)}
            for v, (row, costs) in enumerate(zip(state.theta_phi,
                                                 inst.unary.costs)):
                want = list(map(float, costs)) if v in has_edge else costs
                assert list(map(_bits, row)) == list(map(_bits, want))
            mplp_pp_pass(state)
            with monkeypatch.context() as patch:
                patch.setattr(wcsp, "_row_minima", _full_scan_of_rows)
                reference = IqapDualState(inst)
                mplp_pp_pass(reference)
            for key, messages in state.phi.items():
                assert (list(map(_bits, messages))
                        == list(map(_bits, reference.phi[key])))

    def test_int_unaries_beyond_2_53_from_a_file(self):
        # Vertex 1's labels cost 2**53 + 1 (exact ints); the row of vertex
        # 0's label stores 0 and 0.5.  The row minimum is the rounded
        # 2**53 + 1 + 0.5 = 2**53, so label 0 receives (1 + 2**53) / 2 - 1
        # with 1 + 2**53 rounded to 2**53.
        big = 2**53 + 1
        inst = parse_dd(f"p 2 2 3 2\na 0 0 0 1\na 1 1 0 {big}\n"
                        f"a 2 1 1 {big}\ne 0 1 0\ne 0 2 0.5\n",
                        dummy_cost=big)
        state = IqapDualState(inst)
        mplp_pp_pass(state)
        assert _bits(state.phi[(0, 1)][1]) == _bits(2.0**52 - 1)

    @pytest.mark.parametrize("call", ["handshake", "dual_bound"])
    def test_dense_rows_by_unstored_count(self, call):
        # Dense rows that leave 0, 1, and 3 or more columns unstored: a
        # lone unstored column is read directly, several take their
        # ``min``, none start the scan at infinity.  ``handshake`` is a
        # float base with ``scale`` 1, ``dual_bound`` an int base and int
        # cells with a power of two.  Each row is checked with every row
        # scanned and with the transposed scan, bit for bit.
        rng = seeded({"handshake": 277, "dual_bound": 281}[call])
        counts = set()
        for _ in range(300):
            n = rng.randint(7, 12)
            base = [float(_random_cost(rng)) for _ in range(n)]
            cost = _random_cost if call == "handshake" else _random_int_cost
            if rng.random() < 0.5:
                cost = _nonnegative(cost)
            num_rows = rng.randint(1, 6)
            core = IlapInstance(
                [[DUMMY, *range(num_rows - 1)], [DUMMY, *range(n - 1)]],
                [[0] * num_rows, [0] * n], max(num_rows, n) - 1)
            cells = {}
            for k in core.allowed[0]:
                unstored = rng.choice([0, 1, rng.randint(3, (n - 1) // 2)])
                for j in rng.sample(range(n), k=n - unstored):
                    cells[(k, core.allowed[1][j])] = cost(rng)
            inst = IqapInstance(core, [(0, 1, cells)])
            edge = inst.edges[0]
            assert all(row[0] for row in edge.rows_u)
            counts.update(len(row[1]) for row in edge.rows_u)
            stored = _stored(edge, inst)
            scale = 1
            if call == "dual_bound":
                scale = max(x.as_integer_ratio()[1] for x in base)
                base = _scaled(base, scale)
                stored = [{j: c * scale for j, c in row.items()}
                          for row in stored]
            want = list(map(_bits, _full_scan(base, stored)))
            for trans in (None, _transposes(edge)[0]):
                got = _row_minima(base, edge.rows_u, trans, scale)
                assert list(map(_bits, got)) == want
        assert {0, 1, 3, 4} <= counts

    def test_equals_full_scan_on_int_scaled_rows(self):
        # ``dual_bound``'s call on an edge of int cells: the base scaled to
        # ints by a power of two, the edge's own row table and that power
        # of two, by which the scan multiplies each cell it reads.  Then a
        # handshake's call: a float base and ``scale`` 1.
        self.check_int_scaled_rows(_random_int_cost)

    def test_transposed_scan_on_int_scaled_rows(self):
        self.check_int_scaled_rows(_nonnegative(_random_int_cost))

    @staticmethod
    def check_int_scaled_rows(cost):
        rng = seeded(223)
        kinds = set()
        for _ in range(300):
            n = rng.randint(1, 12)
            base = [float(_random_cost(rng)) for _ in range(n)]
            inst, row_kinds = _sorted_rows_edge(rng, base, cost)
            edge = inst.edges[0]
            assert edge.integral
            scale = max(x.as_integer_ratio()[1] for x in base)
            int_base = _scaled(base, scale)
            stored = _stored(edge, inst)
            scaled = [{j: c * scale for j, c in row.items()} for row in stored]
            trans = _transposes(edge)[0]
            got = _row_minima(int_base, edge.rows_u, trans, scale)
            assert all(type(x) is int for x in got)
            assert got == _full_scan(int_base, scaled)
            got = _row_minima(base, edge.rows_u, trans, 1)
            assert list(map(_bits, got)) == list(map(_bits,
                                                     _full_scan(base, stored)))
            kinds.update(row_kinds)
        assert kinds == {"empty", "sparse", "sparse, cheapest stored",
                         "dense", "full"}


class TestRowOrder:
    @pytest.mark.parametrize("name", ["toy1.dd", "toy2.dd", "toy3.dd", "qap3.dat"])
    def test_cells_ascend_after_load_and_augmentation(self, name):
        path = FIXTURES / name
        inst = load_instance(path)
        for built in (inst, augment_instance(inst),
                      load_instance(path, augment=True)):
            for e in built.edges:
                _assert_ascending(e.rows_u)
                _assert_ascending(e.rows_v)
