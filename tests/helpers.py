"""Shared builders for the test suite: the worked 5x5 example, seeded
random instance generators, the benchmark's instance writers, an LP
reference for bounds, a reference LAP solver, reference line-by-line
instance readers, and references for what the package does not run: the
primal half of the reduction's mapping, the per-edge message-passing
rules, and instance writers."""

import importlib.util
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from pathlib import Path

import pytest

from qapbound import formats, wcsp
from qapbound.model import (
    DUMMY,
    FeasibilityError,
    IlapInstance,
    IqapInstance,
    LapDual,
    LapInstance,
    _as_cost,
    require_dual_feasible,
)
from qapbound.oracle import (
    _labels_unused_somewhere,
    _optimal_pairs,
    brute_force_optimum,
)
from qapbound.reduction import _map_dual_unchecked, reduce_ilap_to_lap
from qapbound.records import (
    ParseError,
    _cost_field,
    _index_field,
    _int_field,
    _pair_record,
)

EXAMPLE1_COSTS = [
    [3, 3, 3, 7, 6],
    [3, 3, 9, 9, 8],
    [9, 10, 4, 7, 11],
    [4, 4, 4, 8, 11],
    [8, 9, 4, 7, 13],
]
EXAMPLE1_MATCHING = [4, 0, 3, 1, 2]
EXAMPLE1_VALUE = 24  # frozen from exhaustive enumeration of all 120 bijections
# tight pairs of the initial dual, row by row
EXAMPLE1_INITIAL_ACTIVE = {
    (0, 0), (0, 1), (0, 2), (0, 4),
    (1, 0), (1, 1),
    (2, 2), (2, 3),
    (3, 0), (3, 1), (3, 2),
    (4, 2), (4, 3),
}
# pairs realized by some optimal assignment (circled in the figure)
EXAMPLE1_OPTIMAL_PAIRS = {
    (0, 4),
    (1, 0), (1, 1),
    (2, 2), (2, 3),
    (3, 0), (3, 1),
    (4, 2), (4, 3),
}


def example1_instance():
    return LapInstance([list(range(5))] * 5, EXAMPLE1_COSTS)


def example1_initial_dual():
    return LapDual([2, 2, 3, 3, 3], [1, 1, 1, 4, 4])


def example1_final_dual():
    return LapDual([2, 3, 5, 4, 5], [0, 0, -1, 2, 4])


def random_lap(rng, n, *, extra=0.35, lo=0, hi=9):
    """Random square instance with a planted perfect matching."""
    perm = list(range(n))
    rng.shuffle(perm)
    allowed = []
    costs = []
    for v in range(n):
        labs = {perm[v]}
        for lab in range(n):
            if rng.random() < extra:
                labs.add(lab)
        labs = sorted(labs)
        allowed.append(labs)
        costs.append([rng.randint(lo, hi) for _ in labs])
    return LapInstance(allowed, costs)


def random_ilap(rng, *, max_vertices=6, max_labels=6, allow=0.55,
                lo=-5, hi=9):
    nv = rng.randint(1, max_vertices)
    nl = rng.randint(1, max_labels)
    allowed = []
    costs = []
    for v in range(nv):
        labs = [DUMMY] + [lab for lab in range(nl) if rng.random() < allow]
        allowed.append(labs)
        costs.append([rng.randint(lo, hi) for _ in labs])
    return IlapInstance(allowed, costs, nl)


def assert_exact_dual_feasible(inst, dual):
    """The dual check with no window: every slack ``cost - alpha - beta``
    of ``inst``, computed as a ``Fraction``, is ``>= 0`` (the dummy label
    has potential 0)."""
    assert len(dual.alpha) == inst.num_vertices
    assert len(dual.beta) == inst.num_labels
    for v, (labs, cs) in enumerate(zip(inst.allowed, inst.costs)):
        for lab, c in zip(labs, cs):
            b = 0 if lab == DUMMY else Fraction(dual.beta[lab])
            assert Fraction(c) - Fraction(dual.alpha[v]) - b >= 0, (v, lab)


def random_iqap(rng, *, max_vertices=5, max_labels=4, max_edges=6,
                lo=-5, hi=5, cell_prob=0.4, dummy_cells=True):
    nv = rng.randint(2, max_vertices)
    nl = rng.randint(1, max_labels)
    allowed = []
    for v in range(nv):
        k = rng.randint(0, nl)
        allowed.append([DUMMY] + sorted(rng.sample(range(nl), k=k)))
    costs = [[rng.randint(lo, hi) for _ in labs] for labs in allowed]
    core = IlapInstance(allowed, costs, nl)
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    rng.shuffle(pairs)
    edges = []
    for (u, v) in pairs[:rng.randint(0, min(max_edges, len(pairs)))]:
        cells = {}
        for k in core.allowed[u]:
            for l in core.allowed[v]:
                if not dummy_cells and DUMMY in (k, l):
                    continue
                if rng.random() < cell_prob:
                    c = rng.randint(lo, hi)
                    if c != 0:
                        cells[(k, l)] = c
        edges.append((u, v, cells))
    return IqapInstance(core, edges)


def edge_layout(inst):
    """Every edge of ``inst`` as its endpoints, cells, row tables and
    ``integral`` flag, for comparing two constructions."""
    return [(e.u, e.v, list(e.cells.items()), e.rows_u, e.rows_v, e.integral)
            for e in inst.edges]


def random_feasible_ilap_assignment(rng, inst):
    """Uniform-ish feasible assignment: greedy with the dummy as fallback."""
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


def random_reduced_matching(rng, inst, reduced, max_restarts=200):
    """Random perfect matching of a reduced square instance.

    Greedy over a shuffled node order with restarts; falls back to lifting a
    random feasible assignment (always possible) when unlucky.
    """
    size = reduced.num_vertices
    for _ in range(max_restarts):
        order = list(range(size))
        rng.shuffle(order)
        taken = set()
        xp = [None] * size
        ok = True
        for node in order:
            options = [lab for lab in reduced.allowed[node]
                       if lab not in taken]
            if not options:
                ok = False
                break
            lab = rng.choice(options)
            taken.add(lab)
            xp[node] = lab
        if ok:
            return xp
    from qapbound.reduction import lift_assignment

    return lift_assignment(inst, random_feasible_ilap_assignment(rng, inst))


def seeded(seed):
    return random.Random(seed)


GENERATORS = Path(__file__).resolve().parents[1] / "perfbench" / "instances.py"


def benchmark_generators():
    """The benchmark's seeded instance writers, loaded by file path."""
    spec = importlib.util.spec_from_file_location("perfbench_instances",
                                                  GENERATORS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lp_relaxation_optimum(inst):
    """Optimum of the LP relaxation whose dual the solver ascends.

    The local polytope of ``inst`` plus one row per non-dummy label: one
    variable per vertex and allowed label, and one per edge and label pair
    (an unstored pair costs 0).  Each vertex's labels sum to 1, each edge's
    pairs sum to each endpoint's label, and each non-dummy label is used at
    most once in total.  Every certified bound lies at or below this
    optimum.  Solved with scipy's HiGHS; a test without scipy is skipped.
    """
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    unary = inst.unary
    cost = []
    column = {}
    for v, (labs, costs) in enumerate(zip(unary.allowed, unary.costs)):
        for lab, c in zip(labs, costs):
            column[(v, lab)] = len(cost)
            cost.append(float(c))
    rows, cols, vals, rhs = [], [], [], []

    def equal(entries, value):
        for j, a in entries:
            rows.append(len(rhs))
            cols.append(j)
            vals.append(a)
        rhs.append(value)

    for v, labs in enumerate(unary.allowed):
        equal([(column[(v, lab)], 1) for lab in labs], 1)
    for e in inst.edges:
        labs_u, labs_v = unary.allowed[e.u], unary.allowed[e.v]
        cells = e.cells
        pair = {}
        for k in labs_u:
            for l in labs_v:
                pair[(k, l)] = len(cost)
                cost.append(float(cells.get((k, l), 0)))
        for k in labs_u:
            equal([(pair[(k, l)], 1) for l in labs_v]
                  + [(column[(e.u, k)], -1)], 0)
        for l in labs_v:
            equal([(pair[(k, l)], 1) for k in labs_u]
                  + [(column[(e.v, l)], -1)], 0)
    labels = [lab for _, lab in column if lab != DUMMY]
    used = [j for (_, lab), j in column.items() if lab != DUMMY]
    a_eq = sparse.csr_matrix((vals, (rows, cols)), shape=(len(rhs), len(cost)))
    a_ub = sparse.csr_matrix(([1] * len(used), (labels, used)),
                             shape=(inst.num_labels, len(cost)))
    result = optimize.linprog(cost, A_ub=a_ub, b_ub=[1] * inst.num_labels,
                              A_eq=a_eq, b_eq=rhs, bounds=(0, None),
                              method="highs")
    assert result.status == 0, result.message
    return result.fun


def reference_solve_lap(inst):
    """``lap.solve_lap`` as it was before its sweeps shared their arrays
    and stopped pushing at the best free label: fresh ``dist``, ``pred``
    and ``done`` lists per sweep, and a push on every strict drop.  The
    solver must return a ``repr``-identical result."""
    n = inst.num_vertices
    if n == 0:
        return [], LapDual([], [])
    alpha = [min(cs) for cs in inst.costs]
    zero = 0 if inst.integral else 0.0
    beta = [zero] * n
    match_label = [-1] * n
    match_vertex = [-1] * n
    for start in range(n):
        dist = [math.inf] * n
        pred = [-1] * n
        done = [False] * n
        scanned = []
        heap = []
        u = start
        path_len = zero
        while True:
            au = alpha[u]
            for lab, c in zip(inst.allowed[u], inst.costs[u]):
                if done[lab]:
                    continue
                nd = path_len + c - au - beta[lab]
                if nd < dist[lab]:
                    dist[lab] = nd
                    pred[lab] = u
                    heappush(heap, (nd, lab))
            while heap:
                best_dist, best = heappop(heap)
                if not done[best] and best_dist == dist[best]:
                    break
            else:
                return None
            done[best] = True
            scanned.append(best)
            if match_vertex[best] < 0:
                break
            u = match_vertex[best]
            path_len = best_dist
        for lab in scanned:
            diff = dist[lab] - best_dist
            beta[lab] += diff
            owner = match_vertex[lab]
            if owner >= 0:
                alpha[owner] -= diff
        alpha[start] += best_dist
        lab = best
        while True:
            u = pred[lab]
            next_lab = match_label[u]
            match_label[u] = lab
            match_vertex[lab] = u
            if u == start:
                break
            lab = next_lab
    return match_label, LapDual(alpha, beta)


def _reference_records(text):
    """(line number, tokens) for each record line, as the readers split a
    text before they read records a block at a time."""
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("c"):
            yield number, stripped.split()


def reference_parse_dd(text, *, dummy_cost=formats.DEFAULT_DUMMY_COST,
                       augment=False):
    """``formats.parse_dd`` as it was before it read ``a`` and ``e``
    records a block at a time: every record through the field rules, line
    by line.  The reader must return an equal instance or raise the same
    message."""
    dummy_cost = _as_cost(dummy_cost, "dummy cost")
    header = None
    records = {}
    unary = {}
    edge_cells = {}
    for line, tokens in _reference_records(text):
        kind = tokens[0]
        if kind == "p":
            if header is not None:
                raise ParseError("duplicate header", line)
            if len(tokens) != 5:
                raise ParseError("header must be 'p N0 N1 A E'", line)
            header = tuple(_int_field(t, "header field", line) for t in tokens[1:])
            if any(v < 0 for v in header):
                raise ParseError("header counts must be non-negative", line)
            header_line = line
        elif kind == "a":
            if header is None:
                raise ParseError("assignment record before header", line)
            if len(tokens) != 5:
                raise ParseError(
                    "assignment record must be 'a id vertex label cost'", line)
            rec_id = _index_field(tokens[1], "assignment id", header[2], line)
            if rec_id in records:
                raise ParseError(f"duplicate assignment id {rec_id}", line)
            records[rec_id] = _pair_record(tokens[2:], header[0], header[1],
                                           unary, line)
        elif kind == "e":
            if header is None:
                raise ParseError("edge record before header", line)
            if len(tokens) != 4:
                raise ParseError("edge record must be 'e id1 id2 cost'", line)
            id1 = _int_field(tokens[1], "assignment id", line)
            id2 = _int_field(tokens[2], "assignment id", line)
            cost = _cost_field(tokens[3], line)
            if id1 not in records or id2 not in records:
                missing = id1 if id1 not in records else id2
                raise ParseError(
                    f"edge references unknown assignment id {missing}", line)
            u, k = records[id1]
            v, l = records[id2]
            if u == v:
                raise ParseError(
                    f"edge connects two assignments of vertex {u}", line)
            if u > v:
                u, v, k, l = v, u, l, k
            cells = edge_cells.setdefault((u, v), {})
            if (k, l) in cells:
                raise ParseError(
                    f"duplicate edge between assignment ids {min(id1, id2)} "
                    f"and {max(id1, id2)}", line)
            cells[(k, l)] = cost
        else:
            raise ParseError(f"unknown record type {kind!r}", line)
    if header is None:
        raise ParseError("missing 'p' header")
    n0, n1, a_count, e_count = header
    if len(records) != a_count:
        raise ParseError(
            f"header announces {a_count} assignments, file has {len(records)}",
            header_line)
    num_edges = sum(map(len, edge_cells.values()))
    if num_edges != e_count:
        raise ParseError(
            f"header announces {e_count} edges, file has {num_edges}",
            header_line)
    allowed, costs = formats._rows(n0, unary, [dummy_cost] * n0)
    try:
        core = IlapInstance(allowed, costs, n1)
        edges = [(u, v, cells) for (u, v), cells in edge_cells.items()]
        if augment:
            formats._augment_cells(core, edges)
        return IqapInstance(core, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def reference_parse_lap_file(text):
    """``formats.parse_lap_file`` as it was before it read ``a`` records
    a block at a time, as ``reference_parse_dd`` is to ``parse_dd``."""
    header = None
    dummy = {}
    entries = {}
    for line, tokens in _reference_records(text):
        kind = tokens[0]
        if kind == "p":
            if header is not None:
                raise ParseError("duplicate header", line)
            if len(tokens) >= 2 and tokens[1] == "lap":
                if len(tokens) != 3:
                    raise ParseError("header must be 'p lap n'", line)
                n = _int_field(tokens[2], "size", line)
                header = ("lap", n, n)
            elif len(tokens) >= 2 and tokens[1] == "ilap":
                if len(tokens) != 4:
                    raise ParseError("header must be 'p ilap nv nl'", line)
                header = ("ilap", _int_field(tokens[2], "vertex count", line),
                          _int_field(tokens[3], "label count", line))
            else:
                raise ParseError("header must start 'p lap' or 'p ilap'", line)
            if min(header[1:]) < 0:
                raise ParseError("header counts must be non-negative", line)
        elif kind == "d":
            if header is None or header[0] != "ilap":
                raise ParseError("dummy record outside an ilap file", line)
            if len(tokens) != 3:
                raise ParseError("dummy record must be 'd vertex cost'", line)
            v = _index_field(tokens[1], "vertex", header[1], line)
            if v in dummy:
                raise ParseError(f"duplicate dummy record for vertex {v}", line)
            dummy[v] = _cost_field(tokens[2], line)
        elif kind == "a":
            if header is None:
                raise ParseError("assignment record before header", line)
            if len(tokens) != 4:
                raise ParseError("record must be 'a vertex label cost'", line)
            _pair_record(tokens[1:], header[1], header[2], entries, line)
        else:
            raise ParseError(f"unknown record type {kind!r}", line)
    if header is None:
        raise ParseError("missing 'p' header")
    kind, nv, nl = header
    square = kind == "lap"
    allowed, costs = formats._rows(
        nv, entries, None if square else [dummy.get(v, 0) for v in range(nv)])
    try:
        if square:
            return LapInstance(allowed, costs)
        return IlapInstance(allowed, costs, nl)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# The primal half of the reduction's mapping.  The package maps only duals
# back (inside ``solve_ilap``); these references state the paper's claim
# that the mapping also carries primal optima, and relative-interior
# membership, over to the original instance.  A primal vector ``mu`` maps a
# vertex to a ``{label: mass}`` row.


@dataclass(frozen=True)
class Violation:
    """The first primal constraint ``lap_primal_feasible`` finds violated."""

    kind: str
    message: str
    vertex: int | None = None
    label: int | None = None


def lap_primal_feasible(inst, mu):
    """Diagnose the first primal constraint ``mu`` violates beyond ``atol``.

    Rows are keyed by vertices and sum to one.  Columns of a
    ``LapInstance`` sum to one; those of an ``IlapInstance`` sum to at most
    one, and its dummy column is free.
    """
    tol = inst.atol
    for v in mu:
        if v not in range(inst.num_vertices):
            return Violation("dimension", f"mu has a row for {v!r}, "
                             f"outside vertices 0..{inst.num_vertices - 1}")
    square = isinstance(inst, LapInstance)
    col = [0] * inst.num_labels
    for v in range(inst.num_vertices):
        row_sum = 0
        for lab, value in mu.get(v, {}).items():
            if not inst.allows(v, lab):
                return Violation("disallowed",
                                 f"mu[{v}][{lab}] set on a disallowed pair", v, lab)
            if value < -tol:
                return Violation("negative", f"mu[{v}][{lab}] = {value} < 0", v, lab)
            row_sum += value
            if lab != DUMMY:
                col[lab] += value
        if abs(row_sum - 1) > tol:
            return Violation("row", f"mu row {v} sums to {row_sum}, expected 1", v)
    for lab, s in enumerate(col):
        if square and abs(s - 1) > tol:
            return Violation("column", f"mu column {lab} sums to {s}, expected 1",
                             None, lab)
        if s > 1 + tol:
            return Violation("column", f"mu column {lab} sums to {s} > 1",
                             None, lab)
    return None


def map_dual(inst, dual_p):
    """Fold a feasible reduced-instance dual back onto ``inst``, as
    ``solve_ilap`` does without the check."""
    require_dual_feasible(reduce_ilap_to_lap(inst), dual_p)
    return _map_dual_unchecked(inst.num_vertices, inst.num_labels, dual_p)


def map_primal(inst, mu_p):
    """Fold a reduced-instance primal vector back onto ``inst``.

    Non-dummy mass averages the two mirrored entries; dummy mass is the
    vertex self-loop mass.  The paper shows that this preserves
    feasibility, optimality and relative-interior membership.
    """
    viol = lap_primal_feasible(reduce_ilap_to_lap(inst), mu_p)
    if viol is not None:
        raise FeasibilityError(viol.message)
    nv = inst.num_vertices
    mu = {}
    for v in range(nv):
        row_p = mu_p.get(v, {})
        row = {}
        for lab in inst.allowed[v]:
            if lab == DUMMY:
                row[DUMMY] = row_p.get(v, 0)
            else:
                node = nv + lab
                mirrored = mu_p.get(node, {}).get(v, 0)
                row[lab] = (row_p.get(node, 0) + mirrored) / 2
        mu[v] = row
    return mu


def minimally_assignable_pairs(inst):
    """Pairs (vertex, label) realized by at least one optimal assignment."""
    return _optimal_pairs(brute_force_optimum(inst)[1])


def check_primal_relative_interior(inst, mu) -> bool:
    """Whether ``mu`` lies in the relative interior of the primal optima.

    The support of ``mu`` must be exactly the minimally assignable pairs;
    for dummy-label instances a label's column mass must hit one exactly
    when every optimal assignment uses that label.
    """
    if not isinstance(inst, (LapInstance, IlapInstance)):
        raise TypeError("primal checks cover unary instances only")
    viol = lap_primal_feasible(inst, mu)
    if viol is not None:
        raise FeasibilityError(viol.message)
    _, optima = brute_force_optimum(inst)
    atol = inst.atol
    support = {(v, lab) for v, row in mu.items()
               for lab, value in row.items() if value > atol}
    if support != _optimal_pairs(optima):
        return False
    if isinstance(inst, LapInstance):
        return True
    col = [0] * inst.num_labels
    for row in mu.values():
        for lab, value in row.items():
            if lab != DUMMY:
                col[lab] += value
    saturated = {lab for lab, s in enumerate(col) if s >= 1 - atol}
    always_used = set(range(inst.num_labels)) - _labels_unused_somewhere(
        optima, inst.num_labels)
    return saturated == always_used


# ---------------------------------------------------------------------------
# Per-edge message passing: what ``wcsp.mplp_pp_pass`` and
# ``bounds.dual_bound`` do inline, one edge or one cell at a time.


def copy_state(state):
    """An independent copy of an ``IqapDualState``, for paired steps."""
    dup = wcsp.IqapDualState.__new__(wcsp.IqapDualState)
    dup.inst = state.inst
    dup.beta = list(state.beta)
    dup.theta_phi = [list(row) for row in state.theta_phi]
    dup.phi = {key: list(vals) for key, vals in state.phi.items()}
    return dup


def reparam_pairwise(state, u, v, k, l):
    """Reparametrized pairwise cost of labeling ``u`` with ``k``, ``v`` with ``l``."""
    base = state.inst.pairwise_cost(u, v, k, l)
    iu = state.inst.unary.label_index(u, k)
    iv = state.inst.unary.label_index(v, l)
    return base - state.phi[(v, u)][iv] - state.phi[(u, v)][iu]


def mplp_pp_edge_update(state, u, v):
    """One handshake on edge (u, v), the step a pass takes per edge.

    Each side's update reads only the state before the handshake, so the
    order of ``u`` and ``v`` does not matter.
    """
    edge = state.inst.edge_between(u, v)
    if edge is None:
        raise ValueError(f"no edge between vertices {u} and {v}")
    wcsp._handshake(state, edge, state.potentials(edge.u),
                    state.potentials(edge.v))


def pairwise_minimum(state, edge):
    """Minimum reparametrized pairwise cost of ``edge`` over all label
    pairs, through the kernel that ``dual_bound`` uses."""
    return wcsp._edge_minimum(state.phi[(edge.u, edge.v)],
                              state.phi[(edge.v, edge.u)], edge, edge.rows_u)


# ---------------------------------------------------------------------------
# Instance writers, for building test texts.


def serialize_dd(inst):
    """Render a quadratic instance in the graph-matching text format.

    The format cannot express dummy costs (they are dropped; the round trip
    is exact when they match the parser's default) nor pairwise cells that
    involve the dummy label (those raise).
    """
    unary = inst.unary
    ids = {}
    a_lines = []
    for v in range(unary.num_vertices):
        for lab, cost in zip(unary.allowed[v], unary.costs[v]):
            if lab == DUMMY:
                continue
            ids[(v, lab)] = len(ids)
            a_lines.append(f"a {ids[(v, lab)]} {v} {lab} {cost}")
    e_lines = []
    for e in inst.edges:
        for (k, l), cost in sorted(e.cells.items()):
            if k == DUMMY or l == DUMMY:
                raise ValueError(
                    f"edge ({e.u}, {e.v}) prices the dummy label, which this "
                    "format cannot express")
            e_lines.append(f"e {ids[(e.u, k)]} {ids[(e.v, l)]} {cost}")
    header = (f"p {unary.num_vertices} {unary.num_labels} "
              f"{len(a_lines)} {len(e_lines)}")
    return "\n".join([header, *a_lines, *e_lines]) + "\n"


def serialize_lap_file(inst):
    """Render a square or dummy-label instance in the assignment format.

    The dummy label sorts first in each row, so a vertex's ``d`` line
    comes before its ``a`` lines.
    """
    if isinstance(inst, LapInstance):
        lines = [f"p lap {inst.num_vertices}"]
    elif isinstance(inst, IlapInstance):
        lines = [f"p ilap {inst.num_vertices} {inst.num_labels}"]
    else:
        raise TypeError("expected a LapInstance or IlapInstance")
    for v in range(inst.num_vertices):
        for lab, cost in zip(inst.allowed[v], inst.costs[v]):
            lines.append(f"d {v} {cost}" if lab == DUMMY
                         else f"a {v} {lab} {cost}")
    return "\n".join(lines) + "\n"


def qap_objective(flow, dist, perm):
    """Flow/distance objective of a permutation."""
    n = len(flow)
    return sum(flow[u][v] * dist[perm[u]][perm[v]]
               for u in range(n) for v in range(n))
