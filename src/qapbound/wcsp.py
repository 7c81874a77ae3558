"""Reparametrization state and edge-wise message passing.

The dual of the pairwise relaxation splits into messages ``phi`` (one value
per directed edge endpoint and label) and label potentials ``beta``.  A
message shifts cost between an edge and one of its endpoint unaries without
changing any assignment's total cost:

* reparametrized unary: original cost plus all outgoing messages,
* reparametrized pairwise: stored cost minus the two incoming messages.

A handshake on an edge absorbs both endpoint unaries (with ``beta``
subtracted from non-dummy labels) into the edge and returns half of each
min-marginal to each side.  Afterwards the edge's reparametrized pairwise
costs are non-negative and vanish at the joint minimizer, and the lower
bound cannot decrease.  One pass (``mplp_pp_pass``) applies the handshake
once per edge in ascending endpoint order.

Both the update and the bound's per-edge minimum reduce to row minima: for
each label of one endpoint, the cheapest sum of a cost vector over the
other endpoint's labels and the stored cell (zero where none is stored).
They read the row tables that every ``PairwiseEdge`` builds once at
construction, so a sweep builds no per-edge structure: a row without
stored cells is answered by the cheapest column alone, a sparse row by the
cheapest column it does not store, and a dense row by the few columns it
does not store, before its stored cells are compared.  A dense row with
one unstored column reads that column directly; every row of an augmented
QAPLIB edge is such a row, its one unstored column the dummy's.  That
saves a comprehension per row, which on Python 3.11 runs in a frame of
its own; 3.12 inlines comprehensions (PEP 709), so it gains less there.

On an edge whose cells are all non-negative, a row that does not store the
cheapest column is answered by that column: no stored cell can undercut
it.  So the scan reads the transposed table's entry for that column, the
rows that store it, and visits only those (about three in ten on
graph-matching edges).  A pass builds the label potential of each label
once, as one row per vertex read from ``model._label_potentials`` (so the
dummy's is 0), and a handshake subtracts that row from the cached unaries.

Each row's stored cells are kept in ascending cost order, so the scan of a
row stops at its first cell whose cost plus the cheapest column is not below
the running minimum.  The exit is exact: every later cell costs at least as
much and sits on a column at least as cheap, and rounding is monotone, so
no later cell can be strictly smaller.  That needs every sum of a scan
rounded by one monotone map, which the number types of ``IqapDualState``
give: a handshake scans an all-float ``base``, and ``bounds.dual_bound``
ints only.  ``dual_bound`` passes its power of two ``scale`` into the scan,
which multiplies each int cell it reads by it; int cells times one positive
power of two keep each row's order, so the scan stops at the same cell, and
a cell it never reads is never scaled.  An edge with a float cell is
scaled to ints by ``dual_bound`` before the scan.
"""

from __future__ import annotations

from operator import sub

from .model import IqapInstance, _label_potentials

_INF = float("inf")


class IqapDualState:
    """Mutable dual state: messages, label potentials, cached unaries.

    ``theta_phi[v]`` caches the reparametrized unary costs of vertex ``v``
    (parallel to ``inst.unary.allowed[v]``) and is maintained incrementally
    as messages change.  ``beta`` holds one non-positive value per non-dummy
    label.  ``phi[(v, u)]`` is the message from ``v`` toward neighbor ``u``,
    parallel to ``inst.unary.allowed[v]``.

    ``theta_phi`` is float on every vertex with an edge from the start; an
    edge-free vertex keeps its int costs for the exact label step.  So the
    kernel adds in one arithmetic: a handshake's ``base`` is all floats,
    and ``bounds.dual_bound`` scales everything to ints.

    A state belongs to one solver run.
    """

    __slots__ = ("inst", "beta", "phi", "theta_phi")

    def __init__(self, inst: IqapInstance):
        self.inst = inst
        self.beta = [0] * inst.num_labels
        self.phi = {}
        for e in inst.edges:
            self.phi[(e.u, e.v)] = [0] * len(inst.unary.allowed[e.u])
            self.phi[(e.v, e.u)] = [0] * len(inst.unary.allowed[e.v])
        has_edge = {v for v, _ in self.phi}
        self.theta_phi = [list(map(float, row)) if v in has_edge else list(row)
                          for v, row in enumerate(inst.unary.costs)]


def _row_minima(base: list, rows: tuple, trans: tuple | None,
                scale: int = 1) -> list:
    """Per row r: min over columns j of ``base[j] + scale * stored(r, j)``.

    ``rows`` is a ``PairwiseEdge`` row table (``rows_u`` or ``rows_v``);
    absent cells count as zero.  ``trans`` is its transpose, the other
    table of the same edge, or ``None`` when the edge has a negative cell
    (see ``_transposes``).  Only the structure of ``trans`` is read, so it
    may hold unscaled costs.

    ``cheapest`` is the smallest entry of ``base`` and ``first`` its first
    column.  Every row starts at ``cheapest``, and only the rows that store
    column ``first``, which ``trans[first]`` lists, are scanned.  On an
    edge without negative cells that is exact.  A row that does not store
    ``first`` has the value ``cheapest`` there, and every other column
    ``j`` gives ``base[j] + c`` with ``base[j] >= cheapest`` and ``c >= 0``,
    which rounds to at least ``cheapest`` since rounding is monotone.  A
    scan of such a row starts at ``cheapest`` itself (a dense row's unstored
    columns ascend, so their ``min`` is ``base[first]``) and keeps it, since
    a value replaces the running minimum only when strictly smaller.  Every
    row is scanned when ``trans`` is ``None``, and when ``trans[first]`` is
    a dense entry, which lists the rows that do not store the column: most
    rows need the scan then, and the few others get their unchanged value.

    Each stored cell is multiplied by ``scale`` when the scan reads it, so
    no caller copies the table to scale it.  The cheapest column answers
    every scanned row that stores no cell, and every sparse row that does
    not store that column; a sparse row that does walks the columns in
    ascending ``base`` order (ties to the smaller index) to its first
    unstored one.  A dense row takes the minimum over its few unstored
    columns, reading a lone unstored column directly (with none it starts
    at infinity).  The stored cells come last, in ascending cost order, each
    replacing the running minimum only when strictly smaller, so every row
    yields exactly the value of a strict scan in that order.

    The scan of the cells stops at the first cell ``(j, c)``, ``c`` scaled,
    with ``cheapest + c >= best``.  Every later cell ``(j', c')`` has
    ``c' >= c`` and ``base[j'] >= cheapest``, so ``base[j'] + c' >= best``
    whenever every sum is rounded by one monotone map: when ``base`` is all
    floats and ``scale`` is 1, or ``base`` and the cells are all ints and
    ``scale`` is positive (see ``IqapDualState``).
    """
    cheapest = min(base)
    first = base.index(cheapest)
    out = [cheapest] * len(rows)
    scan = range(len(rows))
    if trans is not None:
        column = trans[first]
        if column is None:
            return out
        if not column[0]:
            scan = column[1]
    order = None
    for r in scan:
        row = rows[r]
        if row is None:
            continue
        dense, cols, cells = row
        if dense:
            if len(cols) == 1:
                best = base[cols[0]]
            elif cols:
                best = min([base[j] for j in cols])
            else:
                best = _INF
        elif first not in cols:
            best = cheapest
        else:
            if order is None:
                order = sorted(range(len(base)), key=base.__getitem__)
            for j in order:
                if j not in cols:
                    best = base[j]
                    break
        for j, c in cells:
            c *= scale
            if cheapest + c >= best:
                break
            val = base[j] + c
            if val < best:
                best = val
        out[r] = best
    return out


def _transposes(edge) -> tuple:
    """``_row_minima``'s ``trans`` for ``edge.rows_u`` and for
    ``edge.rows_v``: the other table, or ``None`` for both when the edge
    has a negative cell."""
    if edge.nonnegative:
        return edge.rows_v, edge.rows_u
    return None, None


def _handshake(state: IqapDualState, e, pot_u: list, pot_v: list) -> None:
    """Edge update on ``e``, with the label potential of each label of
    ``e.u`` and of ``e.v`` given as rows parallel to their allowed rows."""
    u, v = e.u, e.v
    phi_uv = state.phi[(u, v)]
    phi_vu = state.phi[(v, u)]
    unary_u = state.theta_phi[u]
    unary_v = state.theta_phi[v]
    tu = list(map(sub, unary_u, pot_u))
    tv = list(map(sub, unary_v, pot_v))
    base_u = list(map(sub, tu, phi_uv))
    base_v = list(map(sub, tv, phi_vu))
    trans_u, trans_v = _transposes(e)
    min_over_v = _row_minima(base_v, e.rows_u, trans_u)
    min_over_u = _row_minima(base_u, e.rows_v, trans_v)
    for k in range(len(base_u)):
        delta = (base_u[k] + min_over_v[k]) / 2 - tu[k]
        phi_uv[k] += delta
        unary_u[k] += delta
    for l in range(len(base_v)):
        delta = (base_v[l] + min_over_u[l]) / 2 - tv[l]
        phi_vu[l] += delta
        unary_v[l] += delta


def mplp_pp_pass(state: IqapDualState, *, backward: bool = False) -> None:
    """Apply the handshake once per edge, in ascending endpoint order.

    ``backward`` adds a second sweep in reverse order; ``bounds.run``
    never asks for it.  A handshake leaves ``beta`` alone, so the
    potential rows are built once per pass.
    """
    edges = state.inst.edges
    pot = _label_potentials(state.beta)
    pots = [list(map(pot.__getitem__, labs)) for labs in state.inst.unary.allowed]
    for e in edges:
        _handshake(state, e, pots[e.u], pots[e.v])
    if backward:
        for e in reversed(edges):
            _handshake(state, e, pots[e.u], pots[e.v])


def _edge_minimum(out_u: list, out_v: list, edge, rows_u: tuple,
                  scale: int = 1):
    """Minimum over label pairs of ``scale`` times a stored cell minus both
    messages.

    ``out_u`` and ``out_v`` are ``edge``'s outgoing messages from ``u`` and
    from ``v``; ``rows_u`` is ``edge.rows_u`` or a copy of it with its
    cells scaled (cells may be any numbers).
    """
    per_row = _row_minima([-p for p in out_v], rows_u, _transposes(edge)[0],
                          scale)
    return min(map(sub, per_row, out_u))
