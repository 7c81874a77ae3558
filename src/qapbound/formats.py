"""Instance file formats, benchmark conversion, and instance surgery.

Three text formats are supported.

Graph-matching format (``.dd``)::

    c <comment>
    p <N0> <N1> <A> <E>
    a <id> <vertex> <label> <cost>
    e <id1> <id2> <cost>

``N0`` vertices and ``N1`` labels; ``A`` assignment records with ids dense
in 0..A-1, each opening one (vertex, label) pair with its unary cost; ``E``
edge records attaching a pairwise cost to two assignment ids on distinct
vertices.  A dummy label is appended to every vertex at a configurable cost
(``DEFAULT_DUMMY_COST``, zero: formats of this family price non-assignment
into the unary costs).

Square/dummy assignment format (``.lap`` / ``.ilap``)::

    c <comment>
    p lap <n>                  | p ilap <nv> <nl>
    d <vertex> <cost>          (ilap only, dummy cost, default 0)
    a <vertex> <label> <cost>

Flow/distance benchmark format: a size ``n`` followed by two n-by-n
whitespace-separated matrices (flow first, then distance).
"""

from __future__ import annotations

import sys
from itertools import islice

from .model import DUMMY, IlapInstance, IqapInstance, LapInstance, _as_cost
from .records import (
    ParseError,
    _cost_column,
    _cost_field,
    _index_column,
    _index_field,
    _int_field,
    _new_entries,
    _pair_block,
    _pair_record,
    _read_records,
    _slices,
    _tokenize,
)

AUGMENT_VALUE = 10**7

DEFAULT_DUMMY_COST = 0.0


def _rows(num_vertices: int, pairs: dict, dummy_costs=None):
    """Allowed-label and cost rows per vertex from a ``(vertex, label) ->
    cost`` map.  Each row starts with the dummy label at
    ``dummy_costs[v]``, or has no dummy when ``dummy_costs`` is None."""
    if dummy_costs is None:
        allowed = [[] for _ in range(num_vertices)]
        costs = [[] for _ in range(num_vertices)]
    else:
        allowed = [[DUMMY] for _ in range(num_vertices)]
        costs = [[cost] for cost in dummy_costs]
    for (v, lab), cost in pairs.items():
        allowed[v].append(lab)
        costs[v].append(cost)
    return allowed, costs


# ---------------------------------------------------------------------------
# Graph-matching format


def parse_dd(text: str, *, dummy_cost=DEFAULT_DUMMY_COST,
             augment: bool = False) -> IqapInstance:
    """Parse the graph-matching text format into a quadratic instance.

    ``augment`` builds the instance ``augment_instance`` would return, in
    one construction.
    """
    dummy_cost = _as_cost(dummy_cost, "dummy cost")
    header = header_line = None
    records: dict[int, tuple[int, int]] = {}
    unary: dict[tuple[int, int], float] = {}
    edge_cells: dict[tuple[int, int], dict] = {}

    def line_rule(line, tokens):
        nonlocal header, header_line
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
                raise ParseError("assignment record must be 'a id vertex label cost'", line)
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
                raise ParseError(f"edge references unknown assignment id {missing}", line)
            u, k = records[id1]
            v, l = records[id2]
            if u == v:
                raise ParseError(
                    f"edge connects two assignments of vertex {u}", line)
            if u > v:
                u, v, k, l = v, u, l, k
            # ids map one to one onto (vertex, label) pairs
            cells = edge_cells.setdefault((u, v), {})
            if (k, l) in cells:
                raise ParseError(
                    f"duplicate edge between assignment ids {min(id1, id2)} "
                    f"and {max(id1, id2)}", line)
            cells[(k, l)] = cost
        else:
            raise ParseError(f"unknown record type {kind!r}", line)

    def assignment_block(ids, vertices, labels, costs):
        if header is None:
            raise ValueError
        ids = _index_column(ids, header[2])
        pairs, new_unary = _pair_block(vertices, labels, costs, header[0],
                                       header[1], unary)
        records.update(_new_entries(records, zip(ids, pairs), len(ids)))
        unary.update(new_unary)

    def edge_block(ids1, ids2, costs):
        if header is None:
            raise ValueError
        ends1 = list(map(records.get, map(int, ids1)))
        ends2 = list(map(records.get, map(int, ids2)))
        costs = _cost_column(costs)
        if None in ends1 or None in ends2:
            raise ValueError
        added = 0
        for (u, k), (v, l), cost in zip(ends1, ends2, costs):
            if u > v:
                u, v, k, l = v, u, l, k
            elif u == v:
                break
            cells = edge_cells.setdefault((u, v), {})
            if (k, l) in cells:
                break
            cells[k, l] = cost
            added += 1
        else:
            return
        # Take the block's cells back out before it is re-read.
        for (u, k), (v, l) in map(sorted, zip(ends1[:added], ends2[:added])):
            cells = edge_cells[u, v]
            del cells[k, l]
            if not cells:
                del edge_cells[u, v]
        raise ValueError

    _read_records(text, line_rule, {"a": (5, assignment_block),
                                    "e": (4, edge_block)})
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
    allowed, costs = _rows(n0, unary, [dummy_cost] * n0)
    try:
        core = IlapInstance(allowed, costs, n1)
        edges = [(u, v, cells) for (u, v), cells in edge_cells.items()]
        if augment:
            _augment_cells(core, edges)
        return IqapInstance(core, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Square / dummy assignment format


def parse_lap_file(text: str):
    """Parse the square/dummy assignment format.

    Returns a ``LapInstance`` for a ``p lap`` header and an ``IlapInstance``
    for a ``p ilap`` header.
    """
    header = None
    dummy: dict[int, float] = {}
    entries: dict[tuple[int, int], float] = {}

    def line_rule(line, tokens):
        nonlocal header
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

    def assignment_block(vertices, labels, costs):
        if header is None:
            raise ValueError
        entries.update(_pair_block(vertices, labels, costs, header[1],
                                   header[2], entries)[1])

    _read_records(text, line_rule, {"a": (4, assignment_block)})
    if header is None:
        raise ParseError("missing 'p' header")
    kind, nv, nl = header
    square = kind == "lap"
    allowed, costs = _rows(
        nv, entries, None if square else [dummy.get(v, 0) for v in range(nv)])
    try:
        if square:
            return LapInstance(allowed, costs)
        return IlapInstance(allowed, costs, nl)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Flow/distance benchmark format


def parse_qaplib(text: str):
    """Parse size plus flow and distance matrices; whitespace-tolerant.

    Returns ``(n, flow, distance)`` with matrices as nested lists.  The
    format has no comment lines.  A wrong token count is reported at the
    first surplus token, or at the last token when some are missing.
    """
    tokens = []
    lines = []  # the line number of each token
    for line, raw in enumerate(text.splitlines(), start=1):
        row = raw.split()
        tokens += row
        lines += [line] * len(row)
    if not tokens:
        raise ParseError("empty file")
    n = _int_field(tokens[0], "size", lines[0])
    if n < 0:
        raise ParseError("size must be non-negative", lines[0])
    need = 1 + 2 * n * n
    if len(tokens) != need:
        raise ParseError(
            f"expected {need} tokens for size {n}, found {len(tokens)}",
            lines[min(need, len(tokens) - 1)])
    values = map(_cost_field, tokens, lines)
    next(values)  # the size, read above
    flow = [list(islice(values, n)) for _ in range(n)]
    dist = [list(islice(values, n)) for _ in range(n)]
    return n, flow, dist


def qaplib_shift_constant(flow, dist):
    """Unary shift that makes every optimal solution a complete assignment.

    One plus the sum over vertex pairs of the largest absolute pairwise
    cost the pair can produce, plus the worst diagonal product a single
    placement can incur, so assigning one more vertex always pays off.
    """
    return _shift_constant(flow, dist, _edge_cells(flow, dist))


def _shift_constant(flow, dist, edges):
    """``qaplib_shift_constant`` read from the ``_edge_cells`` triples."""
    n = len(flow)
    total = 0
    # Each distinct map's largest magnitude, by ``id``: every map stays
    # alive in ``edges`` or in the generator that shares it.
    peaks = {}
    for _, _, cells in edges:
        peak = peaks.get(id(cells))
        if peak is None:
            peak = peaks[id(cells)] = max(map(abs, cells.values()))
        # Once per edge, left to right, as written: ``sum`` compensates
        # float rounding on Python 3.12 and later.
        total += peak
    diagonal = max((flow[v][v] * dist[lab][lab]
                    for v in range(n) for lab in range(n)), default=0)
    return 1 + total + max(0, diagonal)


def _edge_cells(flow, dist):
    """Yield ``(u, v, cells)`` for each vertex pair ``u < v`` with a
    non-zero cell; ``cells`` maps ``(k, l)`` to the non-zero costs of
    placing ``u`` at ``k`` and ``v`` at ``l``, both flow directions
    combined.  Pairs whose flows ``(flow[u][v], flow[v][u])`` are equal
    in type as well as in value yield one shared dict, and every dict
    shares the same key tuples."""
    n = len(flow)
    keys = [(k, l) for k in range(n) for l in range(n)]
    forward = [dist[k][l] for k, l in keys]
    backward = [dist[l][k] for k, l in keys]
    # Keyed by type too: ``2**60`` and ``2.0**60`` flows give equal cells
    # of different types, and an int edge must not take float cells.
    by_flows = {}
    for u in range(n):
        for v in range(u + 1, n):
            fu, fv = flow[u][v], flow[v][u]
            if fu == 0 and fv == 0:
                continue
            flows = (type(fu), fu, type(fv), fv)
            cells = by_flows.get(flows)
            if cells is None:
                cells = by_flows[flows] = {
                    key: c for key, a, b in zip(keys, forward, backward)
                    if (c := fu * a + fv * b) != 0}
            if cells:
                yield u, v, cells


def convert_qaplib_to_iqap(flow, dist, *,
                           augment: bool = False) -> IqapInstance:
    """Convert flow/distance matrices to a dummy-label quadratic instance.

    Vertices are facilities, non-dummy labels are locations, all locations
    allowed everywhere.  A vertex pair becomes an edge when one of its
    cells, ``flow[u][v] * dist[k][l] + flow[v][u] * dist[l][k]`` for
    ``u`` at ``k`` and ``v`` at ``l``, is non-zero; so a pair with non-zero
    flows whose terms all cancel, or meet zero distances, has no edge.
    Pairs with the same typed flow pair share one cell map, which
    ``IqapInstance`` builds into row tables once.  Unary
    costs are the diagonal product minus the shift constant, the dummy costs
    zero, so reported bounds carry an offset of minus ``n`` times the shift
    relative to the flow/distance objective.  ``augment`` builds the
    instance ``augment_instance`` would return, in one construction.

    Every cost must lie in the float range, as every cost token of the
    readers does.  Checking the shift and the unary costs covers the
    cells too: no cell is larger in size than its map's peak, which is
    below the shift.  (A NaN cell, from two overflowing float products
    of opposite signs, is rejected by ``PairwiseEdge`` instead.)
    """
    n = len(flow)
    if any(len(row) != n for row in flow) or len(dist) != n or any(
            len(row) != n for row in dist):
        raise ValueError("flow and distance must be square matrices of equal size")
    edges = list(_edge_cells(flow, dist))
    shift = _shift_constant(flow, dist, edges)
    allowed = [[DUMMY] + list(range(n)) for _ in range(n)]
    costs = [[0] + [flow[v][v] * dist[lab][lab] - shift for lab in range(n)]
             for v in range(n)]
    largest = max([shift, *[max(map(abs, row)) for row in costs]])
    if not largest <= sys.float_info.max:  # also true for a NaN shift
        raise ValueError("costs computed from flow and distance exceed "
                         "the float range")
    core = IlapInstance(allowed, costs, n)
    if augment:
        _augment_cells(core, edges)
    return IqapInstance(core, edges)


# ---------------------------------------------------------------------------
# Instance surgery


def augment_instance(inst: IqapInstance) -> IqapInstance:
    """Price label collisions on edges without changing the optimum.

    For every edge and every non-dummy label allowed at both endpoints whose
    diagonal cell currently costs zero (stored or implicit), the cell is set
    to ``AUGMENT_VALUE``.  Explicitly stored non-zero diagonal cells are
    kept.  No feasible assignment uses such a cell, so optimal values are
    unchanged.  The cells are set in the new dicts that the edges' ``cells``
    return, so ``inst`` is left as it was.  The readers' ``augment`` option
    builds the same instance without the intermediate one.
    """
    edges = [(e.u, e.v, e.cells) for e in inst.edges]
    _augment_cells(inst.unary, edges)
    return IqapInstance(inst.unary, edges)


def _augment_cells(unary: IlapInstance, edges: list) -> None:
    """Set the ``augment_instance`` diagonal cells in ``(u, v, cells)``
    edge triples, in place, before they are built into an instance.  A
    map given for several edges is augmented once, for the labels of its
    first edge; ``convert_qaplib_to_iqap``, the only reader that shares
    maps, allows the same labels at every vertex."""
    allowed = unary.allowed
    # By ``id``: every map stays alive in ``edges``.
    done = set()
    for u, v, cells in edges:
        if id(cells) in done:
            continue
        done.add(id(cells))
        shared = set(allowed[u]) & set(allowed[v])
        shared.discard(DUMMY)
        for lab in shared:
            if cells.get((lab, lab), 0) == 0:
                cells[(lab, lab)] = AUGMENT_VALUE


# ---------------------------------------------------------------------------
# Loading with format detection


# The parser that reports each record letter met before any header.
_HEADERLESS_FORMAT = {"a": "dd", "e": "dd", "d": "ilap"}


def sniff_format(text: str) -> str:
    """Best-effort format detection: 'dd', 'lap', 'ilap', or 'qaplib'.

    The first record decides.  A ``p`` header names its format.  A record
    letter before any header goes to a parser that reports the missing
    header with a line number: ``a`` and ``e`` to the ``.dd`` parser, ``d``
    to the ``.ilap`` one.  Anything else, such as a QAPLIB size, is QAPLIB.
    """
    for first, lines in _slices(text):
        for _, tokens in _tokenize(lines, first):
            if tokens[0] == "p":
                if len(tokens) >= 2 and tokens[1] in ("lap", "ilap"):
                    return tokens[1]
                return "dd"
            return _HEADERLESS_FORMAT.get(tokens[0], "qaplib")
    return "qaplib"


def load_instance(path, *, fmt: str = "auto", dummy_cost=None,
                  augment: bool = False):
    """Read an instance file; returns a LAP, ILAP, or IQAP instance.

    ``fmt`` is "auto" (``sniff_format`` reads the text), "dd", "lap",
    "ilap" or "qaplib".  ``dummy_cost`` prices the dummy label of a ``.dd``
    file (``DEFAULT_DUMMY_COST`` when None); the other formats price their
    own, so giving one for them is an error.
    """
    if fmt not in ("auto", "dd", "lap", "ilap", "qaplib"):
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if fmt == "auto":
        fmt = sniff_format(text)
    if fmt == "dd":
        if dummy_cost is None:
            dummy_cost = DEFAULT_DUMMY_COST
        return parse_dd(text, dummy_cost=dummy_cost, augment=augment)
    if dummy_cost is not None:
        raise ValueError(f"dummy cost {dummy_cost!r} applies to dd files "
                         f"only, not to format {fmt!r}")
    if fmt == "qaplib":
        _, flow, dist = parse_qaplib(text)
        return convert_qaplib_to_iqap(flow, dist, augment=augment)
    inst = parse_lap_file(text)
    if augment:
        raise ValueError("augmentation applies to quadratic instances only")
    return inst
