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

import math

from .model import (
    DEFAULT_TOLERANCE,
    DUMMY,
    IlapInstance,
    IqapInstance,
    LapInstance,
    _as_cost,
)

AUGMENT_VALUE = 10**7

DEFAULT_DUMMY_COST = 0.0

# The ``fmt`` values ``load_instance`` accepts; "auto" sniffs the text.
_FORMATS = ("auto", "dd", "lap", "ilap", "qaplib")


def _check_format(fmt) -> None:
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")


class ParseError(ValueError):
    """Malformed instance text; carries a line number when one applies."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _tokenize(text: str):
    """Yield (line number, tokens) for non-empty, non-comment lines."""
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("c"):
            continue
        yield number, stripped.split()


def _int_field(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line) from None


def _cost_field(token: str, line: int):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"cost must be numeric, got {token!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"cost must be finite, got {token!r}", line)
    return _as_cost(value, "cost")


# ---------------------------------------------------------------------------
# Graph-matching format


def parse_dd(text: str, *, dummy_cost=DEFAULT_DUMMY_COST,
             tolerance: float = DEFAULT_TOLERANCE) -> IqapInstance:
    """Parse the graph-matching text format into a quadratic instance."""
    header = None
    records: dict[int, tuple[int, int]] = {}
    unary: dict[tuple[int, int], float] = {}
    edge_cells: dict[tuple[int, int], dict] = {}
    edge_pairs_seen: set[tuple[int, int]] = set()
    for line, tokens in _tokenize(text):
        kind = tokens[0]
        if kind == "p":
            if header is not None:
                raise ParseError("duplicate header", line)
            if len(tokens) != 5:
                raise ParseError("header must be 'p N0 N1 A E'", line)
            header = tuple(_int_field(t, "header field", line) for t in tokens[1:])
            if any(v < 0 for v in header):
                raise ParseError("header counts must be non-negative", line)
        elif kind == "a":
            if header is None:
                raise ParseError("assignment record before header", line)
            if len(tokens) != 5:
                raise ParseError("assignment record must be 'a id vertex label cost'", line)
            rec_id = _int_field(tokens[1], "assignment id", line)
            v = _int_field(tokens[2], "vertex", line)
            lab = _int_field(tokens[3], "label", line)
            cost = _cost_field(tokens[4], line)
            n0, n1, a_count, _ = header
            if not 0 <= rec_id < a_count:
                raise ParseError(f"assignment id {rec_id} outside 0..{a_count - 1}", line)
            if rec_id in records:
                raise ParseError(f"duplicate assignment id {rec_id}", line)
            if not 0 <= v < n0:
                raise ParseError(f"vertex {v} outside 0..{n0 - 1}", line)
            if not 0 <= lab < n1:
                raise ParseError(f"label {lab} outside 0..{n1 - 1}", line)
            if (v, lab) in unary:
                raise ParseError(f"duplicate assignment pair ({v}, {lab})", line)
            records[rec_id] = (v, lab)
            unary[(v, lab)] = cost
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
            pair_key = (min(id1, id2), max(id1, id2))
            if pair_key in edge_pairs_seen:
                raise ParseError(
                    f"duplicate edge between assignment ids {pair_key[0]} and {pair_key[1]}",
                    line)
            edge_pairs_seen.add(pair_key)
            edge_cells.setdefault((u, v), {})[(k, l)] = cost
        else:
            raise ParseError(f"unknown record type {kind!r}", line)
    if header is None:
        raise ParseError("missing 'p' header")
    n0, n1, a_count, e_count = header
    if len(records) != a_count:
        raise ParseError(
            f"header announces {a_count} assignments, file has {len(records)}")
    if len(edge_pairs_seen) != e_count:
        raise ParseError(
            f"header announces {e_count} edges, file has {len(edge_pairs_seen)}")
    allowed = [[DUMMY] for _ in range(n0)]
    costs = [[dummy_cost] for _ in range(n0)]
    for (v, lab), cost in unary.items():
        allowed[v].append(lab)
        costs[v].append(cost)
    try:
        core = IlapInstance(allowed, costs, n1, tolerance=tolerance)
        return IqapInstance(core, [(u, v, cells)
                                   for (u, v), cells in edge_cells.items()])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_dd(inst: IqapInstance) -> str:
    """Render a quadratic instance in the graph-matching text format.

    The format cannot express dummy costs (they are dropped; the round trip
    is exact when they match the parser's default) nor pairwise cells that
    involve the dummy label (those raise).
    """
    unary = inst.unary
    ids: dict[tuple[int, int], int] = {}
    a_lines = []
    for v in range(unary.num_vertices):
        for lab, cost in zip(unary.allowed[v], unary.costs[v]):
            if lab == DUMMY:
                continue
            rec_id = len(ids)
            ids[(v, lab)] = rec_id
            a_lines.append(f"a {rec_id} {v} {lab} {cost}")
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


# ---------------------------------------------------------------------------
# Square / dummy assignment format


def parse_lap_file(text: str, *, tolerance: float = DEFAULT_TOLERANCE):
    """Parse the square/dummy assignment format.

    Returns a ``LapInstance`` for a ``p lap`` header and an ``IlapInstance``
    for a ``p ilap`` header.
    """
    header = None
    dummy: dict[int, float] = {}
    entries: dict[tuple[int, int], float] = {}
    for line, tokens in _tokenize(text):
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
            v = _int_field(tokens[1], "vertex", line)
            if not 0 <= v < header[1]:
                raise ParseError(f"vertex {v} out of range", line)
            if v in dummy:
                raise ParseError(f"duplicate dummy record for vertex {v}", line)
            dummy[v] = _cost_field(tokens[2], line)
        elif kind == "a":
            if header is None:
                raise ParseError("assignment record before header", line)
            if len(tokens) != 4:
                raise ParseError("record must be 'a vertex label cost'", line)
            v = _int_field(tokens[1], "vertex", line)
            lab = _int_field(tokens[2], "label", line)
            cost = _cost_field(tokens[3], line)
            _, nv, nl = header
            if not 0 <= v < nv:
                raise ParseError(f"vertex {v} out of range", line)
            if not 0 <= lab < nl:
                raise ParseError(f"label {lab} out of range", line)
            if (v, lab) in entries:
                raise ParseError(f"duplicate pair ({v}, {lab})", line)
            entries[(v, lab)] = cost
        else:
            raise ParseError(f"unknown record type {kind!r}", line)
    if header is None:
        raise ParseError("missing 'p' header")
    kind, nv, nl = header
    if kind == "lap":
        allowed = [[] for _ in range(nv)]
        costs = [[] for _ in range(nv)]
        for (v, lab), cost in entries.items():
            allowed[v].append(lab)
            costs[v].append(cost)
        try:
            return LapInstance(allowed, costs, tolerance=tolerance)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    allowed = [[DUMMY] for _ in range(nv)]
    costs = [[dummy.get(v, 0)] for v in range(nv)]
    for (v, lab), cost in entries.items():
        allowed[v].append(lab)
        costs[v].append(cost)
    try:
        return IlapInstance(allowed, costs, nl, tolerance=tolerance)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_lap_file(inst) -> str:
    lines = []
    if isinstance(inst, LapInstance):
        lines.append(f"p lap {inst.num_vertices}")
        for v in range(inst.num_vertices):
            for lab, cost in zip(inst.allowed[v], inst.costs[v]):
                lines.append(f"a {v} {lab} {cost}")
    elif isinstance(inst, IlapInstance):
        lines.append(f"p ilap {inst.num_vertices} {inst.num_labels}")
        for v in range(inst.num_vertices):
            lines.append(f"d {v} {inst.dummy_cost(v)}")
            for lab, cost in zip(inst.allowed[v], inst.costs[v]):
                if lab != DUMMY:
                    lines.append(f"a {v} {lab} {cost}")
    else:
        raise TypeError("expected a LapInstance or IlapInstance")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Flow/distance benchmark format


def parse_qaplib(text: str):
    """Parse size plus flow and distance matrices; whitespace-tolerant.

    Returns ``(n, flow, distance)`` with matrices as nested lists.
    """
    tokens = text.split()
    if not tokens:
        raise ParseError("empty file")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ParseError(f"size must be an integer, got {tokens[0]!r}") from None
    if n < 0:
        raise ParseError("size must be non-negative")
    need = 1 + 2 * n * n
    if len(tokens) != need:
        raise ParseError(
            f"expected {need} tokens for size {n}, found {len(tokens)}")
    values = []
    for tok in tokens[1:]:
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(f"non-numeric token {tok!r}") from None
        try:
            values.append(_as_cost(value, "matrix entry"))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    flow = [values[i * n:(i + 1) * n] for i in range(n)]
    dist = [values[n * n + i * n:n * n + (i + 1) * n] for i in range(n)]
    return n, flow, dist


def qaplib_shift_constant(flow, dist):
    """Unary shift that makes every optimal solution a complete assignment.

    One plus the sum over vertex pairs of the largest absolute pairwise
    cost the pair can produce, plus the worst diagonal product a single
    placement can incur, so assigning one more vertex always pays off.
    """
    n = len(flow)
    total = 0
    for u in range(n):
        for v in range(u + 1, n):
            fu, fv = flow[u][v], flow[v][u]
            if fu == 0 and fv == 0:
                continue
            worst = max(
                abs(fu * dist[k][l] + fv * dist[l][k])
                for k in range(n) for l in range(n))
            total += worst
    diagonal = max((flow[v][v] * dist[lab][lab]
                    for v in range(n) for lab in range(n)), default=0)
    return 1 + total + max(0, diagonal)


def convert_qaplib_to_iqap(flow, dist, *,
                           tolerance: float = DEFAULT_TOLERANCE) -> IqapInstance:
    """Convert flow/distance matrices to a dummy-label quadratic instance.

    Vertices are facilities, non-dummy labels are locations, all locations
    allowed everywhere.  A vertex pair becomes an edge when either flow
    direction is non-zero; its cell costs combine both directions.  Unary
    costs are the diagonal product minus the shift constant, the dummy costs
    zero, so reported bounds carry an offset of minus ``n`` times the shift
    relative to the flow/distance objective.
    """
    n = len(flow)
    if any(len(row) != n for row in flow) or len(dist) != n or any(
            len(row) != n for row in dist):
        raise ValueError("flow and distance must be square matrices of equal size")
    shift = qaplib_shift_constant(flow, dist)
    allowed = [[DUMMY] + list(range(n)) for _ in range(n)]
    costs = [[0] + [flow[v][v] * dist[lab][lab] - shift for lab in range(n)]
             for v in range(n)]
    core = IlapInstance(allowed, costs, n, tolerance=tolerance)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            fu, fv = flow[u][v], flow[v][u]
            if fu == 0 and fv == 0:
                continue
            cells = {}
            for k in range(n):
                for l in range(n):
                    c = fu * dist[k][l] + fv * dist[l][k]
                    if c != 0:
                        cells[(k, l)] = c
            if cells:
                edges.append((u, v, cells))
    return IqapInstance(core, edges)


def qap_objective(flow, dist, perm) -> float:
    """Flow/distance objective of a permutation, for cross-checks."""
    n = len(flow)
    return sum(flow[u][v] * dist[perm[u]][perm[v]]
               for u in range(n) for v in range(n))


# ---------------------------------------------------------------------------
# Instance surgery


def augment_instance(inst: IqapInstance) -> IqapInstance:
    """Price label collisions on edges without changing the optimum.

    For every edge and every non-dummy label allowed at both endpoints whose
    diagonal cell currently costs zero (stored or implicit), the cell is set
    to ``AUGMENT_VALUE``.  Explicitly stored non-zero diagonal cells are
    kept.  No feasible assignment uses such a cell, so optimal values are
    unchanged.
    """
    edges = []
    for e in inst.edges:
        shared = (set(inst.unary.allowed[e.u]) & set(inst.unary.allowed[e.v]))
        shared.discard(DUMMY)
        cells = dict(e.cells)
        for lab in shared:
            if cells.get((lab, lab), 0) == 0:
                cells[(lab, lab)] = AUGMENT_VALUE
        edges.append((e.u, e.v, cells))
    return IqapInstance(inst.unary, edges)


# ---------------------------------------------------------------------------
# Loading with format detection


def sniff_format(text: str) -> str:
    """Best-effort format detection: 'dd', 'lap', 'ilap', or 'qaplib'."""
    for _, tokens in _tokenize(text):
        if tokens[0] == "p":
            if len(tokens) >= 2 and tokens[1] in ("lap", "ilap"):
                return tokens[1]
            return "dd"
        break
    return "qaplib"


def load_instance(path, *, fmt: str = "auto", dummy_cost=DEFAULT_DUMMY_COST,
                  tolerance: float = DEFAULT_TOLERANCE, augment: bool = False):
    """Read an instance file; returns a LAP, ILAP, or IQAP instance."""
    _check_format(fmt)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if fmt == "auto":
        fmt = sniff_format(text)
    if fmt == "dd":
        inst = parse_dd(text, dummy_cost=dummy_cost, tolerance=tolerance)
    elif fmt in ("lap", "ilap"):
        inst = parse_lap_file(text, tolerance=tolerance)
    else:
        _, flow, dist = parse_qaplib(text)
        inst = convert_qaplib_to_iqap(flow, dist, tolerance=tolerance)
    if augment:
        if not isinstance(inst, IqapInstance):
            raise ValueError("augmentation applies to quadratic instances only")
        inst = augment_instance(inst)
    return inst
