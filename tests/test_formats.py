import itertools
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qapbound import formats, records
from qapbound.formats import (
    AUGMENT_VALUE,
    ParseError,
    augment_instance,
    convert_qaplib_to_iqap,
    load_instance,
    parse_dd,
    parse_lap_file,
    parse_qaplib,
    qaplib_shift_constant,
    sniff_format,
)
from qapbound.bounds import SolverConfig, run
from qapbound.model import DUMMY, IlapInstance, IqapInstance, LapInstance
from qapbound.oracle import brute_force_optimum, search_space_size

from helpers import (
    benchmark_generators,
    edge_layout,
    qap_objective,
    random_iqap,
    reference_parse_dd,
    reference_parse_lap_file,
    seeded,
    serialize_dd,
    serialize_lap_file,
)

FIXTURES = Path(__file__).parent / "fixtures"


def same_iqap(a: IqapInstance, b: IqapInstance) -> bool:
    return (a.unary.allowed == b.unary.allowed
            and a.unary.costs == b.unary.costs
            and a.unary.num_labels == b.unary.num_labels
            and [(e.u, e.v, e.cells) for e in a.edges]
            == [(e.u, e.v, e.cells) for e in b.edges])


def raises_parse_error(parse, text, message, line, **kwargs):
    """``parse(text)`` raises a ``ParseError`` with ``message`` at ``line``."""
    with pytest.raises(ParseError) as info:
        parse(text, **kwargs)
    assert info.value.line == line
    assert str(info.value) == (message if line is None
                               else f"line {line}: {message}")


class TestParseDd:
    def test_no_assignments(self):
        inst = parse_dd("p 2 3 0 0\n")
        assert inst.num_vertices == 2
        assert inst.num_labels == 3
        assert inst.unary.allowed == ((DUMMY,), (DUMMY,))
        assert not inst.edges
        # everything priced at zero: the all-zero dual is already tight
        from qapbound.bounds import dual_bound
        from qapbound.wcsp import IqapDualState

        assert dual_bound(inst, IqapDualState(inst)) == 0

    def test_small_instance(self):
        text = """c comment
p 2 2 2 1
a 0 0 0 1.5
a 1 1 1 -2
e 0 1 7
"""
        inst = parse_dd(text)
        assert inst.unary.cost(0, 0) == 1.5
        assert inst.unary.cost(1, 1) == -2
        assert inst.unary.cost(0, DUMMY) == 0
        assert inst.edges[0].cells == {(0, 1): 7}

    def test_dummy_cost_override(self):
        inst = parse_dd("p 1 1 1 0\na 0 0 0 5\n", dummy_cost=9)
        assert inst.unary.cost(0, DUMMY) == 9

    @pytest.mark.parametrize("text,match", [
        ("p 1 1\n", "header"),
        ("a 0 0 0 1\n", "before header"),
        ("p 1 1 1 0\na 0 0 0 x\n", "numeric"),
        ("p 1 1 1 0\na 0 0 0 inf\n", "finite"),
        ("p 1 1 2 0\na 0 0 0 1\na 1 0 0 2\n", "duplicate assignment pair"),
        ("p 1 1 1 0\na 0 0 0 1\na 0 0 0 1\n", "duplicate assignment id"),
        ("p 1 2 1 1\na 0 0 0 1\ne 0 3 1\n", "unknown assignment id"),
        ("p 1 2 2 1\na 0 0 0 1\na 1 0 1 1\ne 0 1 5\n", "vertex 0"),
        ("p 2 2 2 2\na 0 0 0 1\na 1 1 1 2\ne 0 1 5\ne 1 0 6\n",
         "line 5: duplicate edge between assignment ids 0 and 1"),
        ("p 2 2 2 2\na 0 0 0 1\na 1 1 1 2\ne 0 1 5\n",
         "announces 2 edges, file has 1"),
        ("p 2 2 2 0\na 0 0 0 1\n", "announces 2 assignments"),
        ("p 1 1 1 1\na 0 0 0 1\n", "announces 1 edges"),
        ("p 1 1 1 0\na 0 5 0 1\n", "vertex 5"),
        ("p 1 1 1 0\na 0 0 5 1\n", "label 5"),
        ("q 1\n", "unknown record"),
    ])
    def test_malformed_inputs_diagnosed(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_dd(text)

    def test_line_numbers_reported(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_dd("c x\np 1 1 1 0\na 0 0 0 bad\n")

    @pytest.mark.parametrize("text, message, line", [
        ("p 1 1 1 0\np 1 1 1 0\n", "duplicate header", 2),
        ("p 1 -1 1 0\n", "header counts must be non-negative", 1),
        ("p 1 1 1.5 0\n", "header field must be an integer, got '1.5'", 1),
        ("p 1 1 1 0\na 0 0 0\n",
         "assignment record must be 'a id vertex label cost'", 2),
        ("p 1 1 1 0\na 0 v 0 1\n", "vertex must be an integer, got 'v'", 2),
        ("p 1 1 1 0\na 1 0 0 1\n", "assignment id 1 outside 0..0", 2),
        ("p 1 1 1 0\na -1 0 0 1\n", "assignment id -1 outside 0..0", 2),
        ("e 0 1 5\n", "edge record before header", 1),
        ("p 2 2 2 1\na 0 0 0 1\na 1 1 1 1\ne 0 1\n",
         "edge record must be 'e id1 id2 cost'", 4),
        ("c only a comment\n", "missing 'p' header", None),
        ("c counts\np 2 2 2 0\na 0 0 0 1\n",
         "header announces 2 assignments, file has 1", 2),
        ("c counts\np 1 1 1 1\na 0 0 0 1\n",
         "header announces 1 edges, file has 0", 2),
    ])
    def test_error_messages_and_lines(self, text, message, line):
        raises_parse_error(parse_dd, text, message, line)

    def test_serializing_a_dummy_cell_is_an_error(self):
        core = IlapInstance([[DUMMY, 0], [DUMMY, 1]], [[0, 1], [0, 2]], 2)
        inst = IqapInstance(core, [(0, 1, {(0, 1): 3, (DUMMY, 1): 4})])
        with pytest.raises(ValueError) as info:
            serialize_dd(inst)
        assert str(info.value) == ("edge (0, 1) prices the dummy label, which "
                                   "this format cannot express")

    def test_round_trip_fixture_style(self):
        rng = seeded(121)
        for _ in range(30):
            raw = random_iqap(rng, max_vertices=4, max_labels=3,
                              dummy_cells=False)
            # edges without stored cells are not representable in the format
            raw = IqapInstance(raw.unary, [(e.u, e.v, e.cells)
                                           for e in raw.edges if e.cells])
            # dummy costs are dropped on write, so compare parsed images
            inst = parse_dd(serialize_dd(raw))
            again = parse_dd(serialize_dd(inst))
            assert same_iqap(inst, again)


@st.composite
def dd_instance(draw):
    nv = draw(st.integers(1, 4))
    nl = draw(st.integers(1, 4))
    cost = st.one_of(st.integers(-9, 9),
                     st.floats(-50, 50, allow_nan=False))
    allowed = []
    costs = []
    for v in range(nv):
        labs = sorted(draw(st.sets(st.integers(0, nl - 1), max_size=nl)))
        allowed.append([DUMMY] + labs)
        costs.append([0] + [draw(cost) for _ in labs])
    core = IlapInstance(allowed, costs, nl)
    edges = []
    for (u, v) in itertools.combinations(range(nv), 2):
        if not draw(st.booleans()):
            continue
        cells = {}
        for k in allowed[u][1:]:
            for l in allowed[v][1:]:
                if draw(st.booleans()):
                    cells[(k, l)] = draw(cost)
        if cells:
            edges.append((u, v, cells))
    return IqapInstance(core, edges)


class TestDdProperties:
    @settings(max_examples=60, deadline=None)
    @given(dd_instance())
    def test_serialize_parse_round_trip(self, inst):
        assert same_iqap(inst, parse_dd(serialize_dd(inst)))

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="pace 0123456789.-\n", max_size=120))
    def test_parser_totality_on_token_soup(self, text):
        try:
            parse_dd(text)
        except ParseError:
            pass

    @settings(max_examples=80, deadline=None)
    @given(st.text(max_size=80))
    def test_parser_totality_on_arbitrary_text(self, text):
        for parser in (parse_dd, parse_lap_file, parse_qaplib):
            try:
                parser(text)
            except ParseError:
                pass


class TestLapFormat:
    def test_square_file(self):
        inst = parse_lap_file("p lap 2\na 0 0 1\na 0 1 2\na 1 0 3\na 1 1 4\n")
        assert isinstance(inst, LapInstance)
        assert inst.costs == ((1, 2), (3, 4))

    def test_dummy_file(self):
        text = "p ilap 2 1\nd 0 5\na 0 0 1\na 1 0 2\n"
        inst = parse_lap_file(text)
        assert isinstance(inst, IlapInstance)
        assert inst.cost(0, DUMMY) == 5
        assert inst.cost(1, DUMMY) == 0

    def test_round_trip_both_kinds(self):
        lap = LapInstance([[0, 1], [0, 1]], [[1, 2], [3, 4]])
        assert parse_lap_file(serialize_lap_file(lap)).costs == lap.costs
        ilap = IlapInstance([[DUMMY, 0], [DUMMY]], [[2, 1], [3]], 1)
        again = parse_lap_file(serialize_lap_file(ilap))
        assert again.allowed == ilap.allowed
        assert again.costs == ilap.costs

    @pytest.mark.parametrize("header", ["p lap -3", "p ilap -2 -1"])
    def test_negative_header_count_is_a_parse_error(self, header):
        with pytest.raises(ParseError, match="line 2: header counts"):
            parse_lap_file(f"c negative size\n{header}\n")

    def test_empty_row_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_lap_file("p lap 2\na 0 0 1\na 0 1 1\n")

    @pytest.mark.parametrize("text, message, line", [
        ("p lap 1\np lap 1\n", "duplicate header", 2),
        ("p lap\n", "header must be 'p lap n'", 1),
        ("p lap x\n", "size must be an integer, got 'x'", 1),
        ("p ilap 1\n", "header must be 'p ilap nv nl'", 1),
        ("p ilap 1 y\n", "label count must be an integer, got 'y'", 1),
        ("p dd 1\n", "header must start 'p lap' or 'p ilap'", 1),
        ("p lap -1\n", "header counts must be non-negative", 1),
        ("p lap 1\nd 0 1\n", "dummy record outside an ilap file", 2),
        ("p ilap 1 1\nd 0\n", "dummy record must be 'd vertex cost'", 2),
        ("p ilap 1 1\nd 1 5\n", "vertex 1 outside 0..0", 2),
        ("p ilap 1 1\nd 0 5\nd 0 6\n", "duplicate dummy record for vertex 0", 3),
        ("a 0 0 1\n", "assignment record before header", 1),
        ("p lap 1\na 0 0\n", "record must be 'a vertex label cost'", 2),
        ("p lap 1\na 1 0 1\n", "vertex 1 outside 0..0", 2),
        ("p lap 1\na 0 1 1\n", "label 1 outside 0..0", 2),
        ("p lap 1\na 0 0 1\na 0 0 2\n", "duplicate assignment pair (0, 0)", 3),
        ("p ilap 1 1\na 0 0 z\n", "cost must be numeric, got 'z'", 2),
        ("p lap 1\nx 0\n", "unknown record type 'x'", 2),
        ("c only a comment\n", "missing 'p' header", None),
        ("p lap 1\n", "vertex 0: needs at least one allowed label", None),
    ])
    def test_error_messages_and_lines(self, text, message, line):
        raises_parse_error(parse_lap_file, text, message, line)

    def test_serializing_a_quadratic_instance_is_a_type_error(self):
        inst = parse_dd("p 1 1 1 0\na 0 0 0 5\n")
        with pytest.raises(TypeError) as info:
            serialize_lap_file(inst)
        assert str(info.value) == "expected a LapInstance or IlapInstance"


_QAPLIB_MALFORMED = [
    ("", "empty file", None),
    ("x", "size must be an integer, got 'x'", 1),
    ("-1", "size must be non-negative", 1),
    ("2 1 2 3", "expected 9 tokens for size 2, found 4", 1),
    # Missing tokens are reported at the last one, surplus ones at the
    # first surplus token.
    ("2\n0 1\n1 0\n0 3\n3\n\n", "expected 9 tokens for size 2, found 8", 5),
    ("2\n0 1\n1 0\n0 3\n3 0 7\n8\n", "expected 9 tokens for size 2, found 11", 5),
]


class TestQaplib:
    def test_trivial(self):
        assert parse_qaplib("1 0 0") == (1, [[0]], [[0]])

    def test_two_by_two_layout(self):
        n, flow, dist = parse_qaplib("2\n0 1\n1 0\n\n0 3\n3 0\n")
        assert n == 2
        assert flow == [[0, 1], [1, 0]]
        assert dist == [[0, 3], [3, 0]]

    def test_token_checksum(self):
        rng = seeded(131)
        n = 4
        values = [rng.randint(0, 9) for _ in range(2 * n * n)]
        text = f"{n}\n" + " ".join(map(str, values))
        _, flow, dist = parse_qaplib(text)
        flat = [c for row in flow for c in row] + [c for row in dist for c in row]
        assert sum(flat) == sum(values)

    @pytest.mark.parametrize("text", ["", "2 1 2 3", "2 " + "x " * 8])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_qaplib(text)

    @pytest.mark.parametrize("text, message, line", _QAPLIB_MALFORMED, ids=[
        f"{text}-{message}" for text, message, _ in _QAPLIB_MALFORMED])
    def test_malformed_messages(self, text, message, line):
        raises_parse_error(parse_qaplib, text, message, line)

    @pytest.mark.parametrize("token, message", [
        ("inf", "cost must be finite, got 'inf'"),
        ("-inf", "cost must be finite, got '-inf'"),
        ("nan", "cost must be finite, got 'nan'"),
        ("zz", "cost must be numeric, got 'zz'"),
    ])
    def test_bad_entry_messages(self, token, message):
        raises_parse_error(parse_qaplib, f"2\n0 1\n1 0\n0 {token}\n3 0\n",
                           message, 4)


class TestConvertQaplib:
    @pytest.mark.parametrize("flow, dist", [
        ([[0, 1]], [[0]]),
        ([[0]], [[0], [0]]),
        ([[0]], [[0, 1]]),
        ([[0, 1], [1]], [[0, 1], [1, 0]]),
    ])
    def test_non_square_matrices_are_rejected(self, flow, dist):
        with pytest.raises(ValueError) as info:
            convert_qaplib_to_iqap(flow, dist)
        assert str(info.value) == (
            "flow and distance must be square matrices of equal size")

    def test_zero_flow_gives_pure_unary_instance(self):
        flow = [[0, 0], [0, 0]]
        dist = [[0, 3], [3, 0]]
        inst = convert_qaplib_to_iqap(flow, dist)
        assert not inst.edges
        shift = qaplib_shift_constant(flow, dist)
        assert shift == 1
        assert all(inst.unary.cost(v, lab) == -1
                   for v in range(2) for lab in range(2))
        assert all(inst.unary.cost(v, DUMMY) == 0 for v in range(2))

    def test_two_by_two_single_edge_doubles_distances(self):
        flow = [[0, 1], [1, 0]]
        dist = [[0, 3], [3, 0]]
        inst = convert_qaplib_to_iqap(flow, dist)
        assert len(inst.edges) == 1
        assert inst.edges[0].cells == {(0, 1): 6, (1, 0): 6}
        shift = qaplib_shift_constant(flow, dist)
        assert shift == 7
        assert inst.unary.cost(0, 0) == -7

    def test_small_optimum_matches_direct_enumeration(self):
        rng = seeded(139)
        for _ in range(10):
            n = rng.randint(1, 4)
            flow = [[rng.randint(0, 4) if u != v else rng.randint(0, 2)
                     for v in range(n)] for u in range(n)]
            dist = [[rng.randint(0, 4) if u != v else rng.randint(0, 2)
                     for v in range(n)] for u in range(n)]
            inst = convert_qaplib_to_iqap(flow, dist)
            shift = qaplib_shift_constant(flow, dist)
            value, optima = brute_force_optimum(inst)
            direct = min(qap_objective(flow, dist, perm)
                         for perm in itertools.permutations(range(n)))
            assert value + n * shift == direct
            assert all(DUMMY not in x for x in optima)

    @pytest.mark.parametrize("n", range(7))
    def test_applied_shift_is_the_shift_constant(self, n):
        rng = seeded(157 + n)
        entries = [0, 0, 1, 4, -3, 2.5, -0.75]
        for trial in range(12):
            flow = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            dist = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            if trial % 3 == 0:
                flow = [[0] * n for _ in range(n)]
            elif trial % 3 == 1:
                flow = [[c if u < v else 0 for v, c in enumerate(row)]
                        for u, row in enumerate(flow)]
            shift = qaplib_shift_constant(flow, dist)
            assert shift == _documented_shift(flow, dist)
            inst = convert_qaplib_to_iqap(flow, dist)
            assert inst.unary.costs == tuple(
                (0, *(flow[v][v] * dist[lab][lab] - shift for lab in range(n)))
                for v in range(n))


    @pytest.mark.parametrize("symmetric", [True, False])
    def test_one_row_table_per_typed_flow_pair(self, symmetric):
        rng = seeded(163 + symmetric)
        n = 7
        values = [0, 0, 1, 3, 3.0, 0.5]
        flow = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        if symmetric:
            flow = [[flow[min(u, v)][max(u, v)] for v in range(n)]
                    for u in range(n)]
        dist = [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)]
        inst = convert_qaplib_to_iqap(flow, dist)
        tables = {}
        for e in inst.edges:
            fu, fv = flow[e.u][e.v], flow[e.v][e.u]
            tables.setdefault((type(fu), fu, type(fv), fv), set()).add(
                id(e.rows_u))
        assert len(tables) < len(inst.edges)
        assert all(len(ids) == 1 for ids in tables.values())
        assert len({id(e.rows_u) for e in inst.edges}) == len(tables)
        unshared = IqapInstance(inst.unary, _unshared_edges(flow, dist))
        assert edge_layout(inst) == edge_layout(unshared)

    @pytest.mark.parametrize("int_first", [True, False])
    def test_equal_int_and_float_flows_stay_apart(self, tmp_path, int_first):
        # 2**60 as an int token and as a float token: equal values whose
        # cells must keep their types, so they must not share a map.
        big = ["1152921504606846976", "1.152921504606847e+18"]
        first, second = big if int_first else big[::-1]
        path = tmp_path / "big.dat"
        path.write_text(f"3\n0 {first} 0\n0 0 {second}\n0 0 0\n"
                        "0 1 2\n1 0 1\n2 1 0\n")
        inst = load_instance(path, fmt="qaplib")
        assert [e.integral for e in inst.edges] == [int_first, not int_first]
        for e in inst.edges:
            kinds = {type(c) for c in e.cells.values()}
            assert kinds == ({int} if e.integral else {float})
        _, flow, dist = parse_qaplib(path.read_text())
        assert type(flow[0][1]) is not type(flow[1][2])
        unshared = IqapInstance(inst.unary, _unshared_edges(flow, dist))
        assert edge_layout(inst) == edge_layout(unshared)
        assert inst.integral == unshared.integral
        config = SolverConfig(method="hung", max_iterations=5,
                              bound_improvement_epsilon=0)
        got, want = run(inst, config), run(unshared, config)
        assert (got.final_bound, got.bound_trajectory) == (
            want.final_bound, want.bound_trajectory)

    @pytest.mark.parametrize("kind", ["int", "float"])
    def test_shift_constant_on_repeated_flows(self, kind):
        # Few flow values over many pairs.  The float shift is
        # 63.83333333333332 summed edge by edge, left to right, but
        # 63.833333333333336 from each distinct peak times its edge count
        # and 63.83333333333333 from ``math.fsum``.
        values = [0, 1, 7, 12] if kind == "int" else [0, 0.1, 0.3, 1 / 3]
        rng = seeded(167)
        n = 9
        flow = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        dist = [[rng.randint(0, 5) for _ in range(n)] for _ in range(n)]
        shift = qaplib_shift_constant(flow, dist)
        assert shift == _documented_shift(flow, dist)
        assert type(shift) is type(_documented_shift(flow, dist))

    def test_a_pair_whose_cells_are_all_zero_has_no_edge(self):
        flow = [[0, 2, 1], [3, 0, 0], [1, 0, 0]]
        zero = [[0] * 3 for _ in range(3)]
        assert convert_qaplib_to_iqap(flow, zero).edges == ()
        assert qaplib_shift_constant(flow, zero) == 1
        # Opposite flows over a symmetric distance cancel in every cell.
        flow = [[0, 2, 1], [-2, 0, 0], [0, 0, 0]]
        dist = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        inst = convert_qaplib_to_iqap(flow, dist)
        assert [(e.u, e.v) for e in inst.edges] == [(0, 2)]


def _unshared_edges(flow, dist):
    """``(u, v, cells)`` for each vertex pair with a non-zero cell, as the
    ``convert_qaplib_to_iqap`` docstring states it, each with its own
    new map."""
    n = len(flow)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            cells = {(k, l): c for k in range(n) for l in range(n)
                     if (c := flow[u][v] * dist[k][l] + flow[v][u] * dist[l][k])}
            if cells:
                edges.append((u, v, cells))
    return edges


def _documented_shift(flow, dist):
    """``qaplib_shift_constant`` as its docstring states it, over every
    cell of every vertex pair."""
    n = len(flow)
    total = 0
    for u in range(n):
        for v in range(u + 1, n):
            total += max(abs(flow[u][v] * dist[k][l] + flow[v][u] * dist[l][k])
                         for k in range(n) for l in range(n))
    diagonal = max((flow[v][v] * dist[lab][lab]
                    for v in range(n) for lab in range(n)), default=0)
    return 1 + total + max(0, diagonal)


class TestAugment:
    def test_disjoint_label_sets_unchanged(self):
        core = IlapInstance([[DUMMY, 0], [DUMMY, 1]], [[0, 1], [0, 2]], 2)
        inst = IqapInstance(core, [(0, 1, {(0, 1): 3})])
        out = augment_instance(inst)
        assert out.edges[0].cells == {(0, 1): 3}

    def test_shared_zero_diagonal_replaced(self):
        core = IlapInstance([[DUMMY, 0]] * 2, [[0, 1]] * 2, 1)
        inst = IqapInstance(core, [(0, 1, {})])
        out = augment_instance(inst)
        assert out.edges[0].cells == {(0, 0): AUGMENT_VALUE}

    def test_stored_nonzero_diagonal_kept(self):
        core = IlapInstance([[DUMMY, 0]] * 2, [[0, 1]] * 2, 1)
        inst = IqapInstance(core, [(0, 1, {(0, 0): -2})])
        out = augment_instance(inst)
        assert out.edges[0].cells == {(0, 0): -2}

    def test_stored_zero_diagonal_replaced(self):
        core = IlapInstance([[DUMMY, 0]] * 2, [[0, 1]] * 2, 1)
        inst = IqapInstance(core, [(0, 1, {(0, 0): 0})])
        out = augment_instance(inst)
        assert out.edges[0].cells == {(0, 0): AUGMENT_VALUE}

    def test_optimum_preserved(self):
        rng = seeded(149)
        for _ in range(25):
            inst = random_iqap(rng)
            if search_space_size(inst) > 10**6:
                continue
            before, _ = brute_force_optimum(inst)
            after, _ = brute_force_optimum(augment_instance(inst))
            assert before == after


class TestSniff:
    def test_detects_each_format(self):
        assert sniff_format("p 1 1 0 0\n") == "dd"
        assert sniff_format("c x\np lap 3\n") == "lap"
        assert sniff_format("p ilap 2 2\n") == "ilap"
        assert sniff_format("3\n0 1 2\n") == "qaplib"

    def test_every_fixture_sniffs_to_its_format(self):
        kinds = {".dd": "dd", ".lap": "lap", ".ilap": "ilap", ".dat": "qaplib"}
        for path in FIXTURES.iterdir():
            if path.suffix in kinds:
                assert sniff_format(path.read_text()) == kinds[path.suffix]

    def test_sniffing_reads_only_the_start_of_the_text(self, tmp_path):
        path = tmp_path / "gm.dd"
        benchmark_generators().write_gm(path, 7, vertices=220)
        text = path.read_text()
        assert len(text) > 300_000
        tracemalloc.start()
        try:
            assert sniff_format(text) == "dd"
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_a_record_before_any_header_goes_to_its_parser(self):
        assert sniff_format("a 0 0 0 1\n") == "dd"
        assert sniff_format("c x\ne 0 1 2\n") == "dd"
        assert sniff_format("d 0 4\n") == "ilap"
        assert sniff_format("x 1\n") == "qaplib"

    def test_unknown_format_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown format 'qaplbi'"):
            load_instance(FIXTURES / "qap3.dat", fmt="qaplbi")


class TestExactIntTokens:
    def test_qaplib_keeps_an_int_above_two_to_the_53(self):
        _, flow, dist = parse_qaplib("1\n9007199254740993\n0\n")
        assert flow == [[9007199254740993]]
        assert type(flow[0][0]) is int and dist == [[0]]

    def test_dd_cell_keeps_an_int_above_two_to_the_53(self):
        inst = parse_dd("p 1 1 1 0\na 0 0 0 9007199254740993\n")
        assert inst.unary.cost(0, 0) == 9007199254740993
        assert inst.integral

    def test_float_token_with_an_integral_value_reads_as_int(self):
        _, flow, _ = parse_qaplib("1\n1e3\n0\n")
        assert flow == [[1000]] and type(flow[0][0]) is int
        inst = parse_dd("p 1 1 1 0\na 0 0 0 1e3\n")
        assert type(inst.unary.cost(0, 0)) is int

    def test_int_beyond_the_float_range_is_not_finite(self):
        with pytest.raises(ParseError, match="finite"):
            parse_qaplib("1\n1" + "0" * 400 + "\n0\n")
        with pytest.raises(ParseError, match="finite"):
            parse_dd("p 1 1 1 0\na 0 0 0 1" + "0" * 400 + "\n")


class TestAugmentOnLoad:
    @pytest.mark.parametrize("name", ["toy1.dd", "toy2.dd", "toy3.dd", "qap3.dat"])
    def test_one_construction_equals_augmenting_the_instance(self, name):
        path = FIXTURES / name
        once = load_instance(path, augment=True)
        twice = augment_instance(load_instance(path))
        assert edge_layout(once) == edge_layout(twice)
        assert once.integral == twice.integral
        assert once.max_abs_cost == twice.max_abs_cost

    def test_readers_equal_augment_instance(self):
        rng = seeded(151)
        for _ in range(20):
            n = rng.randint(1, 5)
            flow = [[rng.choice([0, 0, 1, 3]) for _ in range(n)] for _ in range(n)]
            dist = [[rng.choice([0, 1, 2.5]) for _ in range(n)] for _ in range(n)]
            once = convert_qaplib_to_iqap(flow, dist, augment=True)
            twice = augment_instance(convert_qaplib_to_iqap(flow, dist))
            assert edge_layout(once) == edge_layout(twice)
            assert once.integral == twice.integral
            inst = random_iqap(rng, dummy_cells=False)
            text = serialize_dd(inst)
            once = parse_dd(text, augment=True)
            twice = augment_instance(parse_dd(text))
            assert edge_layout(once) == edge_layout(twice)
            assert once.integral == twice.integral

    def test_augment_rejects_a_linear_instance(self):
        with pytest.raises(ValueError, match="quadratic instances only"):
            load_instance(FIXTURES / "tiny.ilap", augment=True)


# ---------------------------------------------------------------------------
# Block reader against the line-by-line reference readers


def _image(inst):
    """Rows, cost values and types, and edge cells of an instance."""
    unary = getattr(inst, "unary", inst)
    edges = [(e.u, e.v, list(e.cells.items()))
             for e in getattr(inst, "edges", ())]
    return repr((type(inst).__name__, unary.allowed, unary.costs,
                 unary.num_labels, edges))


def _outcome(parse, text, **kwargs):
    try:
        return "ok", _image(parse(text, **kwargs))
    except ParseError as exc:
        return "error", str(exc), exc.line


_COSTS = ["0", "7", "-3", "1.5", "-0.25", "2e3", "9007199254740993",
          "-123456789012345678901", "1e20", "0.1"]


def _cost(rng):
    return rng.choice(_COSTS) if rng.random() < 0.3 else str(rng.randint(-9, 99))


def _render(rng, records, *, crlf):
    """Lines of ``records`` (token lists) with random spacing, comment and
    blank lines between them, and ``\\n`` or ``\\r\\n`` line ends."""
    lines = []
    for tokens in records:
        while rng.random() < 0.05:
            lines.append(rng.choice(["c note", "  c", "cx 1 2", "", "  \t"]))
        gap = rng.choice([" ", " ", "\t", "  "])
        lead = rng.choice(["", "", "", " ", "\t "])
        lines.append(lead + gap.join(tokens) + rng.choice(["", "", " "]))
    end = "\r\n" if crlf else "\n"
    return end.join(lines) + (end if rng.random() < 0.9 else "")


def _dd_records(rng, long):
    """A valid ``.dd`` file as token lists: the header, then ``a`` runs
    with the ``e`` records they allow after each, so runs interleave."""
    n0 = rng.randint(30, 60) if long else rng.randint(1, 6)
    n1 = rng.randint(10, 20) if long else rng.randint(1, 6)
    pairs = [(v, lab) for v in range(n0) for lab in range(n1)
             if rng.random() < 0.6]
    rng.shuffle(pairs)
    ids = list(range(len(pairs)))
    rng.shuffle(ids)
    a_lines = [["a", str(i), str(v), str(lab), _cost(rng)]
               for i, (v, lab) in zip(ids, pairs)]
    vertex = dict(zip(ids, (v for v, _ in pairs)))
    want = 4000 if long else rng.randint(0, 12)
    edges = set()
    for _ in range(4 * want):
        if len(edges) >= want or len(ids) < 2:
            break
        one, two = rng.sample(ids, 2)
        if vertex[one] != vertex[two] and (two, one) not in edges:
            edges.add((one, two))
    order = {i: n for n, i in enumerate(ids)}
    pending = sorted(edges, key=lambda e: max(order[e[0]], order[e[1]]))
    records = [["p", str(n0), str(n1), str(len(ids)), str(len(edges))]]
    done = 0
    while done < len(a_lines) or pending:
        step = rng.randint(1, 600 if long else 4)
        records += a_lines[done:done + step]
        done += step
        defined = set(ids[:done])
        ready = [e for e in pending if e[0] in defined and e[1] in defined]
        pending = pending[len(ready):]
        records += [["e", str(i), str(j), _cost(rng)] for i, j in ready]
    return records


def _corrupt_dd(rng, records):
    """Put one fault of a random class into ``records``, in place."""
    header = records[0]
    a_rows = [r for r in records if r[0] == "a"]
    e_rows = [r for r in records if r[0] == "e"]
    row = rng.choice(records[1:]) if len(records) > 1 else header
    fault = rng.choice(["token", "range", "repeat id", "repeat pair",
                        "repeat edge", "unknown id", "same vertex", "count",
                        "record", "before header", "header count",
                        "not finite"])
    if fault == "token" and row is not header:
        row[rng.randrange(1, len(row))] = rng.choice(["zz", "1.5", "0x1"])
    elif fault == "range" and a_rows:
        # id, vertex or label, and the header count it must stay below
        field, count = rng.choice([(1, 3), (2, 1), (3, 2)])
        rng.choice(a_rows)[field] = rng.choice(["-1", header[count]])
    elif fault == "repeat id" and len(a_rows) > 1:
        rng.choice(a_rows)[1] = rng.choice(a_rows)[1]
    elif fault == "repeat pair" and len(a_rows) > 1:
        rng.choice(a_rows)[2:4] = rng.choice(a_rows)[2:4]
    elif fault == "repeat edge" and e_rows:
        row = rng.choice(e_rows)
        twin = list(row)
        if rng.random() < 0.5:
            twin[1], twin[2] = twin[2], twin[1]
        records.insert(rng.randint(records.index(row) + 1, len(records)), twin)
    elif fault == "unknown id" and e_rows:
        rng.choice(e_rows)[rng.randint(1, 2)] = str(int(header[3]) + 2)
    elif fault == "same vertex" and e_rows:
        row = rng.choice(e_rows)
        row[2] = row[1]
    elif fault == "count":
        if rng.random() < 0.5:
            row.append("1")
        elif len(row) > 1:
            row.pop()
    elif fault == "record":
        records.insert(rng.randrange(len(records) + 1),
                       [rng.choice(["q", "ab", "x1"]), "0", "0", "0", "1"])
    elif fault == "before header" and len(records) > 1:
        records.insert(rng.randrange(1, len(records)), records.pop(0))
    elif fault == "header count":
        count = rng.choice([3, 4])
        header[count] = str(int(header[count]) + 1)
    elif fault == "not finite" and row is not header:
        row[-1] = rng.choice(["inf", "nan", "1" + "0" * 400])


def _dd_texts(count, seed):
    rng = seeded(seed)
    for n in range(count):
        long = n % 25 == 0
        records = _dd_records(rng, long)
        for _ in range(rng.choice([0, 0, 1, 1, 2])):
            _corrupt_dd(rng, records)
        yield _render(rng, records, crlf=rng.random() < 0.3)


def _two_faults_in_one_block(rng):
    """A ``.dd`` text whose one ``e`` run holds two faults on different
    lines, the later one in an earlier field; at the reader's own sizes
    the run is one block."""
    records = []
    while sum(r[0] == "e" for r in records) < 3:
        records = _dd_records(rng, False)
    # every e record after every a record: one e run
    records.sort(key=lambda r: r[0] == "e")
    e_rows = [r for r in records if r[0] == "e"]
    first, second = sorted(rng.sample(range(len(e_rows)), 2))
    e_rows[first][3] = "zz"
    e_rows[second][1] = "yy"
    return _render(rng, records, crlf=False)


def _lap_texts(count, seed):
    rng = seeded(seed)
    for _ in range(count):
        square = rng.random() < 0.4
        nv = rng.randint(1, 6)
        nl = nv if square else rng.randint(1, 6)
        records = [["p", "lap", str(nv)] if square
                   else ["p", "ilap", str(nv), str(nl)]]
        pairs = [(v, lab) for v in range(nv) for lab in range(nl)
                 if rng.random() < 0.6 or (square and lab == v)]
        rng.shuffle(pairs)
        records += [["a", str(v), str(lab), _cost(rng)] for v, lab in pairs]
        if not square:
            for v in rng.sample(range(nv), rng.randint(0, nv)):
                records.insert(rng.randint(1, len(records)),
                               ["d", str(v), _cost(rng)])
        if rng.random() < 0.5:
            row = rng.choice(records)
            fault = rng.randrange(6)
            if fault == 0 and len(row) > 2:
                row[rng.randrange(1, len(row))] = "zz"
            elif fault == 1 and row[0] == "a":
                row[rng.randint(1, 2)] = rng.choice(["-1", "6", "7"])
            elif fault == 2:
                records.insert(rng.randint(1, len(records)), list(row))
            elif fault == 3:
                row.append("1") if rng.random() < 0.5 else row.pop()
            elif fault == 4:
                records.insert(rng.randrange(len(records) + 1), ["e", "0", "1"])
            else:
                records.insert(rng.randrange(1, len(records) + 1),
                               records.pop(0))
        yield _render(rng, records, crlf=rng.random() < 0.3)


# Block, slice and shortest-run sizes of the reader: its own, and small
# ones that put block and slice ends all over short texts and read runs
# of two lines in blocks.
_READER_SIZES = [None, (3, 16, 64, 2)]


def _lines_read_by_line(text):
    """Line numbers of the records of ``text`` outside every run of ``a``
    or ``e`` lines, with the comment and blank lines after each, that spans
    at least ``records._MIN_RUN`` lines of one slice of the text."""
    out = set()
    for first, lines in records._slices(text):
        heads = "".join([raw.lstrip()[:1] or "c" for raw in lines])
        blocked = set()
        for run in re.finditer(r"a[ac]*|e[ec]*", heads):
            if len(run.group()) >= records._MIN_RUN:
                blocked.update(range(*run.span()))
        out.update(first + i for i, head in enumerate(heads)
                   if head != "c" and i not in blocked)
    return out


class TestBlockReader:
    @pytest.fixture(params=_READER_SIZES, ids=["default-sizes", "small-sizes"])
    def sizes(self, request, monkeypatch):
        if request.param is not None:
            block, first, size, min_run = request.param
            monkeypatch.setattr(records, "_BLOCK", block)
            monkeypatch.setattr(records, "_FIRST_SLICE", first)
            monkeypatch.setattr(records, "_SLICE", size)
            monkeypatch.setattr(records, "_MIN_RUN", min_run)

    def test_dd_texts_read_as_the_line_reader_reads_them(self, sizes):
        outcomes = set()
        for text in _dd_texts(500, 241):
            want = _outcome(reference_parse_dd, text, dummy_cost=3)
            assert _outcome(parse_dd, text, dummy_cost=3) == want, text
            outcomes.add(want[0])
        assert outcomes == {"ok", "error"}

    def test_long_runs_span_blocks_and_slices(self, sizes):
        rng = seeded(251)
        records = _dd_records(rng, True)
        text = _render(rng, records, crlf=True)
        # past the growing slices, and runs of several blocks
        assert len(text) > 1 << 16
        assert sum(r[0] == "e" for r in records) > 4 * 512
        assert _outcome(parse_dd, text) == _outcome(reference_parse_dd, text)
        assert _outcome(parse_dd, text)[0] == "ok"

    def test_first_of_two_faults_in_one_block_is_named(self, sizes):
        rng = seeded(257)
        for _ in range(40):
            text = _two_faults_in_one_block(rng)
            want = _outcome(reference_parse_dd, text)
            assert want[:2] == ("error", f"line {want[2]}: cost must be "
                                "numeric, got 'zz'")
            assert _outcome(parse_dd, text) == want

    def test_lap_texts_read_as_the_line_reader_reads_them(self, sizes):
        outcomes = set()
        for text in _lap_texts(300, 263):
            want = _outcome(reference_parse_lap_file, text)
            assert _outcome(parse_lap_file, text) == want, text
            outcomes.add(want[0])
        assert outcomes == {"ok", "error"}

    def test_valid_records_skip_the_field_rules(self, sizes, monkeypatch):
        # The line rules of ``parse_dd`` read through these names, the line
        # number last; its block rules read through the column rules.  So
        # a record in a run of at least ``_MIN_RUN`` lines reaches none of
        # them, and the header and the records of shorter runs do.
        lines = set()
        for name in ("_int_field", "_index_field", "_cost_field", "_pair_record"):
            rule = getattr(formats, name)
            monkeypatch.setattr(formats, name, lambda *args, rule=rule:
                                lines.add(args[-1]) or rule(*args))
        rng = seeded(271)
        by_line = 0
        for long in [True] + [False] * 40:
            text = _render(rng, _dd_records(rng, long), crlf=rng.random() < 0.5)
            parse_dd(text)
            assert lines == _lines_read_by_line(text)
            by_line += len(lines)
            lines.clear()
        # the header of each text, and more
        assert by_line > 41

    def test_augmented_read_matches(self):
        rng = seeded(269)
        for _ in range(30):
            text = _render(rng, _dd_records(rng, False), crlf=False)
            assert (_outcome(parse_dd, text, augment=True)
                    == _outcome(reference_parse_dd, text, augment=True))
