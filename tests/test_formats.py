import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qapbound.formats import (
    AUGMENT_VALUE,
    ParseError,
    augment_instance,
    convert_qaplib_to_iqap,
    parse_dd,
    parse_lap_file,
    parse_qaplib,
    qap_objective,
    qaplib_shift_constant,
    serialize_dd,
    serialize_lap_file,
    sniff_format,
)
from qapbound.model import DUMMY, IlapInstance, IqapInstance, LapInstance
from qapbound.oracle import brute_force_optimum, search_space_size

from helpers import random_iqap, seeded


def same_iqap(a: IqapInstance, b: IqapInstance) -> bool:
    return (a.unary.allowed == b.unary.allowed
            and a.unary.costs == b.unary.costs
            and a.unary.num_labels == b.unary.num_labels
            and [(e.u, e.v, e.cells) for e in a.edges]
            == [(e.u, e.v, e.cells) for e in b.edges])


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
        assert inst.unary.dummy_cost(0) == 0
        assert inst.edges[0].cells == {(0, 1): 7}

    def test_dummy_cost_override(self):
        inst = parse_dd("p 1 1 1 0\na 0 0 0 5\n", dummy_cost=9)
        assert inst.unary.dummy_cost(0) == 9

    @pytest.mark.parametrize("text,match", [
        ("p 1 1\n", "header"),
        ("a 0 0 0 1\n", "before header"),
        ("p 1 1 1 0\na 0 0 0 x\n", "numeric"),
        ("p 1 1 1 0\na 0 0 0 inf\n", "finite"),
        ("p 1 1 2 0\na 0 0 0 1\na 1 0 0 2\n", "duplicate assignment pair"),
        ("p 1 1 1 0\na 0 0 0 1\na 0 0 0 1\n", "duplicate assignment id"),
        ("p 1 2 1 1\na 0 0 0 1\ne 0 3 1\n", "unknown assignment id"),
        ("p 1 2 2 1\na 0 0 0 1\na 1 0 1 1\ne 0 1 5\n", "vertex 0"),
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
        assert inst.dummy_cost(0) == 5
        assert inst.dummy_cost(1) == 0

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

    @pytest.mark.parametrize("token, message", [
        ("inf", "matrix entry: cost must be finite, got inf"),
        ("-inf", "matrix entry: cost must be finite, got -inf"),
        ("nan", "matrix entry: cost must be finite, got nan"),
        ("x", "non-numeric token 'x'"),
    ])
    def test_bad_entry_messages(self, token, message):
        with pytest.raises(ParseError) as info:
            parse_qaplib(f"1\n{token}\n2\n")
        assert str(info.value) == message


class TestConvertQaplib:
    def test_zero_flow_gives_pure_unary_instance(self):
        flow = [[0, 0], [0, 0]]
        dist = [[0, 3], [3, 0]]
        inst = convert_qaplib_to_iqap(flow, dist)
        assert not inst.edges
        shift = qaplib_shift_constant(flow, dist)
        assert shift == 1
        assert all(inst.unary.cost(v, lab) == -1
                   for v in range(2) for lab in range(2))
        assert all(inst.unary.dummy_cost(v) == 0 for v in range(2))

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
