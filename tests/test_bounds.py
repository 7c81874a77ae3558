import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qapbound import bounds
from qapbound.beta_steps import beta_bca_pass, beta_exact_update
from qapbound.bounds import METHODS, BoundReport, SolverConfig, dual_bound, run
from qapbound.formats import load_instance
from qapbound.model import DUMMY, IlapInstance, IqapInstance
from qapbound.oracle import brute_force_optimum
from qapbound.wcsp import IqapDualState, mplp_pp_pass

from helpers import copy_state, pairwise_minimum, random_iqap, seeded

FIXTURES = Path(__file__).parent / "fixtures"


def edgeless(allowed, costs, num_labels):
    return IqapInstance(IlapInstance(allowed, costs, num_labels), [])


class TestConfig:
    def test_requires_some_budget(self):
        with pytest.raises(ValueError, match="budget|limit|cap"):
            SolverConfig(method="bca")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            SolverConfig(method="subgradient", max_iterations=1)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            SolverConfig(method="bca", max_iterations=1,
                         bound_improvement_epsilon=-1)

    @pytest.mark.parametrize("settings", [
        {"time_limit": float("nan")},
        {"time_limit": float("inf")},
        {"max_iterations": 1, "bound_improvement_epsilon": float("nan")},
    ], ids=["nan-time-limit", "infinite-time-limit", "nan-epsilon"])
    def test_rejects_non_finite_settings(self, settings):
        with pytest.raises(ValueError):
            SolverConfig(method="bca", **settings)

    @pytest.mark.parametrize("cap", [2.5, 3.0, True, "2", 0, -1])
    def test_iteration_cap_must_be_a_positive_int(self, cap):
        with pytest.raises(ValueError, match="max_iterations must be positive"):
            SolverConfig(method="bca", max_iterations=cap)


def exact_bound(inst, state):
    """The bound of ``state`` as a ``Fraction``, by enumerating every cell."""
    unary = inst.unary
    beta = [Fraction(b) for b in state.beta]
    theta = [[Fraction(c) for c in row] for row in unary.costs]
    for (v, _), out in state.phi.items():
        theta[v] = [t + Fraction(m) for t, m in zip(theta[v], out)]
    total = sum(beta)
    for labs, row in zip(unary.allowed, theta):
        total += min(t if lab == DUMMY else t - beta[lab]
                     for lab, t in zip(labs, row))
    for e in inst.edges:
        out_u = state.phi[(e.u, e.v)]
        out_v = state.phi[(e.v, e.u)]
        cells = e.cells
        total += min(
            Fraction(cells.get((k, l), 0)) - Fraction(out_u[i])
            - Fraction(out_v[j])
            for i, k in enumerate(unary.allowed[e.u])
            for j, l in enumerate(unary.allowed[e.v]))
    return total


def assert_is_exact(inst, state):
    """``dual_bound`` is the exact int when the state holds no float, else
    the largest float at or below the exact value."""
    exact = exact_bound(inst, state)
    value = dual_bound(inst, state)
    ints = all(type(x) is int for x in itertools.chain(
        state.beta, *state.phi.values(), *inst.unary.costs,
        *(e.cells.values() for e in inst.edges)))
    if ints:
        assert type(value) is int and value == exact
    else:
        assert type(value) is float
        assert Fraction(value) <= exact
        assert exact < Fraction(math.nextafter(value, math.inf))


def dyadic(max_exponent):
    """Floats ``n * 2**e`` at many scales.  Subnormal ones make the common
    scale too large for a float."""
    return st.builds(math.ldexp, st.integers(-2**53 + 1, 2**53 - 1),
                     st.one_of(st.integers(-70, max_exponent),
                               st.integers(-1100, max_exponent)))


@st.composite
def dual_states(draw):
    """A small instance and a state with arbitrary messages and ``beta``.

    With ``ints`` every cost, message and potential is an int.  ``theta_phi``
    is left at the costs, so it disagrees with the messages.
    """
    ints = draw(st.booleans())
    float_costs = not ints and draw(st.booleans())
    cost = (st.floats(-50, 50, allow_nan=False) if float_costs
            else st.integers(-9, 9))
    message = st.integers(-20, 20) if ints else dyadic(-50)
    potential = st.integers(-20, 0) if ints else dyadic(-50).map(
        lambda x: -abs(x))
    nv = draw(st.integers(1, 4))
    nl = draw(st.integers(1, 4))
    allowed = [[DUMMY] + sorted(draw(st.sets(st.integers(0, nl - 1))))
               for _ in range(nv)]
    costs = [[draw(cost) for _ in labs] for labs in allowed]
    edges = []
    for u, v in itertools.combinations(range(nv), 2):
        if draw(st.booleans()):
            edges.append((u, v, {(k, l): draw(cost)
                                 for k in allowed[u] for l in allowed[v]
                                 if draw(st.booleans())}))
    inst = IqapInstance(IlapInstance(allowed, costs, nl), edges)
    state = IqapDualState(inst)
    state.beta = [draw(potential) for _ in range(nl)]
    for key, out in state.phi.items():
        state.phi[key] = [draw(message) for _ in out]
    return inst, state


class TestCertifiedBound:
    @settings(max_examples=300, deadline=None)
    @given(dual_states())
    def test_is_the_exact_value_rounded_down(self, case):
        assert_is_exact(*case)

    def test_integral_floats_still_give_a_float(self):
        inst = edgeless([[DUMMY, 0]], [[3, 1]], 1)
        state = IqapDualState(inst)
        state.beta[0] = -2.0
        assert repr(dual_bound(inst, state)) == "1.0"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(METHODS))
    def test_edge_terms_vanish_after_a_pass(self, seed, backward, method):
        """The fact the per-iteration bound rests on, and the bound itself.

        After each full pass every edge's cheapest reparametrized cell is 0
        up to rounding; each trajectory entry after the start matches the
        certified bound of the state it was recorded on.
        """
        inst = random_iqap(seeded(seed))
        atol = inst.atol
        state = IqapDualState(inst)
        for _ in range(3):
            mplp_pp_pass(state, backward=backward)
            for e in inst.edges:
                assert abs(pairwise_minimum(state, e)) <= atol

        certified = []

        def recorded(step):
            def wrapper(state, **kwargs):
                step(state, **kwargs)
                certified.append(dual_bound(inst, state))
            return wrapper

        steps = {"bca": "beta_bca_pass", "hung": "beta_exact_update",
                 "hung-ri": "beta_exact_update"}
        original = getattr(bounds, steps[method])
        setattr(bounds, steps[method], recorded(original))
        try:
            report = run(inst, SolverConfig(
                method=method, max_iterations=6, bound_improvement_epsilon=0))
        finally:
            setattr(bounds, steps[method], original)
        scale = 1 + inst.max_abs_cost
        assert len(certified) == 6
        for cheap, exact in zip(report.bound_trajectory[1:], certified):
            assert abs(cheap - exact) <= 1e-8 * scale
        assert report.final_bound == certified[-1]

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("iterations", [1, 4, 15])
    def test_run_evaluates_the_full_bound_twice(self, monkeypatch, method,
                                                iterations):
        calls = []

        def counted(inst, state):
            calls.append(1)
            return dual_bound(inst, state)

        monkeypatch.setattr(bounds, "dual_bound", counted)
        inst = random_iqap(seeded(127))
        report = run(inst, SolverConfig(method=method,
                                        max_iterations=iterations,
                                        bound_improvement_epsilon=0))
        assert report.iterations == iterations
        assert len(calls) == 2

    def test_final_bound_of_shipped_fixture_is_not_above_optimum(self):
        inst = load_instance(FIXTURES / "toy2.dd")
        report = run(inst, SolverConfig(method="hung-ri", max_iterations=20,
                                        bound_improvement_epsilon=0))
        assert repr(report.final_bound) == "-5.0"


class TestDualBound:
    def test_initial_state_formula(self):
        core = IlapInstance([[DUMMY, 0, 1]] * 2, [[3, 1, 2]] * 2, 2)
        inst = IqapInstance(core, [(0, 1, {(0, 1): 5, (1, 0): 2})])
        state = IqapDualState(inst)
        # unary minima 1 + 1, pairwise minimum 0 (implicit empty cells)
        assert dual_bound(inst, state) == 2

    def test_negative_stored_cell_found(self):
        core = IlapInstance([[DUMMY, 0, 1]] * 2, [[0, 0, 0]] * 2, 2)
        inst = IqapInstance(core, [(0, 1, {(0, 1): -7})])
        state = IqapDualState(inst)
        assert dual_bound(inst, state) == -7

    def test_dense_edge_min_over_stored_cells(self):
        core = IlapInstance([[DUMMY, 0]] * 2, [[0, 0]] * 2, 1)
        cells = {(k, l): 3 for k in (DUMMY, 0) for l in (DUMMY, 0)}
        inst = IqapInstance(core, [(0, 1, cells)])
        state = IqapDualState(inst)
        assert dual_bound(inst, state) == 3

    def test_zero_instance(self):
        inst = edgeless([[DUMMY, 0]] * 2, [[0, 0]] * 2, 1)
        assert dual_bound(inst, IqapDualState(inst)) == 0

    def test_positive_beta_rejected(self):
        inst = edgeless([[DUMMY, 0]] * 2, [[0, 0]] * 2, 1)
        state = IqapDualState(inst)
        state.beta[0] = 1.0
        with pytest.raises(ValueError, match="positive"):
            dual_bound(inst, state)

    def test_positive_beta_within_tolerance_counts_as_zero(self):
        # Summing the two potentials as they are certified 6e-09 above the
        # optimum 0 (assign the dummy label).
        inst = edgeless([[DUMMY, 0, 1]], [[0, 5, 5]], 2)
        state = IqapDualState(inst)
        state.beta = [inst.atol / 2] * 2
        value, _ = brute_force_optimum(inst)
        assert value == 0
        assert repr(dual_bound(inst, state)) == "0.0"

    def test_sound_on_reachable_states(self):
        rng = seeded(83)
        for _ in range(30):
            inst = random_iqap(rng)
            value, _ = brute_force_optimum(inst)
            state = IqapDualState(inst)
            atol = 1e-8 * (1 + inst.max_abs_cost)
            for _ in range(3):
                mplp_pp_pass(state)
                beta_bca_pass(state)
                assert dual_bound(inst, state) <= value + atol


def with_float_cells(inst, chosen):
    """``inst`` with the cells of the edges at the ``chosen`` positions
    divided by 3: floats with full mantissas, ints where 3 divides."""
    edges = [(e.u, e.v, {key: c / 3 if i in chosen else c
                         for key, c in e.cells.items()})
             for i, e in enumerate(inst.edges)]
    return IqapInstance(inst.unary, edges)


class TestExactOnReachableStates:
    """``assert_is_exact`` on states a run reaches."""

    @staticmethod
    def states(inst, rng):
        """The zero state, then the state after each message pass and
        label step of a few random iterations."""
        state = IqapDualState(inst)
        yield state
        for _ in range(rng.randint(1, 3)):
            mplp_pp_pass(state, backward=rng.random() < 0.5)
            yield state
            step = rng.choice(["bca", "exact", "interior"])
            if step == "bca":
                beta_bca_pass(state)
            else:
                beta_exact_update(state,
                                  relative_interior=step == "interior")
            yield state

    def scaled_rows_calls(self, monkeypatch):
        calls = []
        original = bounds._scaled_rows

        def counted(rows, scale):
            calls.append(scale)
            return original(rows, scale)

        monkeypatch.setattr(bounds, "_scaled_rows", counted)
        return calls

    @pytest.mark.parametrize("cells", ["int", "float", "both"])
    def test_equals_the_exact_value(self, monkeypatch, cells):
        rng = seeded({"int": 131, "float": 137, "both": 139}[cells])
        calls = self.scaled_rows_calls(monkeypatch)
        float_edges = 0
        for _ in range(40):
            inst = random_iqap(rng)
            if cells != "int":
                count = len(inst.edges)
                chosen = (range(count) if cells == "float"
                          else rng.sample(range(count), k=count // 2))
                inst = with_float_cells(inst, set(chosen))
            float_edges += sum(not e.integral for e in inst.edges)
            for state in self.states(inst, rng):
                assert_is_exact(inst, state)
        # Int cells are scaled by the kernel as it reads them; only edges
        # holding a float cell are copied and scaled in full.
        assert (float_edges > 0) == (cells != "int")
        assert bool(calls) == (cells != "int")

    def test_common_scale_gives_the_bound_of_the_largest_denominator(
            self, monkeypatch):
        # ``_common_scale`` may exceed the largest denominator of the
        # state's floats, but the bound is exact either way: ``repr`` and
        # type match the largest denominator's result.  The cases: states
        # a run reaches, one whose only float is a zero potential (the
        # bound is still a float), and one with a subnormal message.
        def largest_denominator(floats):
            return max((x.as_integer_ratio()[1] for x in floats), default=0)

        def bound(inst, state, scale):
            with monkeypatch.context() as patch:
                patch.setattr(bounds, "_common_scale", scale)
                return dual_bound(inst, state)

        rng = seeded(151)
        cases = []
        for _ in range(30):
            inst = random_iqap(rng)
            if rng.random() < 0.5:
                inst = with_float_cells(inst, set(range(len(inst.edges))))
            cases += [(inst, copy_state(state))
                      for state in self.states(inst, rng)]
        inst = random_iqap(seeded(157))
        zero = IqapDualState(inst)
        zero.beta[0] = 0.0
        cases.append((inst, zero))
        subnormal = IqapDualState(inst)
        mplp_pp_pass(subnormal)
        out = subnormal.phi[(inst.edges[0].u, inst.edges[0].v)]
        out[0] = 5e-324
        cases.append((inst, subnormal))
        for inst, state in cases:
            want = bound(inst, state, largest_denominator)
            assert repr(bound(inst, state, bounds._common_scale)) == repr(want)
        assert type(bound(*cases[-2], bounds._common_scale)) is float

    @pytest.mark.parametrize("floats, scale", [
        ([], 0), ([0.0], 1), ([-0.0, 2.0**60], 1), ([0.0, -0.0, 3.0], 2**51),
        ([2.0**60, 0.5], 2**53), ([0.75, 1e-3], 2**62),
        ([5e-324, 1.5], 2**1074),
    ])
    def test_common_scale(self, floats, scale):
        assert bounds._common_scale(floats) == scale

    def test_subnormal_message_takes_the_exact_fallback(self, monkeypatch):
        # 5e-324 has denominator 2**1074, which no float can hold, so
        # ``_scaled`` multiplies numerators instead of floats.
        overflowed = []
        original = bounds._scaled

        def watched(row, scale):
            try:
                float(scale)
            except OverflowError:
                overflowed.append(scale)
            return original(row, scale)

        monkeypatch.setattr(bounds, "_scaled", watched)
        rng = seeded(149)
        for _ in range(30):
            inst = random_iqap(rng)
            if rng.random() < 0.5:
                inst = with_float_cells(inst, {0})
            if not inst.edges:
                continue
            for state in self.states(inst, rng):
                out = state.phi[(inst.edges[0].u, inst.edges[0].v)]
                out[rng.randrange(len(out))] = 5e-324
                assert_is_exact(inst, state)
        assert overflowed and all(s == 2**1074 for s in overflowed)


class TestRun:
    def test_edgeless_exact_step_solves_in_one_iteration(self):
        rng = seeded(89)
        for _ in range(15):
            inst = random_iqap(rng, max_edges=0)
            value, _ = brute_force_optimum(inst)
            report = run(inst, SolverConfig(method="hung", max_iterations=1))
            assert report.final_bound == pytest.approx(
                value, abs=1e-9 * (1 + inst.max_abs_cost))
            assert report.iterations == 1

    def test_zero_costs_early_stop(self):
        inst = edgeless([[DUMMY, 0]] * 2, [[0, 0]] * 2, 1)
        for method in METHODS:
            report = run(inst, SolverConfig(method=method, max_iterations=50))
            assert report.final_bound == 0
            assert report.bound_trajectory[1] == 0
            assert report.iterations < 50

    def test_trajectories_monotone_for_all_methods(self):
        rng = seeded(97)
        for _ in range(15):
            inst = random_iqap(rng)
            atol = 1e-8 * (1 + inst.max_abs_cost)
            for method in METHODS:
                report = run(inst, SolverConfig(
                    method=method, max_iterations=12,
                    bound_improvement_epsilon=0.0))
                t = report.bound_trajectory
                assert report.final_bound == t[-1]
                assert all(b >= a - atol for a, b in zip(t, t[1:]))

    def test_exact_variants_agree_within_first_iteration(self):
        rng = seeded(103)
        for _ in range(15):
            inst = random_iqap(rng)
            atol = 1e-8 * (1 + inst.max_abs_cost)
            hung = run(inst, SolverConfig(method="hung", max_iterations=1))
            hung_ri = run(inst, SolverConfig(method="hung-ri", max_iterations=1))
            assert hung.final_bound == pytest.approx(
                hung_ri.final_bound, abs=atol)

    def test_deterministic_trajectories(self):
        rng = seeded(107)
        inst = random_iqap(rng)
        for method in METHODS:
            config = SolverConfig(method=method, max_iterations=8,
                                  bound_improvement_epsilon=0.0)
            a = run(inst, config)
            b = run(inst, config)
            assert a.bound_trajectory == b.bound_trajectory

    def test_time_limit_stops(self):
        rng = seeded(109)
        inst = random_iqap(rng)
        report = run(inst, SolverConfig(
            method="bca", time_limit=0.2, bound_improvement_epsilon=0.0))
        assert report.wall_time < 5.0

    def test_backward_pass_stays_monotone_and_sound(self):
        # ``run``'s loop for ``hung-ri``, each pass with its reverse sweep
        rng = seeded(113)
        for _ in range(10):
            inst = random_iqap(rng)
            value, _ = brute_force_optimum(inst)
            atol = 1e-8 * (1 + inst.max_abs_cost)
            state = IqapDualState(inst)
            t = [dual_bound(inst, state)]
            for _ in range(8):
                mplp_pp_pass(state, backward=True)
                beta_exact_update(state, relative_interior=True)
                t.append(dual_bound(inst, state))
            assert all(b >= a - atol for a, b in zip(t, t[1:]))
            assert t[-1] <= value + atol


class TestReport:
    def test_to_dict_round_trips_through_json(self):
        report = BoundReport(instance="x", method="bca", final_bound=-1.5,
                             bound_trajectory=[-2.0, -1.5], iterations=1,
                             wall_time=0.1)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["final_bound"] == -1.5
        assert payload["bound_trajectory"] == [-2.0, -1.5]

    def test_trajectory_can_be_omitted(self):
        report = BoundReport(instance="x", method="bca", final_bound=0.0)
        assert "bound_trajectory" not in report.to_dict(include_trajectory=False)
