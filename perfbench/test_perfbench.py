"""Tests of the benchmark's own parts: generators, checks and the tracer."""

import json
from types import SimpleNamespace

import instances
import layertrace
import run as bench

bench.import_program()

from qapbound import bounds, formats, model, reduction  # noqa: E402
from qapbound.bounds import SolverConfig  # noqa: E402
from qapbound.model import DUMMY  # noqa: E402


def test_metrics_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {f"{layer}.self_s" for layer in bench.LAYER_TIMES} <= per_layer
    assert set(bench.LAYER_COUNTS) <= per_layer


def test_generators_are_seeded_and_plant_a_feasible_permutation(tmp_path):
    for family, write, kwargs, load_kwargs in (
            ("gm", instances.write_gm, {"vertices": 12}, {}),
            ("qaplib", instances.write_qaplib, {"size": 7},
             {"fmt": "qaplib"})):
        a, b, c = (tmp_path / f"{family}-{i}" for i in range(3))
        perm = write(a, 5, **kwargs)
        assert write(b, 5, **kwargs) == perm
        write(c, 6, **kwargs)
        assert a.read_bytes() == b.read_bytes() != c.read_bytes()
        assert sorted(perm) == list(range(len(perm)))
        inst = formats.load_instance(a, **load_kwargs)
        assert inst.integral
        assert all(inst.unary.allows(v, lab) for v, lab in enumerate(perm))


def test_miniatures_bound_below_the_enumerated_optimum(tmp_path):
    for family in ("gm", "qaplib"):
        for seed in range(3):
            assert bench.miniature_problems(family, seed, tmp_path) == []


def test_solve_checks_flag_each_violation():
    inst = SimpleNamespace(atol=1e-9)
    good = SimpleNamespace(iterations=2, final_bound=5.0,
                           bound_trajectory=[1.0, 4.0, 5.0])
    assert bench.solve_problems(inst, good, 2, {"optimum": 5}, 5.0) == []
    bad = SimpleNamespace(iterations=3, final_bound=6.0,
                          bound_trajectory=[1.0, 7.0, 6.0, 6.0])
    problems = bench.solve_problems(inst, bad, 2, {"optimum": 5}, 5.0)
    assert len(problems) == 4


def test_trace_accounts_for_the_solve_and_restores_the_program(tmp_path):
    path = tmp_path / "gm.dd"
    instances.write_gm(path, 3, vertices=30)
    originals = (formats.load_instance, bounds.run, reduction.solve_lap,
                 model.IlapInstance.__init__)
    tracer = layertrace.Tracer()
    config = SolverConfig(method="hung-ri", max_iterations=3,
                          bound_improvement_epsilon=0)
    with layertrace.installed(tracer):
        inst = formats.load_instance(path, dummy_cost=bench.GM_DUMMY_COST)
        traced = bounds.run(inst, config)
    assert (formats.load_instance, bounds.run, reduction.solve_lap,
            model.IlapInstance.__init__) == originals
    assert bounds.run(inst, config).final_bound == traced.final_bound

    load, solve = tracer.roots()
    assert (load.name, solve.name) == ("formats.load_instance", "bounds.run")
    for root in (load, solve):
        assert abs(sum(root.self_s.values()) - root.duration) < 1e-9
    counts = solve.counts
    assert counts["lap.solve_lap.calls"] == 3
    assert counts["lap.solve_lap.nodes"] == 3 * (30 + 30)
    assert counts["reduction.reduce_ilap_to_lap.calls"] == 6
    assert counts["wcsp.mplp_pp_pass.edge_updates"] == 3 * len(inst.edges)
    assert counts[
        "relative_interior.shift_to_relative_interior.components_shifted"] > 0
    dummy = [DUMMY] * inst.num_vertices
    assert traced.final_bound <= model.iqap_objective(inst, dummy)
