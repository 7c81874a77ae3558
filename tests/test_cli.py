import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qapbound import batch, cli
from qapbound.bounds import METHODS
from qapbound.cli import _lap_payload, _relative_interior_flag, main
from qapbound.lap import solve_lap
from qapbound.formats import load_instance
from qapbound.model import Dual, IlapInstance, dual_objective
from qapbound.oracle import (SEARCH_SPACE_GUARD, brute_force_optimum,
                             check_dual_relative_interior, search_space_size)
from qapbound.reduction import solve_ilap
from qapbound.relative_interior import shift_to_relative_interior
from qapbound.results import BEST_BOUND_FACTOR

from helpers import random_ilap, random_lap, seeded

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--method", "hung-ri",
            "--input", str(FIXTURES / "toy1.dd"),
            "--max-iters", "10", "--output", "json", "--trajectory")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "hung-ri"
        assert payload["iterations"] >= 1
        assert payload["final_bound"] == payload["bound_trajectory"][-1]

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--method", "bca",
            "--input", str(FIXTURES / "toy2.dd"),
            "--max-iters", "5", "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("instance,method,final_bound")
        assert ",bca," in lines[1]

    def test_qaplib_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--method", "hung",
            "--input", str(FIXTURES / "qap3.dat"), "--max-iters", "5")
        assert code == 0
        assert json.loads(out)["method"] == "hung"

    def test_malformed_qaplib_is_a_line_numbered_input_error(self, tmp_path,
                                                             capsys):
        path = tmp_path / "bad.dat"
        path.write_text("2\n0 1\n1 0\n0 zz\n3 0\n")
        code, out, err = run_cli(capsys, "solve", "--input", str(path),
                                 "--max-iters", "1")
        assert (code, out, err) == (
            1, "", "error: line 4: cost must be numeric, got 'zz'\n")

    def test_augment_flag(self, capsys):
        code, _, _ = run_cli(
            capsys, "solve", "--augment", "--input",
            str(FIXTURES / "toy1.dd"), "--max-iters", "3")
        assert code == 0

    def test_missing_budget_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--input", str(FIXTURES / "toy1.dd"))
        assert code == 1
        assert "time-limit" in err or "max-iters" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--input", "no-such-file.dd", "--max-iters", "1")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("budget", [
        ("--max-iters", "0"),
        ("--time-limit", "-1"),
        ("--max-iters", "3", "--epsilon", "-1"),
    ], ids=["zero-iterations", "negative-time-limit", "negative-epsilon"])
    def test_bad_budget_is_input_error(self, capsys, budget):
        code, _, err = run_cli(
            capsys, "solve", "--input", str(FIXTURES / "toy1.dd"), *budget)
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("setting, message", [
        (("--time-limit", "nan"), "time_limit must be finite and positive"),
        (("--time-limit", "inf"), "time_limit must be finite and positive"),
        (("--epsilon", "nan"), "bound_improvement_epsilon must be non-negative"),
        (("--dummy-cost", "nan"), "dummy cost: cost must be finite, got nan"),
    ], ids=["nan-time-limit", "infinite-time-limit", "nan-epsilon",
            "nan-dummy-cost"])
    def test_non_finite_setting_is_input_error(self, capsys, setting, message):
        code, out, err = run_cli(
            capsys, "solve", "--method", "hung-ri",
            "--input", str(FIXTURES / "toy1.dd"), "--max-iters", "1", *setting)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_square_instance_is_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--input", str(FIXTURES / "example1.lap"),
            "--max-iters", "5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "try the 'lap' subcommand" in err

    def test_unknown_flag_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--frobnicate")
        assert code == 1

    @pytest.mark.parametrize("flag", [("--qaplib",), ("--tolerance", "0")])
    def test_removed_flag_is_input_error(self, capsys, flag):
        # Detection reads the format and every file read takes
        # DEFAULT_TOLERANCE, so neither is a setting.
        code, out, err = run_cli(
            capsys, "solve", "--input", str(FIXTURES / "qap3.dat"),
            "--max-iters", "1", *flag)
        assert (code, out) == (1, "")
        assert err == f"error: unrecognized arguments: {' '.join(flag)}\n"


class TestIntegerValuedOutput:
    """On integer costs a value that equals an integer prints as an int."""

    # 2 vertices and 1 label.  On the doubled reduction, the shift leaves
    # vertex node 0 the potentials -2.5 and -1.5, whose sum -4.0 halves to
    # the integer -2.
    ILAP = "p ilap 2 1\nd 0 -2\nd 1 0\na 0 0 -2\na 1 0 -1\n"

    def test_lap_potentials_from_halves_summing_to_an_integer(
            self, tmp_path, capsys):
        path = tmp_path / "halves.ilap"
        path.write_text(self.ILAP)
        code, out, _ = run_cli(capsys, "lap", "--input", str(path),
                               "--output", "text")
        assert code == 0
        assert "alpha: [-2, -0.5]\nbeta: [-0.5]\n" in out
        assert "relative_interior: True\n" in out

    def test_random_integral_payloads_print_no_integer_valued_float(self):
        rng = seeded(21)
        for i in range(600):
            if i % 2:
                inst = random_ilap(rng, max_vertices=7, max_labels=7)
            else:
                inst = random_lap(rng, rng.randint(1, 7))
            payload = _lap_payload(inst)
            assert not [p for p in payload["alpha"] + payload["beta"]
                        if isinstance(p, float) and p.is_integer()]

    def test_edge_free_solve_bound_and_trajectory(self, tmp_path, capsys):
        path = tmp_path / "edge_free.ilap"
        path.write_text("p ilap 2 1\nd 0 -2\nd 1 1\na 0 0 -1\na 1 0 2\n")
        code, out, _ = run_cli(
            capsys, "solve", "--method", "hung-ri", "--input", str(path),
            "--max-iters", "3", "--epsilon", "0", "--trajectory")
        assert code == 0
        payload = json.loads(out)
        assert repr((payload["final_bound"], payload["bound_trajectory"])) \
            == "(-1, [-1, -1, -1, -1])"


class TestLap:
    def test_example_fixture_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "lap", "--input", str(FIXTURES / "example1.lap"))
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 24
        assert payload["dual_objective"] == 24
        assert payload["relative_interior"] is True

    def test_dummy_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "lap", "--input", str(FIXTURES / "tiny.ilap"))
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 4
        assert payload["relative_interior"] is True

    def test_rejects_quadratic_instance(self, capsys):
        code, _, err = run_cli(
            capsys, "lap", "--input", str(FIXTURES / "toy1.dd"))
        assert code == 1
        assert "pairwise" in err

    def test_text_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "lap", "--input", str(FIXTURES / "example1.lap"),
            "--output", "text")
        assert code == 0
        assert "value: 24" in out

    @pytest.mark.parametrize("name, text, payload", [
        ("infeasible.lap", "p lap 2\na 0 0 1\na 1 0 1\n",
         {"status": "infeasible"}),
        ("linear.dd", "p 2 2 2 0\na 0 0 0 1\na 1 1 1 2\n",
         {"status": "optimal", "value": 3, "assignment": {"0": "0", "1": "1"},
          "alpha": [2, 2.5], "beta": [-1, -0.5], "dual_objective": 3.0,
          "relative_interior": True}),
    ])
    def test_payload_of_a_file(self, tmp_path, capsys, name, text, payload):
        path = tmp_path / name
        path.write_text(text)
        dummy = ("--dummy-cost", "3") if name.endswith(".dd") else ()
        code, out, err = run_cli(capsys, "lap", "--input", str(path), *dummy)
        assert (code, err) == (0, "")
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_costs_past_float_precision_end_without_a_traceback(
            self, tmp_path, capsys):
        # Complete instances with costs 2**55 + 0..7: odd ints there halve
        # in floats, so the certificate's tight-edge subgraph may miss a
        # matched edge.  That is reported as a failed check (exit 2, one
        # error line), never as an uncaught error.
        rng = seeded(5)
        codes = set()
        for k in range(40):
            n = rng.randint(2, 4)
            path = tmp_path / f"big{k}.lap"
            path.write_text(f"p lap {n}\n" + "".join(
                f"a {v} {lab} {2**55 + rng.randint(0, 7)}\n"
                for v in range(n) for lab in range(n)))
            code, out, err = run_cli(capsys, "lap", "--input", str(path))
            codes.add(code)
            if code == 0:
                assert err == "" and json.loads(out)["status"] == "optimal"
            else:
                assert (code, out) == (2, "")
                assert err.startswith("error: ") and err.count("\n") == 1
        assert codes <= {0, 2}


def _decimal(inst):
    """``inst`` with costs in tenths, so sums of costs tie only up to
    rounding."""
    return inst.with_costs([[round(c * 0.1, 1) for c in row]
                            for row in inst.costs])


def _random_unary_instances(seed, count):
    rng = seeded(seed)
    for i in range(count):
        if i % 2:
            inst = random_ilap(rng, max_vertices=5, max_labels=5)
        else:
            inst = random_lap(rng, rng.randint(1, 5), extra=0.4)
        yield _decimal(inst) if i % 4 >= 2 else inst


class TestLapPayload:
    """One solve-and-certify path for square and dummy-label instances."""

    def test_payload_matches_enumeration(self):
        for inst in _random_unary_instances(8, 240):
            payload = _lap_payload(inst)
            best, _ = brute_force_optimum(inst)
            assert payload["status"] == "optimal"
            assert payload["value"] == pytest.approx(best, rel=0,
                                                     abs=inst.atol)
            assert payload["dual_objective"] == pytest.approx(
                best, rel=0, abs=inst.atol)
            assert payload["relative_interior"] is True

    def test_flag_matches_oracle(self):
        outside = 0
        for inst in _random_unary_instances(9, 240):
            if isinstance(inst, IlapInstance):
                solved = [solve_ilap(inst, relative_interior=ri)
                          for ri in (False, True)]
            else:
                x, dual = solve_lap(inst)
                solved = [(x, dual),
                          (x, shift_to_relative_interior(inst, dual, x))]
            for x, dual in solved:
                expected = check_dual_relative_interior(inst, dual)
                assert _relative_interior_flag(inst, dual, x) == expected
                outside += not expected
        assert outside > 50  # unshifted optima are often not interior

    def test_integral_certificates_hold_at_any_scale(self):
        # Integer costs near 1e9 or 1e12 make ``atol`` reach 1 and more, so
        # a tolerance on the tight test would merge slacks that differ by 1.
        rng = seeded(11)
        for i in range(800):
            if i % 2:
                inst = random_ilap(rng, max_vertices=5, max_labels=5,
                                   lo=0, hi=3)
            else:
                inst = random_lap(rng, rng.randint(1, 5), extra=0.4,
                                  lo=0, hi=3)
            base = rng.choice([1, 10**6, 10**9, 10**12])
            inst = inst.with_costs([[base + c for c in row]
                                    for row in inst.costs])
            payload = _lap_payload(inst)
            dual = Dual(payload["alpha"], payload["beta"])
            assert payload["relative_interior"] is True
            assert check_dual_relative_interior(inst, dual)

    def test_dual_fields_match_the_returned_dual(self):
        inst = next(i for i in _random_unary_instances(10, 40)
                    if isinstance(i, IlapInstance) and i.integral)
        x, dual = solve_ilap(inst, relative_interior=True)
        payload = _lap_payload(inst)
        assert payload["alpha"] == dual.alpha and payload["beta"] == dual.beta
        assert payload["dual_objective"] == dual_objective(inst, dual)


_HEADERLESS = [
    ("a.dd", "a 0 0 0 1\n", "line 1: assignment record before header"),
    ("e.dd", "c no header\ne 0 1 2\n", "line 2: edge record before header"),
    ("d.ilap", "d 0 4\na 0 0 1\n",
     "line 1: dummy record outside an ilap file"),
]


class TestRecordBeforeHeader:
    """A record file without its ``p`` line is reported by the record
    parsers, with a line number, instead of being read as QAPLIB."""

    @pytest.mark.parametrize("command", ["lap", "verify", "solve"])
    @pytest.mark.parametrize("name,text,message", _HEADERLESS)
    def test_is_a_line_numbered_input_error(self, tmp_path, capsys, command,
                                            name, text, message):
        path = tmp_path / name
        path.write_text(text)
        budget = ["--max-iters", "1"] if command == "solve" else []
        code, out, err = run_cli(capsys, command, "--input", str(path),
                                 *budget)
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestDummyCostIsForDdFiles:
    """Only a ``.dd`` file takes its dummy cost from the command line or
    the manifest; every other format prices its own dummy label."""

    @pytest.mark.parametrize("command", ["solve", "lap", "verify"])
    @pytest.mark.parametrize("name, fmt", [("qap3.dat", "qaplib"),
                                           ("tiny.ilap", "ilap")])
    def test_other_format_is_input_error(self, capsys, command, name, fmt):
        budget = ["--max-iters", "3"] if command == "solve" else []
        code, out, err = run_cli(
            capsys, command, "--input", str(FIXTURES / name),
            "--dummy-cost", "5", *budget)
        assert (code, out, err) == (
            1, "", f"error: dummy cost 5.0 applies to dd files only, "
                   f"not to format {fmt!r}\n")

    def test_manifest_entry_on_other_format_is_input_error(
            self, tmp_path, monkeypatch, capsys):
        qap = FIXTURES / "qap3.dat"
        manifest = {"methods": ["bca"], "defaults": {"max_iterations": 2},
                    "instances": [{"path": str(qap), "dummy_cost": 5}]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        monkeypatch.setattr(batch, "ProcessPoolExecutor", _no_pool)
        code, out, err = run_cli(capsys, "batch", "--manifest", str(path))
        assert (code, out) == (1, "")
        assert err == (f"error: instance {qap.resolve()}: dummy cost 5 "
                       f"applies to dd files only, not to format 'qaplib'\n")


class TestQaplibCostRange:
    """A QAPLIB file whose flow times distance costs leave the float range
    is an input error, whether its entries are written as ints or floats."""

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("entry", [str(10**200), "1e200"],
                             ids=["int", "float"])
    def test_is_input_error(self, tmp_path, capsys, command, entry):
        path = tmp_path / "big.dat"
        path.write_text(f"2\n0 {entry}\n{entry} 0\n0 {entry}\n{entry} 0\n")
        budget = ["--max-iters", "1"] if command == "solve" else []
        code, out, err = run_cli(capsys, command, "--input", str(path),
                                 *budget)
        assert (code, out) == (1, "")
        assert err == ("error: costs computed from flow and distance exceed "
                       "the float range\n")
        assert "Traceback" not in err


# Files whose costs are each finite but whose sums leave the float range.
BIG_COST_FILES = {
    "big.dd": ("p 2 2 4 1\na 0 0 0 1.7e308\na 1 0 1 -1.7e308\n"
               "a 2 1 0 1.7e308\na 3 1 1 -1.7e308\ne 0 3 -1.7e308\n"),
    "big.lap": ("p lap 2\na 0 0 1.7e308\na 0 1 1.7e308\n"
                "a 1 0 1.7e308\na 1 1 1.7e308\n"),
    "big.ilap": ("p ilap 2 2\nd 0 0\nd 1 0\na 0 0 1.7e308\n"
                 "a 0 1 -1.7e308\na 1 0 -1.7e308\na 1 1 1.7e308\n"),
}


class TestCostSumRange:
    """A file whose costs sum past the model's cost range is an input
    error for every command, not a traceback or a non-finite output."""

    @pytest.mark.parametrize("argv", [
        *(["solve", "--method", m, "--max-iters", "3"] for m in METHODS),
        ["lap", "--output", "json"], ["verify"],
    ], ids=[*(f"solve-{m}" for m in METHODS), "lap", "verify"])
    @pytest.mark.parametrize("name", sorted(BIG_COST_FILES))
    def test_is_input_error(self, tmp_path, capsys, name, argv):
        path = tmp_path / name
        path.write_text(BIG_COST_FILES[name])
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "error: costs too large: the largest absolute costs of the "
            "vertices and edges must sum to at most "
            f"{sys.float_info.max / 4!r}\n")


class TestVerify:
    @pytest.mark.parametrize("name", ["example1.lap", "tiny.ilap",
                                      "toy1.dd", "toy2.dd", "toy3.dd",
                                      "wide.lap", "wide.ilap",
                                      "float.dd", "float.ilap"])
    def test_fixtures_pass(self, capsys, name):
        code, out, _ = run_cli(capsys, "verify", "--input",
                               str(FIXTURES / name))
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_bound_is_compared_with_the_exact_optimum(self, tmp_path,
                                                       capsys):
        # Ten dummy labels of cost 0.1 add up to 0.9999999999999999 in
        # floats; the exact optimum lies just above 1.0 and the certified
        # bound is 1.0.
        path = tmp_path / "ten.dd"
        path.write_text("p 10 0 0 0\n")
        code, out, _ = run_cli(capsys, "verify", "--input", str(path),
                               "--dummy-cost", "0.1")
        assert code == 0
        assert "bound 1.0, optimum 1.0" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("name", ["example1.lap", "tiny.ilap"])
    @pytest.mark.parametrize("delta, interior", [
        (1, "FAIL (dual constraint violated at vertex 0, label "),
        (-1, "FAIL\n"),
    ], ids=["raised", "lowered"])
    def test_shifted_potential_fails_verification(self, monkeypatch, capsys,
                                                  name, delta, interior):
        # A raised potential makes the dual infeasible, which the interior
        # check reports as a failure, not as an escaping exception.
        solve = cli._solve_interior

        def shifted(inst):
            x, dual = solve(inst)
            return x, type(dual)([dual.alpha[0] + delta, *dual.alpha[1:]],
                                 dual.beta)

        monkeypatch.setattr(cli, "_solve_interior", shifted)
        code, out, err = run_cli(capsys, "verify", "--input",
                                 str(FIXTURES / name))
        assert (code, err) == (2, "error: verification failed\n")
        assert "dual objective matches: FAIL\n" in out
        assert "dual is in the relative interior: " + interior in out

    @pytest.mark.parametrize("name, text, size", [
        ("big.dd", "p 7 7 49 0\n" + "".join(
            f"a {7 * v + lab} {v} {lab} 1\n"
            for v in range(7) for lab in range(7)), 8**7),
        # square, but label 8 is allowed nowhere: no perfect matching
        ("unmatched.lap", "p lap 9\n" + "".join(
            f"a {v} {lab} 1\n" for v in range(9) for lab in range(8)), 8**9),
    ])
    def test_above_the_guard_is_skipped(self, tmp_path, capsys, name, text,
                                        size):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--input", str(path))
        assert (code, out, err) == (
            0, f"skipped: search space of {size} assignments exceeds the "
               "enumeration guard of 1000000\n", "")

    @pytest.mark.parametrize("name", ["big.lap", "above_guard.lap",
                                      "above_guard.ilap"])
    def test_above_the_guard_the_certificate_is_checked(self, tmp_path, capsys,
                                                        name):
        path = FIXTURES / name
        if name == "big.lap":
            path = tmp_path / name
            path.write_text("p lap 9\n" + "".join(
                f"a {v} {lab} 1\n" for v in range(9) for lab in range(9)))
        assert search_space_size(load_instance(path)) > SEARCH_SPACE_GUARD
        code, out, err = run_cli(capsys, "verify", "--input", str(path))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert [line.split(": ")[0] for line in lines] == [
            "assignment is feasible", "dual is feasible",
            "dual objective equals the assignment's value",
            "exchange digraph puts every tight edge on an optimum",
            "all checks passed"]
        assert all(line.split(": ")[1].startswith("ok") for line in lines[:-1])

    @pytest.mark.parametrize("name", ["above_guard.lap", "above_guard.ilap"])
    @pytest.mark.parametrize("delta", [0.5, -0.5], ids=["raised", "lowered"])
    def test_nudged_certificate_fails_above_the_guard(self, monkeypatch, capsys,
                                                      name, delta):
        # Costs near 1e9 put ``atol`` near 1, so only an exact check sees a
        # vertex potential moved by one half.
        path = FIXTURES / name
        inst = load_instance(path)
        assert inst.integral and inst.atol > 2 * abs(delta)
        solve = cli._solve_interior

        def nudged(inst):
            x, dual = solve(inst)
            return x, type(dual)([dual.alpha[0] + delta, *dual.alpha[1:]],
                                 dual.beta)

        monkeypatch.setattr(cli, "_solve_interior", nudged)
        code, out, err = run_cli(capsys, "verify", "--input", str(path))
        assert (code, err) == (2, "error: verification failed\n")
        assert "assignment is feasible: ok\n" in out
        assert "dual objective equals the assignment's value: FAIL (" in out
        # vertex 0 is tight at its own label, so raising its potential
        # breaks a constraint of vertex 0
        assert ("dual is feasible: FAIL (constraint at vertex 0, label "
                if delta > 0 else "dual is feasible: ok\n") in out


def _no_pool(*args, **kwargs):
    raise AssertionError("a sequential run started a worker pool")


def _rejected_before_any_job(tmp_path, monkeypatch, capsys, manifest):
    """Run ``batch`` on ``manifest``; assert an input error before any job
    ran, and return the error output."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    calls = []
    run_job = batch._run_job
    monkeypatch.setattr(batch, "ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(batch, "_run_job",
                        lambda job: calls.append(job) or run_job(job))
    code, out, err = run_cli(capsys, "batch", "--manifest", str(path))
    assert (code, out, calls) == (1, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


class TestBatch:
    def test_manifest_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "batch", "--manifest", str(FIXTURES / "manifest.json"),
            "--output", "json")
        assert code == 0
        payload = json.loads(out)
        methods = {"bca", "hung", "hung-ri"}
        assert {row["method"] for row in payload["rows"]} == methods
        assert len(payload["rows"]) == 5 * 3
        groups = {g["group"]: g for g in payload["groups"]}
        assert set(groups) == {"toy", "stall", "qap"}
        assert groups["toy"]["instances"] == 3
        # the tie rule, re-applied independently
        by_instance = {}
        for row in payload["rows"]:
            by_instance.setdefault(row["instance"], []).append(row)
        for rows in by_instance.values():
            top = max(r["final_bound"] for r in rows)
            threshold = min(BEST_BOUND_FACTOR * top, top / BEST_BOUND_FACTOR)
            for r in rows:
                assert r["best"] == (r["final_bound"] >= threshold)
        # coordinate ascent stalls on the shared-label fixture, and the
        # exact steps that pass it are best although their bound is positive
        stall = {r["method"]: r for r in by_instance["tiny"]}
        assert stall["bca"]["final_bound"] == 0
        assert stall["hung"]["final_bound"] == 4
        assert not stall["bca"]["best"]
        assert stall["hung"]["best"] and stall["hung-ri"]["best"]

    def test_group_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "batch", "--manifest", str(FIXTURES / "manifest.json"),
            "--output", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("group,instances,best_bca,best_hung")

    def test_text_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "batch", "--manifest", str(FIXTURES / "manifest.json"),
            "--output", "text")
        assert code == 0
        assert "#best hung-ri" in out

    def test_bad_manifest_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, err = run_cli(capsys, "batch", "--manifest", str(bad))
        assert code == 1
        assert "instances" in err

    @pytest.mark.parametrize("manifest, key", [
        ({"instances": [{"path": "toy1.dd"}], "defualts": {}}, "defualts"),
        ({"defaults": {"max_iterations": 2, "timelimit": 5},
          "instances": [{"path": "toy1.dd"}]}, "timelimit"),
        ({"defaults": {"max_iterations": 2},
          "instances": [{"path": "toy1.dd", "augmnet": True, "grup": "x"}]},
         "augmnet"),
        ({"defaults": {"tolerance": 1e-9},
          "instances": [{"path": "toy1.dd"}]}, "tolerance"),
        ({"instances": [{"path": "toy1.dd", "format": "dd"}]}, "format"),
    ], ids=["top-level", "defaults", "instance", "removed-tolerance",
            "removed-format"])
    def test_unknown_manifest_key_is_input_error(self, tmp_path, capsys,
                                                 manifest, key):
        for entry in manifest["instances"]:
            entry["path"] = str(FIXTURES / entry["path"])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"methods": ["bca"], **manifest}))
        code, out, err = run_cli(capsys, "batch", "--manifest", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: unknown manifest key ")
        assert repr(key) in err

    @pytest.mark.parametrize("where, key, value", [
        ("entry", "path", 5),
        ("entry", "augment", "false"),
        ("entry", "time_limit", float("nan")),
        ("entry", "max_iterations", True),
        ("defaults", "max_iterations", "2"),
        ("defaults", "dummy_cost", "x"),
        ("top", "defaults", []),
        ("top", "instances", 5),
        ("top", "instances", [5]),
        ("top", "methods", 5),
    ])
    def test_wrong_manifest_type_is_input_error(self, tmp_path, monkeypatch,
                                                capsys, where, key, value):
        entry = {"path": str(FIXTURES / "qap3.dat")}
        manifest = {"methods": ["bca"], "defaults": {"max_iterations": 2},
                    "instances": [entry]}
        {"entry": entry, "defaults": manifest["defaults"],
         "top": manifest}[where][key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        monkeypatch.setattr(batch, "ProcessPoolExecutor", _no_pool)
        code, out, err = run_cli(capsys, "batch", "--manifest", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize("key, value, message", [
        ("dummy_cost", float("nan"), "dummy_cost: cost must be finite, got nan"),
    ])
    def test_bad_entry_setting_fails_before_any_job(
            self, tmp_path, monkeypatch, capsys, key, value, message):
        second = str(FIXTURES / "toy2.dd")
        manifest = {"methods": ["bca"], "defaults": {"max_iterations": 2},
                    "instances": [{"path": str(FIXTURES / "toy1.dd")},
                                  {"path": second, key: value}]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        calls = []
        run_job = batch._run_job
        monkeypatch.setattr(batch, "ProcessPoolExecutor", _no_pool)
        monkeypatch.setattr(batch, "_run_job",
                            lambda job: calls.append(job) or run_job(job))
        code, out, err = run_cli(capsys, "batch", "--manifest", str(path))
        assert (code, out, calls) == (1, "", [])
        assert err == f"error: instance {second}: {message}\n"

    @pytest.mark.parametrize("cap", [2.5, 0, -1])
    def test_non_integer_or_non_positive_iteration_cap_is_input_error(
            self, tmp_path, monkeypatch, capsys, cap):
        manifest = {"methods": ["bca"],
                    "defaults": {"max_iterations": cap, "epsilon": 0},
                    "instances": [{"path": str(FIXTURES / "toy1.dd")}]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        monkeypatch.setattr(batch, "ProcessPoolExecutor", _no_pool)
        code, out, err = run_cli(capsys, "batch", "--manifest", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: instance ") and err.count("\n") == 1
        assert "max_iterations must be positive" in err

    @pytest.mark.parametrize("methods", [[], ["hung", "hung", "bca"]],
                             ids=["empty", "repeated"])
    def test_empty_or_repeating_methods_are_input_errors(
            self, tmp_path, monkeypatch, capsys, methods):
        manifest = {"methods": methods, "defaults": {"max_iterations": 2},
                    "instances": [{"path": str(FIXTURES / "toy1.dd")}]}
        err = _rejected_before_any_job(tmp_path, monkeypatch, capsys, manifest)
        assert err == ("error: manifest 'methods' must list one or more "
                       "methods, each once\n")

    def test_unknown_method_is_input_error_without_instances(
            self, tmp_path, monkeypatch, capsys):
        manifest = {"methods": ["nope"], "instances": []}
        err = _rejected_before_any_job(tmp_path, monkeypatch, capsys, manifest)
        assert err == ("error: manifest 'methods': unknown method 'nope', "
                       "expected one of ('bca', 'hung', 'hung-ri')\n")

    def test_missing_instance_file_is_input_error(self, tmp_path, monkeypatch,
                                                  capsys):
        missing = tmp_path / "missing.dd"
        err = _rejected_before_any_job(
            tmp_path, monkeypatch, capsys,
            {"methods": ["bca"], "instances": [{"path": str(missing)}]})
        assert err == f"error: instance file not found: {missing.resolve()}\n"

    def test_empty_instances_is_input_error(self, tmp_path, monkeypatch,
                                            capsys):
        err = _rejected_before_any_job(tmp_path, monkeypatch, capsys,
                                       {"instances": []})
        assert err == ("error: manifest 'instances' must list one or more "
                       "instances\n")

    def test_one_tag_twice_in_a_group_is_input_error(self, tmp_path,
                                                     monkeypatch, capsys):
        for sub, name in (("a", "toy1.dd"), ("b", "toy2.dd")):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "x.dd").write_bytes(
                (FIXTURES / name).read_bytes())
        manifest = {"methods": ["bca"], "defaults": {"max_iterations": 2},
                    "instances": [{"path": "a/x.dd"}, {"path": "b/x.dd"}]}
        err = _rejected_before_any_job(tmp_path, monkeypatch, capsys, manifest)
        assert "a/x.dd" in err and "b/x.dd" in err
        assert "'tag'" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_worker_count_runs_sequentially(self, monkeypatch,
                                                         capsys, value):
        monkeypatch.setattr(batch, "ProcessPoolExecutor", _no_pool)
        code, out, _ = run_cli(
            capsys, "batch", "--manifest", str(FIXTURES / "manifest.json"),
            "--workers", value)
        assert code == 0
        assert len(json.loads(out)["rows"]) == 15

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name,message", [
        ("square.lap", "bound solving needs a dummy label; "),
        ("bad.dd", "line 3: cost must be numeric, got 'zz'\n"),
    ])
    def test_job_error_names_the_instance(self, tmp_path, capsys, workers,
                                          name, message):
        # Raised inside the job, on the serial path and in a pool worker.
        if name == "square.lap":
            text = (FIXTURES / "example1.lap").read_text()
        else:
            text = (FIXTURES / "toy1.dd").read_text().replace(
                "a 0 0 0 1", "a 0 0 0 zz")
        (tmp_path / name).write_text(text)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "methods": ["bca", "hung"], "defaults": {"max_iterations": 1},
            "instances": [{"path": name}]}))
        code, out, err = run_cli(capsys, "batch", "--manifest",
                                 str(manifest), "--workers", workers)
        assert (code, out) == (1, "")
        prefix = f"error: instance {(tmp_path / name).resolve()}: "
        assert err.startswith(prefix + message)

    def test_worker_pool_matches_sequential(self):
        from qapbound.batch import run_batch

        def strip(rows):
            return [(r.instance, r.group, r.method, r.final_bound, r.best)
                    for r in rows]

        _, sequential, _ = run_batch(FIXTURES / "manifest.json", workers=1)
        _, pooled, _ = run_batch(FIXTURES / "manifest.json", workers=3)
        assert strip(sequential) == strip(pooled)


    def test_worker_pool_never_exceeds_job_count(self, monkeypatch):
        recorded = []

        class SerialPool:
            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(batch, "ProcessPoolExecutor", SerialPool)
        _, rows, _ = batch.run_batch(FIXTURES / "manifest.json", workers=64)
        assert recorded == [len(rows)] == [15]
        assert multiprocessing.active_children() == []


class TestModuleEntry:
    """``python -m qapbound`` and ``python -m qapbound.cli`` run the CLI."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def run_module(self, module, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    @pytest.mark.parametrize("module", ["qapbound", "qapbound.cli"])
    def test_solve_prints_a_report(self, module):
        done = self.run_module(
            module, "solve", "--method", "bca",
            "--input", str(FIXTURES / "toy1.dd"), "--max-iters", "3")
        assert done.returncode == 0, done.stderr
        payload = json.loads(done.stdout)
        assert payload["method"] == "bca"
        assert 1 <= payload["iterations"] <= 3

    @pytest.mark.parametrize("module", ["qapbound", "qapbound.cli"])
    def test_bad_flag_is_input_error(self, module):
        done = self.run_module(module, "solve", "--no-such-flag")
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")
