"""Byte pins on the command-line output of ``solve``, ``batch`` and ``lap``.

The ``solve``, ``batch`` and ``lap`` pins were recorded before the result
fields were spelled out in one place (the dataclass definitions) instead of
once per output format.  ``wall_time`` is the only field that varies between
runs, so it is replaced by ``*`` before comparing; instance paths given on
the command line are replaced by ``<fixtures>``.  The ``qap3`` batch job
has a 2 s time limit but stops after one iteration on the epsilon rule, so
its fields are pinned too.

The ``verify`` pins were recorded after square and dummy-label instances
started sharing one check list: both print ``dual is in the relative
interior`` and ``solver finds an optimum``.
"""

import json
import re
from pathlib import Path

import pytest

from qapbound.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
METHODS = ("bca", "hung", "hung-ri")


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out.replace(str(FIXTURES), "<fixtures>")


def mask_csv(out):
    """Replace the ``wall_time`` column of CSV text, keeping line ends."""
    lines = out.split("\r\n")
    column = lines[0].split(",").index("wall_time")
    masked = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) > column:
            float(cells[column])
            cells[column] = "*"
        masked.append(",".join(cells))
    return "\r\n".join(masked)


def mask_json(out):
    for value in re.findall(r'"wall_time": ([^,\n]+)', out):
        assert float(value) >= 0
    return re.sub(r'"wall_time": [^,\n]+', '"wall_time": "*"', out)


class TestSolve:
    def test_csv(self, capsys):
        out = run_cli(capsys, "solve", "--method", "bca",
                      "--input", FIXTURES / "toy2.dd",
                      "--max-iters", "5", "--output", "csv")
        assert mask_csv(out) == (
            "instance,method,final_bound,iterations,wall_time\r\n"
            "<fixtures>/toy2.dd,bca,-5.0,2,*\r\n")

    def test_csv_with_trajectory(self, capsys):
        out = run_cli(capsys, "solve", "--method", "hung-ri",
                      "--input", FIXTURES / "toy1.dd", "--max-iters", "20",
                      "--epsilon", "0", "--output", "csv", "--trajectory")
        assert mask_csv(out) == (
            "instance,method,final_bound,iterations,wall_time,"
            "bound_trajectory\r\n"
            "<fixtures>/toy1.dd,hung-ri,-1.0,20,*,-3" + ";-1.0" * 20 + "\r\n")

    def test_csv_with_integral_trajectory(self, capsys):
        out = run_cli(capsys, "solve", "--method", "hung",
                      "--input", FIXTURES / "tiny.ilap", "--max-iters", "3",
                      "--epsilon", "0", "--output", "csv", "--trajectory")
        assert mask_csv(out) == (
            "instance,method,final_bound,iterations,wall_time,"
            "bound_trajectory\r\n"
            "<fixtures>/tiny.ilap,hung,4,3,*,0;4;4;4\r\n")

    def test_json(self, capsys):
        out = run_cli(capsys, "solve", "--method", "bca",
                      "--input", FIXTURES / "toy3.dd", "--max-iters", "5")
        assert mask_json(out) == (
            '{\n'
            '  "instance": "<fixtures>/toy3.dd",\n'
            '  "method": "bca",\n'
            '  "final_bound": -3.0,\n'
            '  "iterations": 2,\n'
            '  "wall_time": "*"\n'
            '}\n')

    def test_json_with_trajectory(self, capsys):
        out = run_cli(capsys, "solve", "--qaplib", "--augment",
                      "--method", "hung", "--input", FIXTURES / "qap3.dat",
                      "--max-iters", "4", "--epsilon", "0", "--trajectory")
        assert mask_json(out) == (
            '{\n'
            '  "instance": "<fixtures>/qap3.dat",\n'
            '  "method": "hung",\n'
            '  "final_bound": -148.75,\n'
            '  "iterations": 4,\n'
            '  "wall_time": "*",\n'
            '  "bound_trajectory": [\n'
            '    -183,\n'
            '    -155.0,\n'
            '    -152.0,\n'
            '    -150.0,\n'
            '    -148.75\n'
            '  ]\n'
            '}\n')

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("trajectory", [False, True])
    def test_json_key_order(self, capsys, method, trajectory):
        out = run_cli(capsys, "solve", "--method", method,
                      "--input", FIXTURES / "toy1.dd", "--max-iters", "3",
                      *(["--trajectory"] if trajectory else []))
        keys = ["instance", "method", "final_bound", "iterations",
                "wall_time"]
        if trajectory:
            keys.append("bound_trajectory")
        assert list(json.loads(out)) == keys


# (instance, group, final bound per method, iterations per method, best)
BATCH_ROWS = [
    ("qap3", "qap", (-183.0, -183.0, -183.0), (1, 1, 1), True),
    ("tiny", "stall", (0.0, 4, 4), (1, 2, 2), False),
    ("toy1", "toy", (-1.0, -1.0, -1.0), (2, 2, 2), True),
    ("toy2", "toy", (-5.0, -5.0, -5.0), (2, 2, 2), True),
    ("toy3", "toy", (-3.0, -3.0, -3.0), (2, 2, 2), True),
]


def batch(capsys, *argv):
    return run_cli(capsys, "batch", "--manifest", FIXTURES / "manifest.json",
                   *argv)


class TestBatch:
    def test_json(self, capsys):
        rows = []
        for instance, group, bounds, iterations, best in BATCH_ROWS:
            for m, method in enumerate(METHODS):
                rows.append({
                    "instance": instance, "group": group, "method": method,
                    "final_bound": bounds[m], "iterations": iterations[m],
                    "wall_time": "*",
                    # the stall group's maximum is positive, so no method
                    # passes the inflated tie threshold
                    "best": best,
                })
        groups = [
            {"group": "qap", "instances": 1,
             "best_counts": dict.fromkeys(METHODS, 1),
             "average_bounds": dict.fromkeys(METHODS, -183.0)},
            {"group": "stall", "instances": 1,
             "best_counts": dict.fromkeys(METHODS, 0),
             "average_bounds": {"bca": 0.0, "hung": 4.0, "hung-ri": 4.0}},
            {"group": "toy", "instances": 3,
             "best_counts": dict.fromkeys(METHODS, 3),
             "average_bounds": dict.fromkeys(METHODS, -3.0)},
        ]
        expected = json.dumps({"rows": rows, "groups": groups}, indent=2)
        assert mask_json(batch(capsys, "--output", "json")) == expected + "\n"

    def test_group_csv(self, capsys):
        assert batch(capsys, "--output", "csv") == (
            "group,instances,best_bca,best_hung,best_hung-ri,"
            "avg_bca,avg_hung,avg_hung-ri\r\n"
            "qap,1,1,1,1,-183.0,-183.0,-183.0\r\n"
            "stall,1,0,0,0,0.0,4.0,4.0\r\n"
            "toy,3,3,3,3,-3.0,-3.0,-3.0\r\n")

    def test_row_csv(self, capsys):
        expected = "instance,group,method,final_bound,iterations,wall_time,best\r\n"
        for instance, group, bounds, iterations, best in BATCH_ROWS:
            for m, method in enumerate(METHODS):
                expected += (f"{instance},{group},{method},{bounds[m]!r},"
                             f"{iterations[m]},*,{int(best)}\r\n")
        assert mask_csv(batch(capsys, "--output", "csv", "--rows")) == expected

    def test_text(self, capsys):
        assert batch(capsys, "--output", "text") == (
            "group  instances  #best bca  #best hung  #best hung-ri"
            "  avg bca  avg hung  avg hung-ri\n"
            "qap    1          1          1           1"
            "              -183     -183      -183\n"
            "stall  1          0          0           0"
            "              0        4         4\n"
            "toy    3          3          3           3"
            "              -3       -3        -3\n")


class TestLap:
    def test_square_text(self, capsys):
        out = run_cli(capsys, "lap", "--input", FIXTURES / "example1.lap",
                      "--output", "text")
        assert out == (
            "status: optimal\n"
            "value: 24\n"
            "assignment: {'0': '4', '1': '1', '2': '3', '3': '0', '4': '2'}\n"
            "alpha: [6, 7, 9, 8, 9]\n"
            "beta: [-4, -4, -5, -2, 0]\n"
            "dual_objective: 24\n"
            "relative_interior: True\n")

    def test_dummy_label_text(self, capsys):
        out = run_cli(capsys, "lap", "--input", FIXTURES / "tiny.ilap",
                      "--output", "text")
        assert out == (
            "status: optimal\n"
            "value: 4\n"
            "assignment: {'0': '#', '1': '1', '2': '0'}\n"
            "alpha: [4, 4, 4]\n"
            "beta: [-4, -4]\n"
            "dual_objective: 4\n"
            "relative_interior: True\n")


def quadratic_verify(optimum, bounds):
    lines = []
    for method, bound in zip(METHODS, bounds):
        lines += [f"{method}: trajectory is non-decreasing: ok",
                  f"{method}: bound does not exceed the optimum: ok "
                  f"(bound {bound!r}, optimum {optimum})"]
    return "\n".join(lines + ["augmentation keeps the optimum: ok",
                              "all checks passed", ""])


class TestVerify:
    @pytest.mark.parametrize("name, expected", [
        ("example1.lap", "solver finds an optimum: ok\n"
                         "solver value matches enumeration: ok (value 24)\n"
                         "dual objective matches: ok\n"
                         "dual is in the relative interior: ok\n"
                         "all checks passed\n"),
        ("tiny.ilap", "solver finds an optimum: ok\n"
                      "solver value matches enumeration: ok (value 4)\n"
                      "dual objective matches: ok\n"
                      "dual is in the relative interior: ok\n"
                      "lifted assignment keeps the objective: ok\n"
                      "all checks passed\n"),
        ("toy1.dd", quadratic_verify(-1, [-1.0] * 3)),
        ("toy2.dd", quadratic_verify(-5, [-5.0] * 3)),
        ("toy3.dd", quadratic_verify(-3, [-3.0] * 3)),
    ])
    def test_fixture(self, capsys, name, expected):
        assert run_cli(capsys, "verify", "--input", FIXTURES / name) == expected

    def test_infeasible_square_instance(self, capsys, tmp_path):
        path = tmp_path / "infeasible.lap"
        path.write_text("p lap 2\na 0 0 1\na 1 0 2\n")
        assert run_cli(capsys, "verify", "--input", path) == (
            "solver agrees instance is infeasible: ok\n"
            "all checks passed\n")
