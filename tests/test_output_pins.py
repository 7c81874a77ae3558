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

The solver pins on generated instances were recorded before ``dual_bound``
let the kernel scale int cells as it reads them.  Their final states hold
float messages, so the certified bound takes the scaled path; the fixture
pins above may not.

The pins on the 220-vertex graph-matching instance, the size the
benchmark's ``gm-*`` workloads solve, were recorded before the message
pass scanned only the rows that store the cheapest column.  The ``hung``
pins on that instance and on the benchmark's n = 28 QAPLIB instance were
recorded before the kernel read a dense row's one unstored column
directly and before the exact step stopped re-normalizing its costs.
"""

import json
import re
from pathlib import Path

import pytest

from qapbound.bounds import SolverConfig, run
from qapbound.cli import main
from qapbound.formats import load_instance

from helpers import benchmark_generators

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
        out = run_cli(capsys, "solve", "--augment",
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


# (instance, group, final bound, iterations and best flag per method)
BATCH_ROWS = [
    ("qap3", "qap", (-183.0, -183.0, -183.0), (1, 1, 1), (True,) * 3),
    ("tiny", "stall", (0.0, 4, 4), (1, 2, 2), (False, True, True)),
    ("toy1", "toy", (-1.0, -1.0, -1.0), (2, 2, 2), (True,) * 3),
    ("toy2", "toy", (-5.0, -5.0, -5.0), (2, 2, 2), (True,) * 3),
    ("toy3", "toy", (-3.0, -3.0, -3.0), (2, 2, 2), (True,) * 3),
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
                    # the stall group's maximum is positive: the two exact
                    # steps reach it, coordinate ascent stalls below
                    "best": best[m],
                })
        groups = [
            {"group": "qap", "instances": 1,
             "best_counts": dict.fromkeys(METHODS, 1),
             "average_bounds": dict.fromkeys(METHODS, -183.0)},
            {"group": "stall", "instances": 1,
             "best_counts": {"bca": 0, "hung": 1, "hung-ri": 1},
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
            "stall,1,0,1,1,0.0,4.0,4.0\r\n"
            "toy,3,3,3,3,-3.0,-3.0,-3.0\r\n")

    def test_row_csv(self, capsys):
        expected = "instance,group,method,final_bound,iterations,wall_time,best\r\n"
        for instance, group, bounds, iterations, best in BATCH_ROWS:
            for m, method in enumerate(METHODS):
                expected += (f"{instance},{group},{method},{bounds[m]!r},"
                             f"{iterations[m]},*,{int(best[m])}\r\n")
        assert mask_csv(batch(capsys, "--output", "csv", "--rows")) == expected

    def test_text(self, capsys):
        assert batch(capsys, "--output", "text") == (
            "group  instances  #best bca  #best hung  #best hung-ri"
            "  avg bca  avg hung  avg hung-ri\n"
            "qap    1          1          1           1"
            "              -183     -183      -183\n"
            "stall  1          0          1           1"
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


# (final bound, trajectory) per method after 6 iterations with epsilon 0
GENERATED_PINS = {
    "gm": {
        "bca": ("1935.263840867014",
                "[715, 1191.0663146972656, 1549.580467775464, "
                "1743.0750831275273, 1839.666447875529, 1891.73118006445, "
                "1935.2638408670143]"),
        "hung": ("1935.1253344504505",
                 "[715, 1191.0663146972656, 1551.4241473972797, "
                 "1744.088169091454, 1841.0371353181613, 1893.62924996922, "
                 "1935.1253344504505]"),
        "hung-ri": ("1937.537700802519",
                    "[715, 1191.0663146972656, 1550.9276350731961, "
                    "1743.855072402265, 1842.0747567313256, "
                    "1895.6285308837143, 1937.5377008025187]"),
    },
    "qaplib": {
        "bca": ("-20190.0",
                "[-20532, -20190.0, -20190.0, -20190.0, "
                "-20189.999999999996, -20190.0, -20190.0]"),
        "hung": ("-20190.0",
                 "[-20532, -20190.0, -20190.0, -20190.0, "
                 "-20189.999999999996, -20190.0, -20190.000000000004]"),
        "hung-ri": ("-20190.0",
                    "[-20532, -20190.0, -20190.0, -20190.0, "
                    "-20189.999999999996, -20189.999999999996, "
                    "-20190.000000000004]"),
    },
}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A 40-vertex graph-matching instance and an augmented n = 12 QAPLIB
    instance from the benchmark's writers, seed 1."""
    directory = tmp_path_factory.mktemp("generated")
    writers = benchmark_generators()
    gm, qaplib = directory / "gm.dd", directory / "qaplib.dat"
    writers.write_gm(gm, 1, vertices=40)
    writers.write_qaplib(qaplib, 1, size=12)
    return {"gm": load_instance(gm, dummy_cost=150),
            "qaplib": load_instance(qaplib, fmt="qaplib", augment=True)}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("family", ["gm", "qaplib"])
def test_generated_instance_bound_is_pinned(generated, family, method):
    report = run(generated[family], SolverConfig(
        method=method, max_iterations=6, bound_improvement_epsilon=0))
    assert (repr(report.final_bound), repr(report.bound_trajectory)) \
        == GENERATED_PINS[family][method]


# repr((final_bound, bound_trajectory)) on ``write_gm(vertices=220)``, seed 1,
# dummy cost 150, epsilon 0, at the benchmark's iteration counts per method
WORKLOAD_PINS = {
    "bca": (
        30,
        "(6858.4907806602505, [3511, 4616.680114746094, "
        "5480.086892950103, 5907.202093660728, 6135.876193612425, "
        "6278.157466819146, 6382.3696989544305, 6461.586489372519, "
        "6524.482540984909, 6574.224961231378, 6613.752505689694, "
        "6647.247645185884, 6675.938667834074, 6700.726173219943, "
        "6721.963588921248, 6740.423678293295, 6756.348842338826, "
        "6770.310432107064, 6782.558752847803, 6793.34804918135, "
        "6802.856019838298, 6811.424362283966, 6819.03646788688, "
        "6825.945933523509, 6832.139492500711, 6837.768311598703, "
        "6842.826885489554, 6847.17898581997, 6851.232367791973, "
        "6854.99211499134, 6858.49078066025])"),
    "hung-ri": (
        10,
        "(6666.997344793354, [3511, 4624.603717803955, 5504.826418061273,"
        " 5946.838982395332, 6184.155425520016, 6333.001511981674, "
        "6440.700074467358, 6519.8144928412175, 6580.784875478647, "
        "6628.1445656326105, 6666.997344793358])"),
    "hung": (
        10,
        "(6647.243022020273, [3511, 4624.603717803955, 5504.619477874053, "
        "5940.841692629833, 6176.557447804945, 6325.116563771328, "
        "6431.422162120753, 6507.589933981348, 6565.466671563738, "
        "6610.5785400083205, 6647.243022020277])"),
}


@pytest.fixture(scope="module")
def workload_gm(tmp_path_factory):
    path = tmp_path_factory.mktemp("workload") / "gm.dd"
    benchmark_generators().write_gm(path, 1, vertices=220)
    return load_instance(path, dummy_cost=150)


@pytest.mark.parametrize("method", WORKLOAD_PINS)
def test_workload_sized_bound_is_pinned(workload_gm, method):
    iterations, expected = WORKLOAD_PINS[method]
    report = run(workload_gm, SolverConfig(
        method=method, max_iterations=iterations,
        bound_improvement_epsilon=0))
    assert repr((report.final_bound, report.bound_trajectory)) == expected


# repr((final_bound, bound_trajectory)) of ``hung`` on augmented
# ``write_qaplib(size=28)``, seed 1, epsilon 0, 10 iterations: the
# benchmark's ``qaplib-hung`` instance and iteration count
QAPLIB_WORKLOAD_PIN = (
    "(-519598.0, [-521668, -520437.0883176867, -519910.4119050927, "
    "-519671.2767618812, -519602.0925622436, -519598.00000000006, "
    "-519598.0, -519597.99999999994, -519598.0000000001, "
    "-519597.9999999999, -519598.0])")


def test_qaplib_workload_sized_bound_is_pinned(tmp_path):
    path = tmp_path / "qaplib.dat"
    benchmark_generators().write_qaplib(path, 1, size=28)
    inst = load_instance(path, fmt="qaplib", augment=True)
    report = run(inst, SolverConfig(method="hung", max_iterations=10,
                                    bound_improvement_epsilon=0))
    assert repr((report.final_bound, report.bound_trajectory)) \
        == QAPLIB_WORKLOAD_PIN
