"""qapbound benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload gm-hung-ri --seed 1 --seconds 30 --trace 0

Generates ``INSTANCES`` seeded instance files.  Then, round after round
until the measuring time is used up, loads each with
``formats.load_instance`` (set-up) and solves it with ``bounds.run`` at a
fixed iteration count.  Every load and every solve is checked; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Set-up and solve times are gated relative to a fixed pure-Python reference
loop timed right before the load and right after the solve
(``setup_per_ref``, ``solve_per_ref``).  On a shared machine whose CPU speed
switches between a fast and a slow state for tens of seconds at a time, any
statistic of raw times depends on how much of a run fell in each state; the
ratio cancels the state.  The raw median load time is reported too
(``setup_s``), and the raw solve times are printed.

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` alternates traced and untraced solves and reports per-layer
self times and counts instead (see ``layertrace``).  Each per-layer value
is what the layer adds to one load plus one solve: the median over the
traced loads plus the median over the traced solves.

The program is imported from ``src/`` of the checkout this file sits in;
without it the script exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import instances
import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

INSTANCES = 4       # instances per run, so no single one sets the figures
MIN_ROUNDS = 2      # rounds per run, even if the measuring time runs out first
GM_DUMMY_COST = 150  # price of leaving a graph-matching vertex unmatched


@dataclass(frozen=True)
class Workload:
    family: str       # "gm" (.dd graph matching) or "qaplib" (flow/distance)
    size: int         # vertices (gm) or facilities (qaplib)
    method: str
    iterations: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "gm-hung-ri": Workload("gm", 220, "hung-ri", 10),
    "gm-bca": Workload("gm", 220, "bca", 30),
    "qaplib-hung": Workload("qaplib", 28, "hung", 10),
}

END_TO_END = {
    "setup_s": "s",
    "setup_per_ref": "ratio",
    "solve_per_ref": "ratio",
    "final_bound": "cost",
    "peak_rss_mb": "MB",
    "check_pass_rate": "ratio",
}

LAYER_TIMES = (
    "formats.load_instance",
    "formats.parse_dd",
    "formats.parse_qaplib",
    "formats.convert_qaplib_to_iqap",
    "formats.augment_instance",
    "model.IlapInstance",
    "model.IqapInstance",
    "bounds.run",
    "bounds.dual_bound",
    "wcsp.mplp_pp_pass",
    "beta_steps.beta_bca_pass",
    "beta_steps.beta_exact_update",
    "reduction.solve_ilap",
    "reduction.reduce_ilap_to_lap",
    "reduction.decompose_assignment",
    "lap.solve_lap",
    "relative_interior.shift_to_relative_interior",
)

LAYER_COUNTS = (
    "model.IlapInstance.calls",
    "wcsp.mplp_pp_pass.edge_updates",
    "beta_steps.beta_exact_update.calls",
    "lap.solve_lap.calls",
    "lap.solve_lap.nodes",
    "lap.solve_lap.arcs",
    "relative_interior.shift_to_relative_interior.components_shifted",
)


def import_program():
    """Import ``qapbound`` from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "qapbound" / "__init__.py").is_file():
        sys.exit(f"no qapbound sources under {src}")
    sys.path.insert(0, str(src))
    import qapbound
    if Path(qapbound.__file__).resolve().parent != src / "qapbound":
        sys.exit(f"qapbound imported from {qapbound.__file__}, not {src}")


class Checks:
    """Counts checked operations and failed ones; keeps the failure notes."""

    def __init__(self):
        self.attempted = 0
        self.notes = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.notes.append(f"{what}: {'; '.join(problems)}")

    @property
    def failed(self):
        return len(self.notes)


@dataclass
class Case:
    """One generated instance file of the workload and what its loads and
    solves must repeat."""

    path: Path
    load_kwargs: dict
    perm: list
    offset: float
    upper_bounds: dict | None = None
    edges: int | None = None
    reference: float | None = None


def generate(wl, seed, directory):
    """Write one instance file of the workload; returns its ``Case``."""
    from qapbound import formats

    if wl.family == "gm":
        path = Path(directory) / f"gm-{seed}.dd"
        perm = instances.write_gm(path, seed, vertices=wl.size)
        return Case(path, {"dummy_cost": GM_DUMMY_COST}, perm, 0)
    path = Path(directory) / f"qaplib-{seed}.dat"
    perm = instances.write_qaplib(path, seed, size=wl.size)
    # The conversion shifts every unary cost down by a constant, so bounds
    # carry an offset of minus n times it; adding it back states them on the
    # flow/distance objective of the file.
    n, flow, dist = formats.parse_qaplib(path.read_text(encoding="utf-8"))
    offset = n * formats.qaplib_shift_constant(flow, dist)
    return Case(path, {"fmt": "qaplib", "augment": True}, perm, offset)


def load_problems(inst, wl, edges):
    """Shape checks of one load; ``edges`` is the first load's edge count."""
    from qapbound.model import IqapInstance

    problems = []
    if not isinstance(inst, IqapInstance):
        return [f"loaded {type(inst).__name__}, expected IqapInstance"]
    if (inst.num_vertices, inst.num_labels) != (wl.size, wl.size):
        problems.append(f"shape {inst.num_vertices}x{inst.num_labels}")
    if not inst.integral:
        problems.append("costs not integral")
    if edges is not None and len(inst.edges) != edges:
        problems.append(f"{len(inst.edges)} edges, first load had {edges}")
    return problems


def solve_problems(inst, report, iterations, upper_bounds, reference):
    """Soundness, monotonicity and repeatability of one solver report.

    ``upper_bounds`` maps a name to the objective of a feasible assignment;
    the bound may not exceed any of them.  ``reference`` is the final bound
    of the first solve of the same instance (None for the first solve).
    """
    atol = inst.atol
    problems = []
    if report.iterations != iterations:
        problems.append(f"{report.iterations} iterations, expected {iterations}")
    for name, value in upper_bounds.items():
        if report.final_bound > value + atol:
            problems.append(f"bound {report.final_bound} above {name} {value}")
    traj = report.bound_trajectory
    for i in range(1, len(traj)):
        if traj[i] < traj[i - 1] - atol:
            problems.append(f"bound fell at iteration {i}")
            break
    if reference is not None and report.final_bound != reference:
        problems.append(f"final bound {report.final_bound!r} differs from "
                        f"first solve {reference!r}")
    return problems


def feasible_references(inst, perm):
    from qapbound.model import DUMMY, iqap_objective

    return {"planted assignment": iqap_objective(inst, perm),
            "all-dummy assignment":
                iqap_objective(inst, [DUMMY] * inst.num_vertices)}


def miniature_problems(family, seed, directory):
    """Solve a tiny instance of ``family`` with every method; compare the
    bounds with the enumerated optimum."""
    from qapbound.bounds import METHODS, SolverConfig, run
    from qapbound.formats import load_instance
    from qapbound.oracle import brute_force_optimum

    if family == "gm":
        path = Path(directory) / f"mini-gm-{seed}.dd"
        perm = instances.write_gm(path, seed, vertices=6, candidates=3,
                                  neighbours=2, density=0.5, extent=100,
                                  jitter=5)
        # Distances shrink tenfold with the extent, and so does the price
        # of leaving a vertex unmatched.
        inst = load_instance(path, dummy_cost=GM_DUMMY_COST // 10)
    else:
        path = Path(directory) / f"mini-qaplib-{seed}.dat"
        perm = instances.write_qaplib(path, seed, size=5)
        inst = load_instance(path, fmt="qaplib", augment=True)
    optimum, _ = brute_force_optimum(inst)
    problems = []
    for method in METHODS:
        config = SolverConfig(method=method, max_iterations=5,
                              bound_improvement_epsilon=0)
        report = run(inst, config)
        problems += solve_problems(inst, report, 5,
                                   {"optimum": optimum,
                                    **feasible_references(inst, perm)}, None)
    return problems


def reference_loop():
    """Fixed list, dict and float work that uses nothing of the program.

    Its time tracks the CPU's current speed; about 0.1 s on the machine in
    README.md.
    """
    table = {}
    values = [i * 0.5 for i in range(2000)]
    for r in range(180):
        for i, x in enumerate(values):
            table[i] = table.get(i, 0.0) + x * r
        values = sorted(values, key=lambda v: -v)
    return table


def measure(name, seed, seconds, trace):
    """Run one workload; returns (checks, metrics, summary lines)."""
    from qapbound import bounds, formats
    from qapbound.bounds import SolverConfig

    wl = WORKLOADS[name]
    checks = Checks()
    tracer = layertrace.Tracer()
    config = SolverConfig(method=wl.method, max_iterations=wl.iterations,
                          bound_improvement_epsilon=0)
    setup_times = []
    setup_ratios = []
    solve_times = []
    solve_ratios = []
    ref_times = []
    traced_times = []

    def timed(fn, traced):
        gc.collect()
        start = time.perf_counter()
        if traced:
            with layertrace.installed(tracer):
                result = fn()
        else:
            result = fn()
        return result, time.perf_counter() - start

    def load(case, traced):
        inst, elapsed = timed(
            lambda: formats.load_instance(case.path, **case.load_kwargs),
            traced)
        checks.record("load", load_problems(inst, wl, case.edges))
        if case.edges is None:
            case.edges = len(inst.edges)
            case.upper_bounds = feasible_references(inst, case.perm)
        return inst, elapsed

    def solve(case, inst, traced):
        report, elapsed = timed(lambda: bounds.run(inst, config), traced)
        checks.record("solve", solve_problems(
            inst, report, wl.iterations, case.upper_bounds, case.reference))
        if case.reference is None:
            case.reference = report.final_bound
        return elapsed

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for family in ("gm", "qaplib"):
            checks.record(f"miniature {family}",
                          miniature_problems(family, seed, tmp))
        cases = [generate(wl, seed * INSTANCES + i, tmp)
                 for i in range(INSTANCES)]

        # The first load and solve of the process run untimed.
        solve(cases[0], load(cases[0], False)[0], False)
        # A round loads and solves every instance once, so set-up and solve
        # times are both sampled across the whole measuring time.  Only one
        # instance is in memory at a time.  Without tracing, the reference
        # loop runs after every solve, so one runs right before each load and
        # right after its solve, and both times are taken relative to the
        # mean of the two.  With tracing, every load is
        # traced, and every instance is solved traced and untraced back to
        # back, in alternating order, so the paired difference is the
        # tracing overhead.
        rounds = 0
        ref_times.append(timed(reference_loop, False)[1])
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or rounds < MIN_ROUNDS:
            for case in cases:
                inst, elapsed = load(case, trace)
                setup_times.append(elapsed)
                if trace:
                    order = (True, False) if rounds % 2 == 0 else (False, True)
                    elapsed = {t: solve(case, inst, t) for t in order}
                    traced_times.append(elapsed[True])
                    solve_times.append(elapsed[False])
                else:
                    solve_times.append(solve(case, inst, False))
                    ref_times.append(timed(reference_loop, False)[1])
                    ref = (ref_times[-2] + ref_times[-1]) / 2
                    setup_ratios.append(setup_times[-1] / ref)
                    solve_ratios.append(solve_times[-1] / ref)
                del inst
            rounds += 1

    lines = [
        f"workload {name} seed {seed}: {INSTANCES} instances with "
        f"{wl.size} vertices, method {wl.method}, {wl.iterations} iterations",
        f"machine: nproc {os.cpu_count()}, Python "
        f"{platform.python_version()}, {platform.machine()}",
    ]
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "setup_per_ref": statistics.median(setup_ratios),
            "solve_per_ref": statistics.median(solve_ratios),
            "final_bound": statistics.mean(
                c.reference + c.offset for c in cases),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "check_pass_rate":
                (checks.attempted - checks.failed) / checks.attempted,
        }
        lines += [
            f"setup_s: median of {len(setup_times)} loads; setup_per_ref: "
            f"the same loads, each over the mean of the reference loops "
            f"before it and after its solve",
            f"solve_per_ref: median of {len(solve_ratios)} solves in "
            f"{rounds} rounds, after one warm-up solve, each over the mean "
            f"of the reference loops before and after it",
            f"solve wall time: median {statistics.median(solve_times):.4f} s"
            f", reference loop median {statistics.median(ref_times):.4f} s",
            "solve times (s): " + " ".join(f"{t:.3f}" for t in solve_times),
            "final_bound: mean over instances; per instance "
            + " ".join(f"{c.reference + c.offset!r}" for c in cases),
        ]
        return checks, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, lines

    roots = tracer.roots()
    loads = [r for r in roots if r.name == "formats.load_instance"]
    solves = [r for r in roots if r.name == "bounds.run"]

    def per_op(get):
        return (statistics.median(get(r) for r in loads)
                + statistics.median(get(r) for r in solves))

    metrics = {}
    for layer in LAYER_TIMES:
        metrics[f"{layer}.self_s"] = (
            per_op(lambda r: r.self_s.get(layer, 0.0)), "s")
    for key in LAYER_COUNTS:
        metrics[key] = (per_op(lambda r: r.counts.get(key, 0)), "count")
    exact_steps = metrics["beta_steps.beta_exact_update.calls"][0]
    reductions = per_op(
        lambda r: r.counts.get("reduction.reduce_ilap_to_lap.calls", 0))
    metrics["reduction.reduce_ilap_to_lap.per_step"] = (
        reductions / exact_steps if exact_steps else 0.0, "ratio")
    metrics["trace.setup_s"] = (statistics.median(setup_times), "s")
    metrics["trace.solve_s"] = (statistics.median(traced_times), "s")
    metrics["trace.overhead_s"] = (statistics.median(
        t - u for t, u in zip(traced_times, solve_times)), "s")
    lines.append(f"trace: {len(loads)} traced loads, {len(traced_times)} "
                 f"traced and {len(solve_times)} untraced solves, "
                 f"{len(tracer.spans)} spans")
    tracer.write(OUT / f"spans-{name}-{seed}.jsonl")
    return checks, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    checks, metrics, lines = measure(args.workload, args.seed, args.seconds,
                                     args.trace)
    for line in lines:
        print(line)
    for key, (value, unit) in metrics.items():
        print(f"{key:<66} {value:>14.6g} {unit}")
    for note in checks.notes:
        print(f"FAILED {note}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
