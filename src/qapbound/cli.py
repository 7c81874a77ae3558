"""Command-line interface.

Subcommands:

* ``solve``: run the bound solver on a quadratic (or dummy-label) instance
  and print a report.
* ``lap``: solve a single square or dummy-label instance exactly, print the
  assignment, value, dual, and a relative-interior self-check flag.
* ``verify``: cross-check the solvers against exhaustive enumeration on a
  small instance; above the enumeration guard, check the certificate of a
  square or dummy-label instance.
* ``batch``: run a method-by-instance grid from a manifest and print the
  result table.

``lap`` and ``verify`` solve and certify an assignment instance with
``reduction._solve_interior`` and ``reduction._relative_interior_flag``,
the library's own exact step, so this module does no arithmetic on
instances or duals of its own.

Exit codes: 0 success, 1 input error, 2 internal invariant violation
(including failed ``verify`` checks).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .batch import _as_iqap, run_batch
from .bounds import DEFAULT_EPSILON, METHODS, SolverConfig, run
from .formats import ParseError, augment_instance, load_instance
from .model import (
    DUMMY,
    DualInfeasibleError,
    FeasibilityError,
    IlapInstance,
    IqapInstance,
    LapInstance,
    dual_objective,
    lap_objective,
)
from .oracle import (
    _exact_optimum,
    brute_force_optimum,
    certificate_checks,
    check_dual_relative_interior,
    search_space_size,
    SEARCH_SPACE_GUARD,
)
from .reduction import (_relative_interior_flag, _solve_interior,
                        lift_assignment, reduce_ilap_to_lap)
from .results import groups_to_csv, render_group_table, rows_to_csv, table_to_json


class InputError(Exception):
    pass


class CheckFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1), not argparse's default 2."""

    def error(self, message):
        raise InputError(message)


def _load(args, *, augment: bool = False):
    try:
        return load_instance(args.input, dummy_cost=args.dummy_cost,
                             augment=augment)
    except (OSError, ParseError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _cmd_solve(args) -> int:
    inst = _load(args, augment=args.augment)
    try:
        inst = _as_iqap(inst)
        if args.time_limit is None and args.max_iters is None:
            raise InputError("set --time-limit or --max-iters")
        config = SolverConfig(
            method=args.method,
            time_limit=args.time_limit,
            max_iterations=args.max_iters,
            bound_improvement_epsilon=args.epsilon,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = run(inst, config, instance_tag=args.input)
    if args.output == "json":
        print(json.dumps(report.to_dict(include_trajectory=args.trajectory),
                         indent=2))
    else:
        record = report.to_dict(include_trajectory=args.trajectory)
        if args.trajectory:
            record["bound_trajectory"] = ";".join(
                map(repr, record["bound_trajectory"]))
        out = io.StringIO()
        writer = csv.DictWriter(out, record)
        writer.writeheader()
        writer.writerow(record)
        sys.stdout.write(out.getvalue())
    return 0


def _lap_payload(inst: LapInstance | IlapInstance) -> dict:
    solved = _solve_interior(inst)
    if solved is None:
        return {"status": "infeasible"}
    x, dual = solved
    return {
        "status": "optimal",
        "value": lap_objective(inst, x),
        "assignment": {str(v): "#" if lab == DUMMY else str(lab)
                       for v, lab in enumerate(x)},
        "alpha": list(dual.alpha),
        "beta": list(dual.beta),
        "dual_objective": dual_objective(inst, dual),
        "relative_interior": _relative_interior_flag(inst, dual, x),
    }


def _cmd_lap(args) -> int:
    inst = _load(args)
    if isinstance(inst, IqapInstance):
        if inst.edges:
            raise InputError("instance has pairwise costs; use 'solve'")
        inst = inst.unary
    try:
        payload = _lap_payload(inst)
    except (DualInfeasibleError, FeasibilityError) as exc:
        raise CheckFailure(str(exc)) from exc
    if args.output == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _check(name: str, ok: bool, detail: str = "") -> bool:
    suffix = f" ({detail})" if detail else ""
    print(f"{name}: {'ok' if ok else 'FAIL'}{suffix}")
    return ok


def _verify_unary(inst: LapInstance | IlapInstance) -> bool:
    value, _ = brute_force_optimum(inst)
    solved = _solve_interior(inst)
    if value is None:
        return _check("solver agrees instance is infeasible", solved is None)
    if not _check("solver finds an optimum", solved is not None):
        return False
    x, dual = solved
    objective = lap_objective(inst, x)
    ok = _check("solver value matches enumeration",
                abs(objective - value) <= inst.atol, f"value {value}")
    ok &= _check("dual objective matches",
                 abs(dual_objective(inst, dual) - value) <= inst.atol)
    try:
        interior, detail = check_dual_relative_interior(inst, dual), ""
    except DualInfeasibleError as exc:
        interior, detail = False, str(exc)
    ok &= _check("dual is in the relative interior", interior, detail)
    if isinstance(inst, IlapInstance):
        lifted = lap_objective(reduce_ilap_to_lap(inst),
                               lift_assignment(inst, x))
        ok &= _check("lifted assignment keeps the objective",
                     abs(lifted - objective) <= inst.atol)
    return ok


def _verify_certificate(inst: LapInstance | IlapInstance) -> bool | None:
    """Check the certificate of ``_solve_interior`` without enumeration;
    None for a square instance without a perfect matching."""
    solved = _solve_interior(inst)
    if solved is None:
        return None
    x, dual = solved
    ok = True
    for name, passed, detail in certificate_checks(inst, x, dual):
        ok &= _check(name, passed, detail)
    try:
        interior, detail = _relative_interior_flag(inst, dual, x), ""
    except (DualInfeasibleError, FeasibilityError) as exc:
        interior, detail = False, str(exc)
    ok &= _check("exchange digraph puts every tight edge on an optimum",
                 interior, detail)
    return ok


def _verify_iqap(inst: IqapInstance) -> bool:
    value, optima = brute_force_optimum(inst)
    # compared exactly: the certified bound may exceed the float-summed value
    optimum = _exact_optimum(inst, optima)
    shown = value if inst.integral else float(optimum)
    scale = 1 + inst.max_abs_cost
    ok = True
    for method in METHODS:
        config = SolverConfig(method=method, max_iterations=10)
        report = run(inst, config)
        traj = report.bound_trajectory
        monotone = all(b2 >= b1 - 1e-8 * scale for b1, b2 in zip(traj, traj[1:]))
        ok &= _check(f"{method}: trajectory is non-decreasing", monotone)
        ok &= _check(f"{method}: bound does not exceed the optimum",
                     report.final_bound <= optimum,
                     f"bound {report.final_bound}, optimum {shown}")
    aug_value, _ = brute_force_optimum(augment_instance(inst))
    ok &= _check("augmentation keeps the optimum", aug_value == value)
    return ok


def _cmd_verify(args) -> int:
    inst = _load(args)
    size = search_space_size(inst)
    ok = None
    if size <= SEARCH_SPACE_GUARD:
        ok = _verify_iqap(inst) if isinstance(inst, IqapInstance) else _verify_unary(inst)
    elif not isinstance(inst, IqapInstance):
        ok = _verify_certificate(inst)
    if ok is None:
        print(f"skipped: search space of {size} assignments exceeds "
              f"the enumeration guard of {SEARCH_SPACE_GUARD}")
        return 0
    if not ok:
        raise CheckFailure("verification failed")
    print("all checks passed")
    return 0


def _cmd_batch(args) -> int:
    try:
        methods, rows, groups = run_batch(args.manifest, workers=args.workers)
    except (OSError, ParseError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(str(exc)) from exc
    if args.output == "json":
        print(table_to_json(rows, groups))
    elif args.output == "csv":
        if args.rows:
            sys.stdout.write(rows_to_csv(rows))
        else:
            sys.stdout.write(groups_to_csv(groups, methods))
    else:
        print(render_group_table(groups, methods))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qapbound",
        description="Dual lower bounds for sparse incomplete quadratic "
                    "assignment problems")
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags of every subcommand that reads one instance file.
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--input", required=True)
    instance.add_argument("--dummy-cost", type=float, default=None,
                          help="unary cost of the dummy label (.dd only)")

    solve = sub.add_parser("solve", parents=[instance],
                           help="run the bound solver on an instance")
    solve.add_argument("--method", choices=METHODS, default="hung-ri")
    solve.add_argument("--augment", action="store_true",
                       help="price shared-label collisions before solving")
    solve.add_argument("--time-limit", type=float, default=None, metavar="S")
    solve.add_argument("--max-iters", type=int, default=None, metavar="N")
    solve.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                       help="stop once one iteration improves the bound by less")
    solve.add_argument("--output", choices=("json", "csv"), default="json")
    solve.add_argument("--trajectory", action="store_true",
                       help="include the per-iteration bounds in the output")
    solve.set_defaults(func=_cmd_solve)

    lap = sub.add_parser("lap", parents=[instance],
                         help="solve one assignment instance exactly")
    lap.add_argument("--output", choices=("json", "text"), default="json")
    lap.set_defaults(func=_cmd_lap)

    verify = sub.add_parser(
        "verify", parents=[instance],
        help="cross-check the solvers against enumeration")
    verify.set_defaults(func=_cmd_verify)

    batch = sub.add_parser("batch", help="run a manifest of benchmark jobs")
    batch.add_argument("--manifest", required=True)
    batch.add_argument("--workers", type=int, default=1)
    batch.add_argument("--output", choices=("json", "csv", "text"),
                       default="json")
    batch.add_argument("--rows", action="store_true",
                       help="with --output csv, print per-instance rows")
    batch.set_defaults(func=_cmd_batch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
