"""Manifest-driven benchmark runs over a method-by-instance grid.

A manifest is a JSON object::

    {
      "methods": ["bca", "hung", "hung-ri"],
      "defaults": {"max_iterations": 20, "time_limit": null,
                   "augment": false},
      "instances": [
        {"path": "toy.dd", "group": "toy", "max_iterations": 5,
         "time_limit": 60, "augment": true}
      ]
    }

Instance paths are resolved relative to the manifest file.  Per-instance
fields override the defaults, so per-group time limits are expressed by
giving every instance of the group the same limit.  Entries may also set
``tag`` (default: the file stem), ``dummy_cost`` and ``epsilon``.  Any
other key, a value of the wrong JSON type, an empty or repeating
``methods`` list, an unknown method, an empty ``instances`` list, or one
tag twice in a group is an error.  Each file's format is detected from its
text, and every instance takes ``model.DEFAULT_TOLERANCE``.
Every entry's dummy cost is checked, and every job's ``SolverConfig`` is
built, before any job runs.  An error a job meets while it loads its file
names that file.  Jobs run concurrently up to the ``workers`` argument
(one by default); each worker owns one solver state, and rows are
assembled deterministically after all jobs finish.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .bounds import DEFAULT_EPSILON, METHODS, SolverConfig, run
from .formats import DEFAULT_DUMMY_COST, load_instance
from .model import IlapInstance, IqapInstance, _as_cost
from .results import InstanceResult, aggregate, mark_best_bounds


def _as_iqap(inst) -> IqapInstance:
    if isinstance(inst, IqapInstance):
        return inst
    if isinstance(inst, IlapInstance):
        return IqapInstance(inst, [])
    raise ValueError("bound solving needs a dummy label; "
                     "this is a square instance (try the 'lap' subcommand)")


def _run_job(job: dict) -> InstanceResult:
    try:
        inst = _as_iqap(load_instance(job["path"],
                                      dummy_cost=job["dummy_cost"],
                                      augment=job["augment"]))
    except (OSError, ValueError) as exc:
        raise ValueError(f"instance {job['path']}: {exc}") from None
    report = run(inst, job["config"], instance_tag=job["tag"])
    return InstanceResult(group=job["group"],
                          **report.to_dict(include_trajectory=False))


_DEFAULTS = {
    "augment": False,
    "dummy_cost": DEFAULT_DUMMY_COST,
    "time_limit": None,
    "max_iterations": None,
    "epsilon": DEFAULT_EPSILON,
}
_ENTRY_KEYS = {*_DEFAULTS, "path", "group", "tag"}
_TOP_LEVEL = {"methods": (list, "a list"), "defaults": (dict, "an object"),
              "instances": (list, "a list")}
_STRING_KEYS = ("path", "group", "tag")
_BUDGET_KEYS = ("time_limit", "max_iterations")


def _check_entry(entry: dict, where: str) -> None:
    """Reject an unknown key or a value of the wrong JSON type."""
    for key, value in entry.items():
        if key not in _ENTRY_KEYS:
            raise ValueError(f"unknown manifest key {key!r} in {where}")
        if key in _STRING_KEYS:
            expected, ok = "a string", isinstance(value, str)
        elif key == "augment":
            expected, ok = "true or false", isinstance(value, bool)
        else:
            expected = "a number or null" if key in _BUDGET_KEYS else "a number"
            ok = (type(value) in (int, float)
                  or value is None and key in _BUDGET_KEYS)
        if not ok:
            raise ValueError(f"{where}: {key!r} must be {expected}, "
                             f"got {value!r}")


def load_manifest(path):
    """Check a manifest and expand it into one job per instance and method."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict) or "instances" not in manifest:
        raise ValueError("manifest must be an object with an 'instances' list")
    for key, value in manifest.items():
        if key not in _TOP_LEVEL:
            raise ValueError(f"unknown manifest key {key!r} in the top level")
        kind, expected = _TOP_LEVEL[key]
        if not isinstance(value, kind):
            raise ValueError(f"manifest {key!r} must be {expected}")
    methods = manifest.get("methods", list(METHODS))
    if not methods or any(methods.count(m) > 1 for m in methods):
        raise ValueError("manifest 'methods' must list one or more methods, "
                         "each once")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"manifest 'methods': unknown method {method!r}, "
                             f"expected one of {METHODS}")
    if not manifest["instances"]:
        raise ValueError("manifest 'instances' must list one or more instances")
    defaults = manifest.get("defaults", {})
    _check_entry(defaults, "defaults")
    defaults = {**_DEFAULTS, **defaults}
    jobs = []
    claimed = {}  # (group, tag) -> path: rows are told apart by the pair
    for entry in manifest["instances"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("path"), str)):
            raise ValueError("each entry of 'instances' must be an object "
                             "with a string 'path'")
        where = f"instance {entry['path']}"
        _check_entry(entry, where)
        merged = {**defaults, **entry}
        instance_path = (path.parent / merged["path"]).resolve()
        if not instance_path.is_file():
            raise ValueError(f"instance file not found: {instance_path}")
        try:
            _as_cost(merged["dummy_cost"], "dummy_cost")
            configs = [SolverConfig(
                method=method, time_limit=merged["time_limit"],
                max_iterations=merged["max_iterations"],
                bound_improvement_epsilon=merged["epsilon"],
            ) for method in methods]
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        merged.update(path=str(instance_path),
                      tag=merged.get("tag") or Path(merged["path"]).stem,
                      group=merged.get("group", "default"))
        key = (merged["group"], merged["tag"])
        if key in claimed:
            raise ValueError(f"instances {claimed[key]} and {entry['path']} "
                             f"share group {key[0]!r} and tag {key[1]!r}; "
                             f"give one of them a 'tag'")
        claimed[key] = entry["path"]
        jobs.extend({**merged, "config": config} for config in configs)
    return methods, jobs


def run_batch(manifest_path, workers: int = 1):
    """Run the manifest grid; returns (methods, rows, group summaries).
    A ``workers`` count of 1 or less runs the jobs one after another."""
    methods, jobs = load_manifest(manifest_path)
    if workers > 1 and len(jobs) > 1:
        # The pool starts all its workers at the first submit, so never ask
        # for more than there are jobs.
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            rows = list(pool.map(_run_job, jobs))
    else:
        rows = [_run_job(job) for job in jobs]
    rows.sort(key=lambda r: (r.group, r.instance, methods.index(r.method)))
    mark_best_bounds(rows)
    return methods, rows, aggregate(rows, methods)
