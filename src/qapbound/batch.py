"""Manifest-driven benchmark runs over a method-by-instance grid.

A manifest is a JSON object::

    {
      "methods": ["bca", "hung", "hung-ri"],
      "defaults": {"max_iterations": 20, "time_limit": null,
                   "augment": false, "tolerance": 1e-9, "dummy_cost": 0.0},
      "instances": [
        {"path": "toy.dd", "group": "toy", "format": "auto",
         "max_iterations": 5, "time_limit": 60, "augment": true}
      ]
    }

Instance paths are resolved relative to the manifest file.  Per-instance
fields override the defaults, so per-group time limits are expressed by
giving every instance of the group the same limit.  Entries may also set
``tag`` (default: the file stem) and ``epsilon``; any other key is an
error.  Jobs run concurrently up to a worker cap (``QAPBOUND_WORKERS``, an
integer, or the ``workers`` argument, one worker by default); each worker
owns one solver state, and rows are assembled deterministically after all
jobs finish.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .bounds import METHODS, SolverConfig, run
from .formats import load_instance
from .model import IlapInstance, IqapInstance
from .results import InstanceResult, aggregate, mark_best_bounds

WORKERS_ENV = "QAPBOUND_WORKERS"


def _as_iqap(inst) -> IqapInstance:
    if isinstance(inst, IqapInstance):
        return inst
    if isinstance(inst, IlapInstance):
        return IqapInstance(inst, [])
    raise ValueError("bound solving needs a dummy label; "
                     "this is a square instance (try the 'lap' subcommand)")


def _run_job(job: dict) -> InstanceResult:
    inst = _as_iqap(load_instance(
        job["path"], fmt=job["format"], dummy_cost=job["dummy_cost"],
        tolerance=job["tolerance"], augment=job["augment"]))
    config = SolverConfig(
        method=job["method"],
        time_limit=job["time_limit"],
        max_iterations=job["max_iterations"],
        bound_improvement_epsilon=job["epsilon"],
    )
    report = run(inst, config, instance_tag=job["tag"])
    return InstanceResult(group=job["group"],
                          **report.to_dict(include_trajectory=False))


def default_workers() -> int:
    value = os.environ.get(WORKERS_ENV)
    if not value:
        return 1
    try:
        return max(1, int(value))
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV} must be an integer, got {value!r}") from None


_DEFAULTS = {
    "format": "auto",
    "augment": False,
    "tolerance": 1e-9,
    "dummy_cost": 0.0,
    "time_limit": None,
    "max_iterations": None,
    "epsilon": 1e-9,
}
_ENTRY_KEYS = {*_DEFAULTS, "path", "group", "tag"}


def _reject_unknown_keys(obj: dict, known, where: str) -> None:
    for key in obj:
        if key not in known:
            raise ValueError(f"unknown manifest key {key!r} in {where}")


def load_manifest(path):
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict) or "instances" not in manifest:
        raise ValueError("manifest must be an object with an 'instances' list")
    _reject_unknown_keys(manifest, ("methods", "defaults", "instances"),
                         "the top level")
    methods = manifest.get("methods", list(METHODS))
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r} in manifest")
    defaults = manifest.get("defaults", {})
    _reject_unknown_keys(defaults, _ENTRY_KEYS, "defaults")
    defaults = {**_DEFAULTS, **defaults}
    jobs = []
    for entry in manifest["instances"]:
        if "path" not in entry:
            raise ValueError("manifest instance entry is missing 'path'")
        _reject_unknown_keys(entry, _ENTRY_KEYS, f"instance {entry['path']}")
        merged = {**defaults, **entry}
        instance_path = (path.parent / merged["path"]).resolve()
        if not instance_path.is_file():
            raise ValueError(f"instance file not found: {instance_path}")
        if merged["time_limit"] is None and merged["max_iterations"] is None:
            raise ValueError(
                f"instance {merged['path']}: set a time limit or iteration cap")
        merged.update(path=str(instance_path),
                      tag=merged.get("tag") or Path(merged["path"]).stem,
                      group=merged.get("group", "default"),
                      augment=bool(merged["augment"]))
        jobs.extend({**merged, "method": method} for method in methods)
    return methods, jobs


def run_batch(manifest_path, workers: int | None = None):
    """Run the manifest grid; returns (methods, rows, group summaries)."""
    methods, jobs = load_manifest(manifest_path)
    if workers is None:
        workers = default_workers()
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
