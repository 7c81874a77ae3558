"""Result rows, group aggregation, and the best-bound tie rule.

A bound counts as best among the methods compared on one instance when it
is at least ``(1 + 1e-10)`` times their maximum.  With the negative bounds
the benchmark conversion produces, that is a relative-tolerance tie test;
with a positive maximum only exact ties at zero can qualify.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields

BEST_BOUND_FACTOR = 1 + 1e-10


@dataclass
class InstanceResult:
    """One (instance, method) row of a benchmark run."""

    instance: str
    group: str
    method: str
    final_bound: float
    iterations: int
    wall_time: float
    best: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def best_bound_flags(bounds: dict[str, float]) -> dict[str, bool]:
    """Apply the tie rule to one instance's per-method bounds."""
    top = max(bounds.values())
    return {m: b >= BEST_BOUND_FACTOR * top for m, b in bounds.items()}


def mark_best_bounds(rows: list[InstanceResult]) -> None:
    """Set the ``best`` flag on every row, comparing within each instance.

    Instances are identified by (group, tag) so equally named files in
    different groups are never compared against each other.
    """
    by_instance: dict[tuple[str, str], list[InstanceResult]] = {}
    for row in rows:
        by_instance.setdefault((row.group, row.instance), []).append(row)
    for group in by_instance.values():
        flags = best_bound_flags({r.method: r.final_bound for r in group})
        for r in group:
            r.best = flags[r.method]


@dataclass
class GroupSummary:
    """Aggregate row: best-bound counts and average bound per method."""

    group: str
    instances: int
    best_counts: dict[str, int]
    average_bounds: dict[str, float]

    def to_dict(self) -> dict:
        return asdict(self)


def aggregate(rows: list[InstanceResult],
              methods: list[str]) -> list[GroupSummary]:
    """Group-wise aggregation of marked rows, groups in first-seen order."""
    order: list[str] = []
    per_group: dict[str, list[InstanceResult]] = {}
    for row in rows:
        if row.group not in per_group:
            per_group[row.group] = []
            order.append(row.group)
        per_group[row.group].append(row)
    summaries = []
    for group in order:
        members = per_group[group]
        instances = len({r.instance for r in members})
        best = {m: 0 for m in methods}
        sums = {m: 0.0 for m in methods}
        counts = {m: 0 for m in methods}
        for r in members:
            if r.best:
                best[r.method] += 1
            sums[r.method] += r.final_bound
            counts[r.method] += 1
        avg = {m: (sums[m] / counts[m] if counts[m] else float("nan"))
               for m in methods}
        summaries.append(GroupSummary(group, instances, best, avg))
    return summaries


def table_to_json(rows: list[InstanceResult],
                  groups: list[GroupSummary]) -> str:
    return json.dumps({
        "rows": [r.to_dict() for r in rows],
        "groups": [g.to_dict() for g in groups],
    }, indent=2)


def rows_to_csv(rows: list[InstanceResult]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, [f.name for f in fields(InstanceResult)])
    writer.writeheader()
    for r in rows:
        writer.writerow({**r.to_dict(), "best": int(r.best)})
    return out.getvalue()


def groups_to_csv(groups: list[GroupSummary], methods: list[str]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    header = ["group", "instances"]
    header += [f"best_{m}" for m in methods]
    header += [f"avg_{m}" for m in methods]
    writer.writerow(header)
    for g in groups:
        row = [g.group, g.instances]
        row += [g.best_counts[m] for m in methods]
        row += [g.average_bounds[m] for m in methods]
        writer.writerow(row)
    return out.getvalue()


def render_group_table(groups: list[GroupSummary],
                       methods: list[str]) -> str:
    """Plain-text aggregate table, one line per group."""
    headers = ["group", "instances"]
    headers += [f"#best {m}" for m in methods]
    headers += [f"avg {m}" for m in methods]
    lines = [headers]
    for g in groups:
        line = [g.group, str(g.instances)]
        line += [str(g.best_counts[m]) for m in methods]
        line += [f"{g.average_bounds[m]:.6g}" for m in methods]
        lines.append(line)
    widths = [max(len(row[i]) for row in lines) for i in range(len(headers))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in lines)
