import csv
import io

from qapbound.results import (
    GroupSummary,
    InstanceResult,
    aggregate,
    best_bound_flags,
    groups_to_csv,
    mark_best_bounds,
    render_group_table,
    rows_to_csv,
    table_to_json,
)

METHODS = ["bca", "hung", "hung-ri"]


def row(instance, group, method, bound, best=False):
    return InstanceResult(instance=instance, group=group, method=method,
                          final_bound=bound, iterations=5, wall_time=0.1,
                          best=best)


class TestBestBoundRule:
    def test_negative_bounds_tolerant_tie(self):
        flags = best_bound_flags({
            "bca": -100.0,
            "hung": -50.0,
            "hung-ri": -50.0 - 1e-12,
        })
        assert flags == {"bca": False, "hung": True, "hung-ri": True}

    def test_negative_bounds_clear_winner(self):
        flags = best_bound_flags({"bca": -100.0, "hung": -50.0})
        assert flags == {"bca": False, "hung": True}

    def test_all_equal_negative(self):
        flags = best_bound_flags({m: -7.0 for m in METHODS})
        assert all(flags.values())

    def test_zero_maximum(self):
        flags = best_bound_flags({"bca": 0.0, "hung": -1.0})
        assert flags == {"bca": True, "hung": False}

    def test_positive_maximum_is_best_with_relative_tie(self):
        # a positive maximum is itself best, and a bound within a relative
        # 1e-10 below it ties; one just outside does not
        flags = best_bound_flags({"bca": 4.0, "hung": 2.0})
        assert flags == {"bca": True, "hung": False}
        top = 2049.8
        flags = best_bound_flags({
            "bca": top, "hung": top * (1 - 5e-11), "hung-ri": top * (1 - 2e-10)})
        assert flags == {"bca": True, "hung": True, "hung-ri": False}


class TestMarkAndAggregate:
    def test_rows_compared_per_instance(self):
        rows = [row("a", "g", "bca", -10.0), row("a", "g", "hung", -5.0),
                row("b", "g", "bca", -1.0), row("b", "g", "hung", -2.0)]
        mark_best_bounds(rows)
        assert [r.best for r in rows] == [False, True, True, False]

    def test_same_tag_in_different_groups_not_compared(self):
        rows = [row("x", "g1", "bca", -10.0), row("x", "g2", "bca", -1.0)]
        mark_best_bounds(rows)
        # each is alone in its comparison set, so each is best
        assert all(r.best for r in rows)

    def test_aggregate_counts_and_averages(self):
        rows = [row("a", "g", "bca", -10.0), row("a", "g", "hung", -5.0),
                row("b", "g", "bca", -4.0), row("b", "g", "hung", -4.0)]
        mark_best_bounds(rows)
        (summary,) = aggregate(rows, ["bca", "hung"])
        assert summary.group == "g"
        assert summary.instances == 2
        assert summary.best_counts == {"bca": 1, "hung": 2}
        assert summary.average_bounds == {"bca": -7.0, "hung": -4.5}

    def test_group_order_is_first_seen(self):
        rows = [row("a", "g2", "bca", -1.0), row("b", "g1", "bca", -1.0)]
        mark_best_bounds(rows)
        summaries = aggregate(rows, ["bca"])
        assert [s.group for s in summaries] == ["g2", "g1"]


class TestRendering:
    def setup_method(self):
        self.rows = [row("a", "g", "bca", -10.0), row("a", "g", "hung", -5.0)]
        mark_best_bounds(self.rows)
        self.groups = aggregate(self.rows, ["bca", "hung"])

    def test_json_shape(self):
        import json

        payload = json.loads(table_to_json(self.rows, self.groups))
        assert payload["rows"][0]["instance"] == "a"
        assert payload["groups"][0]["best_counts"] == {"bca": 0, "hung": 1}

    def test_rows_csv_parses_back(self):
        parsed = list(csv.DictReader(io.StringIO(rows_to_csv(self.rows))))
        assert parsed[0]["method"] == "bca"
        assert parsed[0]["best"] == "0"
        assert parsed[1]["best"] == "1"

    def test_groups_csv_headers(self):
        text = groups_to_csv(self.groups, ["bca", "hung"])
        assert text.splitlines()[0] == (
            "group,instances,best_bca,best_hung,avg_bca,avg_hung")

    def test_text_table_alignment(self):
        text = render_group_table(self.groups, ["bca", "hung"])
        lines = text.splitlines()
        assert lines[0].startswith("group")
        assert "g" in lines[1]

    def test_summary_to_dict(self):
        summary = GroupSummary("g", 1, {"bca": 1}, {"bca": -1.0})
        assert summary.to_dict()["group"] == "g"
