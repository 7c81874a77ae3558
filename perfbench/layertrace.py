"""Outside-in layer trace: spans recorded around the program's public calls.

The program is not instrumented.  Instead each layer boundary is patched in
the namespace of the module that makes the call (``bounds.mplp_pp_pass``,
``reduction.solve_lap``, ...), because the package imports functions by
name; patching the defining module would miss those calls.  The two
instance classes are traced through their ``__init__`` so that
``isinstance`` checks keep working and constructions made anywhere
(parsers, the per-iteration subproblem, ``scale_costs``) are all seen.

Spans stay in memory with the index of their parent span and are written
out at the end.  A span's self time is its duration minus the durations of
its direct children.  Counts are recorded on the span of the call that did
the work, so they can be summed per root span exactly like self times.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from contextlib import contextmanager

# One root span (a call made by the benchmark itself) with the self time of
# every layer below it and the counts they recorded, ``<layer>.calls`` too.
Root = namedtuple("Root", "name duration self_s counts")


class Tracer:
    """Collects spans ``[name, start, end, parent, counts]`` in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        """``fn`` wrapped in a span named ``name``."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def count(self, key, value):
        """Add ``value`` to count ``key`` of the innermost open span."""
        span = self.spans[self._stack[-1]]
        if span[4] is None:
            span[4] = {}
        span[4][key] = span[4].get(key, 0) + value

    def patch(self, owner, attr, name, adapt=None):
        """Replace ``owner.attr`` by a traced version until ``restore``.

        ``adapt(original)``, when given, returns the function to trace in
        place of the original, typically one that records counts first.
        """
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        fn = adapt(original) if adapt else original
        setattr(owner, attr, self.wrap(name, fn))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def roots(self):
        """One ``Root`` per root span, in call order."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        root_of = [0] * len(spans)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                root_of[i] = root_of[parent]
            else:
                root_of[i] = i
        out = {}
        for i, (name, start, end, _, counts) in enumerate(spans):
            root = root_of[i]
            if root not in out:
                out[root] = Root(spans[root][0], spans[root][2] - spans[root][1],
                                 {}, {})
            self_s, totals = out[root].self_s, out[root].counts
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
            for key, value in (counts or {}).items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
        return list(out.values())

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, counts in self.spans:
                record = {"name": name, "start": start, "end": end,
                          "parent": parent}
                if counts:
                    record["counts"] = counts
                handle.write(json.dumps(record) + "\n")


@contextmanager
def installed(tracer):
    """Patch every traced boundary for the duration of the block."""
    from qapbound import bounds, beta_steps, formats, model, reduction

    def lap_counted(solve_lap):
        def counted(inst):
            tracer.count("nodes", inst.num_vertices)
            tracer.count("arcs", sum(map(len, inst.allowed)))
            return solve_lap(inst)
        return counted

    def mplp_counted(mplp_pp_pass):
        def counted(state, *, backward=False):
            edges = len(state.inst.edges)
            tracer.count("edge_updates", 2 * edges if backward else edges)
            return mplp_pp_pass(state, backward=backward)
        return counted

    def shift_counted(shift):
        # One slack value is logged per component shifted.
        def counted(inst, dual, x, *, delta_log=None):
            log = [] if delta_log is None else delta_log
            before = len(log)
            result = shift(inst, dual, x, delta_log=log)
            tracer.count("components_shifted", len(log) - before)
            return result
        return counted

    try:
        tracer.patch(formats, "load_instance", "formats.load_instance")
        for fn in ("parse_dd", "parse_qaplib", "convert_qaplib_to_iqap",
                   "augment_instance"):
            tracer.patch(formats, fn, f"formats.{fn}")
        tracer.patch(model.IlapInstance, "__init__", "model.IlapInstance")
        tracer.patch(model.IqapInstance, "__init__", "model.IqapInstance")
        tracer.patch(bounds, "run", "bounds.run")
        tracer.patch(bounds, "dual_bound", "bounds.dual_bound")
        tracer.patch(bounds, "mplp_pp_pass", "wcsp.mplp_pp_pass", mplp_counted)
        tracer.patch(bounds, "beta_bca_pass", "beta_steps.beta_bca_pass")
        tracer.patch(bounds, "beta_exact_update",
                     "beta_steps.beta_exact_update")
        tracer.patch(beta_steps, "solve_ilap", "reduction.solve_ilap")
        tracer.patch(reduction, "reduce_ilap_to_lap",
                     "reduction.reduce_ilap_to_lap")
        tracer.patch(reduction, "decompose_assignment",
                     "reduction.decompose_assignment")
        tracer.patch(reduction, "solve_lap", "lap.solve_lap", lap_counted)
        tracer.patch(reduction, "shift_to_relative_interior",
                     "relative_interior.shift_to_relative_interior",
                     shift_counted)
        yield tracer
    finally:
        tracer.restore()
