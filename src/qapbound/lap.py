"""Exact solver for sparse linear assignment instances.

Shortest-augmenting-path method over the allowed-label structure (the
priority-queue form of Jonker & Volgenant, 1987), with vertex and label
potentials maintained throughout.  One augmentation phase per vertex, each a
Dijkstra sweep over the labels using reduced costs, so a dual-feasible pair
(alpha, beta) satisfying complementary slackness with the returned
assignment falls out of the run for free.

Each sweep takes labels from a binary heap of tentative distances, ties
going to the smallest label index, and updates the potentials of the labels
it scanned only.  One augmentation therefore costs O(arcs scanned * log n).

Instances whose costs are all integers are solved in exact integer
arithmetic (Python ints never overflow), so the set of tight dual
constraints is exact, not just tight up to tolerance.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import repeat
from operator import lt

from .model import Dual, LapInstance, _tight_slack, require_dual_feasible

INF = math.inf


def equality_subgraph(inst: LapInstance,
                      dual: Dual) -> tuple[tuple[int, ...], ...]:
    """Labels whose dual constraint is tight, as one sorted tuple per
    vertex: ``rows[v]`` holds the labels ``lab`` with ``(v, lab)`` in the
    tight-edge subgraph.

    Both tests read one window, ``model._tight_slack``: a slack of at most
    the window is tight and one below its negative is violated, so both
    are exact on an integral instance.  An infeasible dual is rejected, since
    its set of tight constraints is not meaningful.  One list of slacks per
    row serves both the feasibility check and the tight labels; a dual of
    the wrong length, or a row with a violated constraint, is handed to
    ``require_dual_feasible``, which raises its own error.  The instance
    must be square: a dummy-label instance raises ``ValueError``.
    """
    if not (isinstance(inst, LapInstance) and len(dual.alpha) == inst.num_vertices
            and len(dual.beta) == inst.num_labels):
        require_dual_feasible(inst, dual)
        raise ValueError("expected a LapInstance")
    tight = _tight_slack(inst)
    floor = repeat(-tight)
    beta = dual.beta
    rows = []
    for labs, cs, av in zip(inst.allowed, inst.costs, dual.alpha):
        slack = [c - av - beta[lab] for lab, c in zip(labs, cs)]
        if any(map(lt, slack, floor)):
            require_dual_feasible(inst, dual)
        rows.append(tuple([lab for lab, s in zip(labs, slack) if s <= tight]))
    return tuple(rows)


def solve_lap(inst: LapInstance):
    """Optimal assignment and dual-optimal potentials, or None if infeasible.

    Returns ``(x, dual)`` where ``x`` is an optimal assignment (list mapping
    vertex to label) and ``dual`` is feasible with ``alpha[v] + beta[x[v]]``
    equal to the assignment cost at every vertex.  Returns None when the
    allowed-label bipartite graph has no perfect matching.

    Each augmentation is a Dijkstra sweep from one unmatched vertex.  Labels
    are taken in heap order of ``(distance, label)``: smallest tentative
    distance first, ties to the smallest label index, so the assignment and
    dual returned for an instance do not depend on heap internals.  The
    sweep ends at the first free label it takes.  The sweep costs
    O(arcs scanned * log n), and the potential update after it touches only
    the labels it scanned.

    A label's distance is recorded and pushed when it strictly drops, and
    only while ``(distance, label)`` stays below that of the best free label
    pushed so far in the sweep.  An entry at or above it cannot be taken
    before that free label, which ends the sweep, so leaving it out changes
    neither the labels taken nor their distances and predecessors: every
    later distance that does get pushed is below the free label's, hence
    below every distance left out, and replaces the same recorded one.
    Stale entries are skipped when popped.  The distance, predecessor and
    scanned flags are allocated once per solve; after each sweep only the
    entries it set are reset.
    """
    n = inst.num_vertices
    if n == 0:
        return [], Dual([], [])
    alpha = [min(cs) for cs in inst.costs]
    zero = 0 if inst.integral else 0.0
    beta = [zero] * n
    match_label = [-1] * n   # vertex -> label
    match_vertex = [-1] * n  # label -> vertex
    dist = [INF] * n
    pred = [-1] * n
    done = [False] * n

    for start in range(n):
        scanned = []
        heap = []
        # (distance, label) of the best free label pushed in this sweep
        stop_dist = INF
        stop_lab = n
        u = start
        path_len = zero
        while True:
            row_labs = inst.allowed[u]
            row_costs = inst.costs[u]
            au = alpha[u]
            for lab, c in zip(row_labs, row_costs):
                if done[lab]:
                    continue
                nd = path_len + c - au - beta[lab]
                if nd < dist[lab] and (nd < stop_dist or (
                        nd == stop_dist and lab < stop_lab)):
                    dist[lab] = nd
                    pred[lab] = u
                    heappush(heap, (nd, lab))
                    if match_vertex[lab] < 0:
                        stop_dist = nd
                        stop_lab = lab
            # Lazy deletion: skip entries for scanned labels and entries
            # superseded by a later, strictly smaller distance.
            while heap:
                best_dist, best = heappop(heap)
                if not done[best] and best_dist == dist[best]:
                    break
            else:
                return None  # no augmenting path: some vertex set demands too few labels
            done[best] = True
            scanned.append(best)
            if match_vertex[best] < 0:
                break
            u = match_vertex[best]
            path_len = best_dist

        # Shift potentials so the augmenting path becomes tight while every
        # reduced cost stays non-negative; reset the sweep's entries.
        for lab in scanned:
            diff = dist[lab] - best_dist
            beta[lab] += diff
            owner = match_vertex[lab]
            if owner >= 0:
                alpha[owner] -= diff
            dist[lab] = INF
            done[lab] = False
        for _, lab in heap:
            dist[lab] = INF
        alpha[start] += best_dist

        # Flip the matching along the augmenting path.
        lab = best
        while True:
            u = pred[lab]
            next_lab = match_label[u]
            match_label[u] = lab
            match_vertex[lab] = u
            if u == start:
                break
            lab = next_lab

    return match_label, Dual(alpha, beta)
