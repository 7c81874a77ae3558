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
from dataclasses import dataclass
from heapq import heappop, heappush

from .model import LapDual, LapInstance, require_dual_feasible

INF = math.inf


@dataclass(frozen=True)
class EqualitySubgraph:
    """Bipartite graph of dual constraints that hold with equality.

    ``adjacency[v]`` is the sorted tuple of labels whose constraint at vertex
    ``v`` is tight within the instance tolerance.
    """

    adjacency: tuple[tuple[int, ...], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.adjacency)

    def contains(self, v: int, lab: int) -> bool:
        return lab in self.adjacency[v]

    def edges(self):
        for v, labs in enumerate(self.adjacency):
            for lab in labs:
                yield (v, lab)

    @property
    def num_edges(self) -> int:
        return sum(len(labs) for labs in self.adjacency)


def equality_subgraph(inst: LapInstance, dual: LapDual) -> EqualitySubgraph:
    """Edges whose dual constraint is tight within the instance tolerance.

    Rejects duals that are infeasible beyond tolerance, since the set of
    tight constraints is not meaningful for them.
    """
    require_dual_feasible(inst, dual)
    atol = inst.atol
    adjacency = []
    for v, (labs, cs) in enumerate(zip(inst.allowed, inst.costs)):
        av = dual.alpha[v]
        adjacency.append(tuple(
            lab for lab, c in zip(labs, cs) if c - av - dual.beta[lab] <= atol))
    return EqualitySubgraph(tuple(adjacency))


def solve_lap(inst: LapInstance):
    """Optimal assignment and dual-optimal potentials, or None if infeasible.

    Returns ``(x, dual)`` where ``x`` is an optimal assignment (list mapping
    vertex to label) and ``dual`` is feasible with ``alpha[v] + beta[x[v]]``
    equal to the assignment cost at every vertex.  Returns None when the
    allowed-label bipartite graph has no perfect matching.

    Each augmentation is a Dijkstra sweep from one unmatched vertex.  Labels
    are taken in heap order of ``(distance, label)``: smallest tentative
    distance first, ties to the smallest label index, so the assignment and
    dual returned for an instance do not depend on heap internals.  A label
    is pushed whenever its distance strictly drops; stale entries are
    skipped when popped.  The sweep costs O(arcs scanned * log n), and the
    potential update after it touches only the labels it scanned.
    """
    n = inst.num_vertices
    if n == 0:
        return [], LapDual([], [])
    alpha = [min(cs) for cs in inst.costs]
    zero = 0 if inst.integral else 0.0
    beta = [zero] * n
    match_label = [-1] * n   # vertex -> label
    match_vertex = [-1] * n  # label -> vertex

    for start in range(n):
        dist = [INF] * n
        pred = [-1] * n
        done = [False] * n
        scanned = []
        heap = []
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
                if nd < dist[lab]:
                    dist[lab] = nd
                    pred[lab] = u
                    heappush(heap, (nd, lab))
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
        # reduced cost stays non-negative.
        for lab in scanned:
            diff = dist[lab] - best_dist
            beta[lab] += diff
            owner = match_vertex[lab]
            if owner >= 0:
                alpha[owner] -= diff
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

    return match_label, LapDual(alpha, beta)
