"""Shifting a dual optimum into the relative interior of the optimal set.

Any dual optimum generally keeps constraints tight that no optimal
assignment realizes.  Walking the strongly connected components of the
exchange digraph (vertices connected when swapping their labels stays inside
the tight-edge subgraph) in reverse topological order, and spreading a
positive slack ``delta`` between the vertex and label potentials of each
component that has incoming condensation edges, removes exactly those
spurious tight edges.  Afterwards every tight edge lies on some optimal
assignment, which characterizes the relative interior of the dual optimal
set.  The sweep costs time linear in the number of allowed (vertex, label)
pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lap import EqualitySubgraph, equality_subgraph
from .model import (Assignment, FeasibilityError, LapDual, LapInstance,
                    _half_cost, _tight_slack)


def _tarjan_components(adjacency):
    """Strongly connected components of a digraph, iteratively.

    ``adjacency[v]`` lists the successors of ``v``.  Returns
    ``(components, component_of)`` with components listed in a topological
    order of the condensation (ancestors first); Tarjan emits them in the
    reverse of that order, so one traversal suffices.
    """
    n = len(adjacency)
    index = [0] * n          # 0 means unvisited, else discovery index + 1
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    emitted: list[list[int]] = []
    counter = 1
    for root in range(n):
        if index[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(adjacency[root]))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not index[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(adjacency[w])))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == v:
                        break
                emitted.append(comp)
    components = emitted[::-1]
    component_of = [0] * n
    for ci, comp in enumerate(components):
        for v in comp:
            component_of[v] = ci
    return components, component_of


def _check_matching_in_subgraph(subgraph: EqualitySubgraph, x: Assignment):
    n = subgraph.num_vertices
    if len(x) != n:
        raise FeasibilityError(
            f"assignment has {len(x)} entries, expected {n}")
    seen = [False] * n
    for v, lab in enumerate(x):
        if not (0 <= lab < n) or seen[lab]:
            raise FeasibilityError(
                f"assignment is not a perfect matching: label {lab} reused or out of range")
        seen[lab] = True
        if not subgraph.contains(v, lab):
            raise FeasibilityError(
                f"matched edge ({v}, {lab}) is missing from the tight-edge subgraph")


def _inverse(x: Assignment) -> list[int]:
    inv = [0] * len(x)
    for v, lab in enumerate(x):
        inv[lab] = v
    return inv


@dataclass(frozen=True)
class ExchangeDigraph:
    """Directed graph on vertices encoding label exchanges along tight edges.

    There is an edge (u, v) exactly when u != v and the pair (u, x[v]) is in
    the tight-edge subgraph, i.e. u could take v's label without leaving it.
    ``components`` lists the strongly connected components in a topological
    order of the condensation and ``component_of`` is consistent with it;
    ``has_incoming[i]`` flags components with incoming condensation edges.
    """

    adjacency: tuple[tuple[int, ...], ...]
    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]
    has_incoming: tuple[bool, ...]

    def edges(self):
        for u, vs in enumerate(self.adjacency):
            for v in vs:
                yield (u, v)


def build_exchange_digraph(subgraph: EqualitySubgraph,
                           x: Assignment) -> ExchangeDigraph:
    """Materialized exchange digraph with its condensation data."""
    _check_matching_in_subgraph(subgraph, x)
    n = subgraph.num_vertices
    xinv = _inverse(x)
    adjacency = tuple(
        tuple(xinv[lab] for lab in subgraph.adjacency[u] if lab != x[u])
        for u in range(n))
    components, component_of = _tarjan_components(adjacency)
    has_incoming = [False] * len(components)
    for u in range(n):
        cu = component_of[u]
        for v in adjacency[u]:
            if component_of[v] != cu:
                has_incoming[component_of[v]] = True
    return ExchangeDigraph(adjacency,
                           tuple(tuple(c) for c in components),
                           tuple(component_of), tuple(has_incoming))


def perfectly_matchable_edges(subgraph: EqualitySubgraph,
                              x: Assignment) -> set[tuple[int, int]]:
    """Edges of ``subgraph`` contained in at least one perfect matching.

    An edge (v, lab) qualifies exactly when it is matched by ``x`` or its
    exchange-digraph counterpart stays inside one strongly connected
    component (and hence lies on a directed cycle).
    """
    digraph = build_exchange_digraph(subgraph, x)
    xinv = _inverse(x)
    comp = digraph.component_of
    result = set()
    for v, labs in enumerate(subgraph.adjacency):
        cv = comp[v]
        for lab in labs:
            if lab == x[v] or comp[xinv[lab]] == cv:
                result.add((v, lab))
    return result


def shift_to_relative_interior(inst: LapInstance, dual: LapDual,
                               x: Assignment, *,
                               delta_log: list | None = None) -> LapDual:
    """Move an optimal dual into the relative interior of the optimal set.

    ``dual`` must be dual optimal and ``x`` an optimal assignment, which is
    certified locally by requiring ``x`` to be a perfect matching inside the
    tight-edge subgraph of ``dual``; violating inputs raise.  The returned
    dual has the same objective and exactly the edges realized by some
    optimal assignment tight.  ``delta_log``, when given, collects the slack
    value spread at each processed component, in processing order.

    The components swept are those of ``build_exchange_digraph`` on the
    ``equality_subgraph`` of ``dual``.

    The per-component slack is computed from the already-updated potentials,
    and it is floored at twice the largest slack that counts as tight
    (``model._tight_slack``) so removed edges clear the tightness test.  On
    an integral instance that floor is 0: its slacks are exact, as long as
    the halved slacks are (up to about 2**50).
    """
    subgraph = equality_subgraph(inst, dual)
    try:
        digraph = build_exchange_digraph(subgraph, x)
    except FeasibilityError as exc:
        raise FeasibilityError(
            f"inputs are not an optimal pair: {exc}") from exc
    alpha = list(dual.alpha)
    beta = list(dual.beta)
    floor = 2 * _tight_slack(inst)
    components = digraph.components
    for ci in range(len(components) - 1, -1, -1):
        if not digraph.has_incoming[ci]:
            continue
        comp = components[ci]
        comp_labels = {x[v] for v in comp}
        slack = None
        for v in comp:
            av = alpha[v]
            for lab, c in zip(inst.allowed[v], inst.costs[v]):
                if lab in comp_labels:
                    continue
                s = c - av - beta[lab]
                if slack is None or s < slack:
                    slack = s
        if slack is None:
            delta = 1
        elif slack < floor:
            delta = floor
        else:
            delta = slack
        half = _half_cost(delta)
        for v in comp:
            alpha[v] += half
        for lab in comp_labels:
            beta[lab] -= half
        if delta_log is not None:
            delta_log.append(delta)
    return LapDual(alpha, beta)
