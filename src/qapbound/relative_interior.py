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

from .lap import equality_subgraph
from .model import (Assignment, Dual, FeasibilityError, LapInstance,
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


def _exchange_adjacency(rows, x: Assignment):
    """Exchange digraph of the tight ``rows`` and a matching ``x`` in them.

    There is an edge (u, v) exactly when u != v and ``x[v]`` is in
    ``rows[u]``, i.e. u could take v's label without leaving the tight
    edges.  Returns ``(adjacency, xinv)``: the successors of each vertex,
    and the vertex ``x`` matches to each label.  Raises ``FeasibilityError``
    unless ``x`` is a perfect matching inside ``rows``.
    """
    n = len(rows)
    if len(x) != n:
        raise FeasibilityError(
            f"assignment has {len(x)} entries, expected {n}")
    xinv = [-1] * n
    for v, lab in enumerate(x):
        if not (0 <= lab < n) or xinv[lab] >= 0:
            raise FeasibilityError(
                f"assignment is not a perfect matching: label {lab} reused or out of range")
        xinv[lab] = v
        if lab not in rows[v]:
            raise FeasibilityError(
                f"matched edge ({v}, {lab}) is missing from the tight-edge subgraph")
    adjacency = [[xinv[lab] for lab in labs if lab != x[u]]
                 for u, labs in enumerate(rows)]
    return adjacency, xinv


def _condense(rows, x: Assignment):
    """Condensation of the exchange digraph of ``rows`` and ``x``.

    Returns ``(components, component_of, has_incoming, xinv)``: the strongly
    connected components in a topological order of the condensation, the
    component of each vertex, a flag per component that has incoming
    condensation edges, and the vertex ``x`` matches to each label.
    """
    adjacency, xinv = _exchange_adjacency(rows, x)
    components, component_of = _tarjan_components(adjacency)
    has_incoming = [False] * len(components)
    for u, vs in enumerate(adjacency):
        cu = component_of[u]
        for v in vs:
            if component_of[v] != cu:
                has_incoming[component_of[v]] = True
    return components, component_of, has_incoming, xinv


def perfectly_matchable_edges(rows, x: Assignment) -> set[tuple[int, int]]:
    """Tight edges contained in at least one perfect matching.

    ``rows`` are tight rows as ``lap.equality_subgraph`` returns them and
    ``x`` a perfect matching inside them.  An edge (v, lab) qualifies
    exactly when v and the vertex ``x`` matches to ``lab`` share a strongly
    connected component of the exchange digraph: the edge is then matched
    by ``x`` or lies on a directed cycle.
    """
    _, component_of, _, xinv = _condense(rows, x)
    return {(v, lab) for v, labs in enumerate(rows) for lab in labs
            if component_of[xinv[lab]] == component_of[v]}


def shift_to_relative_interior(inst: LapInstance, dual: Dual,
                               x: Assignment, *,
                               delta_log: list | None = None) -> Dual:
    """Move an optimal dual into the relative interior of the optimal set.

    ``dual`` must be dual optimal and ``x`` an optimal assignment, which is
    certified locally by requiring ``x`` to be a perfect matching inside the
    tight-edge subgraph of ``dual``; violating inputs raise.  The returned
    dual has the same objective and exactly the edges realized by some
    optimal assignment tight.  ``delta_log``, when given, collects the slack
    value spread at each processed component, in processing order.

    The components swept are those of the exchange digraph of ``x`` in
    the ``equality_subgraph`` rows of ``dual``.

    The per-component slack is the least slack of an edge leaving the
    component, computed from the already-updated potentials, floored at
    twice the largest slack that counts as tight (``model._tight_slack``,
    ``t`` here) so removed edges clear the tightness test.  A component
    that no edge leaves takes ``max(1, 8·t)``.  An edge into it, tight at
    a slack of at least ``-t``, gains half of that and reaches at least
    ``3·t``; its own component, shifted later by at most that slack or by
    ``2·t``, takes back at most half the slack or ``t``, so the edge ends
    above ``t``.  On an integral instance ``t`` is 0: its slacks are
    exact, as long as the halved slacks are (up to about 2**50).
    """
    rows = equality_subgraph(inst, dual)
    try:
        components, _, has_incoming, _ = _condense(rows, x)
    except FeasibilityError as exc:
        raise FeasibilityError(
            f"inputs are not an optimal pair: {exc}") from exc
    alpha = list(dual.alpha)
    beta = list(dual.beta)
    floor = 2 * _tight_slack(inst)
    for ci in range(len(components) - 1, -1, -1):
        if not has_incoming[ci]:
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
        delta = max(1, 4 * floor) if slack is None else max(slack, floor)
        half = _half_cost(delta)
        for v in comp:
            alpha[v] += half
        for lab in comp_labels:
            beta[lab] -= half
        if delta_log is not None:
            delta_log.append(delta)
    return Dual(alpha, beta)
