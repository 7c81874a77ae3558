"""Exhaustive reference implementations for small instances.

Everything here enumerates the full assignment space and exists only to
cross-check the solvers in tests and in the ``verify`` command.  The code
deliberately shares nothing with the solver modules: it uses only the data
model, including its feasibility checks and ``unary_part``, and it refuses
instances whose raw search space exceeds the guard.
"""

from __future__ import annotations

from fractions import Fraction

from .model import (
    DUMMY,
    FeasibilityError,
    IlapInstance,
    IqapInstance,
    LapInstance,
    lap_primal_feasible,
    require_dual_feasible,
    unary_part,
)

SEARCH_SPACE_GUARD = 10**6


class GuardExceeded(ValueError):
    """The instance's raw search space is too large for enumeration."""


def search_space_size(inst) -> int:
    """Product of the allowed-label counts over all vertices."""
    size = 1
    for labs in unary_part(inst).allowed:
        size *= len(labs)
    return size


def _check_guard(inst) -> None:
    size = search_space_size(inst)
    if size > SEARCH_SPACE_GUARD:
        raise GuardExceeded(
            f"search space of {size} assignments exceeds the guard of "
            f"{SEARCH_SPACE_GUARD}")


def _enumerate(inst, visit) -> None:
    """Backtracking over feasible assignments, pruning reused labels.

    Every non-dummy label must be fresh; the dummy label may repeat.
    ``visit(x, value)`` is called for each complete feasible assignment,
    where ``value`` is accumulated from direct cost lookups (including
    pairwise terms toward already placed neighbors for quadratic instances).
    """
    unary = unary_part(inst)
    edges_at: list[list] = [[] for _ in range(unary.num_vertices)]
    if isinstance(inst, IqapInstance):
        for e in inst.edges:
            # visit order is 0..n-1, so charge the edge at its later endpoint
            edges_at[e.v].append((e.u, e.cells, False))
    n = unary.num_vertices
    x = [DUMMY] * n
    used = 0  # bitmask over non-dummy labels

    def place(v: int, partial):
        nonlocal used
        if v == n:
            visit(list(x), partial)
            return
        for lab, c in zip(unary.allowed[v], unary.costs[v]):
            if lab != DUMMY:
                bit = 1 << lab
                if used & bit:
                    continue
                used |= bit
            x[v] = lab
            value = partial + c
            for other, cells, _ in edges_at[v]:
                value += cells.get((x[other], lab), 0)
            place(v + 1, value)
            if lab != DUMMY:
                used &= ~(1 << lab)
        x[v] = DUMMY

    place(0, 0)


def brute_force_optimum(inst):
    """Exact optimum and the complete set of optimal assignments.

    Returns ``(value, assignments)``; for a square instance with no perfect
    matching returns ``(None, [])``.  Two sweeps over the search space: one
    to find the optimum, one to collect every assignment within the
    tolerance window (exact equality for integral instances).
    """
    _check_guard(inst)
    best = None

    def track(_x, value):
        nonlocal best
        if best is None or value < best:
            best = value

    _enumerate(inst, track)
    if best is None:
        return None, []
    window = 0 if inst.integral else inst.atol
    optima = []

    def collect(x, value):
        if value <= best + window:
            optima.append(x)

    _enumerate(inst, collect)
    return best, optima


def _exact_optimum(inst: IqapInstance, optima) -> Fraction:
    """Exact optimum of ``inst``: the least exact cost over ``optima``.

    ``brute_force_optimum`` adds costs in floats, so on a float instance its
    value can lie below the exact optimum.  The ``optima`` it returns hold
    every assignment within the tolerance window of that value, the exact
    optimum's among them as long as the window exceeds the rounding.
    """
    unary = inst.unary

    def exact_cost(x):
        terms = [unary.cost(v, lab) for v, lab in enumerate(x)]
        terms += [e.cells.get((x[e.u], x[e.v]), 0) for e in inst.edges]
        return sum(map(Fraction, terms))

    return min(map(exact_cost, optima))


def _optimal_pairs(optima) -> set[tuple[int, int]]:
    """Pairs (vertex, label) used by at least one of ``optima``."""
    return {(v, lab) for x in optima for v, lab in enumerate(x)}


def minimally_assignable_pairs(inst) -> set[tuple[int, int]]:
    """Pairs (vertex, label) realized by at least one optimal assignment."""
    return _optimal_pairs(brute_force_optimum(inst)[1])


def _labels_unused_somewhere(optima, num_labels: int) -> set[int]:
    """Non-dummy labels left unassigned by at least one optimal assignment."""
    return {lab for x in optima for lab in set(range(num_labels)).difference(x)}


def _active_pairs(inst, dual) -> set[tuple[int, int]]:
    atol = inst.atol
    active = set()
    for v, (labs, cs) in enumerate(zip(inst.allowed, inst.costs)):
        av = dual.alpha[v]
        for lab, c in zip(labs, cs):
            b = 0 if lab == DUMMY else dual.beta[lab]
            if c - av - b <= atol:
                active.add((v, lab))
    return active


def check_dual_relative_interior(inst, dual) -> bool:
    """Whether ``dual`` lies in the relative interior of the dual optima.

    The tight constraints must be exactly the minimally assignable pairs.
    For dummy-label instances the sign constraints on the label potentials
    are part of the system as well: a potential must vanish exactly when
    some optimal assignment leaves its label unused.
    """
    if not isinstance(inst, (LapInstance, IlapInstance)):
        raise TypeError("dual checks cover unary instances only")
    require_dual_feasible(inst, dual)
    _, optima = brute_force_optimum(inst)
    if _active_pairs(inst, dual) != _optimal_pairs(optima):
        return False
    if isinstance(inst, LapInstance):
        return True
    atol = inst.atol
    zero_beta = {lab for lab, b in enumerate(dual.beta) if b >= -atol}
    return zero_beta == _labels_unused_somewhere(optima, inst.num_labels)


def check_primal_relative_interior(inst, mu) -> bool:
    """Whether ``mu`` lies in the relative interior of the primal optima.

    The support of ``mu`` must be exactly the minimally assignable pairs;
    for dummy-label instances a label's column mass must hit one exactly
    when every optimal assignment uses that label.
    """
    if not isinstance(inst, (LapInstance, IlapInstance)):
        raise TypeError("primal checks cover unary instances only")
    viol = lap_primal_feasible(inst, mu)
    if viol is not None:
        raise FeasibilityError(viol.message)
    _, optima = brute_force_optimum(inst)
    atol = inst.atol
    support = {(v, lab) for v, row in mu.items()
               for lab, value in row.items() if value > atol}
    if support != _optimal_pairs(optima):
        return False
    if isinstance(inst, LapInstance):
        return True
    col = [0] * inst.num_labels
    for v, row in mu.items():
        for lab, value in row.items():
            if lab != DUMMY:
                col[lab] += value
    saturated = {lab for lab, s in enumerate(col) if s >= 1 - atol}
    always_used = set(range(inst.num_labels)) - _labels_unused_somewhere(
        optima, inst.num_labels)
    return saturated == always_used
