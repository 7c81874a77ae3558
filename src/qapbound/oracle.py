"""Reference checks of the solvers, for the tests and the ``verify`` command.

The enumerations cover the full assignment space, so they refuse instances
whose raw search space exceeds the guard.  ``certificate_checks`` checks an
assignment and a dual of a LAP or ILAP against each other at any size,
exactly on integral input.  The code deliberately shares nothing with the
solver modules: it uses only the data model, including its feasibility
checks and ``unary_part``.
"""

from __future__ import annotations

from fractions import Fraction

from .model import (
    DUMMY,
    FeasibilityError,
    IlapInstance,
    IqapInstance,
    LapInstance,
    _tight_slack,
    require_dual_feasible,
    require_feasible,
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
            edges_at[e.v].append((e.u, e.cells))
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
            for other, cells in edges_at[v]:
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
    window = _tight_slack(inst)
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
    edges = [(e.u, e.v, e.cells) for e in inst.edges]

    def exact_cost(x):
        terms = [unary.cost(v, lab) for v, lab in enumerate(x)]
        terms += [cells.get((x[u], x[v]), 0) for u, v, cells in edges]
        return sum(map(Fraction, terms))

    return min(map(exact_cost, optima))


def _optimal_pairs(optima) -> set[tuple[int, int]]:
    """Pairs (vertex, label) used by at least one of ``optima``."""
    return {(v, lab) for x in optima for v, lab in enumerate(x)}


def _labels_unused_somewhere(optima, num_labels: int) -> set[int]:
    """Non-dummy labels left unassigned by at least one optimal assignment."""
    return {lab for x in optima for lab in set(range(num_labels)).difference(x)}


def _active_pairs(inst, dual) -> set[tuple[int, int]]:
    tight = _tight_slack(inst)
    active = set()
    for v, (labs, cs) in enumerate(zip(inst.allowed, inst.costs)):
        av = dual.alpha[v]
        for lab, c in zip(labs, cs):
            b = 0 if lab == DUMMY else dual.beta[lab]
            if c - av - b <= tight:
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
    tight = _tight_slack(inst)
    zero_beta = {lab for lab, b in enumerate(dual.beta) if b >= -tight}
    return zero_beta == _labels_unused_somewhere(optima, inst.num_labels)


def certificate_checks(inst, x, dual) -> list[tuple[str, bool, str]]:
    """Whether assignment ``x`` and ``dual`` prove each other optimal for
    the LAP or ILAP ``inst``, without enumeration: ``x`` is feasible,
    ``dual`` is feasible, and the dual objective equals the value of ``x``.
    Returns one ``(check, ok, detail)`` per check.

    Every number is read as a ``Fraction``, and a constraint or the equality
    holds within ``_tight_slack(inst)``: exactly on an integral instance,
    whose ``atol`` can exceed 1 and would hide a violation of one half, and
    within ``atol`` on a float one.
    """
    window = Fraction(_tight_slack(inst))
    try:
        require_feasible(inst, x)
    except FeasibilityError as exc:
        value, primal = None, (False, str(exc))
    else:
        value = sum(Fraction(inst.cost(v, lab)) for v, lab in enumerate(x))
        primal = (True, "")
    objective = sum(map(Fraction, [*dual.alpha, *dual.beta]))
    if value is None:
        equal = (False, "no value to compare")
    else:
        equal = (abs(objective - value) <= window,
                 f"value {_shown(value)}, dual objective {_shown(objective)}")
    return [("assignment is feasible", *primal),
            ("dual is feasible", *_dual_violation(inst, dual, window)),
            ("dual objective equals the assignment's value", *equal)]


def _dual_violation(inst, dual, window: Fraction) -> tuple[bool, str]:
    """``(ok, detail)`` of the dual constraints of ``inst`` within
    ``window``: a non-positive ``beta`` on a dummy-label instance, and at
    each allowed pair a slack of at least ``-window``, the dummy's
    potential being 0."""
    if (len(dual.alpha) != inst.num_vertices
            or len(dual.beta) != inst.num_labels):
        return False, "dual dimensions do not match the instance"
    beta = list(map(Fraction, dual.beta))
    if isinstance(inst, IlapInstance):
        for lab, b in enumerate(beta):
            if b > window:
                return False, f"beta[{lab}] = {_shown(b)} exceeds zero"
    for v, (labs, cs) in enumerate(zip(inst.allowed, inst.costs)):
        av = Fraction(dual.alpha[v])
        for lab, c in zip(labs, cs):
            slack = Fraction(c) - av - (0 if lab == DUMMY else beta[lab])
            if slack < -window:
                return False, (f"constraint at vertex {v}, label {lab} "
                               f"violated by {_shown(-slack)}")
    return True, ""


def _shown(q: Fraction) -> str:
    """``q`` as an int when it is one, else as its nearest float."""
    return str(q.numerator if q.denominator == 1 else float(q))
