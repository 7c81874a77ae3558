"""Reading the records of instance text, for the readers in ``formats``.

``_read_records`` gives each run of records of one letter that spans at
least ``_MIN_RUN`` lines to a reader's block rule, a block of lines at a
time, and every other record, or a block with a fault, to its line rule.
Every number a line rule reads goes through a field rule, whose errors
name the token's line; a block rule reads whole columns through the
column forms of the same rules, which name nothing.
"""

from __future__ import annotations

import math
import re
import sys
from itertools import compress, count

from .model import _as_cost


class ParseError(ValueError):
    """Malformed instance text; carries a line number when one applies."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# What one step holds at most: a slice of the text with its lines, and the
# tokens of one block of lines.
_FIRST_SLICE = 1 << 12
_SLICE = 1 << 16
_BLOCK = 512
# The fewest lines a run of ``a`` or ``e`` records must span to be read in
# blocks; a shorter run costs less by line than a block's set-up.
_MIN_RUN = 8


def _slices(text: str):
    """Yield ``(first line number, lines)`` over slices of ``text`` cut
    after a newline, the lines as ``str.splitlines`` gives them.  Slices
    grow from 4 KiB to 64 KiB, so a reader that stops at the first record
    splits little of the text."""
    start, number, size = 0, 1, _FIRST_SLICE
    while start < len(text):
        end = text.find("\n", start + size) + 1 or len(text)
        lines = text[start:end].splitlines()
        yield number, lines
        number += len(lines)
        start, size = end, min(2 * size, _SLICE)


def _heads(lines) -> str:
    """The first character of each line; a blank line reads as a comment."""
    return "".join([raw.lstrip()[:1] or "c" for raw in lines])


def _records(lines, heads: str, first: int):
    """``(line number, tokens)`` for each record of ``lines``, the first of
    which is line ``first``: every line whose head is not ``c``.  The
    pipeline runs in C, with no Python frame per line."""
    numbered = zip(count(first), map(str.split, lines))
    if "c" not in heads:
        return numbered
    return compress(numbered, map("c".__ne__, heads))


def _read_records(text: str, line_rule, block_rules: dict) -> None:
    """Read the records of ``text`` in file order.

    A run of at least ``_MIN_RUN`` lines of records whose letter is in
    ``block_rules``, a ``letter -> (width, rule)`` map, is read in blocks
    of at most ``_BLOCK`` lines: ``rule`` gets the block's token columns
    after the letter, one list per field.  A rule raises ``ValueError`` on
    any fault, having changed nothing, and the block is then re-read
    through ``line_rule``, which reads every other record too; so the
    first fault in file order raises its line's message.  ``line_rule``
    takes the ``(line number, tokens)`` pairs of ``_records``, every record
    between two such runs at once, so short runs cost one call, not one
    per line.
    """
    for first, lines in _slices(text):
        heads = _heads(lines)
        done = 0
        # A run takes the comment and blank lines inside and after it.
        more = _MIN_RUN - 1
        for run in re.finditer(rf"a[ac]{{{more},}}|e[ec]{{{more},}}", heads):
            line_rule(_records(lines[done:run.start()],
                               heads[done:run.start()], first + done))
            letter = heads[run.start()]
            width, rule = block_rules.get(letter, (0, None))
            for start in range(run.start(), run.end(), _BLOCK):
                stop = min(start + _BLOCK, run.end())
                block = lines[start:stop]
                if rule is None or not _read_block(
                        letter, width, rule, block, heads[start:stop]):
                    line_rule(_records(block, heads[start:stop],
                                       first + start))
            done = run.end()
        line_rule(_records(lines[done:], heads[done:], first + done))


def _read_block(letter: str, width: int, rule, lines, heads: str) -> bool:
    """Pass one block of ``letter`` records to ``rule``; False on a fault.

    Every record line starts with ``letter``, which no number does.  So
    when the block splits into ``width`` tokens per record line with
    ``letter`` at every ``width``-th token, and the rule reads every other
    token as a number, each line holds exactly one record.
    """
    if "c" in heads:
        lines = [raw for raw, head in zip(lines, heads) if head != "c"]
        if not lines:
            return True
    tokens = " ".join(lines).split()
    if (len(tokens) != width * len(lines)
            or tokens[::width].count(letter) != len(lines)):
        return False
    try:
        rule(*(tokens[field::width] for field in range(1, width)))
    except ValueError:
        return False
    return True


# Field rules.  Every token a reader turns into a number goes through one
# of the three, and every error they raise names the token's line.


def _int_field(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line) from None


def _index_field(token: str, what: str, size: int, line: int) -> int:
    """A vertex, label or id token, which must lie in ``0..size - 1``."""
    value = _int_field(token, what, line)
    if not 0 <= value < size:
        raise ParseError(f"{what} {value} outside 0..{size - 1}", line)
    return value


def _cost_field(token: str, line: int):
    """A cost token as a normal cost: an int token as an exact int, any
    other numeric token as a float that ``_as_cost`` normalizes.

    An int beyond the float range reads as infinite, which is rejected as
    not finite.
    """
    try:
        value = int(token)
    except ValueError:
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"cost must be numeric, got {token!r}", line) from None
    else:
        if abs(value) <= sys.float_info.max:
            return value
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"cost must be finite, got {token!r}", line)
    return _as_cost(value, "cost")


def _pair_record(tokens, num_vertices: int, num_labels: int, pairs: dict,
                 line: int):
    """Read the ``vertex label cost`` tokens of an ``a`` record into
    ``pairs``, a ``(vertex, label) -> cost`` map, and return the pair;
    a pair already in ``pairs`` is an error."""
    v = _index_field(tokens[0], "vertex", num_vertices, line)
    lab = _index_field(tokens[1], "label", num_labels, line)
    cost = _cost_field(tokens[2], line)
    if (v, lab) in pairs:
        raise ParseError(f"duplicate assignment pair ({v}, {lab})", line)
    pairs[v, lab] = cost
    return v, lab


# Column rules.  The block forms of the field rules: each reads a block's
# column of tokens at once and raises a bare ``ValueError`` on any fault,
# which sends the block back to the field rules.


def _index_column(tokens, size: int) -> list:
    """``_index_field`` over a column."""
    values = list(map(int, tokens))
    if min(values) < 0 or max(values) >= size:
        raise ValueError
    return values


def _cost_column(tokens) -> list:
    """``_cost_field`` over a column; int tokens are read at once."""
    try:
        costs = list(map(int, tokens))
    except ValueError:
        return [_cost_field(token, None) for token in tokens]
    if max(costs) > sys.float_info.max or min(costs) < -sys.float_info.max:
        raise ValueError
    return costs


def _new_entries(mapping: dict, items, count: int) -> dict:
    """``dict(items)``, which must hold ``count`` keys, none of them in
    ``mapping``."""
    new = dict(items)
    if len(new) < count or not mapping.keys().isdisjoint(new):
        raise ValueError
    return new


def _pair_block(vertices, labels, costs, num_vertices: int, num_labels: int,
                pairs: dict):
    """``_pair_record`` over a block's ``vertex label cost`` columns:
    returns the block's pairs and its new ``pairs`` entries, which the
    caller adds."""
    keys = list(zip(_index_column(vertices, num_vertices),
                    _index_column(labels, num_labels)))
    return keys, _new_entries(pairs, zip(keys, _cost_column(costs)),
                              len(keys))
