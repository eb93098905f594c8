"""Within-part edge shifting and the bi-shifted fixpoint.

The (x, y)-shift with x < y in the same part rewires every edge at y whose
rewired copy at x is absent.  A graph fixed under all such shifts has an
edge set that is downward closed in both part orders: each X-neighborhood
is a prefix of Y and neighborhoods shrink as the X-index grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import BipartiteGraph, GraphError

ShiftStep = tuple[str, int, int]  # part "X"/"Y", x, y with x < y


@dataclass(frozen=True)
class ShiftTrace:
    """Every applied shift that changed the graph, in application order."""

    steps: tuple[ShiftStep, ...] = field(default=())

    def replay(self, g: BipartiteGraph) -> BipartiteGraph:
        for _part, x, y in self.steps:
            g = xy_shift(g, x, y)
        return g


def xy_shift(g: BipartiteGraph, x: int, y: int) -> BipartiteGraph:
    """Move every edge at y to x when the moved edge is not already present.

    x < y and both in X or both in Y.  Edge count is always preserved.
    """
    n = g.n
    if x >= y:
        raise GraphError(f"shift needs x < y, got ({x},{y})")
    if not (1 <= x < y <= n or n < x < y <= 2 * n):
        raise GraphError(f"({x},{y}) must lie in the same part of 1..{2 * n}")
    rows = list(g.x_rows)
    _shift_rows(rows, n, x, y)
    return BipartiteGraph(n, tuple(rows))


def _shift_rows(rows: list[int], n: int, x: int, y: int) -> bool:
    """Apply the (x, y)-shift in place to the X-rows of a graph with parts
    1..n and n+1..2n (x < y in one part, not checked here).  Returns whether
    any edge moved."""
    if y <= n:  # row y gives row x the Y-neighbours row x lacks
        movable = rows[y - 1] & ~rows[x - 1]
        rows[x - 1] |= movable
        rows[y - 1] ^= movable
        return bool(movable)
    # every X-vertex adjacent to y but not to x trades y for x
    bx, by = 1 << (x - n - 1), 1 << (y - n - 1)
    both = bx | by
    moved = False
    for i, row in enumerate(rows):
        if row & both == by:
            rows[i] = row ^ both
            moved = True
    return moved


def is_bi_shifted(g: BipartiteGraph) -> bool:
    """Fixed under every within-part shift: each row is a prefix of Y and
    rows are nested downward as the X-index grows."""
    prev = (1 << g.n) - 1
    for row in g.x_rows:
        if row & (row + 1):  # not of the form 2^d - 1
            return False
        if row & ~prev:
            return False
        prev = row
    return True


def bi_shift_fixpoint(g: BipartiteGraph) -> tuple[BipartiteGraph, ShiftTrace]:
    """Sweep all pairs (x, y), x < y, within X then within Y in lexicographic
    order until a full sweep changes nothing.

    Terminates: every applied change strictly decreases the sum of endpoint
    labels over all edges.  The sweep shifts a list of X-rows in place and
    builds one graph at the end.
    """
    n = g.n
    pairs = [("X", x, y) for x in range(1, n) for y in range(x + 1, n + 1)]
    pairs += [("Y", x, y) for x in range(n + 1, 2 * n) for y in range(x + 1, 2 * n + 1)]
    rows = list(g.x_rows)
    steps: list[ShiftStep] = []
    changed = True
    while changed:
        changed = False
        for step in pairs:
            if _shift_rows(rows, n, step[1], step[2]):
                steps.append(step)
                changed = True
    return BipartiteGraph(n, tuple(rows)), ShiftTrace(tuple(steps))


def shift_family(members: tuple[BipartiteGraph, ...]) -> tuple[tuple[BipartiteGraph, ...], tuple[ShiftTrace, ...]]:
    """Member-wise bi-shift fixpoint."""
    shifted, traces = [], []
    for g in members:
        s, t = bi_shift_fixpoint(g)
        shifted.append(s)
        traces.append(t)
    return tuple(shifted), tuple(traces)
