"""Exact-degree bipartite subgraphs by augmenting paths on bitset rows.

A subgraph with prescribed degrees is a bipartite b-matching, found in the
manner of Hopcroft and Karp (SIAM J. Comput. 1973) on the same neighbor
bitsets as ``rfl.graphs`` (bit j of row i <=> edge {i+1, n+j+1}).  A greedy
pass gives each X-row its lowest Y-bits while both ends have capacity left.
Breadth-first augmenting paths then complete it.  They run over the residual
graph: unchosen candidate edges go X -> Y, chosen ones Y -> X, and each
frontier is one bitset.  A path starts at an X-vertex below its degree and
ends at a Y-vertex below its degree; when none is left to find the
subgraph cannot be completed (max-flow min-cut).
"""

from __future__ import annotations

from .graphs import BipartiteGraph, Edge, GraphError


def degree_constrained_subgraph(
    n: int,
    candidate_edges: list[Edge],
    caps_x: list[int],
    caps_y: list[int],
) -> list[Edge] | None:
    """A subgraph of the candidate edges where X-vertex i has degree exactly
    caps_x[i-1] and Y-vertex n+j degree exactly caps_y[j-1], as its edges in
    candidate order, or None if there is none.

    Raises GraphError for n < 1, caps not of length n, a negative cap, a
    candidate that does not join X = 1..n to Y = n+1..2n, or a repeated
    candidate.
    """
    if n < 1:
        raise GraphError(f"half-order must be positive, got {n}")
    if len(caps_x) != n or len(caps_y) != n:
        raise GraphError(f"expected {n} caps a side, got {len(caps_x)} and {len(caps_y)}")
    if min(caps_x) < 0 or min(caps_y) < 0:
        raise GraphError("degree caps must be nonnegative")
    rows = [0] * n
    for x, y in candidate_edges:
        if not (1 <= x <= n < y <= 2 * n):
            raise GraphError(f"candidate edge ({x},{y}) leaves X=1..{n}, Y={n + 1}..{2 * n}")
        bit = 1 << (y - n - 1)
        if rows[x - 1] & bit:
            raise GraphError(f"candidate edge ({x},{y}) is repeated")
        rows[x - 1] |= bit
    chosen = _exact_degree(rows, caps_x, caps_y)
    if chosen is None:
        return None
    return [(x, y) for x, y in candidate_edges if chosen[x - 1] >> (y - n - 1) & 1]


def k_factor_exists(g: BipartiteGraph, k: int) -> bool:
    """Whether g contains a spanning k-regular subgraph."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    caps = [k] * g.n
    return _exact_degree(g.x_rows, caps, caps) is not None


def _exact_degree(rows, caps_x: list[int], caps_y: list[int]) -> list[int] | None:
    """Rows of a subgraph of `rows` with the exact degrees, or None.  Row i
    is X-vertex i and bit j Y-vertex j; the parts may differ in size, as
    len(caps_x) and len(caps_y) give them."""
    if sum(caps_x) != sum(caps_y):
        return None
    return _augment(rows, _greedy(rows, caps_x, caps_y), caps_x, caps_y)


def _greedy(rows, caps_x: list[int], caps_y: list[int]) -> list[int]:
    """Each X-row in turn takes its lowest Y-bits while both ends have
    capacity left."""
    left_y = list(caps_y)
    open_y = 0
    for j, cap in enumerate(caps_y):
        if cap:
            open_y |= 1 << j
    chosen = []
    for row, cap in zip(rows, caps_x):
        free, pick = row & open_y, 0
        while cap and free:
            bit = free & -free
            free ^= bit
            pick |= bit
            cap -= 1
            j = bit.bit_length() - 1
            left_y[j] -= 1
            if not left_y[j]:
                open_y ^= bit
        chosen.append(pick)
    return chosen


def _augment(rows, chosen: list[int], caps_x: list[int], caps_y: list[int]) -> list[int] | None:
    """Complete `chosen`, any subgraph of `rows` with degrees at most the
    caps (whose sums agree), to exact degrees by shortest augmenting paths;
    None if it cannot be completed."""
    chosen = list(chosen)
    left_x = [cap - row.bit_count() for cap, row in zip(caps_x, chosen)]
    sources = 0  # the X-vertices below their degree
    for i, left in enumerate(left_x):
        if left:
            sources |= 1 << i
    if not sources:  # the cap sums agree, so every Y-degree is exact too
        return chosen
    cols = [0] * len(caps_y)  # the chosen edges by Y-vertex: bit i of cols[j] <=> (i, j) chosen
    for i, row in enumerate(chosen):
        while row:
            bit = row & -row
            cols[bit.bit_length() - 1] |= 1 << i
            row ^= bit
    left_y = [cap - col.bit_count() for cap, col in zip(caps_y, cols)]
    sinks = 0  # the Y-vertices below their degree
    for j, left in enumerate(left_y):
        if left:
            sinks |= 1 << j
    while sources:
        # breadth-first layers: y_layers[d] is reached from x_layers[d]
        # along unchosen edges, x_layers[d + 1] from y_layers[d] along chosen ones
        x_layers, y_layers = [sources], []
        seen_x, seen_y, frontier = sources, 0, sources
        while True:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                i = bit.bit_length() - 1
                reach |= rows[i] & ~chosen[i]
                frontier ^= bit
            reach &= ~seen_y
            if not reach:
                return None
            y_layers.append(reach)
            if reach & sinks:
                break
            seen_y |= reach
            while reach:
                bit = reach & -reach
                frontier |= cols[bit.bit_length() - 1]
                reach ^= bit
            frontier &= ~seen_x
            if not frontier:
                return None
            seen_x |= frontier
            x_layers.append(frontier)
        # walk one path back from a sink, flipping its edges
        end = y_layers[-1] & sinks
        j = (end & -end).bit_length() - 1
        left_y[j] -= 1
        if not left_y[j]:
            sinks ^= 1 << j
        for depth in range(len(y_layers) - 1, -1, -1):
            layer = x_layers[depth]
            while True:  # an X-vertex of this layer with an unchosen edge to j
                bit = layer & -layer
                i = bit.bit_length() - 1
                if (rows[i] & ~chosen[i]) >> j & 1:
                    break
                layer ^= bit
            chosen[i] |= 1 << j
            cols[j] |= bit
            if not depth:
                left_x[i] -= 1
                if not left_x[i]:
                    sources ^= bit
                break
            back = chosen[i] & y_layers[depth - 1]
            j = (back & -back).bit_length() - 1
            chosen[i] ^= 1 << j
            cols[j] ^= bit
    return chosen
