"""Balanced bipartite graphs on the vertex set [2n].

Vertices are labeled 1..2n with X = {1..n} and Y = {n+1..2n}.  Edges always
join X to Y.  Graphs are immutable value objects; adjacency is stored as one
neighbor bitset per X-vertex (bit j of row i set <=> edge {i+1, n+j+1}), with
a mirrored per-Y-vertex view for O(1) lookups from either side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

Edge = tuple[int, int]


class GraphError(ValueError):
    """Raised for malformed graphs, families, or out-of-range vertices."""


@dataclass(frozen=True)
class BipartiteGraph:
    """Balanced bipartite graph with parts X = {1..n}, Y = {n+1..2n}."""

    n: int
    x_rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"half-order must be positive, got {self.n}")
        if len(self.x_rows) != self.n:
            raise GraphError(f"expected {self.n} rows, got {len(self.x_rows)}")
        full = (1 << self.n) - 1
        if min(self.x_rows) < 0 or max(self.x_rows) > full:
            for i, row in enumerate(self.x_rows):  # name the first bad row
                if row < 0 or row > full:
                    raise GraphError(f"row {i + 1} has bits outside Y range")

    @classmethod
    def empty(cls, n: int) -> "BipartiteGraph":
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "BipartiteGraph":
        full = (1 << n) - 1
        return cls(n, (full,) * n)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "BipartiteGraph":
        rows = [0] * n
        for x, y in edges:
            if not (1 <= x <= n < y <= 2 * n):
                raise GraphError(f"edge ({x},{y}) leaves X=1..{n}, Y={n + 1}..{2 * n}")
            rows[x - 1] |= 1 << (y - n - 1)
        return cls(n, tuple(rows))

    @cached_property
    def y_cols(self) -> tuple[int, ...]:
        """Mirrored view: bit i of column j set <=> edge {i+1, n+j+1}.

        The rows go to a 0/1 byte matrix (unpackbits), which is transposed
        and packed back: time linear in its n^2 entries at every width."""
        n = self.n
        width = (n + 7) // 8
        raw = b"".join(row.to_bytes(width, "little") for row in self.x_rows)
        packed = np.frombuffer(raw, np.uint8).reshape(n, width)
        bits = np.unpackbits(packed, axis=1, bitorder="little")[:, :n]
        cols = np.packbits(bits.T, axis=1, bitorder="little")
        return tuple(int.from_bytes(col.tobytes(), "little") for col in cols)

    def has_edge(self, x: int, y: int) -> bool:
        if not (1 <= x <= self.n < y <= 2 * self.n):
            return False
        return bool(self.x_rows[x - 1] >> (y - self.n - 1) & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.x_rows)

    def edges(self) -> Iterator[Edge]:
        """Edges in lexicographic (x, y) order."""
        n = self.n
        for i, row in enumerate(self.x_rows):
            r = row
            while r:
                j = (r & -r).bit_length() - 1
                yield (i + 1, n + j + 1)
                r &= r - 1

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges())

    def degree(self, v: int) -> int:
        if 1 <= v <= self.n:
            return self.x_rows[v - 1].bit_count()
        if self.n < v <= 2 * self.n:
            return self.y_cols[v - self.n - 1].bit_count()
        raise GraphError(f"vertex {v} out of range 1..{2 * self.n}")

    def neighbors(self, v: int) -> tuple[int, ...]:
        if 1 <= v <= self.n:
            return tuple(self.n + j + 1 for j in _bits(self.x_rows[v - 1]))
        if self.n < v <= 2 * self.n:
            return tuple(i + 1 for i in _bits(self.y_cols[v - self.n - 1]))
        raise GraphError(f"vertex {v} out of range 1..{2 * self.n}")

    def with_edge(self, x: int, y: int) -> "BipartiteGraph":
        if not (1 <= x <= self.n < y <= 2 * self.n):
            raise GraphError(f"edge ({x},{y}) out of range")
        rows = list(self.x_rows)
        rows[x - 1] |= 1 << (y - self.n - 1)
        return BipartiteGraph(self.n, tuple(rows))

    def without_edge(self, x: int, y: int) -> "BipartiteGraph":
        if not (1 <= x <= self.n < y <= 2 * self.n):
            raise GraphError(f"edge ({x},{y}) out of range")
        rows = list(self.x_rows)
        rows[x - 1] &= ~(1 << (y - self.n - 1))
        return BipartiteGraph(self.n, tuple(rows))

    def is_connected(self) -> bool:
        """Connectivity over all 2n vertices (isolated vertices disconnect)."""
        n = self.n
        seen_x, seen_y = 1, 0
        frontier_x, frontier_y = 1, 0
        while frontier_x or frontier_y:
            new_y = 0
            for i in _bits(frontier_x):
                new_y |= self.x_rows[i]
            new_y &= ~seen_y
            new_x = 0
            for j in _bits(frontier_y):
                new_x |= self.y_cols[j]
            new_x &= ~seen_x
            seen_x |= new_x
            seen_y |= new_y
            frontier_x, frontier_y = new_x, new_y
        full = (1 << n) - 1
        return seen_x == full and seen_y == full

    def relabeled(self, perm: dict[int, int]) -> "BipartiteGraph":
        """Apply a part-preserving vertex permutation (X->X, Y->Y)."""
        n = self.n
        rows = [0] * n
        for x, y in self.edges():
            nx, ny = perm.get(x, x), perm.get(y, y)
            if not (1 <= nx <= n < ny <= 2 * n):
                raise GraphError("permutation does not preserve parts")
            rows[nx - 1] |= 1 << (ny - n - 1)
        return BipartiteGraph(n, tuple(rows))

    def transposed(self) -> "BipartiteGraph":
        """Swap the parts: X-vertex i trades places with Y-vertex n+i."""
        return BipartiteGraph(self.n, self.y_cols)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = (mask & -mask).bit_length() - 1
        yield b
        mask &= mask - 1


@dataclass(frozen=True)
class GraphFamily:
    """Ordered list of kn balanced bipartite graphs on the same [2n]."""

    n: int
    k: int
    members: tuple[BipartiteGraph, ...]

    def __post_init__(self):
        if self.k < 1:
            raise GraphError(f"k must be >= 1, got {self.k}")
        if len(self.members) != self.k * self.n:
            raise GraphError(
                f"family needs k*n = {self.k * self.n} members, got {len(self.members)}"
            )
        for i, g in enumerate(self.members):
            if g.n != self.n:
                raise GraphError(f"member {i + 1} has half-order {g.n}, expected {self.n}")

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, index: int) -> BipartiteGraph:
        return self.members[index]


@dataclass(frozen=True)
class ExtremalParams:
    """Parameters (n, k, p) for the extremal graph and its join-type rivals.

    p = k degenerates to the extremal graph itself.
    """

    n: int
    k: int
    p: int = field(default=-1)

    def __post_init__(self):
        if self.p == -1:
            object.__setattr__(self, "p", self.k)
        if self.k < 2:
            raise GraphError(f"k must be >= 2, got {self.k}")
        if self.n < 2 * self.k:
            raise GraphError(f"n must be >= 2k = {2 * self.k}, got {self.n}")
        if not (self.k <= self.p <= self.n - 1):
            raise GraphError(f"p must satisfy {self.k} <= p <= {self.n - 1}, got {self.p}")


def build_extremal(n: int, k: int) -> BipartiteGraph:
    """The spectral-extremal graph: one vertex (2n) of degree k-1 whose
    neighbors {1..k-1} are complete to Y, with {k..n} complete to Y minus 2n.

    The rows are written directly: k-1 full rows, then n-k+1 rows missing
    only bit n-1.  They equal the join of a complete (k-1) x (n-1) block
    with the quasi-complement of a complete (n-k+1) x 1 block (the tests
    check this against a composing oracle).  Edge count: n^2 - n + k - 1.
    """
    if k < 1 or n < k + 1:
        raise GraphError(f"need k >= 1 and n >= k+1, got (n,k) = ({n},{k})")
    full = (1 << n) - 1
    return BipartiteGraph(n, (full,) * (k - 1) + (full >> 1,) * (n - k + 1))


def build_join(params: ExtremalParams) -> BipartiteGraph:
    """Join-type comparison graph for (n, k, p): X1 = {1..p-1} complete to Y,
    X2 = {p..n} complete to the first n+k-p-1 Y-vertices.

    The rows are written directly: p-1 full rows, then n-p+1 rows of the
    first n+k-p-1 bits.  They equal the join of a complete
    (p-1) x (n+k-p-1) block with the empty graph, X1 = {1..p-1} and Y1 the
    first n+k-p-1 Y-vertices.  p = k reproduces build_extremal(n, k)
    edge-for-edge.
    """
    n, k, p = params.n, params.k, params.p
    b = n + k - p - 1  # |Y1|; the remaining p-k+1 Y-vertices form Y2
    return BipartiteGraph(n, ((1 << n) - 1,) * (p - 1) + ((1 << b) - 1,) * (n - p + 1))


def labeled_extremal_copy(
    n: int, k: int, deficient: int, neighbors: Iterable[int]
) -> BipartiteGraph:
    """The labeled extremal copy with given deficient vertex and its k-1
    neighbors: the complete graph minus all other edges at the deficient
    vertex, with its rows written directly."""
    if not (1 <= deficient <= 2 * n):
        raise GraphError(f"deficient vertex {deficient} out of range")
    nbrs = sorted(set(neighbors))
    if len(nbrs) != k - 1:
        raise GraphError(f"need exactly k-1 = {k - 1} neighbors, got {len(nbrs)}")
    in_x = deficient <= n
    for w in nbrs:
        if in_x and not (n < w <= 2 * n):
            raise GraphError(f"neighbor {w} must lie in Y")
        if not in_x and not (1 <= w <= n):
            raise GraphError(f"neighbor {w} must lie in X")
    full = (1 << n) - 1
    if in_x:  # the deficient X-row keeps only its neighbors' bits
        rows = [full] * n
        rows[deficient - 1] = sum(1 << (w - n - 1) for w in nbrs)
    else:  # every X-row but the neighbors' loses the deficient bit
        keep, cut = set(nbrs), full & ~(1 << (deficient - n - 1))
        rows = [full if x in keep else cut for x in range(1, n + 1)]
    return BipartiteGraph(n, tuple(rows))


def extremal_signature(g: BipartiteGraph, k: int) -> tuple[int, tuple[int, ...]] | None:
    """(deficient vertex, sorted neighbors) if g is a labeled extremal copy
    for its half-order and k, else None.

    Read from the rows: a copy deficient at an X-vertex has one row of k-1
    bits and every other row full; one deficient at a Y-vertex has n-k+1
    rows that miss the same single bit and every other row full.  For
    k >= n the deficient vertex is not the only one of degree k-1, so no
    graph is a copy."""
    n = g.n
    if not 1 <= k < n:
        return None
    full = (1 << n) - 1
    short = [(i, row) for i, row in enumerate(g.x_rows) if row != full]
    if len(short) == 1 and short[0][1].bit_count() == k - 1:
        i, row = short[0]
        return (i + 1, tuple(n + j + 1 for j in _bits(row)))
    if len(short) != n - k + 1:
        return None
    missing = full ^ short[0][1]
    if missing.bit_count() != 1 or any(row != short[0][1] for _i, row in short):
        return None
    cut = {i for i, _row in short}
    return (n + missing.bit_length(), tuple(i + 1 for i in range(n) if i not in cut))
