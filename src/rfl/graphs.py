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
        for i, row in enumerate(self.x_rows):
            if row < 0 or row & ~full:
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
        """Mirrored view: bit i of column j set <=> edge {i+1, n+j+1}."""
        cols = [0] * self.n
        for i, row in enumerate(self.x_rows):
            bit = 1 << i
            r = row
            while r:
                j = (r & -r).bit_length() - 1
                cols[j] |= bit
                r &= r - 1
        return tuple(cols)

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

    def min_degree(self) -> int:
        return min(self.degree(v) for v in range(1, 2 * self.n + 1))

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


def build_complete_bipartite(
    a: int, b: int, x_offset: int, y_offset: int, n: int
) -> BipartiteGraph:
    """All edges between X-vertices x_offset+1..x_offset+a and Y-vertices
    n+y_offset+1..n+y_offset+b, inside half-order n."""
    if a < 0 or b < 0 or x_offset < 0 or y_offset < 0:
        raise GraphError("sizes and offsets must be nonnegative")
    if x_offset + a > n or y_offset + b > n:
        raise GraphError(f"block ({a},{b}) at offsets ({x_offset},{y_offset}) leaves 1..{n}")
    block = ((1 << b) - 1) << y_offset
    rows = [0] * n
    for i in range(x_offset, x_offset + a):
        rows[i] = block
    return BipartiteGraph(n, tuple(rows))


def quasi_complement(g: BipartiteGraph) -> BipartiteGraph:
    """Bipartite complement: {x,y} is an edge iff it is not an edge of g."""
    full = (1 << g.n) - 1
    return BipartiteGraph(g.n, tuple(row ^ full for row in g.x_rows))


def bowtie_join(
    g1: BipartiteGraph,
    g2: BipartiteGraph,
    x1: Iterable[int],
    y1: Iterable[int],
) -> BipartiteGraph:
    """Join g1 (on parts X1, Y1) with g2 (on the complementary parts).

    Both graphs live on the common vertex set [2n]; g1's edges must stay
    inside X1 x Y1 and g2's inside X2 x Y2.  The result is their union plus
    every cross edge X1 x Y2 and X2 x Y1.
    """
    n = g1.n
    if g2.n != n:
        raise GraphError(f"half-orders differ: {g1.n} vs {g2.n}")
    x1_bits = _vertex_bits(x1, 1, n)
    y1_bits = _vertex_bits(y1, n + 1, 2 * n)
    full = (1 << n) - 1
    y2_bits = full & ~y1_bits
    for i in range(n):
        in_x1 = bool(x1_bits >> i & 1)
        if g1.x_rows[i] & ~(y1_bits if in_x1 else 0):
            raise GraphError(f"g1 has an edge at X-vertex {i + 1} outside X1 x Y1")
        if g2.x_rows[i] & ~(0 if in_x1 else y2_bits):
            raise GraphError(f"g2 has an edge at X-vertex {i + 1} outside X2 x Y2")
    rows = []
    for i in range(n):
        cross = y2_bits if (x1_bits >> i & 1) else y1_bits
        rows.append(g1.x_rows[i] | g2.x_rows[i] | cross)
    return BipartiteGraph(n, tuple(rows))


def _vertex_bits(vertices: Iterable[int], lo: int, hi: int) -> int:
    mask = 0
    for v in vertices:
        if not (lo <= v <= hi):
            raise GraphError(f"vertex {v} outside part range {lo}..{hi}")
        mask |= 1 << (v - lo)
    return mask


def build_extremal(n: int, k: int) -> BipartiteGraph:
    """The spectral-extremal graph: one vertex (2n) of degree k-1 whose
    neighbors {1..k-1} are complete to Y, with {k..n} complete to Y minus 2n.

    The rows are written directly: k-1 full rows, then n-k+1 rows missing
    only bit n-1.  They equal the bowtie_join of a complete (k-1) x (n-1)
    block with the quasi-complement of a complete (n-k+1) x 1 block.  Edge
    count: n^2 - n + k - 1.
    """
    if k < 1 or n < k + 1:
        raise GraphError(f"need k >= 1 and n >= k+1, got (n,k) = ({n},{k})")
    full = (1 << n) - 1
    return BipartiteGraph(n, (full,) * (k - 1) + (full >> 1,) * (n - k + 1))


def build_join(params: ExtremalParams) -> BipartiteGraph:
    """Join-type comparison graph for (n, k, p): X1 = {1..p-1} complete to Y,
    X2 = {p..n} complete to the first n+k-p-1 Y-vertices.

    The rows are written directly: p-1 full rows, then n-p+1 rows of the
    first n+k-p-1 bits.  They equal the bowtie_join of a complete
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
    for its half-order and k, else None."""
    n = g.n
    deficient = [v for v in range(1, 2 * n + 1) if g.degree(v) == k - 1]
    if len(deficient) != 1:
        return None
    u = deficient[0]
    nbrs = tuple(sorted(g.neighbors(u)))
    if g == labeled_extremal_copy(n, k, u, nbrs):
        return (u, nbrs)
    return None


def is_extremal_isomorphic(g: BipartiteGraph, n: int, k: int) -> bool:
    """Whether g is isomorphic to build_extremal(n, k).

    Decided by canonical relabeling: the unique degree-(k-1) vertex goes to
    2n (after an X/Y swap if needed), its neighbors to {1..k-1}, remaining
    vertices in index order; then compare edge-for-edge.
    """
    if g.n != n:
        return False
    deficient = [v for v in range(1, 2 * n + 1) if g.degree(v) == k - 1]
    if len(deficient) != 1:
        return False
    u = deficient[0]
    if u <= n:
        g = g.transposed()
        u = u + n
    nbrs = sorted(g.neighbors(u))  # subset of X
    perm: dict[int, int] = {u: 2 * n}
    for target, v in enumerate(nbrs, start=1):
        perm[v] = target
    nbr_set = set(nbrs)
    rest_x = [v for v in range(1, n + 1) if v not in nbr_set]
    for target, v in enumerate(rest_x, start=k):
        perm[v] = target
    rest_y = [v for v in range(n + 1, 2 * n + 1) if v != u]
    for target, v in enumerate(rest_y, start=n + 1):
        perm[v] = target
    return g.relabeled(perm) == build_extremal(n, k)


def induced_delete_vertex(g: BipartiteGraph, v: int) -> BipartiteGraph:
    """Remove all edges at v, keeping the labeling (v becomes isolated)."""
    n = g.n
    if not (1 <= v <= 2 * n):
        raise GraphError(f"vertex {v} out of range 1..{2 * n}")
    if v <= n:
        rows = list(g.x_rows)
        rows[v - 1] = 0
        return BipartiteGraph(n, tuple(rows))
    bit = ~(1 << (v - n - 1))
    return BipartiteGraph(n, tuple(row & bit for row in g.x_rows))

