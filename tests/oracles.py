"""Brute-force oracles the tests compare the library against: k-factor
existence, rainbow perfect matchings and family automorphisms, all by plain
enumeration, exact-degree subgraph existence by its cut condition over every
set of X-vertices, connected components by breadth-first search, the 4x4
equitable quotient matrix of the join graphs with its characteristic
polynomial, against which the library's integer coefficients are checked,
the complete-block, quasi-complement and bowtie-join builders that
compose the extremal and join graphs the library writes row by row, the
extremal signature for every k at once by degrees and comparison with a
built copy, isomorphism to the extremal graph by canonical relabeling, the
exact sign of rho(g) - y by integer elimination, on the twin quotient of
each Y-component or on the whole matrix, the
deletion of one vertex's edges, the cyclic Latin squares with or without
added edge orbits, the check, in Fractions, of a lattice witness that a
family has no rainbow factor, the solvability of the integer relaxation by
a dense Hermite reduction, and the k anti-diagonal perfect matchings
with their validator, and the shifted-family audit as three separate
checks."""

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from typing import Iterable

import numpy as np

from rfl.graphs import (
    BipartiteGraph,
    Edge,
    ExtremalParams,
    GraphError,
    GraphFamily,
    build_extremal,
    labeled_extremal_copy,
)
from rfl.shifting import is_bi_shifted
from rfl.spectral import biquadratic_coeffs


def brute_force_k_factor_exists(g: BipartiteGraph, k: int) -> bool:
    """Oracle: enumerate every way each X-vertex picks k neighbors and check
    the Y-degrees.  Exponential; for n <= 4 only."""
    n = g.n
    choices = []
    for x in range(1, n + 1):
        nbrs = g.neighbors(x)
        if len(nbrs) < k:
            return False
        choices.append(list(combinations(nbrs, k)))

    def rec(i: int, ydeg: dict[int, int]) -> bool:
        if i == n:
            return all(d == k for d in ydeg.values())
        for combo in choices[i]:
            if any(ydeg[y] + 1 > k for y in combo):
                continue
            for y in combo:
                ydeg[y] += 1
            if rec(i + 1, ydeg):
                return True
            for y in combo:
                ydeg[y] -= 1
        return False

    return rec(0, {y: 0 for y in range(n + 1, 2 * n + 1)})


def exact_degree_exists(n: int, edges: list[Edge], caps_x: list[int], caps_y: list[int]) -> bool:
    """Oracle: whether the edges hold a subgraph where X-vertex i has degree
    caps_x[i-1] and Y-vertex n+j degree caps_y[j-1], for the X-vertices
    1..n and the Y-vertices n+1..n+len(caps_y), so the parts may differ in
    size.  By max-flow min-cut on source -> X -> Y -> sink, exactly when the
    cap sums agree and every A subset of X has
    sum_{x in A} caps_x <= sum_y min(caps_y, |N(y) & A|).  Exponential in n."""
    if sum(caps_x) != sum(caps_y):
        return False
    nbrs = [{x for x, y in edges if y == n + j} for j in range(1, len(caps_y) + 1)]
    for size in range(1, n + 1):
        for a in combinations(range(1, n + 1), size):
            demand = sum(caps_x[x - 1] for x in a)
            supply = sum(min(cap, len(nb.intersection(a))) for cap, nb in zip(caps_y, nbrs))
            if demand > supply:
                return False
    return True


def brute_force_rainbow_matching(
    members: list[BipartiteGraph] | tuple[BipartiteGraph, ...],
) -> tuple[tuple[int, Edge], ...] | None:
    """Oracle: enumerate all ways to take one edge per member and test the
    perfect-matching property directly."""
    members = tuple(members)
    n = members[0].n
    edge_lists = [list(g.edges()) for g in members]
    if any(not edges for edges in edge_lists):
        return None
    for combo in product(*edge_lists):
        xs = {x for x, _ in combo}
        ys = {y for _, y in combo}
        if len(xs) == n and len(ys) == n:
            return tuple((i + 1, e) for i, e in enumerate(combo))
    return None


def check_lattice_witness(family, witness) -> bool:
    """Oracle: whether witness = (f, g, h) proves that the family has no
    rainbow k-factor.  f holds a rational for each X-vertex 1..n, g for each
    Y-vertex n+1..2n and h for each member 1..kn, as Fractions or as their
    strings.  A factor takes kn edges, one from each member, with degree k
    at every vertex; summing f(x) + g(y) + h(i) over them gives
    k sum f + k sum g + sum h.  So if every term is an integer on every
    edge of every member and that total is not, no factor exists (nor even
    an integer weighting of the members' edges with those degree and member
    sums)."""
    n, k, members = family.n, family.k, family.members
    f, g, h = ([Fraction(v) for v in part] for part in witness)
    if (len(f), len(g), len(h)) != (n, n, len(members)):
        return False
    for i, member in enumerate(members):
        for x in range(n):
            for y in range(n):
                if member.x_rows[x] >> y & 1 and (f[x] + g[y] + h[i]).denominator != 1:
                    return False
    return (k * sum(f) + k * sum(g) + sum(h)).denominator != 1


def relaxation_solvable(n: int, k: int, class_rows, need) -> bool:
    """Oracle: whether the integer relaxation of a rainbow k-factor has a
    solution: an integer s (of any sign) on each edge (x, y) of each class c
    with degree k at every vertex and total need[c] over each class c.  That
    is A s = b, with one column e_x + e_y + e_c per edge (X-vertices, then
    Y-vertices, then classes) and b = (k, ..., k, need), decided by a plain
    dense Hermite reduction: integer column operations bring A to lower
    echelon form, and b is then solved for by forward substitution."""
    target = [k] * (2 * n) + list(need)
    height = len(target)
    rest = [
        [int(i in (x, n + y, 2 * n + c)) for i in range(height)]
        for c, rows in enumerate(class_rows)
        for x in range(n)
        for y in range(n)
        if rows[x] >> y & 1
    ]
    pivots = []
    for i in range(height):
        # Euclid on entry i: subtract multiples of the column with the
        # smallest nonzero entry until one column holds the gcd
        while True:
            hits = [col for col in rest if col[i]]
            if len(hits) <= 1:
                break
            small = min(hits, key=lambda col: abs(col[i]))
            for col in hits:
                if col is not small:
                    q = col[i] // small[i]
                    col[:] = [a - q * b for a, b in zip(col, small)]
        if hits:
            pivots.append((i, hits[0]))
            rest = [col for col in rest if col is not hits[0]]
    residual = target
    for i, col in pivots:  # col is zero above row i
        if residual[i] % col[i]:
            return False
        q = residual[i] // col[i]
        residual = [a - q * b for a, b in zip(residual, col)]
    return not any(residual)


def cyclic_latin(n: int, added: Iterable[tuple[int, int, int]] = ()) -> list[BipartiteGraph]:
    """The colour classes G_i = {(x, y) : x + y = i mod n}, i = 0..n-1 on
    0-based vertices, of the cyclic Latin square, which has a transversal iff
    n is odd (for even n, a parity argument rules one out).

    Each (i, x, y) in added joins the 0-based cell (x, y) to G_i, together
    with its image under (x, y) -> (x + n/2, y - n/2) for even n.  That map
    fixes every class, so it stays an automorphism of the family, while a
    cell off G_i's diagonal breaks the parity argument."""
    cells = [{(x, y) for x in range(n) for y in range(n) if (x + y) % n == i} for i in range(n)]
    for i, x, y in added:
        cells[i] |= {(x, y), ((x + n // 2) % n, (y - n // 2) % n)}
    return [BipartiteGraph.from_edges(n, [(x + 1, n + y + 1) for x, y in c]) for c in cells]


def brute_force_automorphisms(members) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Oracle: every (transpose, sx, sy) over all vertex permutations that
    maps the members onto themselves as a multiset (0-based vertices).
    Without transpose edge (x, y) goes to (sx[x], sy[y]); with it, to
    (sy[y], sx[x])."""
    n = members[0].n
    count = Counter(g.x_rows for g in members)
    found = []
    for sx in permutations(range(n)):
        for sy in permutations(range(n)):
            for transpose in (0, 1):
                images = Counter()
                for rows, c in count.items():
                    image = [0] * n
                    for x, row in enumerate(rows):
                        for y in range(n):
                            if row >> y & 1:
                                if transpose:
                                    image[sy[y]] |= 1 << sx[x]
                                else:
                                    image[sx[x]] |= 1 << sy[y]
                    images[tuple(image)] += c
                if images == count:
                    found.append((transpose, sx, sy))
    return found


def bfs_y_components(g: BipartiteGraph) -> list[int]:
    """Oracle: the Y-vertex sets of the connected components of g that have
    an edge, as bitsets (bit j for Y-vertex n+j+1), by breadth-first search
    over vertex neighbor lists."""
    n = g.n
    seen: set[int] = set()
    blocks = []
    for start in range(n + 1, 2 * n + 1):
        if start in seen or not g.neighbors(start):
            continue
        seen.add(start)
        queue, block = deque([start]), 0
        while queue:
            v = queue.popleft()
            if v > n:
                block |= 1 << (v - n - 1)
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        blocks.append(block)
    return blocks


def radius_sign(g: BipartiteGraph, y: float) -> int:
    """Oracle: the exact sign (-1, 0 or 1) of rho(g) - y, for a float y >= 0,
    one Y-component and its twin classes at a time.

    rho(g) is the largest of its components' radii, so the sign is the
    largest of theirs.  In a component, let the Y-twin classes (equal
    neighborhoods) have sizes D and common neighbor counts G, so that
    B^T B = P G P^T with P the class indicator and P^T P = D.  With y = p / q,
    p > 0, the form of A = p^2 I - q^2 B^T B is p^2 |v|^2 on the vectors that
    sum to 0 over each class, A keeps the span of P's columns, and on
    v = P u it is u^T (p^2 D - q^2 D G D) u.  So A is positive (semi)definite
    exactly when that integer matrix, one row a class, is: the sign comes
    from ``_definite_sign`` on it, as ``radius_sign_dense`` takes it from A.
    """
    p, q = Fraction(y).as_integer_ratio()
    if p < 0:
        raise ValueError(f"need y >= 0, got {y}")
    if p == 0:  # rho >= 0, and rho = 0 without edges
        return 1 if any(g.x_rows) else 0
    sign = -1
    for block in bfs_y_components(g):
        cols = Counter(
            sum((row >> j & 1) << i for i, row in enumerate(g.x_rows))
            for j in range(g.n)
            if block >> j & 1
        )
        classes = list(cols.items())
        a = [
            [
                (p * p * d if s == t else 0) - q * q * d * e * (col & other).bit_count()
                for t, (other, e) in enumerate(classes)
            ]
            for s, (col, d) in enumerate(classes)
        ]
        sign = max(sign, _definite_sign(a))
        if sign == 1:
            break
    return sign


def radius_sign_dense(g: BipartiteGraph, y: float) -> int:
    """Oracle: the sign of rho(g) - y, for a float y >= 0, from the whole
    n x n matrix.  rho(g)^2 is the largest eigenvalue of B^T B, so with
    y = p / q in lowest terms rho < y exactly when A = p^2 I - q^2 B^T B is
    positive definite, and rho <= y exactly when A is positive
    semidefinite."""
    p, q = Fraction(y).as_integer_ratio()
    if p < 0:
        raise ValueError(f"need y >= 0, got {y}")
    n = g.n
    cols = [sum((row >> j & 1) << i for i, row in enumerate(g.x_rows)) for j in range(n)]
    a = [
        [(p * p if i == j else 0) - q * q * (cols[i] & cols[j]).bit_count() for j in range(n)]
        for i in range(n)
    ]
    return _definite_sign(a)


def _definite_sign(a: list[list[int]]) -> int:
    """-1 if the symmetric integer matrix a is positive definite, 0 if it is
    only semidefinite, else 1; a is overwritten.

    One fraction-free (Bareiss) elimination on the upper triangle.  After
    the positive pivots taken so far, the rows P, entry (i, j) holds the
    minor det a[P + i, P + j] and ``last`` is det a[P, P] > 0, so every
    division is exact and each entry has the sign of the Schur
    complement's.  All pivots positive is Sylvester's criterion: definite.
    A negative pivot, or a zero one with a nonzero entry in its row, is a
    Schur complement that is not semidefinite; a zero pivot on a zero row is
    passed over, as that row and column meet no later pivot.
    """
    n = len(a)
    last, definite = 1, True
    for k in range(n):
        pivot = a[k][k]
        if pivot < 0 or (pivot == 0 and any(a[k][k + 1 :])):
            return 1
        if pivot == 0:
            definite = False
            continue
        for i in range(k + 1, n):
            aki = a[k][i]
            a[i][i:] = [(x * pivot - aki * z) // last for x, z in zip(a[i][i:], a[k][i:])]
        last = pivot
    return -1 if definite else 0


@dataclass(frozen=True)
class QuotientMatrix4:
    """4x4 equitable quotient matrix over the blocks (X1, X2, Y1, Y2)."""

    entries: tuple[tuple[float, ...], ...]
    partition_sizes: tuple[int, int, int, int]

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

    def char_poly_coeffs(self) -> tuple[float, float]:
        """(c2, c0) of the biquadratic characteristic polynomial
        x^4 - c2 x^2 + c0."""
        m = self.as_array()
        upper = m[:2, 2:]
        lower = m[2:, :2]
        prod = upper @ lower
        return float(np.trace(prod)), float(np.linalg.det(prod))


def quotient_matrix(params: ExtremalParams) -> QuotientMatrix4:
    """Quotient matrix of build_join(params); p = k gives the extremal graph's."""
    n, k, p = params.n, params.k, params.p
    b = n + k - p - 1
    entries = (
        (0.0, 0.0, float(b), float(p - k + 1)),
        (0.0, 0.0, float(b), 0.0),
        (float(p - 1), float(n - p + 1), 0.0, 0.0),
        (float(p - 1), 0.0, 0.0, 0.0),
    )
    return QuotientMatrix4(entries, (p - 1, n - p + 1, b, p - k + 1))


def extremal_charpoly(n: int, k: int, x: float) -> float:
    """Characteristic polynomial of the extremal graph's quotient matrix:
    x^4 - [n(n-1) + (k-1)] x^2 + (n-1)(n-k+1)(k-1)."""
    c2, c0 = biquadratic_coeffs(n, k, k)
    return x**4 - c2 * x**2 + c0


def join_charpoly(params: ExtremalParams, x: float) -> float:
    """Characteristic polynomial of the join graph's quotient matrix."""
    c2, c0 = biquadratic_coeffs(params.n, params.k, params.p)
    return x**4 - c2 * x**2 + c0


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


def extremal_signatures_by_copy(
    g: BipartiteGraph, ks: Iterable[int]
) -> dict[int, tuple[int, tuple[int, ...]] | None]:
    """Oracle: for each k in ks, (deficient vertex, sorted neighbors) if g is
    a labeled extremal copy for its half-order and k, else None.  The
    deficient vertex is the only vertex of degree k-1, and g must equal the
    copy built from it and its neighbors.  Each vertex's neighbors are
    listed once, by scanning every cell, for all k."""
    n, rows = g.n, g.x_rows
    adjacent = [tuple(n + y + 1 for y in range(n) if row >> y & 1) for row in rows]
    adjacent += [tuple(x + 1 for x in range(n) if rows[x] >> y & 1) for y in range(n)]
    by_degree: dict[int, list[int]] = {}
    for v, nbrs in enumerate(adjacent, start=1):  # vertices 1..2n
        by_degree.setdefault(len(nbrs), []).append(v)
    signatures = {}
    for k in ks:
        deficient = by_degree.get(k - 1, ())
        signatures[k] = None
        if len(deficient) == 1:
            u = deficient[0]
            if g == _extremal_copy(n, k, u, adjacent[u - 1]):
                signatures[k] = (u, adjacent[u - 1])
    return signatures


@cache
def _extremal_copy(n: int, k: int, u: int, nbrs: tuple[int, ...]) -> BipartiteGraph:
    return labeled_extremal_copy(n, k, u, nbrs)


def _vertex_bits(vertices: Iterable[int], lo: int, hi: int) -> int:
    mask = 0
    for v in vertices:
        if not (lo <= v <= hi):
            raise GraphError(f"vertex {v} outside part range {lo}..{hi}")
        mask |= 1 << (v - lo)
    return mask


def induced_delete_vertex(g: BipartiteGraph, v: int) -> BipartiteGraph:
    """Remove all edges at v, keeping the labeling (v becomes isolated).
    No longer part of the library, which deletes no vertices."""
    n = g.n
    if not (1 <= v <= 2 * n):
        raise GraphError(f"vertex {v} out of range 1..{2 * n}")
    if v <= n:
        rows = list(g.x_rows)
        rows[v - 1] = 0
        return BipartiteGraph(n, tuple(rows))
    bit = ~(1 << (v - n - 1))
    return BipartiteGraph(n, tuple(row & bit for row in g.x_rows))


def is_extremal_isomorphic(g: BipartiteGraph, n: int, k: int) -> bool:
    """Oracle: whether g is isomorphic to build_extremal(n, k).  No longer
    part of the library, which recognizes labeled copies by
    extremal_signature.

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


def validate_matching_schedule(n: int, k: int, matchings) -> None:
    """Oracle: raise GraphError unless ``matchings`` are k pairwise
    edge-disjoint perfect matchings on [2n]."""
    all_edges: set[Edge] = set()
    for m in matchings:
        xs = sorted(x for x, _ in m)
        ys = sorted(y for _, y in m)
        if xs != list(range(1, n + 1)) or ys != list(range(n + 1, 2 * n + 1)):
            raise GraphError("matching is not perfect on [2n]")
        all_edges.update(m)
    if len(matchings) != k or len(all_edges) != k * n:
        raise GraphError("matchings are not k pairwise edge-disjoint ones")


def diagonal_matching_schedule(n: int, k: int) -> tuple[tuple[Edge, ...], ...]:
    """Oracle: the k anti-diagonal perfect matchings, validated.  Matching i
    pairs X-vertex j with n+i-j for j < i and with 2n+i-j for j >= i; its
    matching k holds the two corner edges {k, 2n} and {n, n+k}."""
    if not (1 <= k <= n):
        raise GraphError(f"need 1 <= k <= n, got k = {k}, n = {n}")
    matchings = tuple(
        tuple((j, n + i - j) if j <= i - 1 else (j, 2 * n + i - j) for j in range(1, n + 1))
        for i in range(1, k + 1)
    )
    validate_matching_schedule(n, k, matchings)
    return matchings


@dataclass(frozen=True)
class ThreeCheckAudit:
    """One member's verdict under the three-check audit."""

    index: int
    meets_threshold: bool
    interior_edges_present: bool | None
    min_degree_ok: bool | None
    schedule_edges_present: bool | None
    missing: tuple[Edge, ...]

    @property
    def violated(self) -> bool:
        return self.meets_threshold and not (
            self.interior_edges_present and self.min_degree_ok and self.schedule_edges_present
        )


def three_check_audit(family: GraphFamily, rho_threshold: float) -> tuple[ThreeCheckAudit, ...]:
    """Oracle: the shifted-family audit as three separate checks on each
    bi-shifted member whose radius is at least the threshold, decided
    exactly by radius_sign: the interior
    boundary edges {j, 2n+k-j}, k+1 <= j <= n-1, are present; the minimum
    degree, counted edge by edge, is at least k-1; and every schedule edge
    other than the corners {k, 2n} and {n, n+k} is present.  ``missing``
    lists the absent interior edges first, then the other absent schedule
    edges, each once."""
    n, k = family.n, family.k
    corners = {(k, 2 * n), (n, n + k)}
    interior = [(j, 2 * n + k - j) for j in range(k + 1, n)]
    schedule = [e for m in diagonal_matching_schedule(n, k) for e in m if e not in corners]
    audits = []
    for idx, g in enumerate(family.members, start=1):
        if not is_bi_shifted(g):
            raise GraphError(f"member {idx} is not bi-shifted")
        if radius_sign(g, rho_threshold) < 0:
            audits.append(ThreeCheckAudit(idx, False, None, None, None, ()))
            continue
        degree = [0] * (2 * n + 1)
        for x, y in g.edges():
            degree[x] += 1
            degree[y] += 1
        missing_interior = tuple(e for e in interior if not g.has_edge(*e))
        missing_schedule = tuple(e for e in schedule if not g.has_edge(*e))
        audits.append(
            ThreeCheckAudit(
                idx,
                True,
                not missing_interior,
                min(degree[1:]) >= k - 1,
                not missing_schedule,
                missing_interior + tuple(e for e in missing_schedule if e not in interior),
            )
        )
    return tuple(audits)
