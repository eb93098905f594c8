"""Brute-force oracles the tests compare the library against: k-factor
existence, rainbow perfect matchings and family automorphisms, all by plain
enumeration."""

from collections import Counter
from itertools import combinations, permutations, product

from rfl.graphs import BipartiteGraph, Edge


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
