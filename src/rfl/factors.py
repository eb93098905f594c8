"""Rainbow k-factor search, classical factor existence, and proof-object
matchings.

The exact searches treat members with equal edge sets as one class, so they
never re-explore the permutations of identical members, and they branch on
the most constrained item (an open vertex or a class with one member left),
as in exact-cover search.  Free edges are per-vertex bitmasks counted with
``int.bit_count``; a flow check on the members' union prunes at the root.
Absence is only ever reported when the tree has been exhausted; running out
of node budget is a distinct third status.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_

from .flow import k_factor_exists
from .graphs import BipartiteGraph, Edge, GraphError, GraphFamily, _bits
from .shifting import is_bi_shifted
from .spectral import spectral_radius

__all__ = [
    "FOUND",
    "ABSENT",
    "BUDGET_EXHAUSTED",
    "RainbowFactor",
    "MatchingSchedule",
    "SearchResult",
    "FamilyAuditReport",
    "MemberAudit",
    "k_factor_exists",
    "rainbow_k_factor_search",
    "rainbow_perfect_matching_search",
    "diagonal_matching_schedule",
    "audit_shifted_family",
    "brute_force_k_factor_exists",
    "brute_force_rainbow_matching",
]

FOUND = "found"
ABSENT = "absent"
BUDGET_EXHAUSTED = "budget-exhausted"

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class RainbowFactor:
    """One edge per graph index whose union is a simple k-regular spanning
    subgraph of [2n]."""

    n: int
    k: int
    assignment: tuple[tuple[int, Edge], ...]

    def validate(self, family: GraphFamily | None = None) -> None:
        """Check the bijection, simplicity, and k-regularity invariants, and
        (given the family) that each edge belongs to its assigned graph."""
        n, k = self.n, self.k
        indices = [i for i, _ in self.assignment]
        if sorted(indices) != list(range(1, k * n + 1)):
            raise GraphError("assignment indices are not exactly 1..kn")
        edges = [e for _, e in self.assignment]
        if len(set(edges)) != len(edges):
            raise GraphError("assigned edges are not pairwise distinct")
        degree = {v: 0 for v in range(1, 2 * n + 1)}
        for x, y in edges:
            if not (1 <= x <= n < y <= 2 * n):
                raise GraphError(f"edge ({x},{y}) out of range")
            degree[x] += 1
            degree[y] += 1
        bad = {v: d for v, d in degree.items() if d != k}
        if bad:
            raise GraphError(f"union is not {k}-regular at vertices {sorted(bad)}")
        if family is not None:
            for i, (x, y) in self.assignment:
                if not family[i - 1].has_edge(x, y):
                    raise GraphError(f"edge ({x},{y}) not in graph {i}")


@dataclass(frozen=True)
class MatchingSchedule:
    """k pairwise edge-disjoint perfect matchings on [2n]."""

    n: int
    k: int
    matchings: tuple[tuple[Edge, ...], ...]

    def validate(self) -> None:
        n = self.n
        all_edges: set[Edge] = set()
        for m in self.matchings:
            xs = sorted(x for x, _ in m)
            ys = sorted(y for _, y in m)
            if xs != list(range(1, n + 1)) or ys != list(range(n + 1, 2 * n + 1)):
                raise GraphError("matching is not perfect on [2n]")
            all_edges.update(m)
        if len(all_edges) != self.k * n:
            raise GraphError("matchings are not pairwise edge-disjoint")


@dataclass(frozen=True)
class SearchResult:
    status: str  # FOUND | ABSENT | BUDGET_EXHAUSTED
    assignment: tuple[tuple[int, Edge], ...] | None
    nodes_visited: int

    def factor(self, n: int, k: int) -> RainbowFactor:
        if self.status != FOUND or self.assignment is None:
            raise GraphError(f"no factor available on a {self.status!r} result")
        return RainbowFactor(n, k, self.assignment)


class _Budget(Exception):
    pass


def rainbow_k_factor_search(family: GraphFamily, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Exact search for a rainbow k-factor of the family.

    Members with equal edge sets form one class; the search decides how many
    edges each class supplies where, and hands out member indices only once a
    factor is found.  One node is one call of the recursive step.  At every
    node the step returns at once if an open vertex has fewer free edges than
    its missing degree, or a class fewer free edges than members left to
    serve.  Otherwise it branches on the item with the fewest free
    (class, edge) options: an open vertex, given all its missing edges at
    once, or a class with one member left, given its one edge.  The root
    also runs a flow check: does the union of the members have a k-factor at
    all?  ``budget`` caps the nodes; running out is reported as
    BUDGET_EXHAUSTED, never as absence.
    """
    return _search(family, budget)


def rainbow_perfect_matching_search(
    members: list[BipartiteGraph] | tuple[BipartiteGraph, ...],
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Rainbow perfect matching of exactly n graphs of half-order n
    (the k = 1 case of the factor search)."""
    members = tuple(members)
    if not members:
        raise GraphError("empty member list")
    n = members[0].n
    if len(members) != n:
        raise GraphError(f"need exactly n = {n} graphs, got {len(members)}")
    return _search(GraphFamily(n, 1, members), budget)


def _search(family: GraphFamily, budget: int) -> SearchResult:
    n, k, members = family.n, family.k, family.members
    classes: dict[tuple[int, ...], list[int]] = {}  # rows -> member indices
    for i, g in enumerate(members, start=1):
        classes.setdefault(g.x_rows, []).append(i)
    class_rows = list(classes)
    class_cols = [members[ix[0] - 1].y_cols for ix in classes.values()]
    need = [len(ix) for ix in classes.values()]
    union = BipartiteGraph(n, tuple(reduce(or_, column) for column in zip(*class_rows)))

    # Vertices are 0-based within their part; X-vertex x and Y-vertex y are
    # joined by edge (x, y).  A vertex is open while its deficit is positive.
    deficit_x = [k] * n
    deficit_y = [k] * n
    used_rows = [0] * n  # bit y of used_rows[x] <=> edge (x, y) is taken
    used_cols = [0] * n  # bit x of used_cols[y] <=> edge (x, y) is taken
    chosen: list[tuple[int, int, int]] = []  # (class, x, y)
    nodes = 0

    def place(c: int, x: int, y: int) -> None:
        need[c] -= 1
        deficit_x[x] -= 1
        deficit_y[y] -= 1
        used_rows[x] |= 1 << y
        used_cols[y] |= 1 << x
        chosen.append((c, x, y))

    def unplace(c: int, x: int, y: int) -> None:
        chosen.pop()
        used_cols[y] &= ~(1 << x)
        used_rows[x] &= ~(1 << y)
        deficit_y[y] += 1
        deficit_x[x] += 1
        need[c] += 1

    def descend() -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _Budget
        open_x = [x for x in range(n) if deficit_x[x]]
        if not open_x:
            return True
        if nodes == 1 and not k_factor_exists(union, k):
            return False
        open_y = [y for y in range(n) if deficit_y[y]]
        mask_x = sum(1 << x for x in open_x)
        mask_y = sum(1 << y for y in open_y)
        free_rows = [mask_y & ~used for used in used_rows]
        free_cols = [mask_x & ~used for used in used_cols]
        open_rows = [(x, free_rows[x]) for x in open_x]
        open_cols = [(y, free_cols[y]) for y in open_y]
        live = [c for c in range(len(need)) if need[c]]

        # Free (class, edge) options at each open vertex, and the distinct
        # free edges they reach; a class's free edges against its need.
        options_x, reach_x = [0] * n, [0] * n
        options_y, reach_y = [0] * n, [0] * n
        best, best_cost = None, None
        for c in live:
            rows, cols = class_rows[c], class_cols[c]
            free = 0
            for x, free_row in open_rows:
                edges = rows[x] & free_row
                if edges:
                    count = edges.bit_count()
                    free += count
                    options_x[x] += count
                    reach_x[x] |= edges
            if free < need[c]:
                return False
            if need[c] == 1 and (best_cost is None or free < best_cost):
                best, best_cost = ("class", c), free
            for y, free_col in open_cols:
                edges = cols[y] & free_col
                if edges:
                    options_y[y] += edges.bit_count()
                    reach_y[y] |= edges
        for side, opens, deficit, options, reach in (
            ("x", open_x, deficit_x, options_x, reach_x),
            ("y", open_y, deficit_y, options_y, reach_y),
        ):
            for v in opens:
                if reach[v].bit_count() < deficit[v]:
                    return False
                if best_cost is None or options[v] < best_cost:
                    best, best_cost = (side, v), options[v]

        kind, item = best
        if kind == "class":
            for x in open_x:
                for y in _bits(class_rows[item][x] & free_rows[x]):
                    place(item, x, y)
                    if descend():
                        return True
                    unplace(item, x, y)
            return False
        if kind == "x":
            options = [
                (c, item, y)
                for y in _bits(reach_x[item])
                for c in live
                if class_rows[c][item] >> y & 1
            ]
            deficit = deficit_x[item]
        else:
            options = [
                (c, x, item)
                for x in _bits(reach_y[item])
                for c in live
                if class_cols[c][item] >> x & 1
            ]
            deficit = deficit_y[item]
        for combo in combinations(options, deficit):
            if not _completes(combo, need):
                continue
            for option in combo:
                place(*option)
            if descend():
                return True
            for option in reversed(combo):
                unplace(*option)
        return False

    try:
        found = descend()
    except _Budget:
        return SearchResult(BUDGET_EXHAUSTED, None, nodes)
    if not found:
        return SearchResult(ABSENT, None, nodes)
    slots = [iter(ix) for ix in classes.values()]
    result = tuple(sorted((next(slots[c]), (x + 1, n + y + 1)) for c, x, y in chosen))
    RainbowFactor(n, k, result).validate(family)
    return SearchResult(FOUND, result, nodes)


def _completes(combo: tuple[tuple[int, int, int], ...], need: list[int]) -> bool:
    """Whether (class, x, y) options take distinct edges and no class more
    often than it still has members."""
    taken = [c for c, _x, _y in combo]
    edges = {(x, y) for _c, x, y in combo}
    return len(edges) == len(combo) and all(taken.count(c) <= need[c] for c in taken)


def diagonal_matching_schedule(n: int, k: int) -> MatchingSchedule:
    """The k anti-diagonal perfect matchings: matching i pairs X-vertex j
    with n+i-j for j < i and with 2n+i-j for j >= i."""
    if not (1 <= k <= n):
        raise GraphError(f"need 1 <= k <= n, got k = {k}, n = {n}")
    matchings = []
    for i in range(1, k + 1):
        edges = tuple(
            (j, n + i - j) if j <= i - 1 else (j, 2 * n + i - j) for j in range(1, n + 1)
        )
        matchings.append(edges)
    schedule = MatchingSchedule(n, k, tuple(matchings))
    schedule.validate()
    return schedule


def boundary_edges(n: int, k: int) -> dict[int, Edge]:
    """The edges {j, 2n+k-j} for k <= j <= n, keyed by j.

    j = k and j = n give the two corner edges {k, 2n} and {n, n+k}; the
    interior range k+1..n-1 is the presence test of the shifted-family audit.
    """
    return {j: (j, 2 * n + k - j) for j in range(k, n + 1)}


@dataclass(frozen=True)
class MemberAudit:
    index: int
    rho: float
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


@dataclass(frozen=True)
class FamilyAuditReport:
    n: int
    k: int
    rho_threshold: float
    members: tuple[MemberAudit, ...]

    @property
    def violations(self) -> tuple[MemberAudit, ...]:
        return tuple(m for m in self.members if m.violated)


def audit_shifted_family(
    family: GraphFamily, rho_threshold: float, tol: float | None = None
) -> FamilyAuditReport:
    """For each bi-shifted member meeting the spectral threshold, check the
    structural facts a member above the extremal radius must satisfy:

    - the interior boundary edges {j, 2n+k-j}, k+1 <= j <= n-1, are present;
    - minimum degree at least k-1;
    - every anti-diagonal schedule edge other than the two corner edges is
      present.

    Members within 1e-9 of the threshold count as meeting it: the reported
    radius is the lower end of a certified bracket and never overshoots the
    true radius, so a member exactly at the threshold may read just below.
    """
    n, k = family.n, family.k
    corner = {(k, 2 * n), (n, n + k)}
    interior = [e for j, e in boundary_edges(n, k).items() if k + 1 <= j <= n - 1]
    schedule = diagonal_matching_schedule(n, k)
    schedule_edges = [e for m in schedule.matchings for e in m if e not in corner]
    audits = []
    for idx, g in enumerate(family.members, start=1):
        if not is_bi_shifted(g):
            raise GraphError(f"member {idx} is not bi-shifted")
        rho = spectral_radius(g, tol=tol).value
        meets = rho >= rho_threshold - 1e-9
        if not meets:
            audits.append(MemberAudit(idx, rho, False, None, None, None, ()))
            continue
        missing_interior = tuple(e for e in interior if not g.has_edge(*e))
        missing_schedule = tuple(e for e in schedule_edges if not g.has_edge(*e))
        audits.append(
            MemberAudit(
                index=idx,
                rho=rho,
                meets_threshold=True,
                interior_edges_present=not missing_interior,
                min_degree_ok=g.min_degree() >= k - 1,
                schedule_edges_present=not missing_schedule,
                missing=missing_interior + missing_schedule,
            )
        )
    return FamilyAuditReport(n, k, rho_threshold, tuple(audits))


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
    from itertools import product

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
