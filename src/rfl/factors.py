"""Rainbow k-factor search, classical factor existence, and proof-object
matchings.

The exact searches are plain backtracking over family indices in order, with
edges tried lexicographically and a flow-based completion-feasibility prune
every few levels.  Absence is only ever reported when the tree has been
exhausted; running out of node budget is a distinct third status.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flow import degree_constrained_subgraph, k_factor_exists
from .graphs import BipartiteGraph, Edge, GraphError, GraphFamily
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
DEFAULT_PRUNE_INTERVAL = 4


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


def rainbow_k_factor_search(
    family: GraphFamily,
    budget: int = DEFAULT_BUDGET,
    prune_interval: int = DEFAULT_PRUNE_INTERVAL,
) -> SearchResult:
    """Exact backtracking for a rainbow k-factor of the family.

    Indices are assigned in family order; at each index the member's edges
    are tried lexicographically, skipping used edges and saturated endpoints.
    Every prune_interval levels a flow check asks whether the remaining
    degree deficit can be met from the unused edges of the remaining members
    (rainbowness relaxed); failure is a sound cutoff.
    """
    return _search(family.members, family.n, family.k, budget, prune_interval)


def rainbow_perfect_matching_search(
    members: list[BipartiteGraph] | tuple[BipartiteGraph, ...],
    budget: int = DEFAULT_BUDGET,
    prune_interval: int = DEFAULT_PRUNE_INTERVAL,
) -> SearchResult:
    """Rainbow perfect matching of exactly n graphs of half-order n
    (the k = 1 case of the factor search)."""
    members = tuple(members)
    if not members:
        raise GraphError("empty member list")
    n = members[0].n
    if len(members) != n:
        raise GraphError(f"need exactly n = {n} graphs, got {len(members)}")
    return _search(members, n, 1, budget, prune_interval)


def _search(
    members: tuple[BipartiteGraph, ...],
    n: int,
    k: int,
    budget: int,
    prune_interval: int,
) -> SearchResult:
    total = len(members)
    if total != k * n:
        raise GraphError(f"need k*n = {k * n} members, got {total}")
    member_edges = [list(g.edges()) for g in members]
    # suffix_union[i] = bitset rows of all edges in members i..total-1
    suffix_union: list[tuple[int, ...]] = [(0,) * n] * (total + 1)
    for i in range(total - 1, -1, -1):
        rows = tuple(
            suffix_union[i + 1][r] | members[i].x_rows[r] for r in range(n)
        )
        suffix_union[i] = rows

    used: set[Edge] = set()
    deg_x = [0] * (n + 1)
    deg_y = [0] * (n + 1)
    assignment: list[tuple[int, Edge]] = []
    nodes = 0

    def completable(level: int) -> bool:
        caps_x = [k - deg_x[i] for i in range(1, n + 1)]
        caps_y = [k - deg_y[j] for j in range(1, n + 1)]
        rows = suffix_union[level]
        candidates = [
            (x, y)
            for x in range(1, n + 1)
            if caps_x[x - 1] > 0
            for y in range(n + 1, 2 * n + 1)
            if caps_y[y - n - 1] > 0 and rows[x - 1] >> (y - n - 1) & 1 and (x, y) not in used
        ]
        return degree_constrained_subgraph(n, candidates, caps_x, caps_y) is not None

    def descend(level: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _Budget
        if level == total:
            return True
        if level % prune_interval == 0 and not completable(level):
            return False
        for x, y in member_edges[level]:
            if deg_x[x] >= k or deg_y[y - n] >= k or (x, y) in used:
                continue
            used.add((x, y))
            deg_x[x] += 1
            deg_y[y - n] += 1
            assignment.append((level + 1, (x, y)))
            if descend(level + 1):
                return True
            assignment.pop()
            deg_x[x] -= 1
            deg_y[y - n] -= 1
            used.discard((x, y))
        return False

    try:
        found = descend(0)
    except _Budget:
        return SearchResult(BUDGET_EXHAUSTED, None, nodes)
    if found:
        result = tuple(assignment)
        RainbowFactor(n, k, result).validate()
        return SearchResult(FOUND, result, nodes)
    return SearchResult(ABSENT, None, nodes)


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
    from itertools import combinations

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
