"""Rainbow k-factor search and the shifted-family audit.

The exact searches treat members with equal edge sets as one class, so they
never re-explore the permutations of identical members, and they branch on
the most constrained item (an open X-vertex or a class with one member
left), as in exact-cover search.  Free edges are per-X-vertex bitmasks
counted with ``int.bit_count``.  A flow at every node asks whether the live
classes' free edges together can meet every deficit, X and Y alike, the way
Régin's flow-based ``alldifferent`` filter checks its matching at every node
(Régin, AAAI 1994); it subsumes every per-Y-vertex count, so the search
scans and branches on the X side only.  The subgraph the flow finds also
orders the node's children, its edges first: value ordering by a
relaxation's solution, as in constraint programming.

A rainbow factor is two matchings at once: a k-regular subgraph, and a
matching of its edges to distinct members.  The flow solves the first; until
a child first fails, a second flow then tries the second on the flow's own
edges, matching each edge to one live class that holds it and each class to
as many edges as it has members left (``SearchResult.colourings`` counts
the tries).  If that colouring exists the search ends at that node with a
factor, so a search whose first dive would reach one often ends at the
root.  Past the first failed child the search may be exhausting a tree with
no factor, where every colouring fails, so none is tried there.  Colouring
at every node made the order-10 cyclic square with the edge orbit
(4, 8, 7) added (ABSENT in 6,769 nodes) about 1.5 times slower, and cut
the nodes of 1,221 random FOUND families by 5% only.

Orbit pruning (McKay, "Isomorph-free exhaustive generation", J. Algorithms
1998) removes much of the family's remaining symmetry.  An automorphism of
the family is a permutation of X and one of Y, optionally composed with the
X<->Y transpose, that maps every class onto a class with the same member
count.  If such a map g fixes the placements made so far and sends a failed
child onto a later sibling, g's inverse would carry any factor through that
sibling back through the failed child, so the sibling fails too and is
skipped.  Maps are sought only after a child fails with siblings left, at
the root and its children, and every map is checked against the classes
before use, so a missed map only prunes less.  ``SearchResult.orbit_skips``
counts the skipped children and ``SearchResult.automorphisms`` the maps
found.

An integer-lattice certificate (``rfl.lattice``) proves absence without the
tree when parity or another divisibility argument forbids a factor, as for
the even cyclic Latin squares.  It solves the family's integer relaxation
mod 2 first, which alone decides the squares of order 2 mod 4, and over the
integers only when parity leaves it undecided.  The search asks it once, at
the first failed child or when the budget runs out before one, so a search
that goes straight down to a factor never pays for it, and reports ABSENT
with its witness.  It decides nothing where the integer relaxation is
solvable: the odd cyclic squares, for one, and most even ones with a few
edges added, which the tree still has to exhaust.

Absence is otherwise only reported when the tree has been exhausted;
running out of node budget is a distinct third status.  One search object
(``_Search``) holds the placements, which are also its undo log, and the
counters that ``SearchResult`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import TYPE_CHECKING

from .flow import _exact_degree
from .graphs import BipartiteGraph, Edge, GraphError, GraphFamily, _bits
from .shifting import is_bi_shifted
from .spectral import spectral_radius

__all__ = [
    "FOUND",
    "ABSENT",
    "BUDGET_EXHAUSTED",
    "RainbowFactor",
    "SearchResult",
    "FamilyAuditReport",
    "MemberAudit",
    "rainbow_k_factor_search",
    "rainbow_perfect_matching_search",
    "audit_shifted_family",
]

FOUND = "found"
ABSENT = "absent"
BUDGET_EXHAUSTED = "budget-exhausted"

DEFAULT_BUDGET = 2_000_000

if TYPE_CHECKING:
    from .lattice import Witness


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
class SearchResult:
    status: str  # FOUND | ABSENT | BUDGET_EXHAUSTED
    assignment: tuple[tuple[int, Edge], ...] | None
    nodes_visited: int
    orbit_skips: int = 0  # children skipped as images of a failed sibling
    automorphisms: int = 0  # verified family automorphisms found
    flow_cuts: int = 0  # nodes whose free edges cannot meet the deficits
    colourings: int = 0  # flow subgraphs offered to the classes as a whole
    witness: Witness | None = None  # per member, when the integer relaxation decided

    def factor(self, n: int, k: int) -> RainbowFactor:
        if self.status != FOUND or self.assignment is None:
            raise GraphError(f"no factor available on a {self.status!r} result")
        return RainbowFactor(n, k, self.assignment)

    def summary(self) -> dict:
        """How the result was obtained, as JSON values: the counters, and the
        witness with its rationals as strings (None without one)."""
        witness = None
        if self.witness is not None:
            witness = {
                key: [str(value) for value in part]
                for key, part in zip(("x", "y", "members"), self.witness)
            }
        return {
            "nodes": self.nodes_visited,
            "orbit_skips": self.orbit_skips,
            "automorphisms": self.automorphisms,
            "flow_cuts": self.flow_cuts,
            "colourings": self.colourings,
            "witness": witness,
        }


class _Budget(Exception):
    pass


class _Certified(Exception):
    """The integer relaxation has no solution; carries its witness."""


def rainbow_k_factor_search(family: GraphFamily, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Exact search for a rainbow k-factor of the family.

    Members with equal edge sets form one class; the search decides how many
    edges each class supplies where, and hands out member indices only once a
    factor is found.  One node is one call of the recursive step.  At every
    node the step returns at once if a class has fewer free edges than
    members left to serve, or an open X-vertex fewer than its missing
    degree, or if a flow finds no subgraph of the live classes' free edges
    with every vertex's missing degree (at the root: the members' union has
    no k-factor); ``flow_cuts`` counts the nodes the flow failed.  Otherwise
    it branches on the item with the fewest free (class, edge) options per
    edge a child places: an open X-vertex, given all its missing edges at
    once, or a class with one member left, given its one edge.  Both list
    every option, so the search is complete.  The node's flow orders them:
    an X-vertex's options list the Y-vertices of the flow's edges at it
    first, and a class's one-edge children the edges the flow took first,
    over all open X-vertices, then the rest.  The flow's subgraph meets
    every deficit, so a factor often lies below its edges; only the order
    changes, and an ABSENT search still visits every child.

    Until a child first fails, a node whose flow succeeds also asks whether
    the live classes can take that flow's edges outright: each edge to one
    class holding it, class c to as many edges as it has members left, a
    second flow with the edges on one side and the classes on the other.  If
    they can, those placements complete a factor and the search returns it
    from that node; if not, the node branches as above.  ``colourings``
    counts the tries, so it is at most the depth of the first dive.

    At the root and its children, once a child fails and siblings remain,
    the search looks for family automorphisms that fix the placements made
    so far and send the failed child onto a later sibling (the branch class
    fixed, or the branch vertex fixed with no transpose).  Every sibling in
    the orbit of a failed child under the maps found is skipped: it cannot
    lead to a factor, since the inverse map would carry one back to the
    failed child.  Each map is verified against the classes before use, the
    explored children keep their flow-first order, and so the factor
    returned is the one the search would find without pruning.
    ``orbit_skips`` counts the skipped children and ``automorphisms`` the
    verified maps; both, like ``nodes_visited`` and ``flow_cuts``, repeat
    exactly from run to run.
    ``budget`` caps the nodes, so ``nodes_visited`` never exceeds it; running
    out is reported as BUDGET_EXHAUSTED, never as absence.

    When a child first fails, or the budget runs out before one does, the
    search asks once whether the family's integer relaxation (edge weights
    of any integer sign, total 1 per member and k per vertex) has a
    solution.  If not, it stops there with ABSENT
    and ``witness`` = (f, g, h): Fractions on the X-vertices 1..n, the
    Y-vertices n+1..2n and the members 1..kn, with f(x) + g(y) + h(i)
    integral on every edge (x, y) of every member i and
    k sum f + k sum g + sum h not integral.  Any factor would make that sum
    integral.  ``witness`` is None on every other result.
    """
    return _Search(family, budget).run()


def rainbow_perfect_matching_search(
    members: list[BipartiteGraph] | tuple[BipartiteGraph, ...],
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Rainbow perfect matching of exactly n graphs of half-order n
    (the k = 1 case of the factor search)."""
    members = tuple(members)
    if not members:
        raise GraphError("empty member list")
    return rainbow_k_factor_search(GraphFamily(members[0].n, 1, members), budget)


class _Search:
    """One exact search: the classes, the placements made so far and the
    counters.  ``chosen`` lists the placements in order and is the undo log:
    ``branch`` pushes a child's placements onto it and pops them when the
    child fails.  The classes are kept as rows only, with no per-edge index:
    ``colour`` finds the classes holding each flow edge as it needs them,
    and ``certificate`` asks ``rfl.lattice`` (parity, then the integers) at
    most once."""

    def __init__(self, family: GraphFamily, budget: int):
        self.family, self.budget = family, budget
        n, k = self.n, self.k = family.n, family.k
        self.classes: dict[tuple[int, ...], list[int]] = {}  # rows -> member indices
        for i, g in enumerate(family.members, start=1):
            self.classes.setdefault(g.x_rows, []).append(i)
        self.class_rows = list(self.classes)
        self.sizes = [len(ix) for ix in self.classes.values()]
        self.need = list(self.sizes)  # members each class has left to serve
        # Vertices are 0-based within their part; X-vertex x and Y-vertex y are
        # joined by edge (x, y).  A vertex is open while its deficit is positive.
        self.deficit_x = [k] * n
        self.deficit_y = [k] * n
        self.used_rows = [0] * n  # bit y of used_rows[x] <=> edge (x, y) is taken
        self.chosen: list[tuple[int, int, int]] = []  # (class, x, y)
        self.nodes = self.orbit_skips = self.automorphisms = self.flow_cuts = 0
        self.colourings = 0
        self.finder: _Symmetry | None = None  # built at the first orbit search
        self.lattice_tried = False

    def run(self) -> SearchResult:
        status, assignment, witness = ABSENT, None, None
        try:
            if self.descend(0):
                slots = [iter(ix) for ix in self.classes.values()]
                pairs = ((next(slots[c]), (x + 1, self.n + y + 1)) for c, x, y in self.chosen)
                assignment = tuple(sorted(pairs))
                RainbowFactor(self.n, self.k, assignment).validate(self.family)
                status = FOUND
        except _Budget:
            # a budget spent before any child failed still asks the certificate
            witness = self.certificate()
            if witness is None:
                status = BUDGET_EXHAUSTED
        except _Certified as certified:
            witness = certified.args[0]
        if witness is not None:
            f, g, h = witness
            per_class = dict(zip(self.class_rows, h))  # h per member, from its class
            witness = (f, g, tuple(per_class[member.x_rows] for member in self.family.members))
        counters = (self.nodes, self.orbit_skips, self.automorphisms, self.flow_cuts)
        return SearchResult(status, assignment, *counters, self.colourings, witness)

    def descend(self, depth: int) -> bool:
        if self.nodes >= self.budget:
            raise _Budget
        self.nodes += 1
        # the hot lists as locals: attribute lookups cost more in the loops
        n, need, class_rows = self.n, self.need, self.class_rows
        deficit_x, deficit_y = self.deficit_x, self.deficit_y
        open_x = [x for x in range(n) if deficit_x[x]]
        if not open_x:
            return True
        mask_y = sum(1 << y for y in range(n) if deficit_y[y])
        free_rows = [mask_y & ~used for used in self.used_rows]
        open_rows = [(x, free_rows[x]) for x in open_x]
        live = [c for c in range(len(need)) if need[c]]

        # Free (class, edge) options at each open X-vertex, and the distinct
        # free edges they reach; a class's free edges against its need.
        options_x, reach_x = [0] * n, [0] * n
        best, best_cost = None, None
        for c in live:
            rows = class_rows[c]
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
        for x in open_x:
            if reach_x[x].bit_count() < deficit_x[x]:
                return False
            # options per edge placed: a child of x places deficit_x[x]
            # edges, a child of a class one
            cost = options_x[x] / deficit_x[x]
            if best_cost is None or cost < best_cost:
                best, best_cost = ("x", x), cost
        # The free edges together must meet every deficit, on both sides.
        flow = _exact_degree(reach_x, deficit_x, deficit_y)
        if flow is None:
            self.flow_cuts += 1
            return False
        # on the first dive only (see the module docstring)
        if not self.lattice_tried and self.colour(flow):
            return True

        # the flow's edges meet every deficit, so children on them come first
        kind, item = best
        if kind == "class":
            rows = class_rows[item]
            children = (
                ((item, x, y),)
                for on_flow in (True, False)
                for x in open_x
                for y in _bits(rows[x] & free_rows[x] & (flow[x] if on_flow else ~flow[x]))
            )
        else:
            ys = [*_bits(flow[item]), *_bits(reach_x[item] & ~flow[item])]
            options = [(c, item, y) for y in ys for c in live if class_rows[c][item] >> y & 1]
            children = _vertex_children(options, deficit_x[item], need)
        for combo in children:
            if self.branch(combo, depth + 1):
                return True
            # Orbit pruning at the root and its children only: deeper, the
            # placements made leave no symmetry on the families measured
            # (cyclic squares of orders 8-12 prune nothing more), and a map
            # search at every failed node costs more than it saves.
            if depth <= 1:
                return self.prune_orbits(combo, list(children), kind == "class", depth)
        return False

    def colour(self, flow: list[int]) -> bool:
        """Whether the live classes can take the flow's edges, class c exactly
        need[c] of them and each edge once: a b-matching of edges to classes,
        perfect since the needs sum to the edges.  On success its placements
        go onto ``chosen``."""
        self.colourings += 1
        need, class_rows = self.need, self.class_rows
        live = [c for c, left in enumerate(need) if left]
        edges = [(x, y) for x, row in enumerate(flow) for y in _bits(row)]
        # bit c of holders[i] <=> live class c holds edge i
        holders = [sum(1 << c for c in live if class_rows[c][x] >> y & 1) for x, y in edges]
        picks = _exact_degree(holders, [1] * len(edges), need)
        if picks is None:
            return False
        self.chosen += [(pick.bit_length() - 1, x, y) for pick, (x, y) in zip(picks, edges)]
        return True

    def branch(self, combo: tuple, depth: int) -> bool:
        """Place the child's edges and search below; take them back if it fails."""
        need, used_rows = self.need, self.used_rows
        deficit_x, deficit_y = self.deficit_x, self.deficit_y
        for c, x, y in combo:
            need[c] -= 1
            deficit_x[x] -= 1
            deficit_y[y] -= 1
            used_rows[x] |= 1 << y
        self.chosen += combo
        if self.descend(depth):
            return True
        del self.chosen[-len(combo) :]
        for c, x, y in reversed(combo):
            used_rows[x] &= ~(1 << y)
            deficit_y[y] += 1
            deficit_x[x] += 1
            need[c] += 1
        # The first failed child, wherever it is, asks once whether the whole
        # family's integer relaxation is solvable: a search that goes straight
        # down to a factor never pays for it.
        witness = self.certificate()
        if witness is not None:
            raise _Certified(witness)
        return False

    def certificate(self) -> Witness | None:
        """The lattice witness, on the first call only.  Imported here, so a
        process whose searches never fail a child never loads the lattice
        code."""
        if self.lattice_tried:
            return None
        self.lattice_tried = True
        from .lattice import lattice_witness

        return lattice_witness(self.n, self.k, self.class_rows, self.sizes)

    def prune_orbits(self, failed: tuple, later: list, transpose: bool, depth: int) -> bool:
        """Try the siblings ``later`` of the failed child ``failed`` in order,
        skipping each that a verified map fixing the placements made so far
        sends a failed child onto."""
        dead: set[frozenset] = set()
        maps: list[tuple] = []
        i = 0
        while True:
            dead.add(frozenset(failed))
            _close(dead, maps)
            for other in later[i:]:
                if frozenset(other) not in dead:
                    if self.finder is None:
                        self.finder = _Symmetry(self.n, self.class_rows, self.sizes)
                    g = self.finder.map_between(self.chosen, failed, other, transpose)
                    if g is not None:
                        self.automorphisms += 1
                        maps.append(g)
                        _close(dead, maps)
            while i < len(later) and frozenset(later[i]) in dead:
                self.orbit_skips += 1
                i += 1
            if i == len(later):
                return False
            failed = later[i]
            i += 1
            if self.branch(failed, depth + 1):
                return True


def _vertex_children(options: list, d: int, need: list[int]):
    """The d-subsets of one X-vertex's (class, x, y) options, the options on
    one edge next to each other, that take distinct edges and no class more
    often than it still has members, in ``itertools.combinations`` order.  A
    run of options on one edge is skipped as soon as one of them is taken."""
    after = [len(options)] * len(options)  # the first later option on another edge
    for i in range(len(options) - 2, -1, -1):
        after[i] = after[i + 1] if options[i + 1][2] == options[i][2] else i + 1
    taken = dict.fromkeys((c for c, _x, _y in options), 0)
    combo: list[tuple[int, int, int]] = []

    def extend(start: int):
        if len(combo) == d:
            yield tuple(combo)
            return
        for i in range(start, len(options)):
            c = options[i][0]
            if taken[c] < need[c]:
                taken[c] += 1
                combo.append(options[i])
                yield from extend(after[i])
                combo.pop()
                taken[c] -= 1

    return extend(0)


def _close(dead: set[frozenset], maps: list[tuple]) -> None:
    """Add to ``dead`` every image of its members under the group ``maps``
    generate."""
    stack = list(dead)
    while stack:
        combo = stack.pop()
        for g in maps:
            image = frozenset(_image(g, option) for option in combo)
            if image not in dead:
                dead.add(image)
                stack.append(image)


def _image(g: tuple, option: tuple[int, int, int]) -> tuple[int, int, int]:
    """Where automorphism g = (transpose, sx, sy, pc) sends placement
    (class, x, y)."""
    transpose, sx, sy, pc = g
    c, x, y = option
    return (pc[c], sy[y], sx[x]) if transpose else (pc[c], sx[x], sy[y])


class _Symmetry:
    """Finds automorphisms of a family of classes: a permutation of X and one
    of Y, optionally composed with the X<->Y transpose, that maps every class
    onto a class with the same member count.

    A map is sought from a source structure (the family, or its transpose) to
    the family by backtracking over candidate sets for the X-vertices, the
    Y-vertices and the classes (sorts 0, 1, 2).  Candidates start from degree
    and class-size invariants.  Once a point of each of two sorts is fixed,
    the third sort is narrowed through the x-y-class incidence, the way a
    Latin square is completed from any two of row, column and symbol.  The
    class map is then re-derived from the vertex maps and checked: a map that
    fails the check is never returned.
    """

    def __init__(self, n: int, class_rows: list, count: list[int]):
        self.n, self.class_rows, self.count = n, class_rows, count
        self.index = {rows: c for c, rows in enumerate(class_rows)}
        m = len(class_rows)
        class_cols = [BipartiteGraph(n, rows).y_cols for rows in class_rows]
        xc = [[rows[x] for rows in class_rows] for x in range(n)]  # X-vertex, class -> Y-mask
        yc = [[cols[y] for cols in class_cols] for y in range(n)]  # Y-vertex, class -> X-mask
        xy = [  # X-vertex, Y-vertex -> class mask
            [sum(1 << c for c in range(m) if xc[x][c] >> y & 1) for y in range(n)]
            for x in range(n)
        ]
        self.target = (xy, xc, yc)
        self.sources = (self.target, ([list(col) for col in zip(*xy)], yc, xc))
        want = self._invariants(self.target)
        self.start = []
        for source in self.sources:
            cand = [
                [sum(1 << q for q, other in enumerate(want[s]) if other == own) for own in mine]
                for s, mine in enumerate(self._invariants(source))
            ]
            self.start.append(cand if all(map(all, cand)) else None)

    def _invariants(self, structure: tuple) -> list[list]:
        _xy, xc, yc = structure
        count = self.count

        def profile(masks: list[int]) -> tuple:
            return tuple(sorted((count[c], m.bit_count()) for c, m in enumerate(masks) if m))

        sizes = [sum(masks[c].bit_count() for masks in xc) for c in range(len(count))]
        return [[profile(r) for r in xc], [profile(r) for r in yc], list(zip(count, sizes))]

    def map_between(self, kept: list, src: tuple, dst: tuple, transpose: bool) -> tuple | None:
        """A verified automorphism that fixes each placement in ``kept`` and
        sends the placements ``src`` onto ``dst`` (in some order), or None if
        none is found."""
        for t in (0, 1) if transpose else (0,):
            if self.start[t] is None:
                continue
            for image in permutations(dst):
                cand = [list(sort) for sort in self.start[t]]
                for (c, x, y), (c2, x2, y2) in zip([*kept, *src], [*kept, *image]):
                    for s, p, q in ((0, y if t else x, x2), (1, x if t else y, y2), (2, c, c2)):
                        cand[s][p] &= 1 << q
                queue = [
                    (s, p)
                    for s, sort in enumerate(cand)
                    for p, mask in enumerate(sort)
                    if mask & (mask - 1) == 0
                ]
                if any(not cand[s][p] for s, p in queue):
                    continue
                fixed: dict = {}
                if self._propagate(t, cand, fixed, queue):
                    done = self._extend(t, cand, fixed)
                    g = done and self._verified(t, done)
                    if g:
                        return g
        return None

    def _extend(self, t: int, cand: list, fixed: dict) -> list | None:
        """Backtrack on the point with the fewest candidates left."""
        best, size = None, None
        for s, sort in enumerate(cand):
            for p, mask in enumerate(sort):
                count = mask.bit_count()
                if count > 1 and (size is None or count < size):
                    best, size = (s, p, mask), count
        if best is None:
            return cand
        s, p, mask = best
        for q in _bits(mask):
            trial = [list(sort) for sort in cand]
            trial[s][p] = 1 << q
            trial_fixed = dict(fixed)
            if self._propagate(t, trial, trial_fixed, [(s, p)]):
                done = self._extend(t, trial, trial_fixed)
                if done:
                    return done
        return None

    def _propagate(self, t: int, cand: list, fixed: dict, queue: list) -> bool:
        """Fix each queued singleton: drop its image from the other points of
        its sort, and narrow the third sort against every fixed point of
        another sort.  False on a contradiction."""
        source, target = self.sources[t], self.target
        while queue:
            s, p = queue.pop()
            if (s, p) in fixed:
                continue
            bit = cand[s][p]
            sort = cand[s]
            for q, mask in enumerate(sort):
                if q != p and mask & bit:
                    mask &= ~bit
                    if not mask:
                        return False
                    sort[q] = mask
                    if mask & (mask - 1) == 0:
                        queue.append((s, q))
            for (s2, p2), bit2 in fixed.items():
                if s2 == s:
                    continue
                r, own = _incident(source, s, p, s2, p2)
                _, other = _incident(target, s, bit.bit_length() - 1, s2, bit2.bit_length() - 1)
                third = cand[r]
                for q, mask in enumerate(third):
                    narrowed = mask & other if own >> q & 1 else mask & ~other
                    if narrowed != mask:
                        if not narrowed:
                            return False
                        third[q] = narrowed
                        if narrowed & (narrowed - 1) == 0:
                            queue.append((r, q))
            fixed[s, p] = bit
        return True

    def _verified(self, t: int, cand: list) -> tuple | None:
        """The automorphism the singleton candidates spell, if every class's
        image edge set is a class with the same member count."""
        n = self.n
        first, second = ([mask.bit_length() - 1 for mask in sort] for sort in cand[:2])
        sx, sy = (second, first) if t else (first, second)  # images of X- and Y-vertices
        if sorted(sx) != list(range(n)) or sorted(sy) != list(range(n)):
            return None
        pc = []
        for c, rows in enumerate(self.class_rows):
            image = [0] * n
            for x, row in enumerate(rows):
                for y in _bits(row):
                    if t:
                        image[sy[y]] |= 1 << sx[x]
                    else:
                        image[sx[x]] |= 1 << sy[y]
            d = self.index.get(tuple(image))
            if d is None or self.count[d] != self.count[c]:
                return None
            pc.append(d)
        return t, sx, sy, pc


def _incident(structure: tuple, s: int, p: int, s2: int, p2: int) -> tuple[int, int]:
    """The third sort, and the mask of its points incident with point p of
    sort s and point p2 of sort s2."""
    xy, xc, yc = structure
    if s > s2:
        s, p, s2, p2 = s2, p2, s, p
    if s2 == 1:
        return 2, xy[p][p2]
    if s == 0:
        return 1, xc[p][p2]
    return 0, yc[p][p2]


def _schedule_edges(n: int, k: int) -> tuple[Edge, ...]:
    """The edges of the k anti-diagonal perfect matchings except the two
    corners {k, 2n} and {n, n+k} of matching k: matching i pairs X-vertex j
    with n+i-j for j < i and with 2n+i-j for j >= i."""
    if not (1 <= k <= n):
        raise GraphError(f"need 1 <= k <= n, got k = {k}, n = {n}")
    corners = {(k, 2 * n), (n, n + k)}
    edges = (
        (j, n + i - j if j < i else 2 * n + i - j) for i in range(1, k + 1) for j in range(1, n + 1)
    )
    return tuple(e for e in edges if e not in corners)


@dataclass(frozen=True)
class MemberAudit:
    index: int
    rho: float
    meets_threshold: bool
    missing: tuple[Edge, ...]  # absent schedule edges, when the threshold is met

    @property
    def violated(self) -> bool:
        return self.meets_threshold and bool(self.missing)


@dataclass(frozen=True)
class FamilyAuditReport:
    n: int
    k: int
    rho_threshold: float
    members: tuple[MemberAudit, ...]

    @property
    def violations(self) -> tuple[MemberAudit, ...]:
        return tuple(m for m in self.members if m.violated)


def audit_shifted_family(family: GraphFamily, rho_threshold: float) -> FamilyAuditReport:
    """For each bi-shifted member meeting the spectral threshold, list the
    edges of the k anti-diagonal perfect matchings it lacks, other than the
    two corner edges {k, 2n} and {n, n+k}; a member above the extremal
    radius must have them all.

    That one check covers the interior boundary edges and the minimum
    degree.  A bi-shifted member's rows are nested prefixes of Y.  The
    interior edges {j, 2n+k-j}, k+1 <= j <= n-1, are edges of matching k.
    Matching i < k joins X-vertex i to 2n, so rows 1..k-1 are full, and
    matching k-1 joins n to n+k-1, so row n has length at least k-1.  Nested rows
    then give every X-vertex degree at least k-1, and the k-1 full rows give
    every Y-vertex as much: the minimum degree is at least k-1.

    A member meets the threshold when the upper end of its radius bracket
    reaches it, so one exactly at the threshold meets it; ``rho`` is the
    bracket's lower end.
    """
    n, k = family.n, family.k
    schedule = _schedule_edges(n, k)
    audits = []
    for idx, g in enumerate(family.members, start=1):
        if not is_bi_shifted(g):
            raise GraphError(f"member {idx} is not bi-shifted")
        report = spectral_radius(g)
        meets = report.value + report.residual >= rho_threshold
        missing = tuple(e for e in schedule if not g.has_edge(*e)) if meets else ()
        audits.append(MemberAudit(idx, report.value, meets, missing))
    return FamilyAuditReport(n, k, rho_threshold, tuple(audits))
