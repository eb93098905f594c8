import itertools
from collections import Counter

import pytest

from rfl.construction import construct_rainbow_factor_extremal
from rfl.factors import (
    ABSENT,
    BUDGET_EXHAUSTED,
    FOUND,
    MatchingSchedule,
    RainbowFactor,
    audit_shifted_family,
    diagonal_matching_schedule,
    k_factor_exists,
    rainbow_k_factor_search,
    rainbow_perfect_matching_search,
    _image,
    _Symmetry,
)
from rfl.graphs import (
    BipartiteGraph,
    ExtremalParams,
    GraphError,
    GraphFamily,
    build_extremal,
    build_join,
    _bits,
    labeled_extremal_copy,
)
from rfl.flow import degree_constrained_subgraph
from rfl.spectral import extremal_spectral_radius
from tests.conftest import random_graph
from tests.oracles import (
    brute_force_automorphisms,
    brute_force_k_factor_exists,
    brute_force_rainbow_matching,
)


class TestKFactorExists:
    def test_complete_has_2_factor(self):
        assert k_factor_exists(BipartiteGraph.complete(4), 2)

    def test_extremal_graph_has_none(self):
        # minimum degree k-1 rules a k-factor out
        for n in (4, 5, 6):
            assert not k_factor_exists(build_extremal(n, 2), 2)

    def test_even_cycle_has_perfect_matching(self):
        cyc = BipartiteGraph.from_edges(
            4, [(1, 5), (2, 5), (2, 6), (3, 6), (3, 7), (4, 7), (4, 8), (1, 8)]
        )
        assert k_factor_exists(cyc, 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            k_factor_exists(BipartiteGraph.complete(3), 0)

    def test_matches_brute_force_on_all_n3_graphs(self):
        # every bipartite graph with n = 3: rows are three 3-bit masks
        for rows in itertools.product(range(8), repeat=3):
            g = BipartiteGraph(3, rows)
            for k in (1, 2, 3):
                assert k_factor_exists(g, k) == brute_force_k_factor_exists(g, k)

    def test_matches_brute_force_on_seeded_n4_graphs(self, rng):
        for _ in range(200):
            g = random_graph(rng, 4, float(rng.random()))
            for k in (1, 2):
                assert k_factor_exists(g, k) == brute_force_k_factor_exists(g, k)


class TestRainbowFactorValidation:
    def test_accepts_two_disjoint_matchings(self):
        assignment = tuple(
            enumerate(
                [(1, 8), (2, 7), (3, 6), (4, 5), (1, 5), (2, 8), (3, 7), (4, 6)], start=1
            )
        )
        RainbowFactor(4, 2, assignment).validate()

    def test_rejects_duplicate_edge(self):
        assignment = tuple(
            enumerate(
                [(1, 8), (2, 7), (3, 6), (4, 5), (1, 8), (2, 5), (3, 7), (4, 6)], start=1
            )
        )
        with pytest.raises(GraphError):
            RainbowFactor(4, 2, assignment).validate()

    def test_rejects_wrong_degree(self):
        assignment = tuple(
            enumerate(
                [(1, 8), (2, 7), (3, 6), (4, 5), (1, 5), (1, 6), (3, 7), (4, 6)], start=1
            )
        )
        with pytest.raises(GraphError):
            RainbowFactor(4, 2, assignment).validate()

    def test_rejects_bad_index_set(self):
        with pytest.raises(GraphError):
            RainbowFactor(2, 1, ((1, (1, 3)), (1, (2, 4)))).validate()

    def test_rejects_foreign_edge_against_family(self):
        g = build_extremal(4, 2)
        family = GraphFamily(4, 2, (g,) * 8)
        assignment = tuple(
            enumerate(
                [(1, 8), (2, 7), (3, 6), (4, 5), (1, 5), (2, 8), (3, 7), (4, 6)], start=1
            )
        )
        with pytest.raises(GraphError):  # (2,8) is not an edge of the member
            RainbowFactor(4, 2, assignment).validate(family)


class TestRainbowSearch:
    def test_identical_extremal_family_absent(self):
        g = build_extremal(4, 2)
        family = GraphFamily(4, 2, (g,) * 8)
        result = rainbow_k_factor_search(family)
        assert result.status == ABSENT

    def test_complete_family_found(self):
        family = GraphFamily(4, 2, (BipartiteGraph.complete(4),) * 8)
        result = rainbow_k_factor_search(family)
        assert result.status == FOUND
        result.factor(4, 2).validate(family)

    def test_two_distinct_extremal_members_found(self):
        from rfl.harness import generate_extremal_variant_family

        family = generate_extremal_variant_family(4, 2, [(8, (1,))] * 7 + [(8, (2,))])
        result = rainbow_k_factor_search(family)
        assert result.status == FOUND
        result.factor(4, 2).validate(family)

    def test_budget_exhaustion_is_not_absence(self):
        family = GraphFamily(4, 2, (BipartiteGraph.complete(4),) * 8)
        result = rainbow_k_factor_search(family, budget=2)
        assert result.status == BUDGET_EXHAUSTED
        assert result.assignment is None

    def test_found_factor_always_validates(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 3))
            members = tuple(
                random_graph(rng, n, 0.3 + 0.7 * float(rng.random()))
                for _ in range(k * n)
            )
            family = GraphFamily(n, k, members)
            result = rainbow_k_factor_search(family)
            if result.status == FOUND:
                result.factor(n, k).validate(family)

    def test_rejects_wrong_family_size(self):
        with pytest.raises(GraphError):
            rainbow_perfect_matching_search([BipartiteGraph.complete(3)] * 2)

    def test_rejects_member_of_another_half_order(self):
        members = [BipartiteGraph.complete(3)] * 2 + [BipartiteGraph.complete(4)]
        with pytest.raises(GraphError, match="half-order"):
            rainbow_perfect_matching_search(members)


def oracle_rainbow_factor_exists(family: GraphFamily) -> bool:
    """Oracle that does not branch like the search: try every k-regular
    subgraph of the members' union, and ask a flow whether the kn members
    can be matched one-to-one to its kn edges."""
    n, k, total = family.n, family.k, len(family)
    rows = [0] * n
    for g in family.members:
        rows = [r | m for r, m in zip(rows, g.x_rows)]
    union = BipartiteGraph(n, tuple(rows))
    picks_per_x = [itertools.combinations(union.neighbors(x), k) for x in range(1, n + 1)]
    for picks in itertools.product(*picks_per_x):
        edges = [(x, y) for x, ys in enumerate(picks, start=1) for y in ys]
        y_degree = Counter(y for _x, y in edges)
        if any(y_degree[y] != k for y in range(n + 1, 2 * n + 1)):
            continue
        candidates = [
            (i, total + j)
            for i, g in enumerate(family.members, start=1)
            for j, e in enumerate(edges, start=1)
            if g.has_edge(*e)
        ]
        if degree_constrained_subgraph(total, candidates, [1] * total, [1] * total) is not None:
            return True
    return False


def cyclic_latin(n: int) -> list[BipartiteGraph]:
    """G_i = {(x, y) : x + y = i mod n}, i = 1..n: the colour classes of the
    cyclic Latin square, which has a transversal iff n is odd."""
    return [
        BipartiteGraph.from_edges(
            n, [(x, n + y) for x in range(1, n + 1) for y in range(1, n + 1) if (x + y - i) % n == 0]
        )
        for i in range(1, n + 1)
    ]


def one_odd_family(n: int, k: int) -> GraphFamily:
    """kn - 1 copies of B_{n,k} and one copy whose deficient vertex is n."""
    odd = labeled_extremal_copy(n, k, n, tuple(range(n + 1, n + k)))
    return GraphFamily(n, k, (build_extremal(n, k),) * (k * n - 1) + (odd,))


class TestRainbowSearchAgainstOracle:
    def test_agrees_with_oracle_on_families_with_repeated_members(self, rng):
        statuses = Counter()
        for _ in range(600):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, min(3, n) + 1))
            pool = [random_graph(rng, n, 0.2 + 0.8 * float(rng.random())) for _ in range(3)]
            members = tuple(pool[int(i)] for i in rng.integers(0, len(pool), size=k * n))
            family = GraphFamily(n, k, members)
            result = rainbow_k_factor_search(family)
            assert (result.status == FOUND) == oracle_rainbow_factor_exists(family), members
            if result.status == FOUND:
                result.factor(n, k).validate(family)
            statuses[result.status, result.nodes_visited > 1] += 1
        # both answers are common, and some absences need the backtracking
        assert statuses[FOUND, True] >= 200 and statuses[ABSENT, False] >= 100, statuses
        assert statuses[ABSENT, True] >= 10, statuses

    def test_oracle_on_known_families(self):
        assert oracle_rainbow_factor_exists(GraphFamily(3, 2, (BipartiteGraph.complete(3),) * 6))
        assert not oracle_rainbow_factor_exists(GraphFamily(4, 2, (build_extremal(4, 2),) * 8))
        assert oracle_rainbow_factor_exists(one_odd_family(4, 2))


# Nodes the one-odd searches took before orbit pruning; they must not rise.
ONE_ODD_NODES = {(6, 2): 11, (7, 2): 11, (8, 2): 14, (6, 3): 13}


class TestAdversarialFamilies:
    @pytest.mark.parametrize("n, k", [(6, 2), (7, 2), (8, 2), (6, 3)])
    def test_one_odd_family_found_within_small_budget(self, n, k):
        family = one_odd_family(n, k)
        result = rainbow_k_factor_search(family, budget=10_000)
        assert result.status == FOUND
        assert result.nodes_visited <= ONE_ODD_NODES[n, k]
        result.factor(n, k).validate(family)
        construct_rainbow_factor_extremal(family).validate(family)

    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10, 11])
    def test_cyclic_latin_square_has_transversal_iff_odd(self, n):
        members = cyclic_latin(n)
        result = rainbow_perfect_matching_search(members)
        assert result.status == (FOUND if n % 2 else ABSENT)
        if n % 2:
            result.factor(n, 1).validate(GraphFamily(n, 1, tuple(members)))
        else:
            assert result.nodes_visited > 1  # decided by the backtracking, not the root

    def test_cyclic_order_12_absent_within_100k_nodes(self):
        members = cyclic_latin(12)
        result = rainbow_perfect_matching_search(members, budget=100_000)
        assert result.status == ABSENT
        assert result.orbit_skips > 0 and result.automorphisms > 0
        short = rainbow_perfect_matching_search(members, budget=1_000)
        assert short.status == BUDGET_EXHAUSTED and short.assignment is None

    def test_counters_repeat_exactly(self):
        runs = [rainbow_perfect_matching_search(cyclic_latin(8)) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0].orbit_skips > 0 and runs[0].automorphisms > 0


GROUP_TABLES = {
    2: [lambda x, y: (x + y) % 2],
    3: [lambda x, y: (x + y) % 3],
    4: [lambda x, y: (x + y) % 4, lambda x, y: x ^ y],
    5: [lambda x, y: (x + y) % 5],
}


def from_cells(n: int, cells) -> BipartiteGraph:
    """The graph whose edges are the 0-based cells (x, y)."""
    return BipartiteGraph.from_edges(n, [(x + 1, n + y + 1) for x, y in cells])


def cells(g: BipartiteGraph) -> list[tuple[int, int]]:
    return [(x, y) for x in range(g.n) for y in _bits(g.x_rows[x])]


def symmetric_family(rng, n: int, k: int, kind: str) -> GraphFamily:
    """A family with a nontrivial automorphism by construction.

    - "isotope": the colour classes of a group table under random row,
      column and symbol permutations, each class k times;
    - "shift": the orbits of k random members under (x, y) -> (x + 1, y + a);
    - "transpose": random members beside their transposes, and members equal
      to their own transpose;
    - "invariant": members that are unions of edge orbits under one random
      map, either (x, y) -> (sx[x], sy[y]) or (x, y) -> (sx[y], sx[x]).
    """
    if kind == "isotope":
        table = GROUP_TABLES[n][int(rng.integers(len(GROUP_TABLES[n])))]
        r, c, s = (rng.permutation(n).tolist() for _ in range(3))
        squares = [
            from_cells(n, [(r[x], c[y]) for x in range(n) for y in range(n) if s[table(x, y)] == i])
            for i in range(n)
        ]
        return GraphFamily(n, k, tuple(squares * k))
    if kind == "invariant":
        transpose = rng.random() < 0.5
        sx = rng.permutation(n).tolist()
        sy = sx if transpose else rng.permutation(n).tolist()
        members = []
        for _ in range(k * n):
            edges: set[tuple[int, int]] = set()
            for _ in range(int(rng.integers(1, 4))):
                e = (int(rng.integers(n)), int(rng.integers(n)))
                while e not in edges:
                    edges.add(e)
                    e = (sx[e[1]], sx[e[0]]) if transpose else (sx[e[0]], sy[e[1]])
            members.append(from_cells(n, edges))
        return GraphFamily(n, k, tuple(members))
    members = []
    while len(members) < k * n:
        if kind == "shift":
            g = random_graph(rng, n, 0.15 + 0.5 * float(rng.random()))
            a = int(rng.integers(n))
            members += [
                from_cells(n, [((x + i) % n, (y + a * i) % n) for x, y in cells(g)])
                for i in range(n)
            ]
        else:
            g = random_graph(rng, n, 0.1 + 0.4 * float(rng.random()))
            t = from_cells(n, [(y, x) for x, y in cells(g)])
            pair = len(members) + 2 <= k * n and rng.random() < 0.25
            members += [g, t] if pair else [from_cells(n, cells(g) + cells(t))]
    return GraphFamily(n, k, tuple(members))


def family_symmetry(family: GraphFamily) -> _Symmetry:
    """The search's automorphism finder over the family's classes."""
    count = Counter(g.x_rows for g in family.members)
    rows = list(count)
    cols = [BipartiteGraph(family.n, r).y_cols for r in rows]
    return _Symmetry(family.n, rows, cols, [count[r] for r in rows])


class TestOrbitPruning:
    KINDS = ("isotope", "shift", "transpose", "invariant")

    def test_agrees_with_oracle_on_symmetric_families(self, rng):
        pruned = Counter()
        for trial in range(800):
            kind = self.KINDS[trial % 4]
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 3)) if n <= 4 else 1
            family = symmetric_family(rng, n, k, kind)
            result = rainbow_k_factor_search(family)
            assert (result.status == FOUND) == oracle_rainbow_factor_exists(family), (kind, family)
            if result.status == FOUND:
                result.factor(n, k).validate(family)
            if result.orbit_skips:
                assert result.automorphisms > 0
                pruned[kind, result.status] += 1
        # pruning is common, reaches every kind, and also happens on the way
        # to a factor, where an unsound skip would lose it
        assert sum(pruned.values()) >= 60, pruned
        assert {kind for kind, _status in pruned} == set(self.KINDS), pruned
        assert sum(pruned[kind, FOUND] for kind in self.KINDS) >= 1, pruned

    @pytest.mark.parametrize(
        "n, k, rows",
        [
            (3, 2, [(7, 7, 7), (6, 6, 6), (7, 7, 7), (1, 1, 1), (6, 6, 6), (1, 1, 1)]),
            (3, 2, [(1, 0, 4), (0, 4, 2), (2, 1, 4), (4, 6, 0), (0, 2, 3), (5, 0, 1)]),
            (4, 1, [(0, 2, 0, 8), (12, 8, 1, 3), (0, 12, 10, 6), (2, 13, 10, 14)]),
        ],
    )
    def test_factor_found_after_skipping_a_failed_orbit(self, n, k, rows):
        # families drawn by symmetric_family where a root branch fails, its
        # images are skipped, and a later branch holds the factor
        family = GraphFamily(n, k, tuple(BipartiteGraph(n, r) for r in rows))
        result = rainbow_k_factor_search(family)
        assert result.status == FOUND and result.orbit_skips > 0
        result.factor(n, k).validate(family)
        assert oracle_rainbow_factor_exists(family)

    def test_finder_returns_exactly_the_brute_force_maps(self, rng):
        transposed = 0
        for trial in range(60):
            n = int(rng.integers(2, 4))
            family = symmetric_family(rng, n, 1, self.KINDS[trial % 4])
            symmetry = family_symmetry(family)
            rows = symmetry.class_rows
            placements = [(c, x, y) for c, r in enumerate(rows) for x, y in cells(BipartiteGraph(n, r))]
            if not placements:
                continue
            src = placements[int(rng.integers(len(placements)))]
            brute = brute_force_automorphisms(family.members)
            reachable = set()
            for transpose, sx, sy in brute:
                c, x, y = src
                edge = (sy[y], sx[x]) if transpose else (sx[x], sy[y])
                image = [0] * n
                for cx, cy in cells(BipartiteGraph(n, rows[c])):
                    ix, iy = (sy[cy], sx[cx]) if transpose else (sx[cx], sy[cy])
                    image[ix] |= 1 << iy
                reachable.add((rows.index(tuple(image)), *edge))
            for dst in placements:
                g = symmetry.map_between([], (src,), (dst,), transpose=True)
                assert (g is not None) == (dst in reachable), (family, src, dst)
                if g is not None:
                    transpose, sx, sy, _pc = g
                    assert (transpose, tuple(sx), tuple(sy)) in brute
                    assert _image(g, src) == dst
                    transposed += transpose
        assert transposed >= 10

    def test_verification_rejects_maps_that_break_classes_or_counts(self):
        # classes {(0, 0)} (three members) and {(1, 1)} (one member)
        a, b = BipartiteGraph(2, (1, 0)), BipartiteGraph(2, (0, 2))
        symmetry = family_symmetry(GraphFamily(2, 2, (a, a, a, b)))

        def verified(sx, sy):
            return symmetry._verified(0, [[1 << v for v in sx], [1 << v for v in sy], []])

        assert verified((0, 1), (0, 1)) == (0, [0, 1], [0, 1], [0, 1])
        assert verified((1, 0), (1, 0)) is None  # {(0, 0)} onto {(1, 1)}: counts differ
        assert verified((1, 0), (0, 1)) is None  # {(0, 0)} onto {(1, 0)}: not a class

    def test_family_without_symmetry_finds_no_automorphism(self):
        # the cyclic square of order 4 with three edges added: no transversal,
        # every root branch fails, and only the identity maps it to itself
        rows = [(8, 4, 2, 9), (1, 8, 4, 3), (2, 1, 8, 4), (4, 2, 1, 8)]
        members = [BipartiteGraph(4, r) for r in rows]
        assert brute_force_automorphisms(members) == [(0, (0, 1, 2, 3), (0, 1, 2, 3))]
        result = rainbow_perfect_matching_search(members)
        assert result.status == ABSENT and result.nodes_visited > 4
        assert result.automorphisms == 0 and result.orbit_skips == 0
        assert not oracle_rainbow_factor_exists(GraphFamily(4, 1, tuple(members)))


class TestRainbowPerfectMatching:
    def test_complete_members_found(self):
        result = rainbow_perfect_matching_search([BipartiteGraph.complete(3)] * 3)
        assert result.status == FOUND

    def test_identical_members_with_isolated_vertex_absent(self):
        # one X-vertex isolated in every member: nothing can cover it
        iso = BipartiteGraph.from_edges(3, [(x, y) for x in (1, 2) for y in (4, 5, 6)])
        result = rainbow_perfect_matching_search([iso] * 3)
        assert result.status == ABSENT

    def test_mixed_members_found(self):
        iso = BipartiteGraph.from_edges(3, [(x, y) for x in (1, 2) for y in (4, 5, 6)])
        members = [iso, iso, BipartiteGraph.complete(3)]
        result = rainbow_perfect_matching_search(members)
        assert result.status == FOUND
        assert brute_force_rainbow_matching(members) is not None

    def test_matches_brute_force_on_seeded_instances(self, rng):
        for _ in range(100):
            members = [random_graph(rng, 3, float(rng.random())) for _ in range(3)]
            result = rainbow_perfect_matching_search(members)
            brute = brute_force_rainbow_matching(members)
            assert (result.status == FOUND) == (brute is not None)


class TestDiagonalMatchings:
    def test_4_2_frozen(self):
        sched = diagonal_matching_schedule(4, 2)
        assert sched.matchings[0] == ((1, 8), (2, 7), (3, 6), (4, 5))
        assert sched.matchings[1] == ((1, 5), (2, 8), (3, 7), (4, 6))

    def test_single_matching_is_antidiagonal(self):
        for n in (2, 5, 9):
            sched = diagonal_matching_schedule(n, 1)
            assert sched.matchings[0] == tuple((j, 2 * n + 1 - j) for j in range(1, n + 1))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_invariants_up_to_n_12(self, n):
        for k in range(1, n // 2 + 1):
            sched = diagonal_matching_schedule(n, k)
            sched.validate()
            union = {e for m in sched.matchings for e in m}
            assert len(union) == k * n

    def test_union_is_k_factor_of_complete_graph(self):
        for n, k in [(6, 3), (8, 4), (12, 6)]:
            sched = diagonal_matching_schedule(n, k)
            complete = BipartiteGraph.complete(n)
            degree = {v: 0 for v in range(1, 2 * n + 1)}
            for m in sched.matchings:
                for x, y in m:
                    assert complete.has_edge(x, y)
                    degree[x] += 1
                    degree[y] += 1
            assert all(d == k for d in degree.values())

    def test_corner_edges_present(self):
        # matching k holds both corner edges {k, 2n} and {n, n+k}
        for n, k in [(4, 2), (8, 3), (12, 5)]:
            m = diagonal_matching_schedule(n, k).matchings[k - 1]
            assert (k, 2 * n) in m
            assert (n, n + k) in m

    def test_rejects_k_above_n(self):
        with pytest.raises(GraphError):
            diagonal_matching_schedule(3, 4)

    def test_schedule_validation_catches_overlap(self):
        bad = MatchingSchedule(
            2, 2, (((1, 3), (2, 4)), ((1, 3), (2, 4)))
        )
        with pytest.raises(GraphError):
            bad.validate()


class TestShiftedFamilyAudit:
    def test_extremal_members_have_no_violations(self):
        g = build_extremal(4, 2)
        family = GraphFamily(4, 2, (g,) * 8)
        report = audit_shifted_family(family, extremal_spectral_radius(4, 2))
        assert not report.violations
        assert all(m.meets_threshold for m in report.members)
        # interior boundary edge {3, 7} is what keeps the members compliant
        assert g.has_edge(3, 7)

    def test_below_threshold_member_excluded(self):
        members = (build_extremal(4, 2),) * 7 + (build_join(ExtremalParams(4, 2, 3)),)
        family = GraphFamily(4, 2, members)
        report = audit_shifted_family(family, extremal_spectral_radius(4, 2))
        assert not report.violations
        below = [m.index for m in report.members if not m.meets_threshold]
        assert below == [8]

    def test_complete_members_trivially_pass(self):
        family = GraphFamily(4, 2, (BipartiteGraph.complete(4),) * 8)
        report = audit_shifted_family(family, extremal_spectral_radius(4, 2))
        assert not report.violations
        assert all(m.meets_threshold for m in report.members)

    def test_rejects_non_bi_shifted_member(self):
        g = BipartiteGraph.from_edges(4, [(2, 6)])
        family = GraphFamily(4, 1, (g,) * 4)
        with pytest.raises(GraphError):
            audit_shifted_family(family, 0.5)
