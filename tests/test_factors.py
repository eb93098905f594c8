import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from rfl.construction import construct_rainbow_factor_extremal
from rfl.factors import (
    ABSENT,
    BUDGET_EXHAUSTED,
    FOUND,
    RainbowFactor,
    audit_shifted_family,
    rainbow_k_factor_search,
    rainbow_perfect_matching_search,
    _image,
    _schedule_edges,
    _Symmetry,
    _vertex_children,
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
from rfl.flow import _augment, degree_constrained_subgraph, k_factor_exists
from rfl.harness import ExperimentConfig, _theorem_sample_families
from rfl.lattice import lattice_witness
from rfl.spectral import quotient_spectral_radius
from tests.conftest import random_graph
from tests.oracles import (
    brute_force_automorphisms,
    brute_force_k_factor_exists,
    brute_force_rainbow_matching,
    check_lattice_witness,
    cyclic_latin,
    diagonal_matching_schedule,
    exact_degree_exists,
    three_check_audit,
    validate_matching_schedule,
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


def check_exact_degree(n, candidates, caps_x, caps_y, chosen):
    """Compare a degree_constrained_subgraph answer with the oracle: an edge
    list must be a duplicate-free subset of the candidates, in candidate
    order, with the exact degrees."""
    assert (chosen is not None) == exact_degree_exists(n, candidates, caps_x, caps_y)
    if chosen is None:
        return
    assert chosen == [e for e in candidates if e in set(chosen)]
    assert len(set(chosen)) == len(chosen)
    degree = Counter(v for e in chosen for v in e)
    assert [degree[x] for x in range(1, n + 1)] == list(caps_x)
    assert [degree[y] for y in range(n + 1, 2 * n + 1)] == list(caps_y)


class TestDegreeConstrainedSubgraph:
    def test_rejects_negative_cap(self):
        with pytest.raises(GraphError, match="nonnegative"):
            degree_constrained_subgraph(2, [(1, 3), (2, 4)], [2, -1], [1, 0])

    def test_rejects_repeated_candidate(self):
        with pytest.raises(GraphError, match="repeated"):
            degree_constrained_subgraph(2, [(1, 3), (2, 4), (1, 3)], [1, 1], [1, 1])

    def test_rejects_caps_of_wrong_length(self):
        with pytest.raises(GraphError, match="caps a side"):
            degree_constrained_subgraph(2, [(1, 3), (2, 4)], [1, 1, 0], [1, 1, 0])

    def test_rejects_edge_inside_a_part(self):
        with pytest.raises(GraphError, match="leaves"):
            degree_constrained_subgraph(2, [(1, 2), (2, 4)], [1, 1], [1, 1])

    def test_agrees_with_oracle_on_every_graph_up_to_n2(self):
        for n in (1, 2):
            pairs = [(x, y) for x in range(1, n + 1) for y in range(n + 1, 2 * n + 1)]
            for mask in range(1 << len(pairs)):
                edges = [e for b, e in enumerate(pairs) if mask >> b & 1]
                for caps in itertools.product(range(3), repeat=2 * n):
                    caps_x, caps_y = list(caps[:n]), list(caps[n:])
                    chosen = degree_constrained_subgraph(n, edges, caps_x, caps_y)
                    check_exact_degree(n, edges, caps_x, caps_y, chosen)

    def test_agrees_with_oracle_on_seeded_graphs(self, rng):
        found = 0
        for n in range(3, 7):
            for _ in range(60):
                g = random_graph(rng, n, float(rng.random()))
                edges = list(g.edges())
                edges = [edges[i] for i in rng.permutation(len(edges))]
                caps_x = rng.integers(0, 4, size=n).tolist()
                if rng.random() < 0.8:  # mostly agreeing sums, so the flow runs
                    caps_y = np.bincount(rng.integers(0, n, size=sum(caps_x)), minlength=n).tolist()
                else:
                    caps_y = rng.integers(0, 4, size=n).tolist()
                chosen = degree_constrained_subgraph(n, edges, caps_x, caps_y)
                check_exact_degree(n, edges, caps_x, caps_y, chosen)
                found += chosen is not None
        assert 0 < found < 4 * 60  # both answers are checked

    def test_augmenting_completes_any_partial_subgraph(self, rng):
        # the augmenting phase takes any subgraph within the caps, not only the
        # greedy one; start it from a random one
        for n in range(2, 7):
            for _ in range(40):
                g = random_graph(rng, n, float(rng.random()))
                caps_x = rng.integers(0, 4, size=n).tolist()
                caps_y = np.bincount(rng.integers(0, n, size=sum(caps_x)), minlength=n).tolist()
                start, left_y = [], list(caps_y)
                for row, cap in zip(g.x_rows, caps_x):
                    pick = 0
                    for j in rng.permutation(n).tolist():
                        if row >> j & 1 and cap and left_y[j] and rng.random() < 0.5:
                            pick |= 1 << j
                            cap -= 1
                            left_y[j] -= 1
                    start.append(pick)
                rows = _augment(g.x_rows, start, caps_x, caps_y)
                edges = list(g.edges())
                chosen = None if rows is None else [(x, y) for x, y in edges if rows[x - 1] >> (y - n - 1) & 1]
                check_exact_degree(n, edges, caps_x, caps_y, chosen)


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
        assert result.nodes_visited == 2  # the budget, not one more

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

    def test_vertex_children_are_the_filtered_combinations(self, rng):
        # the reference: every d-subset of the options in combinations order,
        # kept when its edges are distinct and no class is used too often
        for _ in range(300):
            classes = int(rng.integers(1, 5))
            options = [(c, 0, y) for y in range(5) for c in range(classes) if rng.random() < 0.5]
            need = [int(v) for v in rng.integers(0, 3, size=classes)]
            d = int(rng.integers(1, 4))
            expected = [
                combo
                for combo in itertools.combinations(options, d)
                if len({y for _c, _x, y in combo}) == d
                and all([c for c, _x, _y in combo].count(c) <= need[c] for c in range(classes))
            ]
            assert list(_vertex_children(options, d, need)) == expected

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
    k_each = [y for y in range(n + 1, 2 * n + 1) for _ in range(k)]  # every Y-degree k
    for picks in itertools.product(*picks_per_x):
        if sorted(itertools.chain.from_iterable(picks)) != k_each:
            continue
        edges = [(x, y) for x, ys in enumerate(picks, start=1) for y in ys]
        candidates = [
            (i, total + j)
            for i, g in enumerate(family.members, start=1)
            for j, e in enumerate(edges, start=1)
            if g.has_edge(*e)
        ]
        if degree_constrained_subgraph(total, candidates, [1] * total, [1] * total) is not None:
            return True
    return False


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


# Nodes the one-odd searches take with the degree flow at every node and
# the flow's edges tried first, on the family and on its transpose (10 and 9
# at (7, 2) with the children in Y order, 11/11/14/13 and 10/13/13/11 with
# the flow at the root only); they must not rise.
ONE_ODD_NODES = {(6, 2): 7, (7, 2): 8, (8, 2): 9, (6, 3): 7}
ONE_ODD_TRANSPOSED_NODES = {(6, 2): 7, (7, 2): 8, (8, 2): 9, (6, 3): 7}


class TestAdversarialFamilies:
    @pytest.mark.parametrize(
        "n, k, transposed",
        [
            pytest.param(n, k, transposed, id=f"{n}-{k}" + ("-transposed" if transposed else ""))
            for transposed in (False, True)
            for n, k in ONE_ODD_NODES
        ],
    )
    def test_one_odd_family_found_within_small_budget(self, n, k, transposed):
        family = one_odd_family(n, k)
        bound = ONE_ODD_NODES[n, k]
        if transposed:
            family = GraphFamily(n, k, tuple(g.transposed() for g in family.members))
            bound = ONE_ODD_TRANSPOSED_NODES[n, k]
        result = rainbow_k_factor_search(family, budget=10_000)
        assert result.status == FOUND
        assert result.nodes_visited <= bound
        result.factor(n, k).validate(family)
        if not transposed:
            construct_rainbow_factor_extremal(family).validate(family)

    def test_theorem_sample_trial_8_found_within_1000_nodes(self):
        # trial 8 of theorem-sample at seed 0, a grown family of extremal
        # copies at (8, 4) with a factor: more than 2,000,000 nodes with the
        # flow at the root only
        trial, identical, family = next(
            case for case in _theorem_sample_families(ExperimentConfig(seed=0)) if case[0] == 8
        )
        assert (family.n, family.k, identical) == (8, 4, False)
        result = rainbow_k_factor_search(family, budget=1_000)
        assert result.status == FOUND
        result.factor(8, 4).validate(family)

    def test_theorem_sample_seed_5_trial_12_found_within_1000_nodes(self):
        # trial 12 of theorem-sample at seed 5 on the grid 14 <= n <= 16,
        # k <= 8: grown extremal copies at (14, 6), written out so that the
        # pin holds whatever the generator draws.  Each member is K_{14,14}
        # less the edges from one vertex v (1..28) to the vertices whose
        # bits are set in mask (bit j: X-vertex j+1 or Y-vertex 15+j).  With
        # the children tried in Y order it exhausted 2,000,000 nodes.
        n, k, full = 14, 6, (1 << 14) - 1
        missing = [
            (18, 2171), (17, 9879), (8, 14085), (15, 374), (26, 10581), (18, 13033),
            (21, 4509), (3, 1432), (11, 12710), (11, 8767), (21, 5676), (16, 16180),
            (12, 14350), (12, 6548), (16, 2427), (27, 8820), (15, 5699), (14, 1163),
            (9, 14571), (3, 12419), (9, 4669), (16, 2225), (18, 15778), (3, 4943),
            (11, 10463), (15, 5151), (16, 4460), (28, 5198), (4, 10726), (3, 10799),
            (28, 12174), (6, 2875), (7, 14546), (4, 6485), (3, 11331), (26, 10663),
            (21, 11094), (24, 12390), (10, 2020), (13, 10418), (4, 7352), (20, 9005),
            (16, 14094), (8, 6209), (10, 2013), (23, 9395), (10, 2348), (14, 13861),
            (1, 1509), (3, 6814), (23, 3779), (20, 12164), (9, 7218), (27, 15141),
            (7, 3101), (16, 6900), (16, 13518), (7, 11393), (14, 9952), (11, 10076),
            (12, 4661), (9, 15019), (3, 1517), (22, 13495), (6, 4845), (20, 5425),
            (12, 13769), (3, 2615), (26, 14415), (22, 11212), (26, 11252), (2, 16011),
            (24, 10422), (1, 1945), (13, 477), (12, 14403), (27, 11521), (14, 1104),
            (1, 1676), (11, 9460), (20, 15898), (22, 3819), (25, 1630), (24, 13010),
        ]  # fmt: skip
        members = []
        for v, mask in missing:
            if v <= n:
                rows = [full & ~mask if x == v - 1 else full for x in range(n)]
            else:
                rows = [full & ~(1 << v - n - 1) if mask >> x & 1 else full for x in range(n)]
            members.append(BipartiteGraph(n, tuple(rows)))
        family = GraphFamily(n, k, tuple(members))
        result = rainbow_k_factor_search(family, budget=1_000)
        assert result.status == FOUND
        result.factor(n, k).validate(family)

    def test_flow_cuts_the_identical_extremal_family_at_the_root(self):
        # B_{n,k} has no k-factor, so the free edges at the root cannot meet
        # the deficits
        for n, k in [(4, 2), (6, 3), (8, 4)]:
            family = GraphFamily(n, k, (build_extremal(n, k),) * (k * n))
            result = rainbow_k_factor_search(family)
            assert result.status == ABSENT
            assert result.nodes_visited == result.flow_cuts == 1

    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10, 11])
    def test_cyclic_latin_square_has_transversal_iff_odd(self, n):
        members = cyclic_latin(n)
        family = GraphFamily(n, 1, tuple(members))
        result = rainbow_perfect_matching_search(members)
        assert result.status == (FOUND if n % 2 else ABSENT)
        if n % 2:
            result.factor(n, 1).validate(family)
            assert result.witness is None
        else:
            # decided by the integer relaxation at the first failed child,
            # before any orbit search, with a witness checked apart
            assert check_lattice_witness(family, result.witness)
            assert result.nodes_visited <= n
            assert result.orbit_skips == result.automorphisms == 0

    def test_cyclic_order_12_absent_within_100k_nodes(self):
        members = cyclic_latin(12)
        for budget in (100_000, 1_000):  # the certificate comes long before either
            result = rainbow_perfect_matching_search(members, budget=budget)
            assert result.status == ABSENT
            assert check_lattice_witness(GraphFamily(12, 1, tuple(members)), result.witness)

    def test_perturbed_cyclic_square_absent_with_orbit_pruning(self):
        # one edge orbit added to a class of the order-10 square: the integer
        # relaxation is solvable, so only the backtracking decides absence,
        # and the translation by 5 survives for orbit pruning
        members = cyclic_latin(10, [(4, 8, 7)])
        result = rainbow_perfect_matching_search(members, budget=100_000)
        assert result.status == ABSENT and result.witness is None
        assert result.nodes_visited > 1_000
        assert result.orbit_skips > 0 and result.automorphisms > 0
        short = rainbow_perfect_matching_search(members, budget=1_000)
        assert short.status == BUDGET_EXHAUSTED and short.assignment is None

    def test_flow_cuts_below_the_root(self):
        result = rainbow_perfect_matching_search(cyclic_latin(10, [(4, 8, 7)]))
        assert result.status == ABSENT
        assert 0 < result.flow_cuts < result.nodes_visited

    def test_counters_repeat_exactly(self):
        runs = [rainbow_perfect_matching_search(cyclic_latin(8, [(0, 6, 0)])) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0].status == ABSENT and runs[0].witness is None
        assert runs[0].orbit_skips > 0 and runs[0].automorphisms > 0
        certified = [rainbow_perfect_matching_search(cyclic_latin(8)) for _ in range(2)]
        assert certified[0] == certified[1] and certified[0].witness is not None


class TestLatticeCertificate:
    @pytest.mark.parametrize("n", range(2, 17, 2))
    def test_even_cyclic_squares_are_certified(self, n):
        members = cyclic_latin(n)
        result = rainbow_perfect_matching_search(members, budget=n)
        assert result.status == ABSENT and result.orbit_skips == result.automorphisms == 0
        assert check_lattice_witness(GraphFamily(n, 1, tuple(members)), result.witness)

    def test_spent_budget_still_asks_the_certificate(self):
        # the budget runs out at the root's first child, before any child
        # fails: the certificate decides the family all the same
        members = cyclic_latin(16)
        result = rainbow_perfect_matching_search(members, budget=1)
        assert result.status == ABSENT and result.nodes_visited == 1
        assert check_lattice_witness(GraphFamily(16, 1, tuple(members)), result.witness)

    @pytest.mark.parametrize("n", range(1, 16, 2))
    def test_odd_cyclic_squares_have_no_witness(self, n):
        rows = [g.x_rows for g in cyclic_latin(n)]
        assert lattice_witness(n, 1, rows, [1] * n) is None

    def test_witness_only_on_absent_families(self, rng):
        witnesses = Counter()
        for _ in range(600):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, min(3, n) + 1))
            pool = [random_graph(rng, n, 0.1 + 0.8 * float(rng.random())) for _ in range(3)]
            members = tuple(pool[int(i)] for i in rng.integers(0, len(pool), size=k * n))
            family = GraphFamily(n, k, members)
            classes = Counter(g.x_rows for g in members)
            rows = list(classes)
            witness = lattice_witness(n, k, rows, [classes[r] for r in rows])
            if witness is not None:
                f, g, h = witness
                per_member = [h[rows.index(m.x_rows)] for m in members]
                assert check_lattice_witness(family, (f, g, per_member)), members
                assert not oracle_rainbow_factor_exists(family), members
            result = rainbow_k_factor_search(family)
            if result.witness is not None:
                assert result.status == ABSENT and witness is not None
                assert check_lattice_witness(family, result.witness)
            witnesses[witness is not None, result.witness is not None] += 1
        # the relaxation decides many absences; most of them the root's prunes
        # see first, and the search asks it on some
        assert witnesses[True, False] + witnesses[True, True] >= 100, witnesses
        assert witnesses[True, True] >= 1, witnesses

    def test_a_class_without_edges_has_a_witness(self):
        empty, full = BipartiteGraph.empty(3), BipartiteGraph.complete(3)
        family = GraphFamily(3, 1, (empty, full, full))
        f, g, h = lattice_witness(3, 1, [empty.x_rows, full.x_rows], [1, 2])
        assert check_lattice_witness(family, (f, g, (h[0], h[1], h[1])))

    def test_oracle_rejects_a_broken_witness(self):
        family = GraphFamily(6, 1, tuple(cyclic_latin(6)))
        f, g, h = rainbow_k_factor_search(family).witness
        assert check_lattice_witness(family, (f, g, h))
        half = Fraction(1, 2)
        assert not check_lattice_witness(family, ((f[0] + half,) + f[1:], g, h))
        assert not check_lattice_witness(family, (f, g, (h[0] + half,) + h[1:]))
        assert not check_lattice_witness(family, (f, g, h[:-1]))


# abelian groups of orders 2-5 as (operation, inverse)
GROUP_TABLES = {
    2: [(lambda x, y: (x + y) % 2, lambda a: -a % 2)],
    3: [(lambda x, y: (x + y) % 3, lambda a: -a % 3)],
    4: [(lambda x, y: (x + y) % 4, lambda a: -a % 4), (lambda x, y: x ^ y, lambda a: a)],
    5: [(lambda x, y: (x + y) % 5, lambda a: -a % 5)],
}


def from_cells(n: int, cells) -> BipartiteGraph:
    """The graph whose edges are the 0-based cells (x, y)."""
    return BipartiteGraph.from_edges(n, [(x + 1, n + y + 1) for x, y in cells])


def cells(g: BipartiteGraph) -> list[tuple[int, int]]:
    return [(x, y) for x in range(g.n) for y in _bits(g.x_rows[x])]


def symmetric_family(rng, n: int, k: int, kind: str) -> GraphFamily:
    """A family with a nontrivial automorphism by construction.

    - "isotope": the colour classes of a group table under random row,
      column and symbol permutations, each class k times; half of them with
      one to three edge orbits added under a translation (x, y) ->
      (x + a, y - a), which fixes every class and so stays an automorphism
      (without them, the even-order tables with no transversal are all
      decided by the integer relaxation before any orbit search);
    - "shift": the orbits of k random members under (x, y) -> (x + 1, y + a);
    - "transpose": random members beside their transposes, and members equal
      to their own transpose;
    - "invariant": members that are unions of edge orbits under one random
      map, either (x, y) -> (sx[x], sy[y]) or (x, y) -> (sx[y], sx[x]).
    """
    if kind == "isotope":
        op, inverse = GROUP_TABLES[n][int(rng.integers(len(GROUP_TABLES[n])))]
        classes = [{(x, y) for x in range(n) for y in range(n) if op(x, y) == i} for i in range(n)]
        if rng.random() < 0.5:
            a = int(rng.integers(1, n))
            for _ in range(int(rng.integers(1, 4))):
                cell, i = (int(rng.integers(n)), int(rng.integers(n))), int(rng.integers(n))
                while cell not in classes[i]:
                    classes[i].add(cell)
                    cell = (op(cell[0], a), op(cell[1], inverse(a)))
        r, c, s = (rng.permutation(n).tolist() for _ in range(3))
        squares = [from_cells(n, [(r[x], c[y]) for x, y in classes[s[i]]]) for i in range(n)]
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
    return _Symmetry(family.n, rows, [count[r] for r in rows])


class TestOrbitPruning:
    KINDS = ("isotope", "shift", "transpose", "invariant")

    def test_agrees_with_oracle_on_symmetric_families(self, rng):
        pruned = Counter()
        for trial in range(2400):
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
            (3, 2, [(3, 6, 5), (6, 5, 3), (2, 4, 1)] * 2),
            (3, 2, [(0, 4, 6), (6, 7, 3), (1, 0, 4), (2, 1, 0), (4, 0, 1), (2, 3, 4)]),
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


def _schedule_with_corners(n: int, k: int) -> list:
    """The audit's schedule edges followed by the two corner edges {k, 2n}
    and {n, n+k} it leaves out (one edge when k = n)."""
    return [*_schedule_edges(n, k), *dict.fromkeys([(k, 2 * n), (n, n + k)])]


class TestDiagonalMatchings:
    """The audit's ``_schedule_edges`` with its two corners against the
    reference matchings of ``tests.oracles``."""

    def test_4_2_frozen(self):
        sched = diagonal_matching_schedule(4, 2)
        assert sched[0] == ((1, 8), (2, 7), (3, 6), (4, 5))
        assert sched[1] == ((1, 5), (2, 8), (3, 7), (4, 6))
        assert _schedule_edges(4, 2) == ((1, 8), (2, 7), (3, 6), (4, 5), (1, 5), (3, 7))

    def test_single_matching_is_antidiagonal(self):
        for n in (2, 5, 9):
            antidiagonal = tuple((j, 2 * n + 1 - j) for j in range(1, n + 1))
            assert diagonal_matching_schedule(n, 1)[0] == antidiagonal
            assert _schedule_edges(n, 1) == antidiagonal[1:-1]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_invariants_up_to_n_12(self, n):
        for k in range(1, n + 1):
            edges = _schedule_with_corners(n, k)
            assert len(edges) == len(set(edges)) == k * n
            degree = Counter(v for e in edges for v in e)
            assert sorted(degree) == list(range(1, 2 * n + 1))
            assert set(degree.values()) == {k}
            assert set(edges) == {e for m in diagonal_matching_schedule(n, k) for e in m}

    def test_union_is_k_factor_of_complete_graph(self):
        for n, k in [(6, 3), (8, 4), (12, 6)]:
            complete = BipartiteGraph.complete(n)
            degree = {v: 0 for v in range(1, 2 * n + 1)}
            for x, y in _schedule_with_corners(n, k):
                assert complete.has_edge(x, y)
                degree[x] += 1
                degree[y] += 1
            assert all(d == k for d in degree.values())

    def test_corner_edges_present(self):
        # matching k holds both corner edges {k, 2n} and {n, n+k}, and the
        # audit's schedule edges leave both out
        for n, k in [(4, 2), (8, 3), (12, 5)]:
            m = diagonal_matching_schedule(n, k)[k - 1]
            assert (k, 2 * n) in m and (k, 2 * n) not in _schedule_edges(n, k)
            assert (n, n + k) in m and (n, n + k) not in _schedule_edges(n, k)

    def test_rejects_k_above_n(self):
        with pytest.raises(GraphError):
            _schedule_edges(3, 4)
        with pytest.raises(GraphError):
            diagonal_matching_schedule(3, 4)

    def test_schedule_validation_catches_overlap(self):
        with pytest.raises(GraphError):
            validate_matching_schedule(2, 2, (((1, 3), (2, 4)), ((1, 3), (2, 4))))


class TestShiftedFamilyAudit:
    def test_extremal_members_have_no_violations(self):
        g = build_extremal(4, 2)
        family = GraphFamily(4, 2, (g,) * 8)
        report = audit_shifted_family(family, quotient_spectral_radius(ExtremalParams(4, 2)).value)
        assert not report.violations
        assert all(m.meets_threshold for m in report.members)
        # interior boundary edge {3, 7} is what keeps the members compliant
        assert g.has_edge(3, 7)

    def test_below_threshold_member_excluded(self):
        members = (build_extremal(4, 2),) * 7 + (build_join(ExtremalParams(4, 2, 3)),)
        family = GraphFamily(4, 2, members)
        report = audit_shifted_family(family, quotient_spectral_radius(ExtremalParams(4, 2)).value)
        assert not report.violations
        below = [m.index for m in report.members if not m.meets_threshold]
        assert below == [8]

    def test_complete_members_trivially_pass(self):
        family = GraphFamily(4, 2, (BipartiteGraph.complete(4),) * 8)
        report = audit_shifted_family(family, quotient_spectral_radius(ExtremalParams(4, 2)).value)
        assert not report.violations
        assert all(m.meets_threshold for m in report.members)

    def test_missing_interior_edge_listed_once(self):
        # the interior edge {3, 11} is an edge of matching k, the one schedule
        # edge this member lacks: it is listed once.  The Ferrers graph lies
        # below the extremal radius, so threshold 0 audits it
        n, k = 6, 2
        g = BipartiteGraph(n, tuple((1 << r) - 1 for r in (6, 6, 4, 4, 4, 3)))
        (member, *_rest) = audit_shifted_family(GraphFamily(n, k, (g,) * (k * n)), 0.0).members
        assert member.meets_threshold
        assert member.missing == ((3, 11),)
        assert member.violated

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_three_check_oracle_on_every_ferrers_shape(self, n):
        # every bi-shifted graph at half-order n (row lengths non-increasing),
        # at every k, audited in families of kn shapes against the audit that
        # also checked the interior edges and the minimum degree apart
        shapes = [
            BipartiteGraph(n, tuple((1 << r) - 1 for r in reversed(lengths)))
            for lengths in itertools.combinations_with_replacement(range(n + 1), n)
        ]
        for k in range(1, n + 1):
            thresholds = [0.0]
            if n >= 2 * k >= 4:
                thresholds.append(quotient_spectral_radius(ExtremalParams(n, k)).value)
            size = k * n
            for start in range(0, len(shapes), size):
                members = tuple(shapes[(start + i) % len(shapes)] for i in range(size))
                family = GraphFamily(n, k, members)
                for threshold in thresholds:
                    got = audit_shifted_family(family, threshold).members
                    want = three_check_audit(family, threshold)
                    assert [
                        (m.index, m.meets_threshold, sorted(m.missing), m.violated) for m in got
                    ] == [
                        (m.index, m.meets_threshold, sorted(m.missing), m.violated) for m in want
                    ]

    def test_rejects_non_bi_shifted_member(self):
        g = BipartiteGraph.from_edges(4, [(2, 6)])
        family = GraphFamily(4, 1, (g,) * 4)
        with pytest.raises(GraphError):
            audit_shifted_family(family, 0.5)
