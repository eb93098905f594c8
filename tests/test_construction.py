from collections import Counter
from itertools import combinations_with_replacement

import pytest

from rfl import factors
from rfl.construction import _match_blocks, _repair_multiedges, construct_rainbow_factor_extremal
from rfl.factors import FOUND, rainbow_k_factor_search
from rfl.graphs import BipartiteGraph, GraphError, GraphFamily, build_extremal
from rfl.harness import (
    generate_extremal_variant_family,
    make_rng,
    random_deficiency_spec,
)


def union_degrees(assignment):
    deg = Counter()
    for x, y in assignment.values():
        deg[x] += 1
        deg[y] += 1
    return deg


class TestSingleDeficientVertex:
    def test_seven_one_split(self):
        # all copies deficient at 8; one member's neighbor set differs
        spec = [(8, (1,))] * 7 + [(8, (2,))]
        family = generate_extremal_variant_family(4, 2, spec)
        factor = construct_rainbow_factor_extremal(family)
        factor.validate(family)
        assert rainbow_k_factor_search(family).status == FOUND

    def test_deficient_vertex_in_x(self):
        spec = [(2, (6,))] * 9 + [(2, (7,))]
        family = generate_extremal_variant_family(5, 2, spec)
        construct_rainbow_factor_extremal(family).validate(family)

    def test_anchor_edges_come_from_distinct_members(self):
        spec = [(8, (1,))] * 7 + [(8, (2,))]
        family = generate_extremal_variant_family(4, 2, spec)
        factor = construct_rainbow_factor_extremal(family)
        anchor_edges = [(i, e) for i, e in factor.assignment if 8 in e]
        assert len(anchor_edges) == 2
        assert len({i for i, _ in anchor_edges}) == 2


class TestMultipleDeficientVertices:
    def test_even_split_no_remainder(self):
        # two groups of n: each contributes a full regularity unit
        spec = [(8, (1,))] * 4 + [(7, (1,))] * 4
        family = generate_extremal_variant_family(4, 2, spec)
        factor = construct_rainbow_factor_extremal(family)
        factor.validate(family)
        assert rainbow_k_factor_search(family).status == FOUND

    def test_uneven_split_with_remainder_blocks(self):
        # 6 + 2: one anchored unit, the rest covered by block matchings
        spec = [(8, (1,))] * 6 + [(7, (1,))] * 2
        family = generate_extremal_variant_family(4, 2, spec)
        factor = construct_rainbow_factor_extremal(family)
        factor.validate(family)
        assert rainbow_k_factor_search(family).status == FOUND

    def test_all_groups_small(self):
        # sizes 3, 3, 2 < n = 4: no anchored units at all, blocks only
        spec = [(8, (1,))] * 3 + [(7, (1,))] * 3 + [(6, (1,))] * 2
        family = generate_extremal_variant_family(4, 2, spec)
        factor = construct_rainbow_factor_extremal(family)
        factor.validate(family)

    def test_three_units_k3(self):
        spec = [(12, (1, 2))] * 6 + [(11, (1, 2))] * 6 + [(10, (1, 3))] * 6
        family = generate_extremal_variant_family(6, 3, spec)
        construct_rainbow_factor_extremal(family).validate(family)

    @pytest.mark.parametrize("seed", [101, 202, 303, 404])
    def test_random_families_n4_n5(self, seed):
        rng = make_rng(seed)
        for _ in range(25):
            n = int(rng.choice([4, 5]))
            spec = random_deficiency_spec(n, 2, rng)
            family = generate_extremal_variant_family(n, 2, spec)
            construct_rainbow_factor_extremal(family).validate(family)

    def test_random_families_k3(self):
        rng = make_rng(9090)
        for _ in range(15):
            spec = random_deficiency_spec(6, 3, rng)
            family = generate_extremal_variant_family(6, 3, spec)
            construct_rainbow_factor_extremal(family).validate(family)


def rotating_spec(n, k, deficient):
    """One entry per deficient vertex in order; repeats of a vertex rotate
    its k-1 neighbors through the other part."""
    seen = Counter()
    spec = []
    for u in deficient:
        part = list(range(n + 1, 2 * n + 1) if u <= n else range(1, n + 1))
        spec.append((u, tuple(sorted(part[(seen[u] + j) % n] for j in range(k - 1)))))
        seen[u] += 1
    return spec


def random_family_spec(n, k, rng):
    """kn random entries with two distinct ones; in a third of the draws
    (by the rng) the deficient vertices come from only 2 or 3 vertices."""
    if rng.random() < 1 / 3:
        size = int(rng.integers(2, 4))
        vertices = [int(v) for v in rng.choice(range(1, 2 * n + 1), size=size, replace=False)]
    else:
        vertices = list(range(1, 2 * n + 1))
    while True:
        spec = []
        for _ in range(k * n):
            u = vertices[int(rng.integers(len(vertices)))]
            pool = range(n + 1, 2 * n + 1) if u <= n else range(1, n + 1)
            nbrs = tuple(sorted(int(v) for v in rng.choice(list(pool), size=k - 1, replace=False)))
            spec.append((u, nbrs))
        if len(set(spec)) >= 2:
            return spec


class TestLeftoverBlocks:
    def test_every_deficient_vertex_multiset_n4_k2(self):
        # every multiset of 8 deficient vertices out of 8 with two distinct
        # vertices: C(15, 8) - 8 = 6,427 families
        built = 0
        for deficient in combinations_with_replacement(range(1, 9), 8):
            if len(set(deficient)) < 2:
                continue
            family = generate_extremal_variant_family(4, 2, rotating_spec(4, 2, deficient))
            construct_rainbow_factor_extremal(family).validate(family)
            built += 1
        assert built == 6427

    def test_random_families_up_to_n10_k4(self):
        rng = make_rng(4141)
        shapes = [(n, k) for k in range(2, 5) for n in range(2 * k, 11)]
        for trial in range(300):
            n, k = shapes[trial % len(shapes)]
            family = generate_extremal_variant_family(n, k, random_family_spec(n, k, rng))
            construct_rainbow_factor_extremal(family).validate(family)

    def test_block_matchings_are_edge_disjoint(self):
        # up to k blocks of n slots, no deficient vertex n times or more;
        # every slot's edge avoids its deficient vertex, each block is a
        # perfect matching, and no edge serves two blocks
        rng = make_rng(5151)
        for _ in range(400):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2 * k, 11))
            slots = int(rng.integers(1, k + 1)) * n
            size = int(rng.integers(-(-slots // (n - 1)), 2 * n + 1))
            vertices = rng.choice(range(1, 2 * n + 1), size=size, replace=False)
            # each vertex n - 1 times in the pool, so fewer than n times in the blocks
            pool = [int(u) for u in vertices for _ in range(n - 1)]
            deficient = [pool[i] for i in rng.permutation(len(pool))[:slots]]
            signatures = [(u, ()) for u in deficient]
            blocks = [list(range(i + 1, i + n + 1)) for i in range(0, slots, n)]
            out = _match_blocks(n, signatures, blocks)
            assert sorted(out) == list(range(1, slots + 1))
            for slot, edge in out.items():
                assert deficient[slot - 1] not in edge
            for block in blocks:
                edges = [out[s] for s in block]
                assert sorted(x for x, _ in edges) == list(range(1, n + 1))
                assert sorted(y for _, y in edges) == list(range(n + 1, 2 * n + 1))
            assert len(set(out.values())) == slots

    def test_construction_never_searches(self, monkeypatch):
        calls = []

        def spy(name):
            def record(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"construction called {name}")

            return record

        for name in ("rainbow_perfect_matching_search", "rainbow_k_factor_search", "_search"):
            monkeypatch.setattr(factors, name, spy(name))
        rng = make_rng(6161)
        for n, k in [(4, 2), (5, 2), (6, 3), (8, 4), (9, 3)]:
            for _ in range(10):
                family = generate_extremal_variant_family(n, k, random_family_spec(n, k, rng))
                construct_rainbow_factor_extremal(family).validate(family)
        assert calls == []


class TestPreconditions:
    def test_rejects_identical_family(self):
        family = GraphFamily(4, 2, (build_extremal(4, 2),) * 8)
        with pytest.raises(GraphError):
            construct_rainbow_factor_extremal(family)

    def test_rejects_non_extremal_member(self):
        members = (build_extremal(4, 2),) * 7 + (BipartiteGraph.complete(4),)
        family = GraphFamily(4, 2, members)
        with pytest.raises(GraphError):
            construct_rainbow_factor_extremal(family)

    def test_rejects_small_n(self):
        spec = [(6, (1,))] * 5 + [(5, (1,))]
        family = generate_extremal_variant_family(3, 2, spec)
        with pytest.raises(GraphError):
            construct_rainbow_factor_extremal(family)


class TestRepair:
    @staticmethod
    def two_group_family():
        spec = [(8, (1,))] * 4 + [(7, (2,))] * 4
        return generate_extremal_variant_family(4, 2, spec)

    def test_no_duplicates_is_identity(self):
        spec = [(8, (1,))] * 4 + [(6, (2,))] * 4
        family = generate_extremal_variant_family(4, 2, spec)
        assignment = {
            1: (1, 8), 2: (2, 7), 3: (3, 6), 4: (4, 5),
            5: (2, 6), 6: (1, 5), 7: (3, 8), 8: (4, 7),
        }
        assert _repair_multiedges(assignment, family) == assignment

    def test_hand_built_duplicate(self):
        family = self.two_group_family()
        assignment = {
            1: (1, 8), 2: (2, 7), 3: (3, 6), 4: (4, 5),
            5: (2, 7), 6: (1, 5), 7: (3, 8), 8: (4, 6),
        }
        before = union_degrees(assignment)
        repaired = _repair_multiedges(assignment, family)
        edges = list(repaired.values())
        assert len(set(edges)) == len(edges)
        assert union_degrees(repaired) == before
        for slot, e in repaired.items():
            assert family[slot - 1].has_edge(*e)

    def test_rejects_irregular_union(self):
        family = self.two_group_family()
        assignment = {1: (1, 8), 2: (1, 7), 3: (2, 6), 4: (4, 5)}
        with pytest.raises(GraphError):
            _repair_multiedges(assignment, family)

    def test_rejects_foreign_edge(self):
        family = self.two_group_family()
        # (3, 8) is missing from the first group's members
        assignment = {
            1: (3, 8), 2: (2, 7), 3: (1, 6), 4: (4, 5),
            5: (2, 5), 6: (1, 7), 7: (4, 8), 8: (3, 6),
        }
        with pytest.raises(GraphError):
            _repair_multiedges(assignment, family)

    def test_degree_vector_preserved_on_randomized_runs(self):
        # colliding perfect matchings from random two-group families
        rng = make_rng(24601)

        def group_matching(n, u, nbr):
            # a perfect matching valid for the group: its deficient vertex u
            # (in Y) pairs with its designated neighbor, everything else is a
            # random matching of the remaining vertices
            xs = [x for x in range(1, n + 1) if x != nbr]
            ys = [y for y in range(n + 1, 2 * n + 1) if y != u]
            order = rng.permutation(len(xs))
            matching = [(nbr, u)] + [(xs[i], ys[int(order[i])]) for i in range(len(xs))]
            return matching

        for _ in range(500):
            n = int(rng.choice([4, 5]))
            ys = list(range(n + 1, 2 * n + 1))
            u1, u2 = (int(v) for v in rng.choice(ys, size=2, replace=False))
            s1 = int(rng.integers(1, n + 1))
            s2 = int(rng.integers(1, n + 1))
            spec = [(u1, (s1,))] * n + [(u2, (s2,))] * n
            family = generate_extremal_variant_family(n, 2, spec)
            m1 = group_matching(n, u1, s1)
            m2 = group_matching(n, u2, s2)
            assignment = {i + 1: e for i, e in enumerate(m1)}
            assignment.update({n + i + 1: e for i, e in enumerate(m2)})
            for slot, e in assignment.items():
                assert family[slot - 1].has_edge(*e)
            before = union_degrees(assignment)
            repaired = _repair_multiedges(assignment, family)
            assert union_degrees(repaired) == before
            edges = list(repaired.values())
            assert len(set(edges)) == len(edges)

