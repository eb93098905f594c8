from collections import Counter
from itertools import combinations_with_replacement

import pytest

from rfl import construction, factors, flow
from rfl.construction import construct_rainbow_factor_extremal
from rfl.factors import FOUND, rainbow_k_factor_search
from rfl.graphs import BipartiteGraph, GraphError, GraphFamily, build_extremal
from rfl.harness import (
    generate_extremal_variant_family,
    make_rng,
    random_deficiency_spec,
)


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

    def test_construction_never_searches(self, monkeypatch):
        calls = []

        def spy(name):
            def record(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"construction called {name}")

            return record

        for name in ("rainbow_perfect_matching_search", "rainbow_k_factor_search", "_Search"):
            monkeypatch.setattr(factors, name, spy(name))
        # every flow call, direct or through rfl.flow's public functions
        flow_calls = []
        exact_degree = flow._exact_degree

        def count(*args):
            flow_calls.append(1)
            return exact_degree(*args)

        monkeypatch.setattr(flow, "_exact_degree", count)
        monkeypatch.setattr(construction, "_exact_degree", count)
        rng = make_rng(6161)
        most = 0
        for n, k in [(4, 2), (5, 2), (6, 3), (8, 4), (9, 3)]:
            specs = [random_family_spec(n, k, rng) for _ in range(10)]
            specs += [spec for _kind, spec in heavy_specs(n, k)]
            for spec in specs:
                family = generate_extremal_variant_family(n, k, spec)
                flow_calls.clear()
                construct_rainbow_factor_extremal(family).validate(family)
                assert 1 <= len(flow_calls) <= 2
                most = max(most, len(flow_calls))
        assert calls == []
        assert most == 2  # the heavy families take the representatives' call


def other_part(n, v):
    return list(range(n + 1, 2 * n + 1) if v <= n else range(1, n + 1))


def heavy_specs(n, k):
    """(kind, spec) for families with more than kn - k members at one vertex
    u, in X and in Y, and o = 0..k-1 members elsewhere.  The members at u are
    identical but for the last one, or (o >= 1) all identical.  The odd list
    skips the vertex after the common one, the first spare candidate.  The o
    outsiders sit at one vertex of the other part, at o distinct ones, or in
    u's own part; the first of them is that spare candidate, and no outsider
    lists u."""
    for u in (1, 2 * n):
        part = other_part(n, u)
        listed, odd = tuple(part[: k - 1]), tuple(part[: k - 2] + [part[k]])
        own = [v for v in (range(1, n + 1) if u <= n else range(n + 1, 2 * n + 1)) if v != u]
        for o in range(k):
            places = {"one": [part[k - 1]] * o, "spread": part[k - 1 : k - 1 + o], "own": own[:o]}
            for where, vertices in places.items():
                outsiders = [
                    (v, tuple([w for w in other_part(n, v) if w != u][: k - 1])) for v in vertices
                ]
                group = [(u, listed)] * (k * n - o)
                yield f"u={u} o={o} {where} one-differs", group[:-1] + [(u, odd)] + outsiders
                if o:
                    yield f"u={u} o={o} {where} identical", group + outsiders


def two_vertex_specs(n, k):
    """(kind, spec) for families with exactly two deficient vertices a and b,
    split in several ways.  In opposite parts no member allows the edge ab;
    in the same part no edge joins them.  The members at each vertex are
    identical or rotate through lists that avoid the other vertex."""
    total = k * n
    for a, b in ((1, 2 * n), (n, n + 1), (1, n), (n + 1, 2 * n)):
        for size in sorted({1, k, total // 2, total - k, total - k + 1, total - 1}):
            for rotate in (False, True):
                spec = []
                for u, count in ((a, size), (b, total - size)):
                    pool = [w for w in other_part(n, u) if w != b and w != a]
                    for j in range(count):
                        start = j % (len(pool) - k + 2) if rotate else 0
                        spec.append((u, tuple(pool[start : start + k - 1])))
                yield f"a={a} b={b} |a|={size} rotate={rotate}", spec


BOUNDARY_SHAPES = [(n, k) for k in range(2, 7) for n in range(2 * k, 13)]


class TestHallBoundaries:
    @pytest.mark.parametrize("n, k", BOUNDARY_SHAPES)
    def test_heavy_vertex_families(self, n, k):
        built = 0
        for kind, spec in heavy_specs(n, k):
            family = generate_extremal_variant_family(n, k, spec)
            factor = construct_rainbow_factor_extremal(family)
            factor.validate(family)
            built += 1
        assert built == 2 * (3 * k + 3 * (k - 1))

    @pytest.mark.parametrize("n, k", BOUNDARY_SHAPES)
    def test_two_vertex_families(self, n, k):
        for kind, spec in two_vertex_specs(n, k):
            assert len(Counter(u for u, _ in spec)) == 2, kind
            family = generate_extremal_variant_family(n, k, spec)
            construct_rainbow_factor_extremal(family).validate(family)


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
