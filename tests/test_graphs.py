from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from rfl.graphs import (
    BipartiteGraph,
    ExtremalParams,
    GraphError,
    build_extremal,
    build_join,
    extremal_signature,
    labeled_extremal_copy,
)
from tests.conftest import random_graph
from tests.oracles import (
    bowtie_join,
    build_complete_bipartite,
    extremal_signatures_by_copy,
    induced_delete_vertex,
    is_extremal_isomorphic,
    quasi_complement,
)


def brute_force_isomorphic_to_extremal(g: BipartiteGraph, n: int, k: int) -> bool:
    """Oracle: try every part-preserving permutation, with and without the
    X/Y swap.  A permutation of X only reorders the X-rows, so each
    permutation of Y is tried once and the sorted rows compared with the
    target's.  Only usable for n <= 6."""
    if g.n != n:
        return False
    target = build_extremal(n, k)
    target_rows = sorted(target.x_rows)
    for cand in (g, g.transposed()):
        if cand.edge_count() != target.edge_count():
            continue
        row_bits = [[j for j in range(n) if row >> j & 1] for row in cand.x_rows]
        for py in permutations(range(n)):
            rows = sorted(sum(1 << py[j] for j in bits) for bits in row_bits)
            if rows == target_rows:
                return True
    return False


def graphs(max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.tuples(*[st.integers(0, (1 << n) - 1)] * n),
        )
    ).map(lambda t: BipartiteGraph(t[0], t[1]))


class TestBipartiteGraph:
    def test_rejects_out_of_range_edges(self):
        with pytest.raises(GraphError):
            BipartiteGraph.from_edges(2, [(1, 2)])
        with pytest.raises(GraphError):
            BipartiteGraph.from_edges(2, [(3, 4)])

    def test_bad_row_is_named(self):
        # the first row out of range is named, whether it is too wide or negative
        with pytest.raises(GraphError, match="row 2 has bits"):
            BipartiteGraph(3, (7, 8, -1))
        with pytest.raises(GraphError, match="row 3 has bits"):
            BipartiteGraph(3, (7, 0, -1))

    def test_edge_iteration_is_lexicographic(self):
        g = BipartiteGraph.from_edges(3, [(2, 6), (1, 4), (2, 4)])
        assert list(g.edges()) == [(1, 4), (2, 4), (2, 6)]

    def test_mirrored_view_agrees(self):
        g = BipartiteGraph.from_edges(3, [(1, 4), (2, 5), (3, 4), (3, 6)])
        for x in range(1, 4):
            for y in range(4, 7):
                assert g.has_edge(x, y) == (x in g.neighbors(y))

    def test_mirrored_view_matches_edges_at_every_width(self, rng):
        # rows of one byte, of several, and on both sides of a byte boundary
        for n in (*range(1, 18), 63, 64, 65, 130):
            for prob in (0.0, 0.3, 0.9, 1.0):
                g = random_graph(rng, n, prob)
                cols = [0] * n
                for x, y in g.edges():
                    cols[y - n - 1] |= 1 << (x - 1)
                assert g.y_cols == tuple(cols)

    def test_degree_sums_match_edge_count(self):
        g = BipartiteGraph.from_edges(4, [(1, 5), (2, 6), (2, 7), (4, 8)])
        assert sum(g.degree(v) for v in range(1, 5)) == g.edge_count()
        assert sum(g.degree(v) for v in range(5, 9)) == g.edge_count()

    def test_transposed_involution(self):
        g = BipartiteGraph.from_edges(3, [(1, 5), (2, 4), (3, 6), (1, 6)])
        assert g.transposed().transposed() == g


class TestCompleteBipartite:
    def test_single_edge(self):
        g = build_complete_bipartite(1, 1, 0, 0, 2)
        assert g.edge_set() == {(1, 3)}

    def test_empty_part(self):
        assert build_complete_bipartite(0, 3, 0, 0, 4).edge_count() == 0

    def test_full_block_count(self):
        g = build_complete_bipartite(4, 3, 0, 0, 4)
        assert g.edge_count() == 12
        assert g.edge_set() == {(x, y) for x in range(1, 5) for y in range(5, 8)}

    def test_offsets(self):
        g = build_complete_bipartite(2, 1, 1, 2, 4)
        assert g.edge_set() == {(2, 7), (3, 7)}

    def test_rejects_overflow(self):
        with pytest.raises(GraphError):
            build_complete_bipartite(3, 1, 2, 0, 4)


class TestQuasiComplement:
    def test_of_complete_is_empty(self):
        assert quasi_complement(BipartiteGraph.complete(3)).edge_count() == 0

    def test_of_empty_is_complete(self):
        assert quasi_complement(BipartiteGraph.empty(3)).edge_count() == 9

    def test_involution_single_edge(self):
        g = BipartiteGraph.from_edges(2, [(1, 3)])
        assert quasi_complement(quasi_complement(g)) == g

    @settings(max_examples=60)
    @given(graphs())
    def test_involution_and_count(self, g):
        c = quasi_complement(g)
        assert quasi_complement(c) == g
        assert g.edge_count() + c.edge_count() == g.n * g.n


class TestBowtieJoin:
    def test_builds_extremal_4_2(self):
        # complete 1x3 block joined with the empty complement block
        g1 = build_complete_bipartite(1, 3, 0, 0, 4)
        g2 = BipartiteGraph.empty(4)
        joined = bowtie_join(g1, g2, x1=[1], y1=[5, 6, 7])
        expected = {(1, y) for y in (5, 6, 7, 8)}
        expected |= {(x, y) for x in (2, 3, 4) for y in (5, 6, 7)}
        assert joined.edge_set() == expected
        assert [joined.degree(v) for v in (1, 2, 3, 4)] == [4, 3, 3, 3]
        assert [joined.degree(v) for v in (5, 6, 7, 8)] == [4, 4, 4, 1]

    def test_empty_pieces_leave_only_cross_edges(self):
        e = BipartiteGraph.empty(4)
        joined = bowtie_join(e, e, x1=[1], y1=[5])
        expected = {(1, y) for y in (6, 7, 8)} | {(x, 5) for x in (2, 3, 4)}
        assert joined.edge_set() == expected
        assert joined.edge_count() == 6

    def test_edge_count_identity(self):
        # |E| = |E1| + |E2| + |X1||Y2| + |X2||Y1|
        g1 = BipartiteGraph.from_edges(5, [(1, 6), (2, 7)])
        g2 = BipartiteGraph.from_edges(5, [(4, 9), (5, 8), (5, 10)])
        joined = bowtie_join(g1, g2, x1=[1, 2, 3], y1=[6, 7])
        assert joined.edge_count() == 2 + 3 + 3 * 3 + 2 * 2

    def test_edge_count_identity_on_random_splits(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            a = int(rng.integers(1, n))
            b = int(rng.integers(1, n))
            x1, y1 = list(range(1, a + 1)), list(range(n + 1, n + b + 1))
            g1_edges = [
                (x, y) for x in x1 for y in y1 if rng.random() < 0.5
            ]
            g2_edges = [
                (x, y)
                for x in range(a + 1, n + 1)
                for y in range(n + b + 1, 2 * n + 1)
                if rng.random() < 0.5
            ]
            g1 = BipartiteGraph.from_edges(n, g1_edges)
            g2 = BipartiteGraph.from_edges(n, g2_edges)
            joined = bowtie_join(g1, g2, x1=x1, y1=y1)
            expected = len(g1_edges) + len(g2_edges) + a * (n - b) + (n - a) * b
            assert joined.edge_count() == expected

    def test_rejects_stray_edges(self):
        g1 = BipartiteGraph.from_edges(4, [(3, 5)])  # X-vertex 3 is not in X1
        with pytest.raises(GraphError):
            bowtie_join(g1, BipartiteGraph.empty(4), x1=[1], y1=[5, 6, 7])


class TestBuildExtremal:
    def test_4_2_frozen(self):
        g = build_extremal(4, 2)
        assert g.edge_count() == 13
        assert g.degree(1) == 4
        assert [g.degree(v) for v in (2, 3, 4)] == [3, 3, 3]
        assert [g.degree(v) for v in (5, 6, 7)] == [4, 4, 4]
        assert g.degree(8) == 1

    def test_6_3_count(self):
        assert build_extremal(6, 3).edge_count() == 36 - 6 + 3 - 1

    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in range(4, 11) for k in (2, 3, 4) if n >= 2 * k]
    )
    def test_grid_structure(self, n, k):
        g = build_extremal(n, k)
        assert g.edge_count() == n * n - n + k - 1
        degrees = sorted(g.degree(v) for v in range(1, 2 * n + 1))
        assert degrees.count(k - 1) == 1
        assert degrees[0] == k - 1
        assert all(d in (k - 1, n - 1, n) for d in degrees)

    def test_rejects_bad_params(self):
        with pytest.raises(GraphError):
            build_extremal(2, 2)


class TestBuildJoin:
    def test_p_equals_k_degenerates(self):
        for n, k in [(4, 2), (5, 2), (6, 2), (6, 3), (8, 3), (8, 4)]:
            assert build_join(ExtremalParams(n, k, k)) == build_extremal(n, k)

    def test_4_2_3_frozen(self):
        # X1 = {1,2} complete to Y, X2 = {3,4} complete to Y1 = {5,6}
        g = build_join(ExtremalParams(4, 2, 3))
        expected = {(x, y) for x in (1, 2) for y in (5, 6, 7, 8)}
        expected |= {(x, y) for x in (3, 4) for y in (5, 6)}
        assert g.edge_set() == expected
        assert g.edge_count() == 12

    def test_6_2_5_degrees(self):
        g = build_join(ExtremalParams(6, 2, 5))
        assert [g.degree(v) for v in range(1, 5)] == [6] * 4  # X1
        assert [g.degree(v) for v in (5, 6)] == [2, 2]  # X2: n+k-p-1
        assert [g.degree(v) for v in (7, 8)] == [6, 6]  # Y1
        assert [g.degree(v) for v in (9, 10, 11, 12)] == [4] * 4  # Y2: p-1

    def test_rejects_invalid_p(self):
        with pytest.raises(GraphError):
            ExtremalParams(4, 2, 4)
        with pytest.raises(GraphError):
            ExtremalParams(4, 2, 1)


def composed_extremal(n: int, k: int) -> BipartiteGraph:
    """Oracle: build_extremal as the join of a complete (k-1) x (n-1) block
    with the quasi-complement of a complete (n-k+1) x 1 block."""
    g1 = build_complete_bipartite(k - 1, n - 1, 0, 0, n)
    return bowtie_join(g1, BipartiteGraph.empty(n), x1=range(1, k), y1=range(n + 1, 2 * n))


def composed_join(n: int, k: int, p: int) -> BipartiteGraph:
    """Oracle: build_join as the join of a complete (p-1) x (n+k-p-1) block
    with the empty graph."""
    b = n + k - p - 1
    g1 = build_complete_bipartite(p - 1, b, 0, 0, n)
    return bowtie_join(g1, BipartiteGraph.empty(n), x1=range(1, p), y1=range(n + 1, n + b + 1))


def composed_labeled_copy(n: int, deficient: int, nbrs: list[int]) -> BipartiteGraph:
    """Oracle: labeled_extremal_copy as the complete graph with every other
    edge at the deficient vertex removed one at a time."""
    g = BipartiteGraph.complete(n)
    in_x = deficient <= n
    for w in range(n + 1, 2 * n + 1) if in_x else range(1, n + 1):
        if w not in nbrs:
            g = g.without_edge(*((deficient, w) if in_x else (w, deficient)))
    return g


class TestDirectBuilders:
    """The builders write their rows directly; each must equal the
    composition it replaced, kept above as the oracle."""

    def test_extremal_and_join_on_every_small_case(self):
        for n in range(2, 41):
            for k in range(1, n):
                assert build_extremal(n, k) == composed_extremal(n, k)
            for k in range(2, n // 2 + 1):
                for p in range(k, n):
                    assert build_join(ExtremalParams(n, k, p)) == composed_join(n, k, p)

    def test_labeled_copies(self, rng):
        for n in range(1, 41):
            deficient = [1, n, n + 1, 2 * n, *(int(u) for u in rng.integers(1, 2 * n + 1, 4))]
            for u in deficient:
                pool = range(n + 1, 2 * n + 1) if u <= n else range(1, n + 1)
                for k in (1, int(rng.integers(1, n + 2)), n + 1):
                    nbrs = [int(w) for w in rng.choice(pool, size=k - 1, replace=False)]
                    assert labeled_extremal_copy(n, k, u, nbrs) == composed_labeled_copy(
                        n, u, nbrs
                    ), (n, k, u, nbrs)

    def test_labeled_copy_keeps_its_checks(self):
        for args in [(4, 2, 9, [5]), (4, 2, 3, [5, 6]), (4, 2, 3, [2]), (4, 2, 6, [7])]:
            with pytest.raises(GraphError):
                labeled_extremal_copy(*args)


class TestExtremalRecognition:
    def test_permuted_copy_recognized(self):
        g = build_extremal(4, 2).relabeled({2: 3, 3: 2})
        assert is_extremal_isomorphic(g, 4, 2)

    def test_near_complete_rejected(self):
        g = BipartiteGraph.complete(4).without_edge(1, 5)
        assert not is_extremal_isomorphic(g, 4, 2)

    def test_join_not_extremal(self):
        g = build_join(ExtremalParams(5, 2, 3))
        assert not is_extremal_isomorphic(g, 5, 2)
        assert not brute_force_isomorphic_to_extremal(g, 5, 2)

    def test_deficient_vertex_in_x(self):
        g = labeled_extremal_copy(4, 2, 3, [6])
        assert is_extremal_isomorphic(g, 4, 2)

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2)])
    def test_agrees_with_brute_force_on_labeled_copies(self, n, k, rng):
        for _ in range(15):
            u = int(rng.integers(1, 2 * n + 1))
            pool = list(range(n + 1, 2 * n + 1)) if u <= n else list(range(1, n + 1))
            nbrs = sorted(int(v) for v in rng.choice(pool, size=k - 1, replace=False))
            g = labeled_extremal_copy(n, k, u, nbrs)
            assert is_extremal_isomorphic(g, n, k)
            assert brute_force_isomorphic_to_extremal(g, n, k)

    def test_agrees_with_brute_force_on_random_graphs(self, rng):
        from tests.conftest import random_graph

        n, k = 4, 2
        for _ in range(25):
            g = random_graph(rng, n, float(rng.random()))
            assert is_extremal_isomorphic(g, n, k) == brute_force_isomorphic_to_extremal(
                g, n, k
            )

    def test_signature_roundtrip(self):
        g = labeled_extremal_copy(5, 3, 9, [1, 4])
        assert extremal_signature(g, 3) == (9, (1, 4))
        assert extremal_signature(BipartiteGraph.complete(5), 3) is None

    def test_signature_agrees_with_copy_oracle_on_every_small_graph(self):
        # every graph with n <= 4 and every k <= n + 1: 329,780 pairs, of
        # which 116 are labeled extremal copies
        copies = 0
        for n in range(1, 5):
            ks = range(1, n + 2)
            for rows in product(range(1 << n), repeat=n):
                g = BipartiteGraph(n, rows)
                by_copy = extremal_signatures_by_copy(g, ks)
                for k in ks:
                    sig = extremal_signature(g, k)
                    assert sig == by_copy[k], (rows, k)
                    copies += sig is not None
        assert copies == 116

    def test_signature_of_every_copy(self):
        for n, k in [(4, 2), (5, 3), (7, 3)]:
            for u in range(1, 2 * n + 1):
                pool = range(n + 1, 2 * n + 1) if u <= n else range(1, n + 1)
                for nbrs in combinations(pool, k - 1):
                    g = labeled_extremal_copy(n, k, u, nbrs)
                    assert extremal_signature(g, k) == (u, nbrs)
                    assert extremal_signature(g, k + 1) is None


class TestInducedDelete:
    def test_delete_deficient_vertex_leaves_complete_block(self):
        g = induced_delete_vertex(build_extremal(4, 2), 8)
        assert g == build_complete_bipartite(4, 3, 0, 0, 4)

    def test_delete_isolated_is_noop(self):
        g = build_extremal(4, 2)
        deleted = induced_delete_vertex(g, 8)
        assert induced_delete_vertex(deleted, 8) == deleted

    @settings(max_examples=40)
    @given(graphs(), st.data())
    def test_edge_count_drops_by_degree(self, g, data):
        v = data.draw(st.integers(1, 2 * g.n))
        deleted = induced_delete_vertex(g, v)
        assert deleted.edge_count() == g.edge_count() - g.degree(v)

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            induced_delete_vertex(build_extremal(4, 2), 9)
