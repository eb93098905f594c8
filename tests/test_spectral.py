import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from rfl.graphs import (
    BipartiteGraph,
    ExtremalParams,
    GraphError,
    build_complete_bipartite,
    build_extremal,
    build_join,
)
from rfl.spectral import (
    _DENSE_START_MAX,
    ConvergenceError,
    InconsistencyError,
    SpectralReport,
    _sqrt_diff_sign,
    _y_components,
    biquadratic_coeffs,
    bracket_contains,
    extremal_charpoly,
    extremal_spectral_radius,
    join_charpoly,
    join_margin,
    largest_biquadratic_root,
    quotient_matrix,
    quotient_spectral_radius,
    spectral_radius,
)
from tests.conftest import random_graph
from tests.oracles import bfs_y_components

# largest root of x^4 - 13x^2 + 9, via x^2 = (13 + sqrt(133))/2
RHO_B_4_2 = 3.502325127302632
# join(4,2,3) radius: 1 + sqrt(5)
RHO_JOIN_4_2_3 = 3.23606797749979


def path_graph(m: int) -> BipartiteGraph:
    """The path on 2m vertices x1 y1 x2 y2 ... xm ym: one block of m Y-vertices."""
    return BipartiteGraph.from_edges(
        m, [(i, m + i) for i in range(1, m + 1)] + [(i + 1, m + i) for i in range(1, m)]
    )


def assert_bracket_contains(g: BipartiteGraph, report) -> None:
    # value <= rho <= value + residual, up to eigvalsh's own rounding
    # (backward stable: a few multiples of n * eps * rho)
    rho = dense_rho(g)
    slack = 2 * g.n * np.finfo(float).eps * max(rho, 1.0)
    assert report.residual < 1e-10
    assert report.value <= rho + slack
    assert rho <= report.value + report.residual + slack


def dense_rho(g: BipartiteGraph) -> float:
    """Largest eigenvalue of the full 2n x 2n adjacency matrix, by eigvalsh."""
    a = np.zeros((2 * g.n, 2 * g.n))
    for x, y in g.edges():
        a[x - 1, y - 1] = a[y - 1, x - 1] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


class TestPowerIteration:
    def test_single_edge(self):
        g = BipartiteGraph.from_edges(2, [(1, 3)])
        assert spectral_radius(g).value == pytest.approx(1.0, abs=1e-9)

    def test_complete_blocks(self):
        # rho(K_{a,b}) = sqrt(ab)
        for a in range(1, 9):
            for b in range(1, 9):
                n = max(a, b)
                g = build_complete_bipartite(a, b, 0, 0, n)
                assert spectral_radius(g).value == pytest.approx(
                    math.sqrt(a * b), abs=1e-9
                )

    def test_embedded_k43(self):
        g = build_complete_bipartite(4, 3, 0, 0, 4)
        assert spectral_radius(g).value == pytest.approx(math.sqrt(12), abs=1e-7)

    def test_extremal_4_2_against_dense_oracle(self):
        g = build_extremal(4, 2)
        report = spectral_radius(g)
        assert report.value == pytest.approx(RHO_B_4_2, abs=1e-7)
        assert report.value == pytest.approx(dense_rho(g), abs=1e-7)
        assert report.method == "power-iteration"
        assert report.residual < 1e-10

    def test_empty_graph(self):
        assert spectral_radius(BipartiteGraph.empty(3)).value == pytest.approx(0.0, abs=1e-9)

    def test_agrees_with_dense_oracle_on_random_graphs(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 8))
            g = random_graph(rng, n, float(rng.random()))
            assert spectral_radius(g).value == pytest.approx(dense_rho(g), abs=1e-7)

    def test_disconnected_takes_max_component(self):
        # K_{2,2} on {1,2}x{5,6} plus a single far edge (4,8)
        g = BipartiteGraph.from_edges(4, [(1, 5), (1, 6), (2, 5), (2, 6), (4, 8)])
        assert spectral_radius(g).value == pytest.approx(2.0, abs=1e-8)

    def test_bracket_contains_dense_radius(self, rng):
        graphs = [build_extremal(160, 2)]
        for _ in range(120):
            n = int(rng.integers(1, 10))
            g = random_graph(rng, n, float(rng.random()) ** 2)  # sparse: often disconnected
            graphs.append(g)
            isolated = int(rng.integers(1, n + 1))
            graphs.append(BipartiteGraph(n, tuple(r & ~(1 << (isolated - 1)) for r in g.x_rows)))
        for g in graphs:
            assert_bracket_contains(g, spectral_radius(g))

    def test_bracket_contains_dense_radius_on_every_small_graph(self):
        # every graph with n <= 3 and its transpose: all their blocks are
        # dense-started
        for n in range(1, 4):
            for code in range(1 << (n * n)):
                rows = tuple((code >> (n * i)) & ((1 << n) - 1) for i in range(n))
                g = BipartiteGraph(n, rows)
                for h in (g, g.transposed()):
                    assert_bracket_contains(h, spectral_radius(h))

    def test_dense_start_limit(self, monkeypatch):
        # a path's block needs many products from all-ones; one at or below
        # the limit is started from eigh's Perron vector and closes at once
        sizes = []
        eigh = np.linalg.eigh

        def spy(a):
            sizes.append(a.shape[0])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        below = spectral_radius(path_graph(_DENSE_START_MAX))
        assert sizes == [_DENSE_START_MAX]
        assert below.iterations == 1
        above = spectral_radius(path_graph(_DENSE_START_MAX + 1))
        assert sizes == [_DENSE_START_MAX]
        assert above.iterations > 50
        for m, report in ((_DENSE_START_MAX, below), (_DENSE_START_MAX + 1, above)):
            assert_bracket_contains(path_graph(m), report)

    def test_dense_start_falls_back_to_all_ones(self, monkeypatch):
        # a start vector with a zero entry would divide by zero in the
        # Collatz-Wielandt bound; the block must start from all-ones instead
        g = path_graph(8)

        def start_with(vector):
            def fake(a):
                return np.zeros(len(a)), np.tile(vector(len(a)), (len(a), 1)).T

            return fake

        monkeypatch.setattr(np.linalg, "eigh", start_with(lambda size: np.ones(size)))
        from_ones = spectral_radius(g)
        monkeypatch.setattr(
            np.linalg, "eigh", start_with(lambda size: np.eye(size)[0])  # zero past entry 0
        )
        fallback = spectral_radius(g)
        assert fallback == from_ones
        assert fallback.iterations > 1
        assert_bracket_contains(g, fallback)

    def test_slow_top_component_beside_small_one(self):
        # a path on 40 vertices (rho = 2 cos(pi/41)) beside a path on 4
        # vertices (rho = golden ratio): the path's bracket needs many products
        m = 20
        n = m + 2
        path = [(i, n + i) for i in range(1, m + 1)] + [(i + 1, n + i) for i in range(1, m)]
        small = [(m + 1, n + m + 1), (m + 2, n + m + 1), (m + 2, n + m + 2)]
        g = BipartiteGraph.from_edges(n, path + small)
        assert not g.is_connected()
        report = spectral_radius(g)
        rho = 2 * math.cos(math.pi / (2 * m + 1))
        assert report.iterations > 50
        assert report.residual < 1e-10
        assert rho - 1e-12 <= report.value <= rho + 1e-12
        assert report.value == pytest.approx(dense_rho(g), abs=1e-10)

    def test_two_large_components_beside_isolated_vertices(self):
        # a path block of 20 Y-vertices, then a denser block of 25 with the
        # larger radius, both above the dense-start limit; X-vertices 46, 47
        # and Y-vertices 46, 47 are isolated
        n, m = 47, 20
        edges = [(i, n + i) for i in range(1, m + 1)] + [(i + 1, n + i) for i in range(1, m)]
        edges += [
            (x, n + y)
            for x in range(m + 1, 46)
            for y in range(m + 1, 46)
            if (x * 7 + y * 3) % 5 < 2 or x == y
        ]
        g = BipartiteGraph.from_edges(n, edges)
        blocks = _y_components(g.x_rows)
        assert [b.bit_count() for b in blocks] == [m, 25] and m > _DENSE_START_MAX
        report = spectral_radius(g)
        assert report.value > 2.0  # the later block's radius, not the path's
        assert_bracket_contains(g, report)

    def test_iteration_totals_of_dense_started_blocks_pinned(self, rng):
        # every block here has at most 8 Y-vertices and starts from eigh's
        # Perron vector; the benchmark's shift-audit work count sums such
        # calls, so a change to the dense-block product must not move these
        # totals unseen (both measured on the matrix-free loop before it
        # took its products on the formed Gram matrix)
        small = 0
        for n in range(1, 4):
            for code in range(1 << (n * n)):
                rows = tuple((code >> (n * i)) & ((1 << n) - 1) for i in range(n))
                g = BipartiteGraph(n, rows)
                small += spectral_radius(g).iterations + spectral_radius(g.transposed()).iterations
        assert small == 910
        sampled = 0
        for _ in range(300):
            n = int(rng.integers(1, 9))
            sampled += spectral_radius(random_graph(rng, n, float(rng.random()))).iterations
        assert sampled == 214

    @pytest.mark.parametrize(
        "n, k, p, iterations",
        [(100, 3, 3, 4), (300, 4, 4, 3), (1000, 2, 2, 3), (100, 3, 33, 12), (300, 4, 100, 12)],
    )
    def test_iteration_counts_pinned(self, n, k, p, iterations):
        # the benchmark's work count sums these; a change to the product or
        # the stopping rule must not move them unseen (p = k: the extremal graph)
        g = build_extremal(n, k) if p == k else build_join(ExtremalParams(n, k, p))
        assert spectral_radius(g).iterations == iterations

    def test_no_gram_matrix_of_a_large_block(self):
        # B alone takes n^2 float64 entries; a formed n x n Gram matrix
        # B^T B would double the peak
        n = 600
        g = build_extremal(n, 2)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            spectral_radius(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    def test_no_dense_b_for_two_distinct_rows(self):
        # B(n, 2) has two distinct rows; above the dense-start limit the
        # products run on those two rows and their multiplicities, so even
        # a sixteenth of one dense B would be too much
        n = 2000
        g = build_extremal(n, 2)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            spectral_radius(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 16

    def test_twin_rows_against_dense_and_row_order(self, rng):
        # rows drawn from a small pool, so most rows have twins: some pool
        # rows lie in the first s <= _DENSE_START_MAX Y-vertices (a
        # dense-started block), the others in the rest (a matrix-free block
        # once more than _DENSE_START_MAX of them are covered)
        sizes = []
        for _ in range(60):
            n = int(rng.integers(17, 49))
            s = int(rng.integers(2, _DENSE_START_MAX + 1))
            pool = []
            for lo, hi in ((0, s), (0, s), (s, n), (s, n), (s, n), (s, n)):
                picks = rng.random(hi - lo) < 0.4
                pool.append(sum(1 << j for j in range(lo, hi) if picks[j - lo]))
            rows = [pool[int(i)] for i in rng.integers(0, len(pool), n)]
            g = BipartiteGraph(n, tuple(rows))
            report = spectral_radius(g)
            assert_bracket_contains(g, report)
            shuffled = BipartiteGraph(n, tuple(rows[int(i)] for i in rng.permutation(n)))
            assert spectral_radius(shuffled).iterations == report.iterations
            sizes += [b.bit_count() for b in _y_components(g.x_rows)]
        assert any(1 < size <= _DENSE_START_MAX for size in sizes)
        assert any(size > _DENSE_START_MAX for size in sizes)

    def test_stars_of_duplicated_rows_above_the_dense_start_limit(self):
        # Y-vertex 4 is adjacent to 5 X-vertices, Y-vertex 8 to 3, the
        # others to at most one: every block is a star
        n = 20
        rows = [1 << 3] * 5 + [1 << 7] * 3 + [1 << j for j in range(9, 19)] + [0, 0]
        for order in (rows, rows[::-1]):
            g = BipartiteGraph(n, tuple(order))
            report = spectral_radius(g)
            assert (report.value, report.iterations, report.residual) == (math.sqrt(5), 0, 0.0)
            assert_bracket_contains(g, report)

    def test_part_swap_keeps_radius(self, rng):
        # M = B^T B is one-sided; the transposed graph iterates on B B^T
        for _ in range(60):
            n = int(rng.integers(1, 10))
            g = random_graph(rng, n, float(rng.random()))
            assert spectral_radius(g).value == pytest.approx(
                spectral_radius(g.transposed()).value, abs=1e-10
            )

    def test_iteration_cap_raises(self):
        # 20 Y-vertices in one block: above the dense-start limit
        g = build_extremal(20, 2)
        with pytest.raises(ConvergenceError):
            spectral_radius(g, tol=1e-16, max_iterations=3)

    def test_zero_iteration_cap_raises_on_dense_started_block(self):
        with pytest.raises(ConvergenceError):
            spectral_radius(build_extremal(6, 2), max_iterations=0)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(GraphError):
            spectral_radius(BipartiteGraph.empty(2), tol=0.0)

    def test_subgraph_monotone_under_edge_addition(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            g = random_graph(rng, n, 0.5)
            missing = [
                (x, y)
                for x in range(1, n + 1)
                for y in range(n + 1, 2 * n + 1)
                if not g.has_edge(x, y)
            ]
            if not missing:
                continue
            x, y = missing[int(rng.integers(0, len(missing)))]
            assert (
                spectral_radius(g.with_edge(x, y)).value
                >= spectral_radius(g).value - 1e-9
            )


class TestYComponents:
    def test_against_bfs_on_sparse_graphs(self, rng):
        # about one edge per vertex: many blocks, and rows that merge blocks
        # made by earlier rows in every order
        for _ in range(300):
            n = int(rng.integers(1, 31))
            g = random_graph(rng, n, float(rng.random()) * 2.5 / n)
            blocks = _y_components(g.x_rows)
            assert len(set(blocks)) == len(blocks)
            assert sorted(blocks) == sorted(bfs_y_components(g)), g.x_rows

    def test_chains_whose_links_arrive_shuffled(self, rng):
        # row i joins Y-vertices i and i+1 (a path), rows in random order:
        # the last rows merge long runs of blocks built apart
        for n in (2, 5, 40, 300):
            order = rng.permutation(n - 1)
            rows = [(1 << int(i)) | (1 << int(i) + 1) for i in order] + [0]
            g = BipartiteGraph(n, tuple(rows))
            assert _y_components(g.x_rows) == [(1 << n) - 1]
            assert bfs_y_components(g) == [(1 << n) - 1]

    def test_perfect_matchings_and_isolated_vertices(self, rng):
        for n in (1, 2, 7, 2000):
            perm = rng.permutation(n)
            g = BipartiteGraph(n, tuple(1 << int(j) for j in perm))
            assert sorted(_y_components(g.x_rows)) == [1 << j for j in range(n)]
            report = spectral_radius(g)  # n stars of degree 1
            assert (report.value, report.iterations, report.residual) == (1.0, 0, 0.0)
        assert _y_components(BipartiteGraph.empty(5).x_rows) == []
        # X-vertex 1 and Y-vertex 2 isolated; two blocks {1, 3} and {4}
        g = BipartiteGraph(4, (0, 0b0101, 0b0001, 0b1000))
        assert sorted(_y_components(g.x_rows)) == sorted(bfs_y_components(g)) == [0b0101, 0b1000]


class TestQuotientMatrix:
    def test_extremal_4_2(self):
        q = quotient_matrix(ExtremalParams(4, 2, 2))
        assert q.entries == (
            (0.0, 0.0, 3.0, 1.0),
            (0.0, 0.0, 3.0, 0.0),
            (1.0, 3.0, 0.0, 0.0),
            (1.0, 0.0, 0.0, 0.0),
        )
        assert q.partition_sizes == (1, 3, 3, 1)

    def test_join_4_2_3(self):
        q = quotient_matrix(ExtremalParams(4, 2, 3))
        assert q.entries == (
            (0.0, 0.0, 2.0, 2.0),
            (0.0, 0.0, 2.0, 0.0),
            (2.0, 2.0, 0.0, 0.0),
            (2.0, 0.0, 0.0, 0.0),
        )
        assert q.partition_sizes == (2, 2, 2, 2)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_row_sum_consistency(self, k):
        # entry(i,j) * size(i) = entry(j,i) * size(j): both count block edges
        for n in range(2 * k, 11):
            for p in range(k, n):
                q = quotient_matrix(ExtremalParams(n, k, p))
                m, sizes = q.as_array(), q.partition_sizes
                for i in range(4):
                    for j in range(4):
                        assert m[i, j] * sizes[i] == m[j, i] * sizes[j]

    def test_partition_sizes_sum_to_2n(self):
        for n, k, p in [(4, 2, 2), (4, 2, 3), (10, 4, 7), (8, 3, 5)]:
            assert sum(quotient_matrix(ExtremalParams(n, k, p)).partition_sizes) == 2 * n

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_quotient_radius_matches_adjacency(self, k):
        # the equitable quotient shares its largest eigenvalue with A(G)
        for n in range(2 * k, 11):
            for p in range(k, n):
                params = ExtremalParams(n, k, p)
                c2, c0 = quotient_matrix(params).char_poly_coeffs()
                closed = largest_biquadratic_root(c2, c0)
                power = spectral_radius(build_join(params)).value
                assert closed == pytest.approx(power, abs=1e-7)

    def test_quotient_eigenvalues_match_4x4_oracle(self):
        for n, k, p in [(4, 2, 3), (6, 3, 4), (10, 4, 7), (9, 2, 5)]:
            q = quotient_matrix(ExtremalParams(n, k, p))
            top = max(abs(v) for v in np.linalg.eigvals(q.as_array()))
            c2, c0 = q.char_poly_coeffs()
            assert largest_biquadratic_root(c2, c0) == pytest.approx(top, abs=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_irreducible_for_all_valid_params(self, k):
        # every block reaches every other: (I + M)^4 is strictly positive
        for n in range(2 * k, 11):
            for p in range(k, n):
                m = quotient_matrix(ExtremalParams(n, k, p)).as_array()
                reach = np.linalg.matrix_power(np.eye(4) + (m > 0), 4)
                assert (reach > 0).all()

    def test_closed_form_against_exact_signs(self):
        # x^4 - c2 x^2 + c0 in exact rationals: negative just below the
        # largest root, past the vertex x^2 = c2 / 2, and positive just above
        def f(c2, c0, x):
            t = Fraction(x) ** 2
            return t * t - c2 * t + c0

        for k in (2, 3, 4):
            for n in (*range(2 * k, 13), 100, 1000):
                for p in sorted({k, k + 1, n // 2, n - 1}):
                    c2, c0 = biquadratic_coeffs(n, k, p)
                    x = largest_biquadratic_root(c2, c0)
                    below, above = x - 4 * math.ulp(x), x + 4 * math.ulp(x)
                    assert 2 * Fraction(below) ** 2 > c2
                    assert f(c2, c0, below) < 0 < f(c2, c0, above), (n, k, p)
                    report = quotient_spectral_radius(ExtremalParams(n, k, p))
                    assert report.method == "quotient-closed-form"
                    assert abs(report.value - x) <= 2 * math.ulp(x)
                    assert report.residual <= 4 * math.ulp(x)
                    hi = report.value + report.residual
                    assert f(c2, c0, report.value) <= 0 <= f(c2, c0, hi), (n, k, p)
        with pytest.raises(GraphError):
            quotient_spectral_radius(ExtremalParams(4, 2, 3), method="newton")


class TestCharPolys:
    def test_biquadratic_coeffs_match_quotient_matrix(self):
        # the integers against the 4x4 quotient's trace and determinant
        for k in (2, 3, 4):
            for n in range(2 * k, 13):
                for p in range(k, n):
                    c2, c0 = biquadratic_coeffs(n, k, p)
                    assert isinstance(c2, int) and isinstance(c0, int)
                    q2, q0 = quotient_matrix(ExtremalParams(n, k, p)).char_poly_coeffs()
                    assert abs(q2 - c2) < 1e-6 and abs(q0 - c0) < 1e-6 * max(1, c0)

    def test_biquadratic_coeffs_at_p_k_are_extremal(self):
        assert biquadratic_coeffs(4, 2, 2) == (13, 9)
        for n, k in [(6, 3), (9, 4), (1000, 5)]:
            assert biquadratic_coeffs(n, k, k) == (n * (n - 1) + k - 1, (n - 1) * (n - k + 1) * (k - 1))

    def test_extremal_constant_term(self):
        assert extremal_charpoly(4, 2, 0.0) == 9

    def test_extremal_vanishes_at_radius(self):
        assert extremal_charpoly(4, 2, RHO_B_4_2) == pytest.approx(0.0, abs=1e-9)

    def test_extremal_at_sqrt_12(self):
        assert extremal_charpoly(4, 2, math.sqrt(12)) == pytest.approx(-3.0, abs=1e-9)

    def test_join_constant_term(self):
        assert join_charpoly(ExtremalParams(4, 2, 3), 0.0) == 16

    def test_join_vanishes_at_radius(self):
        assert join_charpoly(ExtremalParams(4, 2, 3), RHO_JOIN_4_2_3) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_join_degenerates_to_extremal_at_p_k(self):
        for n, k in [(4, 2), (6, 3), (9, 4)]:
            params = ExtremalParams(n, k, k)
            for x in np.linspace(0.0, n, 17):
                assert join_charpoly(params, float(x)) == pytest.approx(
                    extremal_charpoly(n, k, float(x)), abs=1e-9
                )

    def test_matches_determinant_oracle(self):
        # charpoly formula vs det(xI - B) evaluated numerically
        for n, k, p in [(4, 2, 3), (6, 3, 5), (10, 4, 8)]:
            q = quotient_matrix(ExtremalParams(n, k, p)).as_array()
            for x in (0.5, 1.7, 3.3, 6.1):
                det = float(np.linalg.det(x * np.eye(4) - q))
                assert join_charpoly(ExtremalParams(n, k, p), x) == pytest.approx(
                    det, rel=1e-9, abs=1e-6
                )


class TestBiquadraticRoot:
    def test_extremal_4_2_coefficients(self):
        assert largest_biquadratic_root(13, 9) == pytest.approx(RHO_B_4_2, abs=1e-12)

    def test_unit(self):
        assert largest_biquadratic_root(1, 0) == pytest.approx(1.0, abs=1e-12)

    def test_8_8(self):
        assert largest_biquadratic_root(8, 8) == pytest.approx(2.613125929752753, abs=1e-12)

    def test_rejects_negative_discriminant(self):
        with pytest.raises(GraphError):
            largest_biquadratic_root(2, 9)

    def test_rejects_bad_signs(self):
        with pytest.raises(GraphError):
            largest_biquadratic_root(-1, 0)
        with pytest.raises(GraphError):
            largest_biquadratic_root(1, -1)


class TestJoinMargin:
    def test_4_2_3_frozen(self):
        m = join_margin(ExtremalParams(4, 2, 3))
        assert m.holds
        assert m.rho_extremal == pytest.approx(RHO_B_4_2, abs=1e-9)
        assert m.rho_join == pytest.approx(RHO_JOIN_4_2_3, abs=1e-9)
        assert m.margin == pytest.approx(0.2662571498028421, abs=1e-9)
        # direct polynomial difference at sqrt(n(n-1))
        assert m.sign_value == pytest.approx(-19.0, abs=1e-9)
        assert m.sign_ok

    def test_6_3_4(self):
        m = join_margin(ExtremalParams(6, 3, 4))
        assert m.holds
        assert m.rho_extremal == pytest.approx(5.540481789221861, abs=1e-9)
        assert m.rho_join == pytest.approx(5.231569255668225, abs=1e-9)

    def test_rejects_p_equal_k(self):
        with pytest.raises(GraphError):
            join_margin(ExtremalParams(4, 2, 2))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_full_grid_holds(self, k):
        for n in range(2 * k, 11):
            for p in range(k + 1, n):
                m = join_margin(ExtremalParams(n, k, p))
                assert m.holds and m.margin > 1e-9
                assert m.sign_ok and m.sign_value < 0

    def test_sign_value_is_exact_integer(self):
        for n, k, p in [(4, 2, 3), (10, 4, 7), (40, 3, 13)]:
            (c2b, c0b), (c2j, c0j) = biquadratic_coeffs(n, k, k), biquadratic_coeffs(n, k, p)
            x2 = n * (n - 1)  # P_B - P_J at x = sqrt(n(n-1)), in integers
            m = join_margin(ExtremalParams(n, k, p))
            assert type(m.sign_value) is int
            assert m.sign_value == (x2 * x2 - c2b * x2 + c0b) - (x2 * x2 - c2j * x2 + c0j)

    def test_closed_form_outside_bracket_raises(self, monkeypatch):
        # a power value 1e-9 below the closed form passed the old 1e-7
        # agreement; it lies outside the certified bracket
        import rfl.spectral

        real = rfl.spectral.spectral_radius

        def shifted(g, tol=None):
            r = real(g, tol=tol)
            return SpectralReport(r.value - 1e-9, r.method, r.iterations, r.residual)

        monkeypatch.setattr(rfl.spectral, "spectral_radius", shifted)
        with pytest.raises(InconsistencyError):
            join_margin(ExtremalParams(6, 3, 4))

    def test_bracket_contains(self):
        report = SpectralReport(10.0, "power-iteration", 1, 1e-10)
        eps = np.finfo(float).eps
        assert bracket_contains(report, 10.0, 5)
        assert bracket_contains(report, 10.0 + 1e-10, 5)
        assert bracket_contains(report, 10.0 - 5 * eps * 10.0, 5)
        assert not bracket_contains(report, 10.0 - 1e-12, 5)
        assert not bracket_contains(report, 10.0 + 1.01e-10 + 1e-12, 5)

    def test_sqrt_diff_sign_against_high_precision(self, rng):
        # perfect squares make exact ties (sign 0) frequent
        squares = [i * i for i in range(30)]
        seen = set()
        for _ in range(4000):
            a, b = (int(rng.choice(squares)) if rng.random() < 0.7 else int(rng.integers(0, 900)) for _ in "ab")
            w = int(rng.integers(-30, 31))
            with localcontext() as ctx:
                ctx.prec = 80
                exact = Decimal(a).sqrt() - Decimal(b).sqrt() - w
            expected = (exact > Decimal("1e-60")) - (exact < Decimal("-1e-60"))
            assert _sqrt_diff_sign(a, b, w) == expected, (a, b, w)
            seen.add((expected, w < 0))
        assert seen == {(s, neg) for s in (-1, 0, 1) for neg in (False, True)}

    def test_extremal_exceeds_sqrt_n_n_minus_1(self):
        # the extremal graph strictly contains the complete (n)x(n-1) block
        for k in (2, 3, 4):
            for n in range(2 * k, 11):
                assert extremal_spectral_radius(n, k) > math.sqrt(n * (n - 1))
