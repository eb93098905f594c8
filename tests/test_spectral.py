import math
import operator
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from rfl.graphs import (
    BipartiteGraph,
    ExtremalParams,
    GraphError,
    build_extremal,
    build_join,
    labeled_extremal_copy,
)
from rfl.spectral import (
    _DENSE_START_MAX,
    ConvergenceError,
    InconsistencyError,
    _certified_root,
    _class_quotient_coeffs,
    _root_sign,
    _row_counts,
    _sqrt_diff_sign,
    _twin_classes,
    _twin_quotient,
    _two_class_coeffs,
    _y_components,
    biquadratic_coeffs,
    join_margin,
    quotient_spectral_radius,
    spectral_radius,
)
from tests.conftest import bracket_below, brackets_overlap, random_graph
from tests.oracles import (
    bfs_y_components,
    build_complete_bipartite,
    extremal_charpoly,
    join_charpoly,
    quotient_matrix,
    radius_sign,
)

# largest root of x^4 - 13x^2 + 9, via x^2 = (13 + sqrt(133))/2
RHO_B_4_2 = 3.502325127302632
# join(4,2,3) radius: 1 + sqrt(5)
RHO_JOIN_4_2_3 = 3.23606797749979


def path_graph(m: int) -> BipartiteGraph:
    """The path on 2m vertices x1 y1 x2 y2 ... xm ym: one block of m Y-vertices."""
    return BipartiteGraph.from_edges(
        m, [(i, m + i) for i in range(1, m + 1)] + [(i + 1, m + i) for i in range(1, m)]
    )


def staircase(n: int) -> BipartiteGraph:
    """X-vertex i is adjacent to the first i Y-vertices: no two Y-vertices
    (or X-vertices) are twins, and the graph is connected."""
    return BipartiteGraph(n, tuple((1 << i) - 1 for i in range(1, n + 1)))


def three_class(n: int) -> BipartiteGraph:
    """One block of three Y-twin classes: the thirds C1, C2, C3 of Y (C3
    takes the remainder), and a quarter of the X-rows each C1 + C2 + C3,
    C1 + C2 and C2 + C3, the rest C1.  Its quotient is 3 x 3, so it
    iterates where the two-class extremal and join graphs take no product."""
    third = n // 3
    c1, c2, c3 = (1 << third) - 1, ((1 << third) - 1) << third, (1 << n) - (1 << 2 * third)
    quarter = n // 4
    rows = (c1 | c2 | c3,) * quarter + (c1 | c2,) * quarter + (c2 | c3,) * quarter
    return BipartiteGraph(n, rows + (c1,) * (n - 3 * quarter))


def fresh(rows) -> tuple[int, ...]:
    """The same rows as new int objects, none the same object as another,
    so that no run of identical rows can be seen."""
    return tuple(
        int.from_bytes(row.to_bytes(row.bit_length() // 8 + 1, "little"), "little") for row in rows
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

    def test_closed_form_blocks_report_their_method(self):
        # n > _DENSE_START_MAX: one block of two Y-classes, closed without a product
        report = spectral_radius(build_extremal(20, 3))
        assert report.iterations == 0
        assert report.method == "quotient-closed-form"
        closed = quotient_spectral_radius(ExtremalParams(20, 3))
        assert (report.value, report.residual) == (closed.value, closed.residual)

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
        # a twin quotient falls back to the class vector of all-ones, the
        # full all-ones start, and takes the 19 products the matrix-free loop
        # takes from it (test_iteration_counts_of_three_class_blocks_pinned)
        g = three_class(100)
        fallback = spectral_radius(g)
        assert fallback.iterations == 19
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
        "n, k, p, matrix_free",
        [(100, 3, 3, 4), (300, 4, 4, 3), (1000, 2, 2, 3), (100, 3, 33, 12), (300, 4, 100, 12)],
    )
    def test_iteration_counts_pinned(self, n, k, p, matrix_free, monkeypatch):
        # the benchmark's work count sums these (p = k: the extremal graph)
        # and reads 0: each graph has two Y-twin classes, so its block is
        # decided in closed form with no product.  With the twin split
        # refused, as for a block of more than _DENSE_START_MAX classes, the
        # matrix-free loop from all-ones takes matrix_free products, which
        # a change to the product or the stopping rule must not move unseen
        import rfl.spectral

        g = build_extremal(n, k) if p == k else build_join(ExtremalParams(n, k, p))
        assert spectral_radius(g).iterations == 0
        monkeypatch.setattr(rfl.spectral, "_twin_classes", lambda *args: None)
        assert spectral_radius(g).iterations == matrix_free

    @pytest.mark.parametrize(
        "n, quotient, matrix_free", [(100, 1, 19), (300, 1, 20), (1000, 1, 20)]
    )
    def test_iteration_counts_of_three_class_blocks_pinned(
        self, n, quotient, matrix_free, monkeypatch
    ):
        # three classes iterate: from the Perron vector of the 3 x 3
        # quotient the block closes in one product, refused it takes
        # matrix_free products from all-ones
        import rfl.spectral

        g = three_class(n)
        report = spectral_radius(g)
        assert report.iterations == quotient
        monkeypatch.setattr(rfl.spectral, "_twin_classes", lambda *args: None)
        refused = spectral_radius(g)
        assert refused.iterations == matrix_free
        assert brackets_overlap(refused, report)

    def test_iteration_counts_of_twin_free_blocks_pinned(self):
        # no twins: these blocks refuse the quotient and run matrix-free
        assert spectral_radius(staircase(300)).iterations == 14
        assert spectral_radius(path_graph(40)).iterations == 2463

    def test_no_gram_matrix_of_a_large_block(self):
        # B alone takes n^2 float64 entries (the staircase has n distinct
        # rows and no twins); a formed n x n Gram matrix B^T B would double
        # the peak
        n = 600
        g = staircase(n)
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
        # others to at most one: every block is a star.  rho = sqrt(5),
        # bracketed by exact sign checks: the float sqrt(5) lies above it,
        # so value is one ulp below
        n = 20
        rows = [1 << 3] * 5 + [1 << 7] * 3 + [1 << j for j in range(9, 19)] + [0, 0]
        value, upper = _certified_root(5, 0)
        assert value == math.nextafter(math.sqrt(5), 0)
        for order in (rows, rows[::-1]):
            g = BipartiteGraph(n, tuple(order))
            report = spectral_radius(g)
            assert (report.value, report.iterations, report.value + report.residual) == (
                value,
                0,
                upper,
            )
            assert Fraction(report.value) ** 2 <= 5 <= Fraction(report.value + report.residual) ** 2
            assert_bracket_contains(g, report)

    def test_star_brackets_hold_their_root(self):
        # one star of degree d, below and above the dense-start limit; the
        # float sqrt(d) rounds up for d = 2, 5, 7, 8, 10, 15, ...
        for n in (8, 40):
            for d in range(1, n + 1):
                g = BipartiteGraph(n, (1,) * d + (0,) * (n - d))
                report = spectral_radius(g)
                assert report.iterations == 0
                lo, hi = Fraction(report.value), Fraction(report.value + report.residual)
                assert lo**2 <= d <= hi**2, (n, d)

    @pytest.mark.parametrize(
        "n, stars, complete",
        [
            (8, [2, 2, 2], []),
            (8, [3, 2, 1, 1], []),
            (16, [5, 5, 3, 3], []),
            (40, [7, 5, 5, 2, 2, 1], []),
            (40, [5, 3, 3], [(2, 3)]),  # the complete block sets both ends
            (40, [7, 7, 2], [(2, 3), (3, 2)]),  # the stars do
            (40, [6, 6, 4], [(3, 2)]),  # a tie: rho^2 = 6 on both
        ],
    )
    def test_stars_give_the_per_block_reports(self, rng, n, stars, complete):
        # Each block bracketed on its own by _certified_root(d, 0), with
        # d = a b for a complete block K_{a,b} above the dense-start limit,
        # the reports fold to the largest ends; bracketing only the largest
        # star gives the same report, field for field.
        rows, y = [], 0
        for d in stars:
            rows += [1 << y] * d
            y += 1
        for a, b in complete:
            rows += [((1 << b) - 1) << y] * a
            y += b
        rows += [0] * (n - len(rows))
        brackets = [_certified_root(d, 0) for d in stars + [a * b for a, b in complete]]
        lo, hi = max(b[0] for b in brackets), max(b[1] for b in brackets)
        residual = hi - lo if lo + (hi - lo) >= hi else math.nextafter(hi - lo, math.inf)
        for _ in range(3):
            g = BipartiteGraph(n, tuple(rows[int(i)] for i in rng.permutation(n)))
            report = spectral_radius(g)
            assert (report.value, report.residual, report.iterations, report.method) == (
                lo, residual, 0, "quotient-closed-form"
            )

    def test_part_swap_keeps_radius(self, rng):
        # M = B^T B is one-sided; the transposed graph iterates on B B^T
        for _ in range(60):
            n = int(rng.integers(1, 10))
            g = random_graph(rng, n, float(rng.random()))
            assert spectral_radius(g).value == pytest.approx(
                spectral_radius(g.transposed()).value, abs=1e-10
            )

    def test_iteration_cap_raises(self, monkeypatch):
        # 20 Y-vertices in one block without twins: above the dense-start
        # limit, both in vertices and in classes
        import rfl.spectral

        monkeypatch.setattr(rfl.spectral, "DEFAULT_TOL", 1e-16)
        monkeypatch.setattr(rfl.spectral, "MAX_ITERATIONS", 3)
        with pytest.raises(ConvergenceError):
            spectral_radius(path_graph(20))

    def test_zero_iteration_cap_raises_on_dense_started_block(self, monkeypatch):
        import rfl.spectral

        monkeypatch.setattr(rfl.spectral, "MAX_ITERATIONS", 0)
        with pytest.raises(ConvergenceError):
            spectral_radius(build_extremal(6, 2))

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
            assert not bracket_below(spectral_radius(g.with_edge(x, y)), spectral_radius(g))


def assert_holds_rho(g: BipartiteGraph, report, coeffs=None) -> None:
    """value <= rho <= value + residual, exactly: by _root_sign on the
    closed form x^4 - c2 x^2 + c0 when coeffs are given, else by the
    integer oracle on B^T B."""
    ends = (report.value, report.value + report.residual)
    if coeffs is None:
        below, above = (radius_sign(g, end) for end in ends)
    else:
        below, above = (_root_sign(*coeffs, end) for end in ends)
    assert below >= 0 >= above, (g.n, g.x_rows, report)


class TestExactBrackets:
    # every report's bracket holds rho, decided exactly, on every path of
    # spectral_radius; before the ends of iterating blocks were rounded
    # outward, about half of these reports excluded rho
    def test_stars_and_two_class_blocks(self, rng):
        for n in (8, 20, 40):
            for d in range(1, n + 1):
                g = BipartiteGraph(n, (1,) * d + (0,) * (n - d))
                assert_holds_rho(g, spectral_radius(g), (d, 0))
        for _ in range(40):
            # one block of two Y-twin classes, above the dense-start limit
            n = int(rng.integers(_DENSE_START_MAX + 1, 41))
            split = int(rng.integers(1, n))
            c1, c2 = (1 << split) - 1, (1 << n) - (1 << split)
            rows = [(c1, c2, c1 | c2, 0)[int(i)] for i in rng.integers(0, 4, n)]
            g = BipartiteGraph(n, tuple([c1 | c2] + rows[1:]))
            report = spectral_radius(g)
            assert report.iterations == 0
            assert_holds_rho(g, report, _class_quotient_coeffs(g))

    def test_dense_blocks(self, rng):
        iterating = 0
        for _ in range(100):
            n = int(rng.integers(1, _DENSE_START_MAX + 1))
            g = random_graph(rng, n, float(rng.random()))
            report = spectral_radius(g)
            iterating += report.iterations > 0
            assert_holds_rho(g, report)
        assert iterating > 80

    def test_quotient_and_matrix_free_blocks(self, rng, monkeypatch):
        import rfl.spectral

        calls = Counter()
        for name in ("_twin_quotient", "_biadjacency"):
            real = getattr(rfl.spectral, name)
            monkeypatch.setattr(
                rfl.spectral, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a)
            )
        graphs = [path_graph(20), staircase(40), three_class(40)]
        for _ in range(6):
            # 3 to _DENSE_START_MAX Y-twin classes: the class quotient
            n = int(rng.integers(_DENSE_START_MAX + 1, 41))
            c = int(rng.integers(3, _DENSE_START_MAX + 1))
            label = rng.integers(0, c, n)
            classes = [sum(1 << j for j in range(n) if label[j] == i) for i in range(c)]
            pool = [sum(classes)] + [
                sum(cl for cl, pick in zip(classes, rng.random(c) < 0.5) if pick) for _ in range(8)
            ]
            graphs.append(BipartiteGraph(n, tuple(pool[int(i)] for i in rng.integers(0, 9, n))))
            # twin-free rows: matrix-free
            n = int(rng.integers(_DENSE_START_MAX + 1, 41))
            graphs.append(random_graph(rng, n, 0.2 + 0.6 * float(rng.random())))
        for g in graphs:
            report = spectral_radius(g)
            assert report.iterations > 0
            assert_holds_rho(g, report)
        assert calls["_twin_quotient"] >= 5 and calls["_biadjacency"] >= 5

    def test_large_matrix_free_blocks_against_their_closed_forms(self, monkeypatch):
        # with the twin split refused, the extremal and join graphs run
        # matrix-free up to n = 1000, where rounding moves the float ends by
        # the most ulps, and _root_sign still decides their brackets exactly;
        # widening by m = 2 in place of the derived m leaves 11 of these 60
        # reports without rho, and no widening 29
        import rfl.spectral

        monkeypatch.setattr(rfl.spectral, "_twin_classes", lambda *args: None)
        for n in (100, 300, 1000):
            for k in (2, 3, 5):
                for p in sorted({k, k + 1, n // 3, n - 1}):
                    g = build_extremal(n, k) if p == k else build_join(ExtremalParams(n, k, p))
                    for h in (g, g.transposed()) if n < 1000 else (g,):
                        report = spectral_radius(h)
                        assert report.iterations > 0
                        assert_holds_rho(h, report, biquadratic_coeffs(n, k, p))

    def test_extremal_join_and_labeled_graphs(self):
        # every n <= _DENSE_START_MAX, where their blocks iterate; the
        # labeled copies deficient in X and in Y; each transposed too
        for k in range(2, _DENSE_START_MAX // 2 + 1):
            for n in range(2 * k, _DENSE_START_MAX + 1):
                for p in range(k, n):
                    g = build_extremal(n, k) if p == k else build_join(ExtremalParams(n, k, p))
                    graphs = [g]
                    if p == k:
                        graphs += [
                            labeled_extremal_copy(n, k, u, nbrs)
                            for u, nbrs in [
                                (1, range(n + 1, n + k)),
                                (n, range(2 * n - k + 2, 2 * n + 1)),
                                (n + 2, range(2, k + 1)),
                                (2 * n, range(n - k + 2, n + 1)),
                            ]
                        ]
                    coeffs = biquadratic_coeffs(n, k, p)
                    for h in graphs:
                        for t in (h, h.transposed()):
                            assert_holds_rho(t, spectral_radius(t), coeffs)


class TestTwinQuotient:
    @staticmethod
    def from_columns(n: int, columns: list[int]) -> BipartiteGraph:
        """The graph whose Y-vertex j has the X-neighbours in columns[j]."""
        return BipartiteGraph(
            n, tuple(sum(1 << j for j, col in enumerate(columns) if col >> i & 1) for i in range(n))
        )

    @staticmethod
    def splits(g: BipartiteGraph) -> list:
        """_twin_classes of each block of two or more Y-vertices, with the
        row counts."""
        count = Counter(g.x_rows)
        count.pop(0, None)
        return [
            (_twin_classes(block, tuple(count)), count)
            for block in _y_components(tuple(count))
            if block.bit_count() > 1
        ]

    @classmethod
    def quotients(cls, g: BipartiteGraph) -> list:
        """_twin_quotient of each block of two or more Y-vertices, None for
        a block with too many classes."""
        return [
            None if split is None else _twin_quotient(*split, count)
            for split, count in cls.splits(g)
        ]

    def test_twin_rich_graphs_against_dense_and_relabelings(self, rng):
        # each Y-vertex takes its column from a small pool; in half the
        # graphs each pool column lies within one of two halves of X, so
        # that there are often two blocks.  Pools of at most
        # _DENSE_START_MAX columns give quotient blocks, larger pools also
        # blocks with too many classes, which run matrix-free
        taken = refused = 0
        for trial in range(60):
            n = int(rng.integers(_DENSE_START_MAX + 1, 65))
            split = int(rng.integers(1, n))
            pool = []
            for _ in range(int(rng.integers(1, 3 * _DENSE_START_MAX))):
                lo, hi = (0, n) if trial % 2 else (0, split) if rng.random() < 0.5 else (split, n)
                picks = rng.random(hi - lo) < 0.2 + 0.6 * float(rng.random())
                pool.append(sum(1 << i for i in range(lo, hi) if picks[i - lo]))
            columns = [pool[int(i)] for i in rng.integers(0, len(pool), n)]
            g = self.from_columns(n, columns)
            quotients = self.quotients(g)
            taken += sum(q is not None for q in quotients)
            refused += sum(q is None for q in quotients)
            report = spectral_radius(g)
            assert_bracket_contains(g, report)
            rows = g.x_rows
            perm = [int(i) for i in rng.permutation(n)]
            for other in (
                BipartiteGraph(n, tuple(rows[i] for i in perm)),
                self.from_columns(n, [columns[j] for j in perm]),
            ):
                relabeled = spectral_radius(other)
                assert relabeled.iterations == report.iterations, trial
                assert brackets_overlap(report, relabeled), trial
            assert brackets_overlap(report, spectral_radius(g.transposed())), trial
        assert taken > 20 and refused > 5

    def test_row_order_leaves_the_quotient_unchanged(self, rng):
        # classes are taken in Y order and G holds exact integers, so a
        # graph whose blocks all have few classes gives the same report,
        # bit for bit, in any row order
        for _ in range(10):
            n = int(rng.integers(_DENSE_START_MAX + 1, 65))
            c = int(rng.integers(3, _DENSE_START_MAX + 1))
            label = rng.integers(0, c, n)
            classes = [sum(1 << j for j in range(n) if label[j] == i) for i in range(c)]
            pool = [sum(classes)] + [
                sum(cl for cl, pick in zip(classes, rng.random(c) < 0.5) if pick) for _ in range(8)
            ]
            rows = [pool[int(i)] for i in rng.integers(0, len(pool), n)]
            g = BipartiteGraph(n, tuple(rows))
            report = spectral_radius(g)
            assert_bracket_contains(g, report)
            for _ in range(5):
                shuffled = BipartiteGraph(n, tuple(rows[int(i)] for i in rng.permutation(n)))
                assert spectral_radius(shuffled) == report

    def test_first_bracket_is_that_of_the_full_iterate(self, monkeypatch):
        # with every dense start refused the quotient iterates from the
        # all-ones class vector; a tolerance that stops after one product
        # shows its bracket, which must be the Rayleigh and Collatz-Wielandt
        # bounds of B^T B at the full all-ones vector.  Blocks of two
        # classes take no product, so these have three and four
        import rfl.spectral

        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], np.eye(len(a))))
        monkeypatch.setattr(rfl.spectral, "DEFAULT_TOL", 1e9)
        graphs = [three_class(n) for n in (17, 40, 64)]
        graphs.append(self.from_columns(20, [0b111 << (j % 4) for j in range(20)]))
        for g in graphs:
            b = np.array([[row >> j & 1 for j in range(g.n)] for row in g.x_rows], float)
            w = b.T @ (b @ np.ones(g.n))
            report = spectral_radius(g)
            assert report.iterations == 1
            assert report.value**2 == pytest.approx(w.sum() / g.n, rel=1e-13)
            assert (report.value + report.residual) ** 2 == pytest.approx(w.max(), rel=1e-13)

    def test_complete_block_is_one_class(self):
        # K_{20,25} inside n = 30, beside a star and isolated vertices
        n = 30
        rows = ((1 << 25) - 1,) * 20 + (1 << 27,) * 4 + (0,) * 6
        g = BipartiteGraph(n, rows)
        (gram, sizes), = self.quotients(g)
        assert gram.tolist() == [[20.0]] and sizes.tolist() == [25.0]
        ((classes, rows), count), = self.splits(g)
        assert _two_class_coeffs(classes, rows, count) == (500, 0)
        # rho = sqrt(500) exactly, bracketed by exact sign checks: the
        # float sqrt(500) lies above it, so value is one ulp below
        report = spectral_radius(g)
        assert (report.value, report.iterations, report.value + report.residual) == (
            math.nextafter(math.sqrt(500), 0),
            0,
            math.sqrt(500),
        )
        assert Fraction(report.value) ** 2 <= 500 <= Fraction(report.value + report.residual) ** 2
        assert_bracket_contains(g, report)

    def test_class_limit(self):
        # column i of the pool is {x_1, x_(i+2)}: one block whose classes
        # are the pool's columns, at the limit and one past it
        n = 40
        for pool_size, quotient in ((_DENSE_START_MAX, True), (_DENSE_START_MAX + 1, False)):
            pool = [1 | 1 << (i + 1) for i in range(pool_size)]
            g = self.from_columns(n, [pool[j % pool_size] for j in range(n)])
            (q,) = self.quotients(g)
            assert (q is not None) == quotient
            if quotient:
                assert sorted(q[1].tolist()) == sorted(
                    float(len(range(i, n, pool_size))) for i in range(pool_size)
                )
            assert_bracket_contains(g, spectral_radius(g))
        assert self.quotients(staircase(n)) == [None]

    def test_quotient_of_join_graphs_gives_the_biquadratic(self):
        # two Y-classes; G diag(m_y) is the Y-half of the 4 x 4 equitable
        # quotient, with characteristic polynomial t^2 - c2 t + c0 in t = x^2
        for n in (17, 40, 100):
            for k in (2, 3, 5):
                for p in sorted({k, k + 1, n // 3, n - 1}):
                    g = build_extremal(n, k) if p == k else build_join(ExtremalParams(n, k, p))
                    (gram, sizes), = self.quotients(g)
                    q = [[int(e) for e in row] for row in gram * sizes]
                    assert (gram == np.round(gram)).all()
                    c2, c0 = biquadratic_coeffs(n, k, p)
                    assert q[0][0] + q[1][1] == c2
                    assert q[0][0] * q[1][1] - q[0][1] * q[1][0] == c0
                    ((classes, rows), count), = self.splits(g)
                    assert _two_class_coeffs(classes, rows, count) == (c2, c0)

    def test_no_biadjacency_for_extremal_and_join_graphs(self, monkeypatch):
        import rfl.spectral

        def refuse(*args):
            raise AssertionError("_biadjacency called")

        monkeypatch.setattr(rfl.spectral, "_biadjacency", refuse)
        n = 1000
        for k in (2, 3, 5):
            assert spectral_radius(build_extremal(n, k)).iterations == 0
            assert spectral_radius(build_join(ExtremalParams(n, k, n // 3))).iterations == 0
        assert join_margin(ExtremalParams(n, 3, 333)).holds

    @pytest.mark.parametrize("n", [17, 100, 1000])
    def test_two_class_blocks_match_the_closed_form_bit_for_bit(self, n, rng, monkeypatch):
        # the extremal and join graphs have one block of two Y-classes:
        # no product, and the bracket quotient_spectral_radius gives on the
        # 4 x 4 quotient, in the builders' row order (runs, counted without
        # Counter), in a shuffled order of fresh row objects (Counter) and
        # transposed
        import rfl.spectral

        counted = []

        def spy(rows):
            counted.append(len(rows))
            return Counter(rows)

        monkeypatch.setattr(rfl.spectral, "Counter", spy)
        for k in range(2, 6):
            for p in sorted({k, k + 1, n // 3, n - 1}):
                params = ExtremalParams(n, k, p)
                closed = quotient_spectral_radius(params)
                g = build_extremal(n, k) if p == k else build_join(params)
                # ints up to 256 are cached and cannot be made fresh: draw
                # again until no two of them are neighbours
                rows = g.x_rows
                while any(map(operator.is_, rows, rows[1:])):
                    rows = fresh(g.x_rows[int(i)] for i in rng.permutation(n))
                shuffled = BipartiteGraph(n, rows)
                graphs = [(g, False), (shuffled, True)]
                if n < 1000 or k == 2:  # a transpose takes about 0.1 s at n = 1000
                    graphs.append((g.transposed(), None))
                for h, by_counter in graphs:
                    counted.clear()
                    report = spectral_radius(h)
                    assert report.iterations == 0, (k, p)
                    bracket = (report.value, report.residual)
                    assert bracket == (closed.value, closed.residual), (k, p)
                    if by_counter is not None:
                        assert counted == ([n] if by_counter else []), (k, p)

    @pytest.mark.parametrize("larger", ["two-class", "twin-free"])
    def test_two_class_block_beside_a_twin_free_block(self, larger):
        # Y-vertices 1..a form a complete bipartite block minus one edge
        # (two classes) on X-vertices 1..a; the rest a staircase (twin-free,
        # matrix-free) on the other X-vertices.  The report takes the larger
        # block's ends
        n, a = 60, (30 if larger == "two-class" else 8)
        top = (1 << a) - 1
        rows = [top] * (a - 1) + [top >> 1] + [0] * (n - a)
        rows[a:] = [((1 << i) - 1) << a for i in range(1, n - a + 1)]
        g = BipartiteGraph(n, tuple(rows))
        ((classes, inside), count), *others = self.splits(g)
        assert len(classes) == 2 and others == [(None, count)]
        report = spectral_radius(g)
        assert_bracket_contains(g, report)
        two_class = _certified_root(*_two_class_coeffs(classes, inside, count))
        assert report.iterations > 0  # the staircase's products
        if larger == "two-class":
            assert (report.value, report.value + report.residual) == two_class
        else:
            assert report.value > two_class[1]


    def test_class_quotient_coeffs_of_extremal_join_and_labeled_graphs(self):
        # the paper's graphs at every n, on both sides of _DENSE_START_MAX,
        # and labeled extremal copies deficient in X and in Y, transposed too
        for k in (2, 3, 4):
            for n in (*range(2 * k, 20), 40):
                for p in range(k, n):
                    g = build_extremal(n, k) if p == k else build_join(ExtremalParams(n, k, p))
                    assert _class_quotient_coeffs(g) == biquadratic_coeffs(n, k, p), (n, k, p)
                extremal = biquadratic_coeffs(n, k, k)
                for u, nbrs in [(1, range(n + 1, n + k)), (n, range(2 * n - k + 2, 2 * n + 1)),
                                (n + 2, range(2, k + 1)), (2 * n, range(n - k + 2, n + 1))]:
                    g = labeled_extremal_copy(n, k, u, nbrs)
                    assert _class_quotient_coeffs(g) == extremal, (n, k, u)
                    assert _class_quotient_coeffs(g.transposed()) == extremal, (n, k, u)

    def test_class_quotient_coeffs_of_other_graphs(self):
        # None unless the non-isolated Y-vertices form one block of at most
        # two twin classes; one class is a complete bipartite graph, c0 = 0
        two_blocks = BipartiteGraph(4, (0b0011, 0b0011, 0b1100, 0b1100))
        for g in (BipartiteGraph.empty(5), staircase(6), staircase(30), three_class(30), two_blocks):
            assert _class_quotient_coeffs(g) is None
        assert _class_quotient_coeffs(BipartiteGraph(4, (0b0111, 0b0111, 0, 0))) == (6, 0)


class TestRowCounts:
    def test_runs_interleaved_runs_zeros_and_none(self, rng):
        # the same multiplicities, in the same first-appearance order, as
        # Counter over the nonzero rows: rows in runs of one object (a value
        # may come back in a later run), runs of equal but fresh objects,
        # zero rows, and rows with no run at all
        a, b, c = (1 << 70) - 1, 1 << 40 | 5, 3
        cases = [
            (a,) * 5 + (b,) * 3,
            (a, a, b, b, a, a, 0, 0, c, b),
            (0, 0, 0),
            fresh((a, a, a, b)) + (b, b),
            fresh((a, b, a, b, c, a)),
            (),
        ]
        for _ in range(50):
            pool = [int(v) << 20 for v in rng.integers(0, 4, 3)]
            cases.append(tuple(pool[int(i)] for i in rng.integers(0, 3, int(rng.integers(1, 30)))))
        for rows in cases:
            expected = Counter(rows)
            expected.pop(0, None)
            counts = _row_counts(rows)
            assert list(counts.items()) == list(expected.items()), rows


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
                closed = _certified_root(round(c2), round(c0))[0]
                power = spectral_radius(build_join(params)).value
                assert closed == pytest.approx(power, abs=1e-7)

    def test_quotient_eigenvalues_match_4x4_oracle(self):
        for n, k, p in [(4, 2, 3), (6, 3, 4), (10, 4, 7), (9, 2, 5)]:
            q = quotient_matrix(ExtremalParams(n, k, p))
            top = max(abs(v) for v in np.linalg.eigvals(q.as_array()))
            c2, c0 = q.char_poly_coeffs()
            assert _certified_root(round(c2), round(c0))[0] == pytest.approx(top, abs=1e-9)

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
                    x, upper = _certified_root(c2, c0)
                    below, above = x - 4 * math.ulp(x), x + 4 * math.ulp(x)
                    assert 2 * Fraction(below) ** 2 > c2
                    assert f(c2, c0, below) < 0 < f(c2, c0, above), (n, k, p)
                    assert f(c2, c0, x) <= 0 <= f(c2, c0, upper), (n, k, p)
                    assert upper - x <= 4 * math.ulp(x)
                    report = quotient_spectral_radius(ExtremalParams(n, k, p))
                    assert report.method == "quotient-closed-form"
                    assert (report.value, report.value + report.residual) == (x, upper)


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
    # _certified_root is the one evaluator of the largest root of
    # x^4 - c2 x^2 + c0; its ends are one ulp apart or equal here
    def test_extremal_4_2_coefficients(self):
        value, upper = _certified_root(13, 9)
        assert value <= RHO_B_4_2 <= upper and upper - value <= math.ulp(RHO_B_4_2)

    def test_unit(self):
        assert _certified_root(1, 0) == (1.0, 1.0)

    def test_8_8(self):
        value, upper = _certified_root(8, 8)
        assert value == pytest.approx(2.613125929752753, abs=1e-12)
        assert upper - value <= math.ulp(value)

    def test_rejects_negative_discriminant(self):
        with pytest.raises(GraphError):
            _certified_root(2, 9)

    def test_rejects_bad_signs(self):
        with pytest.raises(GraphError):
            _certified_root(-1, 0)
        with pytest.raises(GraphError):
            _certified_root(1, -1)


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

    @pytest.mark.parametrize("n", [6, 40])
    def test_graph_with_an_extra_edge_raises(self, n, monkeypatch):
        # the built join graph, one edge added: its class quotient no longer
        # has the coefficients of the closed form, on either side of
        # _DENSE_START_MAX
        import rfl.spectral

        params = ExtremalParams(n, 3, 4)
        join = build_join(params)
        x, y = next((x, y) for x in range(1, n + 1) for y in range(n + 1, 2 * n + 1)
                    if not join.has_edge(x, y))
        grown = BipartiteGraph.from_edges(n, [*join.edges(), (x, y)])
        assert join_margin(params).holds
        monkeypatch.setattr(rfl.spectral, "build_join", lambda p: grown)
        with pytest.raises(InconsistencyError, match="join graph"):
            join_margin(params)

    def test_calls_no_power_iteration(self, monkeypatch):
        # the graphs are checked by exact equality of their class quotient's
        # coefficients, at every n
        import rfl.spectral

        def refuse(*args):
            raise AssertionError("called")

        monkeypatch.setattr(rfl.spectral, "spectral_radius", refuse)
        for n, k, p in [(4, 2, 3), (16, 3, 5), (17, 3, 5), (100, 3, 33)]:
            assert join_margin(ExtremalParams(n, k, p)).holds

    def test_reports_certified_ends_and_a_lower_bound_on_the_gap(self):
        # rho_extremal and rho_join are _certified_root's lower ends, and the
        # margin lies below the exact gap, taken to 60 digits
        def exact(c2, c0):
            c2, c0 = Decimal(c2), Decimal(c0)
            return ((c2 + (c2 * c2 - 4 * c0).sqrt()) / 2).sqrt()

        with localcontext() as ctx:
            ctx.prec = 60
            for n, k, p in [(4, 2, 3), (10, 4, 5), (17, 2, 16), (40, 3, 13), (300, 4, 100)]:
                m = join_margin(ExtremalParams(n, k, p))
                cb, cj = biquadratic_coeffs(n, k, k), biquadratic_coeffs(n, k, p)
                hi_j = _certified_root(*cj)[1]
                assert m.rho_extremal == _certified_root(*cb)[0]
                assert m.rho_join == _certified_root(*cj)[0]
                assert m.margin == math.nextafter(m.rho_extremal - hi_j, -math.inf)
                assert Decimal(m.margin) <= exact(*cb) - exact(*cj)

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
                assert quotient_spectral_radius(ExtremalParams(n, k)).value > math.sqrt(n * (n - 1))
