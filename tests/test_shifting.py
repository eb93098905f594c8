import pytest
from hypothesis import given, settings, strategies as st

from rfl.factors import FOUND, rainbow_k_factor_search
from rfl.graphs import BipartiteGraph, GraphError, GraphFamily, build_extremal
from rfl.shifting import bi_shift_fixpoint, is_bi_shifted, xy_shift
from rfl.spectral import spectral_radius
from tests.conftest import bracket_below, random_graph


def graphs(max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.tuples(*[st.integers(0, (1 << n) - 1)] * n),
        )
    ).map(lambda t: BipartiteGraph(t[0], t[1]))


def naive_shift(original: set, x: int, y: int) -> set:
    """Oracle: the per-edge shift rule on a plain edge set, membership tested
    against the original edges, all moves simultaneous."""
    moved = set()
    for e in original:
        if y in e and x not in e:
            rewired = tuple(sorted((set(e) - {y}) | {x}))
            if rewired not in original:
                moved.add((e, rewired))
    edges = set(original)
    for old, new in moved:
        edges.discard(old)
        edges.add(new)
    return edges


def reference_fixpoint(g: BipartiteGraph) -> tuple[BipartiteGraph, tuple]:
    """Oracle: the same sweep order on edge sets, one naive shift per pair,
    a step recorded whenever the edge set changed."""
    n = g.n
    pairs = [("X", x, y) for x in range(1, n) for y in range(x + 1, n + 1)]
    pairs += [("Y", x, y) for x in range(n + 1, 2 * n) for y in range(x + 1, 2 * n + 1)]
    edges = g.edge_set()
    steps = []
    changed = True
    while changed:
        changed = False
        for part, x, y in pairs:
            shifted = naive_shift(edges, x, y)
            if shifted != edges:
                edges = shifted
                steps.append((part, x, y))
                changed = True
    return BipartiteGraph.from_edges(n, edges), tuple(steps)


class TestXYShift:
    def test_single_movable_edge(self):
        g = BipartiteGraph.from_edges(2, [(2, 4)])
        assert xy_shift(g, 1, 2).edge_set() == {(1, 4)}

    def test_blocked_move(self):
        g = BipartiteGraph.from_edges(2, [(1, 3), (2, 3)])
        assert xy_shift(g, 1, 2) == g

    def test_y_part_shift(self):
        g = BipartiteGraph.from_edges(2, [(1, 4)])
        assert xy_shift(g, 3, 4).edge_set() == {(1, 3)}

    def test_partial_move(self):
        # (2,4) moves to (1,4); (2,3) is blocked by the existing (1,3)
        g = BipartiteGraph.from_edges(2, [(1, 3), (2, 3), (2, 4)])
        assert xy_shift(g, 1, 2).edge_set() == {(1, 3), (2, 3), (1, 4)}

    def test_rejects_bad_pairs(self):
        g = BipartiteGraph.empty(3)
        with pytest.raises(GraphError):
            xy_shift(g, 2, 1)
        with pytest.raises(GraphError):
            xy_shift(g, 1, 4)  # across parts

    def test_edge_count_preserved_on_200_random_graphs(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            g = random_graph(rng, n, float(rng.random()))
            x = int(rng.integers(1, n))
            y = int(rng.integers(x + 1, n + 1))
            if rng.random() < 0.5:
                x, y = x + n, y + n
            assert xy_shift(g, x, y).edge_count() == g.edge_count()

    @settings(max_examples=80)
    @given(graphs(), st.data())
    def test_edge_count_preserved_property(self, g, data):
        if g.n < 2:
            return
        x = data.draw(st.integers(1, g.n - 1))
        y = data.draw(st.integers(x + 1, g.n))
        assert xy_shift(g, x, y).edge_count() == g.edge_count()

    def test_matches_naive_reference(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            g = random_graph(rng, n, float(rng.random()))
            for x in range(1, n):
                for y in range(x + 1, n + 1):
                    assert xy_shift(g, x, y).edge_set() == naive_shift(g.edge_set(), x, y)
                    assert xy_shift(g, x + n, y + n).edge_set() == naive_shift(
                        g.edge_set(), x + n, y + n
                    )

    def test_returns_the_graph_itself_exactly_when_no_edge_moves(self, rng):
        seen = set()
        for _ in range(60):
            n = int(rng.integers(2, 7))
            g = random_graph(rng, n, float(rng.random()))
            edges = g.edge_set()
            for x in range(1, n):
                for y in range(x + 1, n + 1):
                    for a, b in ((x, y), (x + n, y + n)):
                        moved = naive_shift(edges, a, b) != edges
                        shifted = xy_shift(g, a, b)
                        assert (shifted is g) == (not moved)
                        seen.add(moved)
        assert seen == {False, True}


class TestSpectralMonotonicity:
    def test_rho_never_decreases(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            g = random_graph(rng, n, float(rng.random()))
            rho = spectral_radius(g)
            pairs = [(x, y) for x in range(1, n) for y in range(x + 1, n + 1)]
            pairs += [(x + n, y + n) for x, y in pairs]
            for x, y in pairs:
                shifted = xy_shift(g, x, y)
                if shifted == g:
                    continue
                assert not bracket_below(spectral_radius(shifted), rho)

    def test_strict_increase_on_connected_non_isomorphic(self, rng):
        # connected g, changed by the shift, result not part-isomorphic to g
        # => strictly larger radius
        from itertools import permutations

        def part_isomorphic(a, b):
            if a.edge_count() != b.edge_count():
                return False
            target = b.edge_set()
            for cand in (a, a.transposed()):
                for px in permutations(range(1, a.n + 1)):
                    for py in permutations(range(a.n + 1, 2 * a.n + 1)):
                        perm = {i + 1: px[i] for i in range(a.n)}
                        perm.update({a.n + 1 + j: py[j] for j in range(a.n)})
                        if cand.relabeled(perm).edge_set() == target:
                            return True
            return False

        checked = 0
        while checked < 12:
            n = int(rng.integers(2, 5))
            g = random_graph(rng, n, 0.5 + 0.4 * float(rng.random()))
            if not g.is_connected():
                continue
            x = int(rng.integers(1, n))
            y = int(rng.integers(x + 1, n + 1))
            shifted = xy_shift(g, x, y)
            if shifted == g or part_isomorphic(g, shifted):
                continue
            assert bracket_below(spectral_radius(g), spectral_radius(shifted))
            checked += 1


class TestFixpoint:
    def test_migrates_to_smallest_labels(self):
        g = BipartiteGraph.from_edges(2, [(2, 4)])
        fixed, trace = bi_shift_fixpoint(g)
        assert fixed.edge_set() == {(1, 3)}
        assert len(trace.steps) == 2

    def test_extremal_graph_already_fixed(self):
        for n, k in [(4, 2), (6, 3), (8, 4)]:
            g = build_extremal(n, k)
            assert is_bi_shifted(g)
            fixed, trace = bi_shift_fixpoint(g)
            assert fixed == g
            assert trace.steps == ()

    def test_complete_graph_fixed(self):
        g = BipartiteGraph.complete(5)
        fixed, trace = bi_shift_fixpoint(g)
        assert fixed == g and trace.steps == ()

    @settings(max_examples=60)
    @given(graphs())
    def test_fixpoint_is_bi_shifted_and_idempotent(self, g):
        fixed, _ = bi_shift_fixpoint(g)
        assert is_bi_shifted(fixed)
        again, trace = bi_shift_fixpoint(fixed)
        assert again == fixed and trace.steps == ()

    @settings(max_examples=60)
    @given(graphs())
    def test_trace_replays_to_fixpoint(self, g):
        fixed, trace = bi_shift_fixpoint(g)
        assert trace.replay(g) == fixed

    def test_matches_reference_sweep(self, rng):
        # fixed graph and step trace, on seeded graphs of every half-order <= 8
        for trial in range(160):
            n = trial % 8 + 1
            g = random_graph(rng, n, float(rng.random()))
            fixed, trace = bi_shift_fixpoint(g)
            assert (fixed, trace.steps) == reference_fixpoint(g)

    def test_every_recorded_step_changed_the_graph(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            g = random_graph(rng, n, float(rng.random()))
            _, trace = bi_shift_fixpoint(g)
            current = g
            for _part, x, y in trace.steps:
                nxt = xy_shift(current, x, y)
                assert nxt != current
                current = nxt


class TestBiShiftedPredicate:
    def test_minimal_cases(self):
        assert is_bi_shifted(BipartiteGraph.from_edges(2, [(1, 3)]))
        assert not is_bi_shifted(BipartiteGraph.from_edges(2, [(2, 3)]))
        assert not is_bi_shifted(BipartiteGraph.from_edges(2, [(1, 4)]))

    @settings(max_examples=60)
    @given(graphs())
    def test_matches_downward_closure_definition(self, g):
        def closure(g):
            for x2, y2 in g.edges():
                for x1 in range(1, x2 + 1):
                    for y1 in range(g.n + 1, y2 + 1):
                        if not g.has_edge(x1, y1):
                            return False
            return True

        assert is_bi_shifted(g) == closure(g)

    @settings(max_examples=60)
    @given(graphs())
    def test_neighborhoods_nest_downward(self, g):
        fixed, _ = bi_shift_fixpoint(g)
        for x in range(1, fixed.n):
            upper = set(fixed.neighbors(x))
            assert set(fixed.neighbors(x + 1)) <= upper


class TestShiftPreservesRainbowFactor:
    def test_shifted_success_implies_original_success(self, rng):
        # extensional check: the member-wise fixpoint family having a rainbow
        # factor forces one in the original family
        trials = 0
        while trials < 12:
            n = int(rng.integers(2, 4))
            k = int(rng.integers(1, 3))
            prob = 0.4 + 0.5 * float(rng.random())
            members = tuple(random_graph(rng, n, prob) for _ in range(k * n))
            family = GraphFamily(n, k, members)
            shifted = GraphFamily(n, k, tuple(bi_shift_fixpoint(g)[0] for g in members))
            shifted_result = rainbow_k_factor_search(shifted)
            original_result = rainbow_k_factor_search(family)
            if shifted_result.status == FOUND:
                assert original_result.status == FOUND
            trials += 1
