"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import math
import time

from rfl.construction import construct_rainbow_factor_extremal
from rfl.factors import (
    ABSENT,
    FOUND,
    audit_shifted_family,
    diagonal_matching_schedule,
    k_factor_exists,
    rainbow_k_factor_search,
    rainbow_perfect_matching_search,
)
from rfl.graphs import (
    BipartiteGraph,
    ExtremalParams,
    GraphFamily,
    build_extremal,
    labeled_extremal_copy,
)
from rfl.harness import (
    generate_extremal_variant_family,
    generate_random_bipartite,
    make_rng,
    random_deficiency_spec,
)
from rfl.shifting import bi_shift_fixpoint, is_bi_shifted, xy_shift
from rfl.spectral import (
    extremal_spectral_radius,
    join_margin,
    spectral_radius,
)
from tests.conftest import random_graph
from tests.oracles import brute_force_k_factor_exists, brute_force_rainbow_matching


def report(number: int, name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status} [{elapsed:.2f}s / {budget:.0f}s]{extra}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_spectral_consistency():
    started = time.perf_counter()
    worst = 0.0
    cases = 0
    for k in (2, 3, 4):
        for n in range(2 * k, 11):
            closed = extremal_spectral_radius(n, k)
            power = spectral_radius(build_extremal(n, k)).value
            worst = max(worst, abs(closed - power))
            cases += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "spectral consistency",
        worst <= 1e-7,
        elapsed,
        5.0,
        f"{cases} grid points, worst diff {worst:.2e}",
    )


def test_criterion_2_margin_grid():
    started = time.perf_counter()
    ok = True
    cases = 0
    min_margin = math.inf
    for k in (2, 3, 4):
        for n in range(2 * k, 11):
            for p in range(k + 1, n):
                m = join_margin(ExtremalParams(n, k, p))
                ok &= m.holds and m.margin > 1e-9
                ok &= m.sign_ok and m.sign_value < 0
                min_margin = min(min_margin, m.margin)
                cases += 1
    elapsed = time.perf_counter() - started
    report(
        2,
        "strict margin grid",
        ok,
        elapsed,
        10.0,
        f"{cases} grid points, min margin {min_margin:.4f}",
    )


def test_criterion_3_shift_properties():
    started = time.perf_counter()
    rng = make_rng(7)
    ok = True
    shifts_checked = 0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        g = generate_random_bipartite(n, float(rng.random()), rng)
        rho = spectral_radius(g).value
        pairs = [(x, y) for x in range(1, n) for y in range(x + 1, n + 1)]
        pairs += [(x + n, y + n) for x, y in pairs]
        for x, y in pairs:
            shifted = xy_shift(g, x, y)
            shifts_checked += 1
            if shifted.edge_count() != g.edge_count():
                ok = False
            if shifted != g and spectral_radius(shifted).value < rho - 1e-9:
                ok = False
        if not is_bi_shifted(bi_shift_fixpoint(g)[0]):
            ok = False
    elapsed = time.perf_counter() - started
    report(
        3,
        "shift properties",
        ok,
        elapsed,
        60.0,
        f"500 graphs, {shifts_checked} shifts",
    )


def test_criterion_4_extremal_absence():
    started = time.perf_counter()
    ok = True
    for n, k in [(4, 2), (5, 2), (6, 2)]:
        g = build_extremal(n, k)
        family = GraphFamily(n, k, (g,) * (k * n))
        result = rainbow_k_factor_search(family)
        ok &= result.status == ABSENT
        ok &= not k_factor_exists(g, k)
    elapsed = time.perf_counter() - started
    report(4, "extremal absence", ok, elapsed, 60.0, "(4,2),(5,2),(6,2)")


def test_criterion_5_constructive_factor():
    started = time.perf_counter()
    rng = make_rng(100)
    ok = True
    confirmed = 0
    for trial in range(100):
        n = int(rng.choice([4, 5]))
        spec = random_deficiency_spec(n, 2, rng)
        family = generate_extremal_variant_family(n, 2, spec)
        try:
            factor = construct_rainbow_factor_extremal(family)
            factor.validate(family)
        except Exception:
            ok = False
            continue
        if trial % 5 == 0:  # 20 of 100 confirmed by exhaustive search
            if rainbow_k_factor_search(family).status == FOUND:
                confirmed += 1
            else:
                ok = False
    elapsed = time.perf_counter() - started
    report(
        5,
        "constructive rainbow factor",
        ok and confirmed == 20,
        elapsed,
        300.0,
        f"100 constructions, {confirmed}/20 search-confirmed",
    )


def test_criterion_6_matching_schedules():
    started = time.perf_counter()
    ok = True
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            schedule = diagonal_matching_schedule(n, k)
            try:
                schedule.validate()
            except Exception:
                ok = False
                continue
            complete = BipartiteGraph.complete(n)
            degree = {v: 0 for v in range(1, 2 * n + 1)}
            for m in schedule.matchings:
                for x, y in m:
                    if not complete.has_edge(x, y):
                        ok = False
                    degree[x] += 1
                    degree[y] += 1
            ok &= all(d == k for d in degree.values())
    elapsed = time.perf_counter() - started
    report(6, "matching schedules", ok, elapsed, 1.0, "n <= 12, k <= n/2")


def test_criterion_7_oracle_equivalence():
    started = time.perf_counter()
    ok = True
    for rows in itertools.product(range(8), repeat=3):
        g = BipartiteGraph(3, rows)
        for k in (1, 2, 3):
            if k_factor_exists(g, k) != brute_force_k_factor_exists(g, k):
                ok = False
    rng = make_rng(77)
    for _ in range(200):
        g = random_graph(rng, 4, float(rng.random()))
        for k in (1, 2):
            if k_factor_exists(g, k) != brute_force_k_factor_exists(g, k):
                ok = False
    for _ in range(100):
        members = [random_graph(rng, 3, float(rng.random())) for _ in range(3)]
        search_found = rainbow_perfect_matching_search(members).status == FOUND
        if search_found != (brute_force_rainbow_matching(members) is not None):
            ok = False
    elapsed = time.perf_counter() - started
    report(
        7,
        "oracle equivalence",
        ok,
        elapsed,
        120.0,
        "512 n=3 graphs, 200 n=4 graphs, 100 matching instances",
    )


def test_criterion_8_claims_audit():
    started = time.perf_counter()
    n, k = 5, 2
    rng = make_rng(8)
    threshold = extremal_spectral_radius(n, k)
    canonical = build_extremal(n, k)
    mirrored = labeled_extremal_copy(n, k, n, tuple(range(n + 1, n + k)))
    violations = 0
    members_checked = 0
    for _ in range(20):
        members = []
        for _ in range(k * n):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                members.append(canonical)
            elif kind == 1:
                members.append(mirrored)
            else:
                g = canonical
                for x in range(1, n + 1):
                    for y in range(n + 1, 2 * n + 1):
                        if not g.has_edge(x, y) and rng.random() < 0.3:
                            g = g.with_edge(x, y)
                members.append(bi_shift_fixpoint(g)[0])
        family = GraphFamily(n, k, tuple(members))
        audit = audit_shifted_family(family, threshold)
        violations += len(audit.violations)
        members_checked += sum(1 for m in audit.members if m.meets_threshold)
    elapsed = time.perf_counter() - started
    report(
        8,
        "shifted-family claims audit",
        violations == 0,
        elapsed,
        30.0,
        f"{members_checked} members checked, {violations} violations",
    )
