"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-5 and 8 each run one campaign of `rfl.harness` with a pinned
config and check its report; criteria 6 and 7, which no campaign covers,
check the audit's schedule edges and the flow and search oracles directly.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import math
import time

from rfl.factors import (
    DEFAULT_BUDGET,
    FOUND,
    _schedule_edges,
    rainbow_perfect_matching_search,
)
from rfl.flow import k_factor_exists
from rfl.graphs import BipartiteGraph
from rfl.harness import ExperimentConfig, make_rng, run_campaign
from tests.conftest import random_graph
from tests.oracles import (
    brute_force_k_factor_exists,
    brute_force_rainbow_matching,
    diagonal_matching_schedule,
)


def report(number: int, name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status} [{elapsed:.2f}s / {budget:.0f}s]{extra}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_spectral_consistency():
    started = time.perf_counter()
    config = ExperimentConfig(n_range=(4, 10), k_range=(2, 4))
    cases = run_campaign("spectral-consistency", config).cases
    worst = max(c["values"]["diff"] for c in cases)
    outside = sum(not c["ok"] for c in cases)
    # every n here is at most 16, where the graph's one block of two
    # Y-twin classes is decided in closed form: the class quotient read off
    # the graph must give biquadratic_coeffs's root, bit for bit
    iterated = sum(c["values"]["method"] != "quotient-closed-form" for c in cases)
    elapsed = time.perf_counter() - started
    report(
        1,
        "spectral consistency",
        len(cases) == 15 and worst == 0 and outside == 0 and iterated == 0,
        elapsed,
        5.0,
        f"{len(cases)} grid points, worst diff {worst:.2e}, {outside} closed forms outside "
        f"the bracket, {iterated} iterated",
    )


def test_criterion_2_margin_grid():
    started = time.perf_counter()
    config = ExperimentConfig(n_range=(4, 10), k_range=(2, 4))
    cases = run_campaign("lemma33-grid", config).cases
    ok = len(cases) == 60 and all(
        c["ok"] and c["values"]["margin"] > 1e-9 and c["values"]["sign_value"] < 0
        for c in cases
    )
    min_margin = min(c["values"].get("margin", -math.inf) for c in cases)
    elapsed = time.perf_counter() - started
    report(
        2,
        "strict margin grid",
        ok,
        elapsed,
        10.0,
        f"{len(cases)} grid points, min margin {min_margin:.4f}",
    )


def test_criterion_3_shift_properties():
    started = time.perf_counter()
    config = ExperimentConfig(seed=7, n_range=(2, 8), trials=500)
    result = run_campaign("shift-properties", config)
    shifts_checked = sum(c["values"]["shifts"] for c in result.cases)
    elapsed = time.perf_counter() - started
    report(
        3,
        "shift properties",
        len(result.cases) == 500 and shifts_checked == 11706 and result.failed == 0,
        elapsed,
        60.0,
        f"{len(result.cases)} graphs, {shifts_checked} shifts",
    )


def test_criterion_4_extremal_absence():
    started = time.perf_counter()
    config = ExperimentConfig(n_range=(4, 6), k_range=(2, 2), search_budget=DEFAULT_BUDGET)
    result = run_campaign("extremal-absence", config)
    points = [(c["params"]["n"], c["params"]["k"]) for c in result.cases]
    elapsed = time.perf_counter() - started
    report(
        4,
        "extremal absence",
        points == [(4, 2), (5, 2), (6, 2)] and result.failed == 0,
        elapsed,
        60.0,
        ",".join(f"({n},{k})" for n, k in points),
    )


def test_criterion_5_constructive_factor():
    started = time.perf_counter()
    config = ExperimentConfig(seed=100, trials=100, search_budget=DEFAULT_BUDGET)
    result = run_campaign("lemma32-construction", config)
    confirmed = sum(c["values"].get("search_status") == FOUND for c in result.cases)
    elapsed = time.perf_counter() - started
    report(
        5,
        "constructive rainbow factor",
        len(result.cases) == 100 and result.failed == 0 and confirmed == 20,
        elapsed,
        300.0,
        f"{len(result.cases)} constructions, {confirmed}/20 search-confirmed",
    )


def test_criterion_6_matching_schedules():
    started = time.perf_counter()
    ok = True
    for n in range(2, 13):
        complete = BipartiteGraph.complete(n)
        for k in range(1, n + 1):
            # the audit's schedule edges with the two corners it leaves out
            edges = [*_schedule_edges(n, k), *dict.fromkeys([(k, 2 * n), (n, n + k)])]
            ok &= len(edges) == len(set(edges)) == k * n
            degree = {v: 0 for v in range(1, 2 * n + 1)}
            for x, y in edges:
                ok &= complete.has_edge(x, y)
                degree[x] += 1
                degree[y] += 1
            ok &= all(d == k for d in degree.values())
            ok &= set(edges) == {e for m in diagonal_matching_schedule(n, k) for e in m}
    elapsed = time.perf_counter() - started
    report(6, "matching schedules", ok, elapsed, 1.0, "n <= 12, k <= n")


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
    config = ExperimentConfig(seed=8, n_range=(5, 5), k_range=(2, 2), trials=20)
    cases = run_campaign("claims-audit", config).cases
    violations = sum(len(c["values"]["violations"]) for c in cases)
    members_checked = sum(c["values"]["members_meeting_threshold"] for c in cases)
    elapsed = time.perf_counter() - started
    report(
        8,
        "shifted-family claims audit",
        len(cases) == 20 and violations == 0,
        elapsed,
        30.0,
        f"{members_checked} members checked, {violations} violations",
    )
