"""Self-tests of the benchmark: each check accepts a correct output and
rejects deliberately corrupted ones, and the tracer's self times and parent
links come out right.

    python3 -m pytest -q bench/test_checks.py
"""

import math
import random
from decimal import Decimal, getcontext
from itertools import product

import numpy as np
import pytest

import checks
import tracing
from checks import CheckFailed


def extremal_rows(n, k):
    return ((1 << n) - 1,) * (k - 1) + ((1 << (n - 1)) - 1,) * (n - k + 1)


# ---------------------------------------------------------------- spectral


def test_eig_radii_of_known_graphs():
    n = 4
    complete = ((1 << n) - 1,) * n
    perfect_matching = tuple(1 << i for i in range(n))
    assert np.allclose(checks.eig_radii(n, [complete, perfect_matching]), [n, 1.0])


def test_closed_form_matches_eigvalsh():
    for n, k in ((6, 2), (9, 3), (12, 4)):
        closed = checks.biquadratic_root(*checks.extremal_coeffs(n, k))
        eig = checks.eig_radii(n, [extremal_rows(n, k)])[0]
        assert checks.check_rho(eig, closed, "B") < 1e-12


def test_join_coeffs_reduce_to_extremal_at_p_equal_k():
    assert checks.join_coeffs(10, 3, 3) == checks.extremal_coeffs(10, 3)


def test_perturbed_rho_is_rejected():
    closed = checks.biquadratic_root(*checks.extremal_coeffs(1000, 2))
    checks.check_rho(closed - 3e-8, closed, "B")
    with pytest.raises(CheckFailed):
        checks.check_rho(closed + 1e-4, closed, "B")


def test_sqrt_diff_sign_is_exact():
    getcontext().prec = 80
    rng = random.Random(7)
    for _ in range(2000):
        a, b = rng.randrange(10**12), rng.randrange(10**12)
        w = rng.randrange(-(10**6), 10**6)
        diff = Decimal(a).sqrt() - Decimal(b).sqrt() - w
        assert checks.sqrt_diff_sign(a, b, w) == (diff > 0) - (diff < 0)
    assert checks.sqrt_diff_sign(49, 16, 3) == 0
    assert checks.sqrt_diff_sign(16, 49, -3) == 0


def margin_report(n, k, p):
    cb, cj = checks.extremal_coeffs(n, k), checks.join_coeffs(n, k, p)
    x = math.sqrt(n * (n - 1))
    sign = (x**4 - cb[0] * x**2 + cb[1]) - (x**4 - cj[0] * x**2 + cj[1])
    rho_b, rho_j = checks.biquadratic_root(*cb), checks.biquadratic_root(*cj)
    return [rho_b, rho_j, rho_b - rho_j > 1e-9, sign, sign < 0]


def test_margin_check_accepts_the_true_margin():
    for n, k, p in ((8, 2, 4), (300, 5, 150), (1000, 2, 999)):
        assert checks.margin_sign(checks.extremal_coeffs(n, k), checks.join_coeffs(n, k, p)) == 1
        assert checks.check_margin(n, k, p, *margin_report(n, k, p)) < 1e-9


@pytest.mark.parametrize(
    "field, bad",
    [(1, lambda v: v + 1e-3), (2, lambda v: False), (3, lambda v: -v), (4, lambda v: False)],
)
def test_corrupted_margin_is_rejected(field, bad):
    report = margin_report(100, 3, 50)
    report[field] = bad(report[field])
    with pytest.raises(CheckFailed):
        checks.check_margin(100, 3, 50, *report)


# ---------------------------------------------------------------- shifting


def test_shift_definition_in_both_parts():
    n = 3
    rows = (0b100, 0b011, 0b001)
    assert checks.shift_rows(n, rows, 1, 2) == (0b111, 0b000, 0b001)
    assert checks.shift_rows(n, rows, 4, 6) == (0b001, 0b011, 0b001)
    assert checks.popcount(checks.shift_rows(n, rows, 5, 6)) == checks.popcount(rows)


def test_wrong_shift_is_rejected():
    rows = (0b100, 0b011, 0b001)
    checks.check_shift(3, rows, (0b111, 0b000, 0b001), 1, 2)
    with pytest.raises(CheckFailed):
        checks.check_shift(3, rows, (0b111, 0b001, 0b001), 1, 2)  # edge added
    with pytest.raises(CheckFailed):
        checks.check_shift(3, rows, (0b110, 0b001, 0b001), 1, 2)  # not the shift


def test_fixpoint_check():
    rows = (0b010, 0b100, 0b001)
    steps = (("Y", 4, 5), ("Y", 4, 6))
    fixed = (0b001, 0b001, 0b001)
    checks.check_fixpoint(3, rows, fixed, steps)
    with pytest.raises(CheckFailed):  # not nested prefixes
        checks.check_fixpoint(3, rows, (0b010, 0b001, 0b001), steps)
    with pytest.raises(CheckFailed):  # bi-shifted, but not what the trace gives
        checks.check_fixpoint(3, rows, (0b011, 0b001, 0), steps)
    with pytest.raises(CheckFailed):  # an edge lost
        checks.check_fixpoint(3, rows, (0b001, 0b001, 0), steps)
    with pytest.raises(CheckFailed):  # a trace step that changes nothing
        checks.check_fixpoint(3, rows, fixed, steps + (("Y", 5, 6),))


def test_ferrers_test():
    assert checks.is_ferrers(3, (0b111, 0b011, 0b011))
    assert not checks.is_ferrers(3, (0b011, 0b111, 0))  # not nested
    assert not checks.is_ferrers(3, (0b101, 0, 0))  # not a prefix


def test_rho_drop_is_rejected():
    checks.check_monotone(2.0, 2.0 - 1e-12, "shift")
    with pytest.raises(CheckFailed):
        checks.check_monotone(2.0, 1.99, "shift")


# ------------------------------------------------------------------- audit


def test_extremal_recognition_and_verdicts():
    n, k = 5, 2
    canonical = extremal_rows(n, k)
    mirrored = ((1 << n) - 1,) * (n - 1) + ((1 << (k - 1)) - 1,)
    thr = checks.biquadratic_root(*checks.extremal_coeffs(n, k))
    assert checks.is_extremal_ferrers(n, k, canonical)
    assert checks.is_extremal_ferrers(n, k, mirrored)
    eig = checks.eig_radii(n, [canonical])[0]
    assert checks.expected_meets(n, k, canonical, eig - 1e-12, thr)
    below = (0b11111, 0b01111, 0b01111, 0b01111, 0b00111)
    assert not checks.is_extremal_ferrers(n, k, below)
    assert not checks.expected_meets(n, k, below, checks.eig_radii(n, [below])[0], thr)
    with pytest.raises(CheckFailed):  # a non-extremal graph claimed to tie
        checks.expected_meets(n, k, below, thr, thr)


# ----------------------------------------------------------------- factors


def cyclic_members(n):
    return [
        tuple(sum(1 << (y - 1) for y in range(1, n + 1) if (x + y - i) % n == 0) for x in range(1, n + 1))
        for i in range(1, n + 1)
    ]


def test_factor_check_accepts_a_transversal_and_rejects_corruptions():
    n = 3
    members = cyclic_members(n)
    # y = x gives x + y = 2x, distinct mod 3: member 1 takes x = 2, member 2 x = 1
    good = [(1, (2, 5)), (2, (1, 4)), (3, (3, 6))]
    checks.check_factor(n, 1, members, good)
    duplicated = [(1, (2, 5)), (2, (2, 5)), (3, (3, 6))]
    wrong_index = [(1, (2, 5)), (1, (1, 4)), (3, (3, 6))]
    wrong_member = [(1, (1, 4)), (2, (2, 5)), (3, (3, 6))]
    for bad in (duplicated, wrong_index, wrong_member, good[:2]):
        with pytest.raises(CheckFailed):
            checks.check_factor(n, 1, members, bad)


def test_irregular_union_is_rejected():
    n, k = 2, 2
    complete = (0b11, 0b11)
    members = [complete] * 4
    checks.check_factor(n, k, members, [(1, (1, 3)), (2, (1, 4)), (3, (2, 3)), (4, (2, 4))])
    with pytest.raises(CheckFailed):
        checks.check_factor(n, k, members, [(1, (1, 3)), (2, (1, 4)), (3, (2, 3)), (4, (1, 3))])


def brute_force_f_factor(n, edges, caps_x, caps_y):
    for picks in product((0, 1), repeat=len(edges)):
        deg = [0] * (2 * n + 1)
        for (x, y), take in zip(edges, picks):
            deg[x] += take
            deg[y] += take
        if deg[1 : n + 1] == list(caps_x) and deg[n + 1 :] == list(caps_y):
            return True
    return False


def test_f_factor_oracle_matches_brute_force():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(2, 3)
        edges = [(x, y) for x in range(1, n + 1) for y in range(n + 1, 2 * n + 1) if rng.random() < 0.6]
        caps_x = [rng.randint(0, 2) for _ in range(n)]
        caps_y = [rng.randint(0, 2) for _ in range(n)]
        assert checks.f_factor_exists(n, edges, caps_x, caps_y) == brute_force_f_factor(
            n, edges, caps_x, caps_y
        )


def test_degree_subgraph_check():
    n = 2
    edges = [(1, 3), (1, 4), (2, 3)]
    checks.check_degree_subgraph(n, edges, [1, 1], [1, 1], [(1, 4), (2, 3)])
    with pytest.raises(CheckFailed):  # a subgraph exists, but none was reported
        checks.check_degree_subgraph(n, edges, [1, 1], [1, 1], None)
    with pytest.raises(CheckFailed):  # wrong degrees
        checks.check_degree_subgraph(n, edges, [1, 1], [1, 1], [(1, 3), (2, 3)])
    with pytest.raises(CheckFailed):  # edge outside the candidates
        checks.check_degree_subgraph(n, edges, [1, 1], [1, 1], [(1, 3), (2, 4)])
    checks.check_degree_subgraph(n, edges, [0, 2], [1, 1], None)  # X-vertex 2 has one edge


# ----------------------------------------------------------------- tracing


def test_self_time_subtracts_children():
    spans = [
        ["round", 0.0, 10.0, -1, "r"],
        ["spectral.radius", 1.0, 4.0, 0, "g0"],
        ["shifting.xy_shift", 5.0, 6.0, 0, "g0"],
        ["round", 10.0, 12.0, -1, "r"],
        ["factors.search", 10.5, 11.0, 3, "f0"],
    ]
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0, 1.5, 0.5]
    assert tracing.self_times(spans, 3) == [1.5, 0.5]


def test_tracer_records_parents_and_stays_off_when_disabled():
    t = tracing.Tracer(True)
    with t.span("round", "r"):
        with t.span("spectral.radius", "g0"):
            pass
        with t.span("shifting.xy_shift", "g0") as rec:
            rec[0] = "shifting.renamed"
    assert [(s[0], s[3], s[4]) for s in t.spans] == [
        ("round", -1, "r"),
        ("spectral.radius", 0, "g0"),
        ("shifting.renamed", 0, "g0"),
    ]
    assert all(s[1] <= s[2] for s in t.spans)
    off = tracing.Tracer(False)
    with off.span("round") as rec:
        assert rec is None
    assert off.spans == []
