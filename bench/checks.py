"""Checks on the library's outputs, computed apart from the library.

Nothing here imports ``rfl``: graphs arrive as ``(n, rows)`` with bit j of
``rows[i]`` set when X-vertex i+1 is joined to Y-vertex n+j+1, and every
reference value is recomputed from that data with numpy or exact integer
arithmetic.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import math

import numpy as np

# Power iteration stops on a Rayleigh step below 1e-10, which leaves a
# relative error near 3e-11 on the extremal and join graphs; 1e-9 keeps a margin
# of 30x while still catching any error larger than a millionth at n = 1000.
RHO_REL_TOL = 1e-9
# eigvalsh is backward stable, so two of its radii for graphs of at most 16
# vertices differ by far less than this unless the graphs' radii do.
EIG_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the library disagrees with the independent computation."""


def popcount(rows) -> int:
    return sum(bin(r).count("1") for r in rows)


def columns(n: int, rows) -> list[int]:
    cols = [0] * n
    for i, row in enumerate(rows):
        for j in range(n):
            if row >> j & 1:
                cols[j] |= 1 << i
    return cols


def biadjacency(n: int, rows) -> np.ndarray:
    b = np.zeros((n, n))
    for i, row in enumerate(rows):
        for j in range(n):
            if row >> j & 1:
                b[i, j] = 1.0
    return b


def eig_radii(n: int, graphs: list) -> np.ndarray:
    """Largest adjacency eigenvalue of each graph on [2n], by eigvalsh on the
    full 2n x 2n symmetric matrix, batched over the list."""
    if not graphs:
        return np.zeros(0)
    b = np.stack([biadjacency(n, rows) for rows in graphs])
    a = np.zeros((len(graphs), 2 * n, 2 * n))
    a[:, :n, n:] = b
    a[:, n:, :n] = b.transpose(0, 2, 1)
    return np.linalg.eigvalsh(a)[:, -1]


# ----------------------------------------------------------------- spectral


def extremal_coeffs(n: int, k: int) -> tuple[int, int]:
    """(c2, c0) of x^4 - c2 x^2 + c0, the quotient polynomial of B_{n,k}."""
    return n * (n - 1) + (k - 1), (n - 1) * (n - k + 1) * (k - 1)


def join_coeffs(n: int, k: int, p: int) -> tuple[int, int]:
    """(c2, c0) of the quotient polynomial of the join-type graph J_{n,k,p}."""
    b = n + k - p - 1
    return n * b + (p - 1) * (p - k + 1), b * (p - k + 1) * (n - p + 1) * (p - 1)


def biquadratic_root(c2: int, c0: int) -> float:
    return math.sqrt((c2 + math.sqrt(c2 * c2 - 4 * c0)) / 2)


def check_rho(value: float, reference: float, what: str) -> float:
    """Return |value - reference| after checking it against RHO_REL_TOL."""
    err = abs(value - reference)
    if not err <= RHO_REL_TOL * max(1.0, abs(reference)):
        raise CheckFailed(f"{what}: rho {value!r} but reference {reference!r}")
    return err


def sqrt_diff_sign(a: int, b: int, w: int) -> int:
    """Exact sign of sqrt(a) - sqrt(b) - w for integers a, b >= 0."""
    if w >= 0:
        # sqrt(a) > sqrt(b) + w  <=>  a - b - w^2 > 2 w sqrt(b)
        lhs = a - b - w * w
        rhs2 = 4 * w * w * b
        if lhs < 0:
            return -1
        return (lhs * lhs > rhs2) - (lhs * lhs < rhs2)
    # sqrt(a) + |w| > sqrt(b)  <=>  b - a - w^2 < 2 |w| sqrt(a)
    lhs = b - a - w * w
    rhs2 = 4 * w * w * a
    if lhs < 0:
        return 1
    return (lhs * lhs < rhs2) - (lhs * lhs > rhs2)


def margin_sign(coeffs_b: tuple[int, int], coeffs_j: tuple[int, int]) -> int:
    """Exact sign of rho_B^2 - rho_J^2, i.e. of
    (c2_B + sqrt(d_B)) - (c2_J + sqrt(d_J)) with d = c2^2 - 4 c0."""
    (c2b, c0b), (c2j, c0j) = coeffs_b, coeffs_j
    return sqrt_diff_sign(c2b * c2b - 4 * c0b, c2j * c2j - 4 * c0j, c2j - c2b)


def sign_value_at(n: int, coeffs_b: tuple[int, int], coeffs_j: tuple[int, int]) -> int:
    """P_B(x) - P_J(x) at x = sqrt(n(n-1)), an integer since only x^2 appears."""
    (c2b, c0b), (c2j, c0j) = coeffs_b, coeffs_j
    return -(c2b - c2j) * n * (n - 1) + (c0b - c0j)


def check_margin(n, k, p, rho_b, rho_j, holds, sign_value, sign_ok) -> float:
    """Check one join_margin report; return its largest rho error."""
    cb, cj = extremal_coeffs(n, k), join_coeffs(n, k, p)
    err = max(
        check_rho(rho_b, biquadratic_root(*cb), f"margin ({n},{k},{p}) extremal"),
        check_rho(rho_j, biquadratic_root(*cj), f"margin ({n},{k},{p}) join"),
    )
    if margin_sign(cb, cj) <= 0:
        raise CheckFailed(f"rho_B > rho_J fails exactly at ({n},{k},{p})")
    if not holds:
        raise CheckFailed(f"join_margin reports no margin at ({n},{k},{p})")
    exact = sign_value_at(n, cb, cj)
    if exact >= 0:
        raise CheckFailed(f"sign at sqrt(n(n-1)) is {exact} >= 0 at ({n},{k},{p})")
    if not sign_ok or abs(sign_value - exact) > 1e-9 * abs(exact):
        raise CheckFailed(f"join_margin sign {sign_value!r} but exact value {exact} at ({n},{k},{p})")
    return err


# ----------------------------------------------------------------- shifting


def shift_rows(n: int, rows, x: int, y: int) -> tuple[int, ...]:
    """The (x, y)-shift on [2n] by its definition: every edge at y whose copy
    at x is absent moves to x."""
    if 1 <= x < y <= n:
        new = list(rows)
        movable = rows[y - 1] & ~rows[x - 1]
        new[x - 1] |= movable
        new[y - 1] &= ~movable
        return tuple(new)
    if n < x < y <= 2 * n:
        bx, by = 1 << (x - n - 1), 1 << (y - n - 1)
        return tuple(
            (row & ~by) | bx if row & by and not row & bx else row for row in rows
        )
    raise CheckFailed(f"shift ({x},{y}) does not lie inside one part of [{2 * n}]")


def is_ferrers(n: int, rows) -> bool:
    """Every row is a prefix of Y and rows shrink as the X-index grows."""
    prev = (1 << n) - 1
    for row in rows:
        if row & (row + 1) or row & ~prev:
            return False
        prev = row
    return True


def check_shift(n: int, before, after, x: int, y: int) -> None:
    if popcount(after) != popcount(before):
        raise CheckFailed(f"shift ({x},{y}) changed the edge count")
    if tuple(after) != shift_rows(n, before, x, y):
        raise CheckFailed(f"shift ({x},{y}) differs from its definition")


def check_fixpoint(n: int, start, fixpoint, steps) -> None:
    """Edge count kept, fixpoint bi-shifted, and the trace replayed from the
    start graph reproduces it."""
    if popcount(fixpoint) != popcount(start):
        raise CheckFailed("fixpoint changed the edge count")
    if not is_ferrers(n, fixpoint):
        raise CheckFailed("fixpoint is not bi-shifted")
    rows = tuple(start)
    for _part, x, y in steps:
        nxt = shift_rows(n, rows, x, y)
        if nxt == rows:
            raise CheckFailed(f"trace step ({x},{y}) changes nothing")
        rows = nxt
    if rows != tuple(fixpoint):
        raise CheckFailed("replaying the trace does not reproduce the fixpoint")


def check_monotone(rho_before: float, rho_after: float, what: str) -> None:
    if rho_after < rho_before - EIG_TOL:
        raise CheckFailed(f"{what}: rho dropped from {rho_before!r} to {rho_after!r}")


# -------------------------------------------------------------------- audit


def is_extremal_ferrers(n: int, k: int, rows) -> bool:
    """Whether a bi-shifted graph is isomorphic to B_{n,k}.  A Ferrers graph
    is fixed up to relabeling by its row lengths, and B_{n,k} has k-1 full
    rows and n-k+1 rows of length n-1; the transpose covers the part swap."""
    target = sorted([n] * (k - 1) + [n - 1] * (n - k + 1))
    by_rows = sorted(bin(r).count("1") for r in rows)
    by_cols = sorted(bin(c).count("1") for c in columns(n, rows))
    return by_rows == target or by_cols == target


def expected_meets(n: int, k: int, rows, rho: float, threshold: float) -> bool:
    if is_extremal_ferrers(n, k, rows):
        return True
    if abs(rho - threshold) <= EIG_TOL:
        raise CheckFailed(f"member {rows} ties the threshold without being extremal")
    return rho > threshold


# ------------------------------------------------------------------ factors


def check_factor(n: int, k: int, members, assignment) -> None:
    """A rainbow k-factor: one edge per index 1..kn, edges pairwise distinct,
    each in its member, and their union k-regular on [2n]."""
    indices = sorted(i for i, _ in assignment)
    if indices != list(range(1, k * n + 1)):
        raise CheckFailed("assignment indices are not exactly 1..kn")
    edges = [e for _, e in assignment]
    if len(set(edges)) != len(edges):
        raise CheckFailed("assignment repeats an edge")
    degree = [0] * (2 * n + 1)
    for i, (x, y) in assignment:
        if not (1 <= x <= n < y <= 2 * n) or not members[i - 1][x - 1] >> (y - n - 1) & 1:
            raise CheckFailed(f"edge ({x},{y}) is not in member {i}")
        degree[x] += 1
        degree[y] += 1
    if any(d != k for d in degree[1:]):
        raise CheckFailed(f"union of the assignment is not {k}-regular")


def f_factor_exists(n: int, edges, caps_x, caps_y) -> bool:
    """Whether the bipartite graph on [2n] with the given edges has a subgraph
    with degree caps_x[i] at X-vertex i+1 and caps_y[j] at Y-vertex n+j+1.

    By max-flow min-cut on source -> X -> Y -> sink, it has one exactly when
    the cap sums agree and every A subset of X has
    sum_{x in A} caps_x[x] <= sum_y min(caps_y[y], |N(y) & A|).
    Exponential in n; meant for n <= 12.
    """
    if sum(caps_x) != sum(caps_y):
        return False
    cols = [0] * n
    for x, y in set(edges):
        cols[y - n - 1] |= 1 << (x - 1)
    for a in range(1, 1 << n):
        demand = sum(caps_x[i] for i in range(n) if a >> i & 1)
        supply = sum(min(c, bin(col & a).count("1")) for c, col in zip(caps_y, cols))
        if demand > supply:
            return False
    return True


def check_degree_subgraph(n: int, candidates, caps_x, caps_y, chosen) -> None:
    """Check degree_constrained_subgraph's answer: a returned edge list must
    be a subset of the candidates with exact degrees; None must mean that no
    such subgraph exists."""
    if chosen is None:
        if f_factor_exists(n, candidates, caps_x, caps_y):
            raise CheckFailed("no subgraph reported where one exists")
        return
    if len(set(chosen)) != len(chosen) or not set(chosen) <= set(candidates):
        raise CheckFailed("subgraph repeats an edge or leaves the candidates")
    degree = [0] * (2 * n + 1)
    for x, y in chosen:
        degree[x] += 1
        degree[y] += 1
    if degree[1 : n + 1] != list(caps_x) or degree[n + 1 :] != list(caps_y):
        raise CheckFailed("subgraph degrees differ from the caps")
