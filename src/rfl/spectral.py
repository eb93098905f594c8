"""Spectral radius computation and the quotient-matrix closed forms.

Power iteration runs on the n x n Gram matrix B^T B of the biadjacency
matrix B rather than on the 2n x 2n adjacency matrix: bipartite spectra are
symmetric about 0, and rho(G)^2 = rho(B^T B), whose blocks (one per
connected component) are primitive.  A block of at most _DENSE_START_MAX
Y-vertices forms its small s x s Gram matrix, starts from the Perron vector
of a dense eigensolver on it, and takes each product as one s x s
matrix-vector product on that matrix; its bracket usually closes on the
first product.  A larger block is never formed: each product is applied
through B as B^T (B v), two n x s matrix-vector products per step instead
of an O(n^3) matrix product up front (Golub and Van Loan, Matrix
Computations, secs. 8.6 and 10.4).  On graphs with more than
_DENSE_START_MAX X-vertices, B keeps only the distinct nonzero X-rows and
each product weights them by their multiplicities, B^T B = Bd^T diag(m) Bd
exactly: the X-side half of the equitable partitions below (Brouwer and
Haemers, Spectra of Graphs, sec. 2.3), so the extremal and join graphs,
with two distinct rows, take O(n) per product; smaller graphs keep their
rows as they are.  Each block stops on a certified bracket, the Rayleigh
quotient below and the Collatz-Wielandt bound above; the bracket holds for
any positive start, so the dense start changes the cost, never the
guarantee.  Join-type and extremal graphs additionally
admit a 4x4 equitable quotient matrix whose characteristic polynomial
x^4 - c2 x^2 + c0 has integer coefficients (biquadratic_coeffs), giving a
closed form for rho, bracketed by exact integer sign checks, and an exact
verdict on rho(join) < rho(extremal).
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graphs import (
    BipartiteGraph,
    ExtremalParams,
    GraphError,
    _bits,
    build_extremal,
    build_join,
)

DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 100_000

# Blocks of at most this many Y-vertices form their s x s Gram matrix, start
# from the Perron vector of a dense eigh of it and take their products on
# it; larger blocks stay matrix-free and start from all-ones.  Measured for
# this loop on a shared 2-vCPU Xeon with OpenBLAS on one thread, as whole
# spectral_radius calls on random half-dense s x s graphs (three each):
# with the dense start 48-55 us at s = 8, 92-95 us at 16, 147-151 us at 24,
# 204-212 us at 32 and 417-421 us at 48, always one product; from all-ones
# 134-161 us at 8 (16-19 products), 133-148 us at 16 (13-15), 129-148 us at
# 24 (11-13), 131-153 us at 32 (10-12) and 156-160 us at 48 (10).  The
# crossover lies near 24; the limit sits below it, so large blocks never
# pay for eigh.
# The same limit decides which graphs run on their distinct rows: one of at
# most this many X-vertices keeps its rows as they are, since all its blocks
# are dense-started and cost fixed numpy overhead that counting the rows
# only adds to.  Measured the same way, counting every graph's rows took
# 64-66 us a call against 53-55 us on Ferrers graphs with n = 9, and 44-46
# against 37-39 us on random graphs with n <= 8.
_DENSE_START_MAX = 16


def default_tolerance() -> float:
    """Configured tolerance; the RFL_DEFAULT_TOL env var overrides."""
    raw = os.environ.get("RFL_DEFAULT_TOL")
    if not raw:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        raise GraphError(f"RFL_DEFAULT_TOL must be a number, got {raw!r}") from None


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge within the iteration cap."""


class InconsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


@dataclass(frozen=True)
class SpectralReport:
    value: float
    method: str  # power-iteration | quotient-closed-form
    iterations: int
    residual: float  # rho lies in [value, value + residual]


def spectral_radius(
    g: BipartiteGraph, tol: float | None = None, max_iterations: int = MAX_ITERATIONS
) -> SpectralReport:
    """Spectral radius from certified power iteration on M = B^T B.

    B is the n x n biadjacency matrix (rows X, columns Y), so rho(G)^2 =
    rho(M).  M splits into one block per connected component of the
    non-isolated Y-vertices; each block is nonnegative with a positive
    diagonal, hence primitive.  With Bb the block's columns of B, a block of
    at most _DENSE_START_MAX Y-vertices forms its s x s Gram matrix
    Bb^T Bb, starts from |top eigenvector of eigh| of it (or from the
    all-ones vector if that has an entry <= 0), and takes each product
    w = M v as one s x s matrix-vector product on it.  A larger block
    starts from all-ones and is never formed: one product is Bb^T (Bb v),
    two n x s matrix-vector products.  For any positive iterate v the
    Rayleigh quotient v.w / v.v is a lower bound on the block's radius (M is
    symmetric) and max_i w_i / v_i an upper bound (Collatz-Wielandt), so the
    start decides only how many products a block takes; a block stops once
    the square roots of the two bounds differ by less than tol.  A block of
    one Y-vertex is a star and has rho = sqrt(its degree); B is built only
    if some block has two or more Y-vertices.

    For n > _DENSE_START_MAX the rows are counted once and B holds only the
    d distinct nonzero rows, with multiplicities m: B^T B = Bd^T diag(m) Bd,
    so a large block's product is ((Bb v) * m) Bb, a small block forms
    (Bb^T * m) Bb, and a star's degree is its bit's count.  The iterates are
    those of the full B up to rounding, and the certificate is unchanged.
    For n <= _DENSE_START_MAX the rows are used as they are.

    Reports value = the certified lower end (it overshoots rho only by
    float64 rounding; see bracket_contains), residual = the certified
    bracket width in rho units, and iterations = the products v -> w over
    all blocks.  Raises ConvergenceError once max_iterations products have
    not closed every bracket.
    """
    if tol is None:
        tol = default_tolerance()
    if not tol > 0:
        raise GraphError(f"tolerance must be positive, got {tol}")
    n = g.n
    rows, multiplicity, weights = g.x_rows, None, None
    if n > _DENSE_START_MAX:
        # identical X-rows are identical rows of B: B^T B = Bd^T diag(m) Bd
        # over the distinct nonzero rows Bd and their multiplicities m
        multiplicity = Counter(rows)
        multiplicity.pop(0, None)
        rows = tuple(multiplicity)
        weights = np.array(tuple(multiplicity.values()), np.float64)
    b = None
    lo = hi = 0.0
    iterations = 0
    for block in _y_components(rows):
        size = block.bit_count()
        if size == 1:  # one Y-vertex: a star, rho^2 = its degree
            if multiplicity is None:
                multiplicity = Counter(rows)
            # the star's X-neighbours are exactly the rows equal to its bit
            degree = multiplicity[block]
            lo, hi = max(lo, degree), max(hi, degree)
            continue
        if b is None:
            b = _biadjacency(rows, n)
        bb = b if size == n else b[:, list(_bits(block))]
        gram = v = None
        if size <= _DENSE_START_MAX:
            gram = bb.T.dot(bb) if weights is None else (bb.T * weights).dot(bb)
            perron = np.abs(np.linalg.eigh(gram)[1][:, -1])
            if min(perron.tolist()) > 0:
                v = perron
        if v is None:
            v = np.ones(size)
        gap = math.inf
        for _ in range(max_iterations - iterations):
            iterations += 1
            # matmul takes B's strided column view as it is; .dot would copy
            # it whole on every call.  A block without its Gram matrix has
            # more than _DENSE_START_MAX Y-vertices, so n does too and its
            # rows carry weights.
            w = ((bb @ v) * weights) @ bb if gram is None else gram.dot(v)
            c_lo = v.dot(w) / v.dot(v)
            # builtin max over a list: on the few-vertex blocks of typical
            # calls a numpy reduction costs more than the product itself
            c_hi = max((w / v).tolist())
            gap = math.sqrt(c_hi) - math.sqrt(c_lo)
            if gap < tol:
                break
            v = w / c_hi
        else:
            raise ConvergenceError(
                f"no convergence to tol={tol} within {max_iterations} iterations "
                f"(last bracket width {gap:.3e})"
            )
        lo, hi = max(lo, c_lo), max(hi, c_hi)
    return SpectralReport(
        value=math.sqrt(lo),
        method="power-iteration",
        iterations=iterations,
        residual=max(math.sqrt(hi) - math.sqrt(lo), 0.0),
    )


# Row i holds the bits of byte value i, least significant first, as float64.
_BYTE_BITS = np.array([[(byte >> j) & 1 for j in range(8)] for byte in range(256)], np.float64)


def _biadjacency(x_rows: tuple[int, ...], n: int) -> np.ndarray:
    """float64 0/1 matrix B: entry (i, j) is bit j of x_rows[i].

    Each row is packed into little-endian bytes, and lookups in _BYTE_BITS
    turn every byte into its 8 entries.  Rows of at most 8 bits are their
    own one byte and index the table directly.
    """
    if n <= 8:
        return _BYTE_BITS.take(x_rows, axis=0)[:, :n]
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in x_rows), np.uint8)
    b = np.empty((len(x_rows), 8 * width))
    entries = b.reshape(-1, 8)
    # take, not _BYTE_BITS[packed]: numpy's fancy indexing by a uint8 array
    # is about twice as slow.  take converts its indices to intp, 8 bytes
    # each, so it runs on slices of 8192 bytes to keep that copy small
    # beside B; mode="clip" (every byte is a valid row) writes into the
    # slice of B directly, where the default mode would buffer it.
    for start in range(0, len(packed), 8192):
        stop = start + 8192
        _BYTE_BITS.take(packed[start:stop], axis=0, out=entries[start:stop], mode="clip")
    return b[:, :n]


def _y_components(x_rows: tuple[int, ...]) -> list[int]:
    """Connected components of the non-isolated Y-vertices, as bitsets.

    Union-find over blocks: each X-row's neighborhood lies inside one
    component, so each row merges every block it meets.  A row inside the
    block of the row before costs one test; otherwise each further block it
    meets is found from one of its Y-vertices, through the id of the block
    that Y-vertex first joined.  Those ids are written lazily, only when a
    row meets a block other than the previous row's, so each Y-vertex is
    written at most once and the pass stays linear in n.
    """
    blocks: dict[int, int] = {}  # live block id -> its Y-vertices
    merged_into: list[int] = []  # block id -> the id it joined; itself while live
    joined: dict[int, int] = {}  # Y-vertex -> id of the first block it joined
    unwritten: list[tuple[int, int]] = []  # (Y-vertices, block id) not yet in joined
    seen = last = 0  # every Y-vertex met so far; the previous row's block
    for row in x_rows:
        if not row & ~last:
            continue  # empty, or inside the previous row's block
        if row & last:
            merged = row | last
        else:
            merged = row
            current = len(merged_into)
            merged_into.append(current)
        other = row & seen & ~last
        while other:  # Y-vertices of other blocks: merge each such block
            y = (other & -other).bit_length() - 1
            if y not in joined:
                for ys, block_id in unwritten:
                    for z in _bits(ys):
                        joined[z] = block_id
                unwritten.clear()
            root = joined[y]
            while merged_into[root] != root:
                merged_into[root] = root = merged_into[merged_into[root]]
            merged_into[root] = current
            ys = blocks.pop(root)
            merged |= ys
            other &= ~ys
        new = row & ~seen
        if new:
            unwritten.append((new, current))
            seen |= new
        blocks[current] = last = merged
    return list(blocks.values())


@dataclass(frozen=True)
class QuotientMatrix4:
    """4x4 equitable quotient matrix over the blocks (X1, X2, Y1, Y2)."""

    entries: tuple[tuple[float, ...], ...]
    partition_sizes: tuple[int, int, int, int]

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

    def char_poly_coeffs(self) -> tuple[float, float]:
        """(c2, c0) of the biquadratic characteristic polynomial
        x^4 - c2 x^2 + c0."""
        m = self.as_array()
        upper = m[:2, 2:]
        lower = m[2:, :2]
        prod = upper @ lower
        return float(np.trace(prod)), float(np.linalg.det(prod))


def quotient_matrix(params: ExtremalParams) -> QuotientMatrix4:
    """Quotient matrix of build_join(params); p = k gives the extremal graph's."""
    n, k, p = params.n, params.k, params.p
    b = n + k - p - 1
    entries = (
        (0.0, 0.0, float(b), float(p - k + 1)),
        (0.0, 0.0, float(b), 0.0),
        (float(p - 1), float(n - p + 1), 0.0, 0.0),
        (float(p - 1), 0.0, 0.0, 0.0),
    )
    return QuotientMatrix4(entries, (p - 1, n - p + 1, b, p - k + 1))


def biquadratic_coeffs(n: int, k: int, p: int) -> tuple[int, int]:
    """Exact (c2, c0) of the characteristic polynomial x^4 - c2 x^2 + c0 of
    build_join's quotient matrix; p = k gives the extremal graph B_{n,k}:
    c2 = n(n+k-p-1) + (p-1)(p-k+1), c0 = (n+k-p-1)(p-k+1)(n-p+1)(p-1)."""
    b = n + k - p - 1
    return n * b + (p - 1) * (p - k + 1), b * (p - k + 1) * (n - p + 1) * (p - 1)


def extremal_charpoly(n: int, k: int, x: float) -> float:
    """Characteristic polynomial of the extremal graph's quotient matrix:
    x^4 - [n(n-1) + (k-1)] x^2 + (n-1)(n-k+1)(k-1)."""
    c2, c0 = biquadratic_coeffs(n, k, k)
    return x**4 - c2 * x**2 + c0


def join_charpoly(params: ExtremalParams, x: float) -> float:
    """Characteristic polynomial of the join graph's quotient matrix."""
    c2, c0 = biquadratic_coeffs(params.n, params.k, params.p)
    return x**4 - c2 * x**2 + c0


def largest_biquadratic_root(c2: float, c0: float) -> float:
    """Largest real root of x^4 - c2 x^2 + c0: sqrt((c2 + sqrt(c2^2 - 4 c0)) / 2)."""
    if c2 <= 0 or c0 < 0:
        raise GraphError(f"need c2 > 0 and c0 >= 0, got ({c2}, {c0})")
    disc = c2 * c2 - 4.0 * c0
    if disc < 0:
        raise GraphError(f"negative discriminant for ({c2}, {c0}); bad coefficients")
    return math.sqrt((c2 + math.sqrt(disc)) / 2.0)


def _root_sign(c2: int, c0: int, y: float) -> int:
    """Exact sign (-1, 0 or 1) of rho - y, where rho is the largest root of
    x^4 - c2 x^2 + c0 (c2 > 0, c2^2 >= 4 c0) and y >= 0.

    In t = x^2 the polynomial t^2 - c2 t + c0 has its largest root at or
    above its vertex c2 / 2 and increases from there, so below the vertex
    rho > y, and above it rho - y has the sign of -(y^4 - c2 y^2 + c0).
    Both tests run in integers on y = p / q exactly, scaled by q^4.
    """
    p, q = y.as_integer_ratio()
    p2, q2 = p * p, q * q
    if 2 * p2 < c2 * q2:
        return 1
    f = p2 * p2 - c2 * p2 * q2 + c0 * q2 * q2
    return (f < 0) - (f > 0)


def quotient_spectral_radius(params: ExtremalParams, method: str = "closed") -> SpectralReport:
    """Spectral radius of build_join(params) from its quotient matrix.

    value is the closed form, stepped down by ulps until it is at most the
    exact root, and residual the least power-of-two multiple of its ulp (or
    0) that puts the root in [value, value + residual]; both ends are
    decided by exact integer sign checks (_root_sign).
    """
    if method != "closed":
        raise GraphError(f"unknown quotient method {method!r}")
    c2, c0 = biquadratic_coeffs(params.n, params.k, params.p)
    value = largest_biquadratic_root(c2, c0)
    while _root_sign(c2, c0, value) < 0:
        value = math.nextafter(value, 0.0)
    residual = 0.0
    while _root_sign(c2, c0, value + residual) > 0:
        residual = 2 * residual or math.ulp(value)
    return SpectralReport(value, "quotient-closed-form", 0, residual)


def extremal_spectral_radius(n: int, k: int) -> float:
    """Closed-form rho of the extremal graph."""
    return largest_biquadratic_root(*biquadratic_coeffs(n, k, k))


def bracket_contains(report: SpectralReport, rho: float, n: int) -> bool:
    """Whether rho lies in the certified bracket [value, value + residual]
    of a power-iteration report on a graph of half-order n.

    The bracket's ends are float64 evaluations of sums of up to n terms, so
    each may be off by their a-priori rounding bound, at most n * eps * rho
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1);
    the bracket is widened by exactly that slack and nothing more.
    Measured with OpenBLAS, the overshoot of value above the exact rho of
    join graphs grows with n: up to 3 ulps of rho at n = 100, 39 at
    n = 1000 and 81 at n = 2000, so no fixed few-ulp slack would do.
    """
    slack = n * np.finfo(float).eps * rho
    return report.value - slack <= rho <= report.value + report.residual + slack


@dataclass(frozen=True)
class SpectralMargin:
    """Comparison of a join graph against the extremal graph at the same (n, k)."""

    params: ExtremalParams
    rho_extremal: float
    rho_join: float
    margin: float
    holds: bool  # rho_join < rho_extremal, decided exactly
    sign_value: int  # (P_extremal - P_join) at x = sqrt(n(n-1)), exact; expected < 0
    sign_ok: bool


def join_margin(params: ExtremalParams, tol: float | None = None) -> SpectralMargin:
    """Strict-inequality check rho(join) < rho(extremal), by both the closed
    form and power iteration, plus the sign of the polynomial difference at
    sqrt(n(n-1)).

    The verdict and the sign are exact integer arithmetic on the
    biquadratic coefficients; rho^2 = (c2 + sqrt(c2^2 - 4 c0)) / 2, so
    rho_J < rho_B exactly when sqrt(d_B) - sqrt(d_J) > c2_J - c2_B.
    Requires p >= k+1 (p = k compares the extremal graph with itself).
    Raises InconsistencyError if a closed form lies outside the certified
    bracket of power iteration on its graph (see bracket_contains).
    """
    n, k, p = params.n, params.k, params.p
    if p < k + 1:
        raise GraphError(f"margin check needs p >= k+1, got p = {p}")
    c2_b, c0_b = biquadratic_coeffs(n, k, k)
    c2_j, c0_j = biquadratic_coeffs(n, k, p)
    rho_b = largest_biquadratic_root(c2_b, c0_b)
    rho_j = largest_biquadratic_root(c2_j, c0_j)
    for closed, graph, which in (
        (rho_b, build_extremal(n, k), "extremal"),
        (rho_j, build_join(params), "join"),
    ):
        report = spectral_radius(graph, tol=tol)
        if not bracket_contains(report, closed, n):
            raise InconsistencyError(
                f"{which} rho: closed form {closed!r} lies outside the power-iteration "
                f"bracket [{report.value!r}, {report.value + report.residual!r}]"
            )
    holds = _sqrt_diff_sign(c2_b * c2_b - 4 * c0_b, c2_j * c2_j - 4 * c0_j, c2_j - c2_b) > 0
    sign_value = (c2_j - c2_b) * n * (n - 1) + (c0_b - c0_j)
    return SpectralMargin(
        params=params,
        rho_extremal=rho_b,
        rho_join=rho_j,
        margin=rho_b - rho_j,
        holds=holds,
        sign_value=sign_value,
        sign_ok=sign_value < 0,
    )


def _sqrt_diff_sign(a: int, b: int, w: int) -> int:
    """Exact sign (-1, 0 or 1) of sqrt(a) - sqrt(b) - w, for integers a, b >= 0."""
    if w < 0 and b < w * w:  # sqrt(b) + w < 0 <= sqrt(a)
        return 1
    # Both sides of sqrt(a) vs sqrt(b) + w are >= 0: square them, leaving
    # lhs = a - b - w^2 against 2 w sqrt(b), and square again under sign guards.
    lhs, rhs_sq = a - b - w * w, 4 * w * w * b
    if w >= 0:
        return -1 if lhs < 0 else (lhs * lhs > rhs_sq) - (lhs * lhs < rhs_sq)
    # w < 0 and b >= w^2 > 0, so -2 w sqrt(b) > 0
    return 1 if lhs >= 0 else (rhs_sq > lhs * lhs) - (rhs_sq < lhs * lhs)
