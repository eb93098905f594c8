"""Spectral radius computation and the quotient-matrix closed forms.

Power iteration runs on the n x n Gram matrix B^T B of the biadjacency
matrix B rather than on the 2n x 2n adjacency matrix: bipartite spectra are
symmetric about 0, and rho(G)^2 = rho(B^T B), whose blocks (one per
connected component) are primitive.  Each block stops on a certified
bracket, the Rayleigh quotient below and the Collatz-Wielandt bound above.
Small blocks start from a dense eigensolver's Perron vector, so their
bracket usually closes on the first product; the bracket holds for any
positive start, so the dense start changes the cost, never the guarantee.
Join-type and extremal graphs additionally admit a 4x4 equitable quotient
matrix whose characteristic polynomial is biquadratic, giving an exact
closed form.
"""

from __future__ import annotations

import math
import os
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
METHOD_AGREEMENT_TOL = 1e-7

# Blocks of at most this many Y-vertices start power iteration from the
# Perron vector of a dense eigh.  Measured on a shared 2-vCPU Xeon with
# OpenBLAS on one thread, eigh takes about 12 us at size 8, 29 us at 16,
# 57 us at 24 and 325 us at 64, while the loop from all-ones takes 50-75 us
# on a random half-dense block of any of these sizes.  The crossover lies
# near 24; the limit sits below it, so large blocks never pay for eigh.
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
    method: str  # power-iteration | quotient-closed-form | quartic-bisection
    iterations: int
    residual: float


def spectral_radius(
    g: BipartiteGraph, tol: float | None = None, max_iterations: int = MAX_ITERATIONS
) -> SpectralReport:
    """Spectral radius from power iteration on the Gram matrix M = B^T B.

    B is the n x n biadjacency matrix (rows X, columns Y), so rho(G)^2 =
    rho(M).  M splits into one block per connected component of the
    non-isolated Y-vertices; each block is nonnegative with a positive
    diagonal, hence primitive.  A block of at most _DENSE_START_MAX
    Y-vertices is iterated from |top eigenvector of eigh(block)|, or from
    the all-ones vector if that has an entry <= 0; a larger block from the
    all-ones vector.  For any positive iterate v the Rayleigh quotient
    v.Mv / v.v is a lower bound on the block's radius (M is symmetric) and
    max_i (Mv)_i / v_i an upper bound (Collatz-Wielandt), so the start
    decides only how many products a block takes; a block stops once the
    square roots of the two bounds differ by less than tol.  A block of one
    Y-vertex is a star and has rho = sqrt(M_jj).

    Reports value = the certified lower end (it never overshoots rho),
    residual = the certified bracket width in rho units, and iterations =
    the matrix-vector products over all blocks.  Raises ConvergenceError
    once max_iterations products have not closed every bracket.
    """
    if tol is None:
        tol = default_tolerance()
    if not tol > 0:
        raise GraphError(f"tolerance must be positive, got {tol}")
    n = g.n
    blocks = _y_components(g.x_rows)
    # order Y by block, so that each block of M is a contiguous diagonal slice
    order = [j for block in blocks for j in _bits(block)]
    b = _unpack(g.x_rows, n)[:, order].astype(np.float64)
    m = b.T @ b
    lo = hi = 0.0
    iterations = 0
    start = 0
    for block in blocks:
        size = block.bit_count()
        mc = m[start : start + size, start : start + size]
        start += size
        if size == 1:  # one Y-vertex: a star, rho^2 = its degree
            lo, hi = max(lo, mc[0, 0]), max(hi, mc[0, 0])
            continue
        v = np.ones(size)
        if size <= _DENSE_START_MAX:
            perron = np.abs(np.linalg.eigh(mc)[1][:, -1])
            if (perron > 0).all():
                v = perron
        gap = math.inf
        for _ in range(max_iterations - iterations):
            iterations += 1
            w = mc @ v
            c_lo = (v @ w) / (v @ v)
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


def _unpack(masks, n: int) -> np.ndarray:
    """0/1 matrix with one row per bitset: entry (r, j) is bit j of masks[r]."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in masks), np.uint8)
    return np.unpackbits(packed.reshape(-1, width), axis=1, count=n, bitorder="little")


def _y_components(x_rows: tuple[int, ...]) -> list[int]:
    """Connected components of the non-isolated Y-vertices, as bitsets.

    Each X-row's neighborhood lies inside one component; merging every
    component a row meets, row by row, leaves exactly the components.
    """
    blocks: list[int] = []
    for row in x_rows:
        if not row:
            continue
        merged = row
        rest = []
        for block in blocks:
            if block & row:
                merged |= block
            else:
                rest.append(block)
        rest.append(merged)
        blocks = rest
    return blocks


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


def extremal_charpoly(n: int, k: int, x: float) -> float:
    """Characteristic polynomial of the extremal graph's quotient matrix:
    x^4 - [n(n-1) + (k-1)] x^2 + (n-1)(n-k+1)(k-1)."""
    return x**4 - (n * (n - 1) + (k - 1)) * x**2 + (n - 1) * (n - k + 1) * (k - 1)


def join_charpoly(params: ExtremalParams, x: float) -> float:
    """Characteristic polynomial of the join graph's quotient matrix:
    x^4 - [n(n+k-p-1) + (p-1)(p-k+1)] x^2 + (n+k-p-1)(p-k+1)(n-p+1)(p-1)."""
    n, k, p = params.n, params.k, params.p
    c2 = n * (n + k - p - 1) + (p - 1) * (p - k + 1)
    c0 = (n + k - p - 1) * (p - k + 1) * (n - p + 1) * (p - 1)
    return x**4 - c2 * x**2 + c0


def largest_biquadratic_root(c2: float, c0: float) -> float:
    """Largest real root of x^4 - c2 x^2 + c0, cross-checked by bisection
    on [sqrt(c2/2), sqrt(c2)]."""
    if c2 <= 0 or c0 < 0:
        raise GraphError(f"need c2 > 0 and c0 >= 0, got ({c2}, {c0})")
    disc = c2 * c2 - 4.0 * c0
    if disc < 0:
        raise GraphError(f"negative discriminant for ({c2}, {c0}); bad coefficients")
    closed = math.sqrt((c2 + math.sqrt(disc)) / 2.0)
    bisected = _bisect_biquadratic(c2, c0)
    if abs(closed - bisected) > 1e-8 * max(1.0, closed):
        raise InconsistencyError(
            f"closed form {closed!r} and bisection {bisected!r} disagree for ({c2}, {c0})"
        )
    return closed


def _bisect_biquadratic(c2: float, c0: float, steps: int = 100) -> float:
    # f(lo) = c0 - c2^2/4 <= 0 and f(hi) = c0 >= 0 bracket the largest root
    lo, hi = math.sqrt(c2 / 2.0), math.sqrt(c2)
    f = lambda x: x**4 - c2 * x**2 + c0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def quotient_spectral_radius(params: ExtremalParams, method: str = "closed") -> SpectralReport:
    """Spectral radius of build_join(params) from its quotient matrix."""
    c2, c0 = quotient_matrix(params).char_poly_coeffs()
    if method == "closed":
        value = largest_biquadratic_root(c2, c0)
        bisected = _bisect_biquadratic(c2, c0)
        return SpectralReport(value, "quotient-closed-form", 0, abs(value - bisected))
    if method == "bisect":
        value = _bisect_biquadratic(c2, c0)
        return SpectralReport(value, "quartic-bisection", 100, abs(join_charpoly(params, value)))
    raise GraphError(f"unknown quotient method {method!r}")


def extremal_spectral_radius(n: int, k: int) -> float:
    """Closed-form rho of the extremal graph."""
    c2 = n * (n - 1) + (k - 1)
    c0 = (n - 1) * (n - k + 1) * (k - 1)
    return largest_biquadratic_root(c2, c0)


@dataclass(frozen=True)
class SpectralMargin:
    """Comparison of a join graph against the extremal graph at the same (n, k)."""

    params: ExtremalParams
    rho_extremal: float
    rho_join: float
    margin: float
    holds: bool
    sign_value: float  # (P_extremal - P_join) at x = sqrt(n(n-1)); expected < 0
    sign_ok: bool


def join_margin(params: ExtremalParams, tol: float | None = None) -> SpectralMargin:
    """Strict-inequality check rho(join) < rho(extremal), by both the closed
    form and power iteration, plus the sign of the polynomial difference at
    sqrt(n(n-1)).

    Requires p >= k+1 (p = k compares the extremal graph with itself).
    Raises InconsistencyError if the two rho methods disagree beyond 1e-7.
    """
    n, k, p = params.n, params.k, params.p
    if p < k + 1:
        raise GraphError(f"margin check needs p >= k+1, got p = {p}")
    rho_b_closed = extremal_spectral_radius(n, k)
    rho_j_closed = largest_biquadratic_root(*quotient_matrix(params).char_poly_coeffs())
    rho_b_power = spectral_radius(build_extremal(n, k), tol=tol).value
    rho_j_power = spectral_radius(build_join(params), tol=tol).value
    for closed, power, which in (
        (rho_b_closed, rho_b_power, "extremal"),
        (rho_j_closed, rho_j_power, "join"),
    ):
        if abs(closed - power) > METHOD_AGREEMENT_TOL:
            raise InconsistencyError(
                f"{which} rho: closed form {closed!r} vs power iteration {power!r} "
                f"differ beyond {METHOD_AGREEMENT_TOL}"
            )
    margin = rho_b_closed - rho_j_closed
    x0 = math.sqrt(n * (n - 1))
    sign_value = extremal_charpoly(n, k, x0) - join_charpoly(params, x0)
    return SpectralMargin(
        params=params,
        rho_extremal=rho_b_closed,
        rho_join=rho_j_closed,
        margin=margin,
        holds=margin > 1e-9,
        sign_value=sign_value,
        sign_ok=sign_value < 0.0,
    )
