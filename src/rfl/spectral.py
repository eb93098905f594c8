"""Spectral radius computation and the quotient-matrix closed forms.

Power iteration runs on the n x n Gram matrix B^T B of the biadjacency
matrix B rather than on the 2n x 2n adjacency matrix: bipartite spectra are
symmetric about 0, and rho(G)^2 = rho(B^T B), whose blocks (one per
connected component) are primitive.  Each block stops on a certified
bracket, the Rayleigh quotient below and the Collatz-Wielandt bound above;
the bracket holds for any positive start, so the start changes the cost,
never the guarantee; its float ends are rounded outward by their a-priori
error bound, so every report's bracket holds rho and callers need no slack.
A block small enough for a dense eigensolver starts from its Perron vector
and usually closes on the first product; a larger one starts from all-ones
and is never formed, each product applied through B as B^T (B v) (Golub and
Van Loan, Matrix Computations, secs. 8.6 and 10.4).

On graphs with more than _DENSE_START_MAX X-vertices both sides are
quotiented by their twins, vertices with equal neighbourhoods, which form
equitable partitions (Brouwer and Haemers, Spectra of Graphs, sec. 2.3): a
block of at most two Y-twin classes is decided in closed form with no
product, and one of a few classes iterates on its integer class quotient
(see spectral_radius).  Smaller graphs keep their rows as they are.

Join-type and extremal graphs additionally admit a 4x4 equitable quotient
matrix whose characteristic polynomial x^4 - c2 x^2 + c0 has integer
coefficients (biquadratic_coeffs), giving a closed form for rho, bracketed
by exact integer sign checks (_certified_root, the one evaluator of that
root), and an exact verdict on rho(join) < rho(extremal).  The same
coefficients are read off any graph of one block of at most two Y-twin
classes (_class_quotient_coeffs): join_margin checks each built graph by
their equality.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .graphs import (
    BipartiteGraph,
    ExtremalParams,
    GraphError,
    _bits,
    build_extremal,
    build_join,
)

# The width below which an iterating block's computed bracket must close,
# before its ends are rounded outward, and the cap on products per call;
# spectral_radius reads both when called.
DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 100_000

# Blocks of at most this many Y-vertices, or on graphs with more than this
# many X-vertices of at most this many Y-twin classes, start from the Perron
# vector of a dense eigh and take their products on a formed matrix; other
# blocks stay matrix-free and start from all-ones.  Measured for this loop on
# a shared 2-vCPU Xeon with OpenBLAS on one thread, as whole spectral_radius
# calls on random half-dense s x s graphs (three each): with the dense start
# 48-55 us at s = 8, 92-95 us at 16, 147-151 us at 24, 204-212 us at 32 and
# 417-421 us at 48, always one product; from all-ones 134-161 us at 8 (16-19
# products), 133-148 us at 16 (13-15), 129-148 us at 24 (11-13), 131-153 us
# at 32 (10-12) and 156-160 us at 48 (10).  The crossover lies near 24; the
# limit sits below it, so large blocks never pay for eigh.
# The same limit decides which graphs are quotiented by their twins: one of
# at most this many X-vertices keeps its rows as they are, since all its
# blocks are dense-started and cost fixed numpy overhead that counting the
# rows only adds to.  Measured the same way, counting every graph's rows took
# 64-66 us a call against 53-55 us on Ferrers graphs with n = 9, and 44-46
# against 37-39 us on random graphs with n <= 8.  And it bounds the class
# count at which the twin split of a block gives up: a twin-free block
# reaches it within a few rows, so it pays only a few dozen bitset
# operations before running matrix-free.
_DENSE_START_MAX = 16


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge within the iteration cap."""


class InconsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


@dataclass(frozen=True)
class SpectralReport:
    """value <= rho <= value + residual, exactly, with the sum in float64."""

    value: float
    method: str  # power-iteration | quotient-closed-form
    iterations: int
    residual: float


def spectral_radius(g: BipartiteGraph) -> SpectralReport:
    """Spectral radius from certified power iteration on M = B^T B.

    B is the n x n biadjacency matrix (rows X, columns Y), so rho(G)^2 =
    rho(M).  M splits into one block per connected component of the
    non-isolated Y-vertices; each block is nonnegative with a positive
    diagonal, hence primitive.  For any positive iterate v and w = M v the
    Rayleigh quotient v.w / v.v is a lower bound on the block's radius (M is
    symmetric) and max_i w_i / v_i an upper bound (Collatz-Wielandt), so the
    start decides only how many products a block takes; a block stops once
    the square roots of the two bounds differ by less than DEFAULT_TOL.  The
    bracket holds whatever the tolerance, which sets only its width, and its
    float ends are rounded outward by their a-priori error bound.  A
    block of one Y-vertex is a star with rho = sqrt(its degree d).  Only the
    largest star degree can set an end, so the stars take one bracket: the
    largest root of x^4 - d x^2 for that d, by _certified_root.

    For n <= _DENSE_START_MAX the rows are used as they are.  With Bb the
    block's columns of B, a block of at most _DENSE_START_MAX Y-vertices
    forms its s x s Gram matrix Bb^T Bb, starts from |top eigenvector of
    eigh| of it (or from all-ones if that has an entry <= 0), and takes each
    product as one s x s matrix-vector product on it.

    For n > _DENSE_START_MAX the rows are counted once (_row_counts): Bd
    holds the d distinct nonzero rows and m_x their multiplicities, B^T B =
    Bd^T diag(m_x) Bd, and a star's degree is its bit's count.  Each block's
    Y-vertices are split into twin classes (equal columns), giving up past
    _DENSE_START_MAX classes (_twin_classes).  For the class-constant vector
    with class values v, M gives the class-constant vector with values
    w = G (m_y * v), where G = Bq^T diag(m_x) Bq is the c x c quotient over
    one column per class and m_y the class sizes.  A block of at most two
    classes (the extremal and join graphs) takes no product: rho^2 is the
    largest root of t^2 - c2 t + c0 with c2 and c0 the trace and the
    determinant of the integer matrix G diag(m_y) (c0 = 0 for one class, a
    complete bipartite K_{a,b} with rho^2 = a b), and its bracket
    [value, value + residual] is the one quotient_spectral_radius gives,
    decided by exact integer sign checks.  A block of 3 to
    _DENSE_START_MAX classes starts from the Perron vector of the symmetric
    diag(sqrt m_y) G diag(sqrt m_y), divided by sqrt m_y, and iterates on
    class vectors with the bounds (m_y * v).w / (m_y * v).v and
    max_i w_i / v_i, exactly the bounds above at the full n-long iterate.
    Neither builds B.  A block with more classes builds B over the distinct
    rows, starts from all-ones and never forms its Gram matrix: one product
    is ((Bb v) * m_x) Bb, two d x s matrix-vector products.

    Reports value = the largest lower end over the blocks, residual = the
    distance from it to the largest upper end, rounded up if value +
    residual would fall below it, iterations = the products v -> w over all
    blocks, and method "quotient-closed-form" when no block took a product,
    else "power-iteration".
    Raises ConvergenceError once MAX_ITERATIONS products have not closed
    every bracket.
    """
    n = g.n
    rows, multiplicity, weights = g.x_rows, None, None
    if n > _DENSE_START_MAX:
        # identical X-rows are identical rows of B: B^T B = Bd^T diag(m) Bd
        # over the distinct nonzero rows Bd and their multiplicities m
        multiplicity = _row_counts(rows)
        rows = tuple(multiplicity)
        weights = np.array(tuple(multiplicity.values()), np.float64)
    b = None
    lo = hi = 0.0  # the largest lower and upper ends, in rho units
    star = 0  # the largest star degree
    iterations = 0
    blocks = _y_components(rows)
    block_rows = {} if weights is None else _rows_of_blocks(blocks, rows)
    for block in blocks:
        size = block.bit_count()
        if size == 1:  # one Y-vertex: a star, rho^2 = its degree
            if multiplicity is None:
                multiplicity = Counter(rows)
            # the star's X-neighbours are exactly the rows equal to its bit
            star = max(star, multiplicity[block])
            continue
        gram = y_sizes = perron = None
        if weights is not None:
            split = _twin_classes(block, block_rows.get(block, rows))
            if split is not None:
                if len(split[0]) <= 2:
                    value, upper = _certified_root(*_two_class_coeffs(*split, multiplicity))
                    lo, hi = max(lo, value), max(hi, upper)
                    continue
                gram, y_sizes = _twin_quotient(*split, multiplicity)
                # G diag(m_y) is similar to the symmetric diag(sqrt m_y) G
                # diag(sqrt m_y), whose Perron vector u gives v = u / sqrt m_y
                root = np.sqrt(y_sizes)
                perron = np.abs(np.linalg.eigh(gram * np.outer(root, root))[1][:, -1]) / root
                gram = gram * y_sizes
        if gram is None:
            if b is None:
                b = _biadjacency(rows, n)
            bb = b if size == n else b[:, list(_bits(block))]
            if weights is None:  # n <= _DENSE_START_MAX, so the block is small too
                gram = bb.T.dot(bb)
                perron = np.abs(np.linalg.eigh(gram)[1][:, -1])
        if perron is not None and min(perron.tolist()) > 0:
            v = perron
        else:
            v = np.ones(size if y_sizes is None else len(y_sizes))
        gap = math.inf
        for _ in range(MAX_ITERATIONS - iterations):
            iterations += 1
            # matmul takes B's strided column view as it is; .dot would copy
            # it whole on every call.  A block without a Gram matrix has
            # more than _DENSE_START_MAX Y-vertices, so n does too and its
            # rows carry weights.
            w = ((bb @ v) * weights) @ bb if gram is None else gram.dot(v)
            # on a twin quotient v and w hold one entry per class, and the
            # full iterates repeat each m_y times
            mv = v if y_sizes is None else y_sizes * v
            # builtin max over a list: on the few-vertex blocks of typical
            # calls a numpy reduction costs more than the product itself
            c_hi = max((w / v).tolist())
            root_lo, root_hi = math.sqrt(mv.dot(w) / mv.dot(v)), math.sqrt(c_hi)
            gap = root_hi - root_lo
            if gap < DEFAULT_TOL:
                break
            v = w / c_hi
        else:
            raise ConvergenceError(
                f"no convergence to tol={DEFAULT_TOL} within {MAX_ITERATIONS} iterations "
                f"(last bracket width {gap:.3e})"
            )
        # Outward rounding by the a-priori bound for sums of nonnegative terms
        # (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1):
        # a value formed through m roundings, each a factor (1 + d)^(+-1) with
        # |d| <= u = 2^-53, is its exact value times 1 + t, |t| <= gamma_m =
        # m u / (1 - m u) <= 2 m u.  An entry of w takes `terms` roundings: a
        # Gram or quotient row's len(v) terms, or the size terms of Bb v, the
        # weight and the len(rows) terms of the product with Bb.  The upper
        # end adds w_i / v_i, the square root and the widening; the lower end
        # adds m_y * v and len(v) terms in each of its two dot products, their
        # quotient, the square root and the widening.  So m = terms +
        # 2 len(v) + 5 bounds both, and 1 -+ 2 m u are exact floats.
        terms = len(v) if gram is not None else size + len(rows) + 1
        widen = (terms + 2 * len(v) + 5) * 2.0**-52
        lo, hi = max(lo, root_lo * (1 - widen)), max(hi, root_hi * (1 + widen))
    if star:
        value, upper = _certified_root(star, 0)
        lo, hi = max(lo, value), max(hi, upper)
    method = "power-iteration" if iterations else "quotient-closed-form"
    residual = hi - lo if lo + (hi - lo) >= hi else math.nextafter(hi - lo, math.inf)
    return SpectralReport(value=lo, method=method, iterations=iterations, residual=residual)


def _row_counts(rows: tuple[int, ...]) -> dict[int, int]:
    """Multiplicity of each distinct nonzero row, in order of first appearance.

    Python ints cache no hash, so Counter hashes every n-bit row.  Rows
    written in runs of one object, as the builders write them, are instead
    split where a row differs from the one before (an identical object
    compares at once) and each run is hashed once.  The probe for runs
    looks at the pairs of neighbours that start at every eighth row: a run
    of nine or more rows holds one of them, and it costs an eighth of a
    scan of all pairs.  Rows where it finds none, such as those of a
    twin-free graph, go to Counter as they are.

    The probe tests object identity, which depends on how the caller built
    the tuple, not on the graph: the same extremal graph read by fileio,
    relabelled or with its rows shuffled holds its equal rows as distinct
    objects and takes Counter (rows below 257 can also share CPython's
    cached small ints).  Both paths give the same counts.
    """
    if any(map(operator.is_, rows[::8], rows[1::8])):
        starts = [0, *compress(range(1, len(rows)), map(operator.ne, rows, rows[1:]))]
        counts: dict[int, int] = {}
        for start, stop in zip(starts, starts[1:] + [len(rows)]):
            row = rows[start]
            counts[row] = counts.get(row, 0) + stop - start
    else:
        counts = Counter(rows)
    counts.pop(0, None)
    return counts


def _rows_of_blocks(blocks: list[int], rows: tuple[int, ...]) -> dict[int, list[int]]:
    """The rows inside each block of two or more Y-vertices, when there are
    several such blocks; empty when there is at most one, whose rows
    _twin_classes then picks out of all of them itself.

    Each row lies inside one block, found from its lowest Y-vertex, so the
    rows are grouped in one pass instead of one pass for every block.
    """
    multi = [block for block in blocks if block & (block - 1)]
    if len(multi) < 2:
        return {}
    owner = {y: block for block in multi for y in _bits(block)}
    grouped: dict[int, list[int]] = {block: [] for block in multi}
    for row in rows:
        block = owner.get((row & -row).bit_length() - 1)
        if block is not None:
            grouped[block].append(row)
    return grouped


def _twin_classes(block: int, rows: Iterable[int]) -> tuple[list[int], list[int]] | None:
    """The Y-twin classes of a block and the rows inside it, or None if the
    block has more than _DENSE_START_MAX classes.

    rows holds distinct nonzero X-rows, among them every row inside the
    block (the others are skipped).  Y-vertices with equal columns (twins)
    form an equitable partition of B^T B (Brouwer and Haemers, Spectra of
    Graphs, sec. 2.3).  The classes start as the block and are split by
    each row that meets it, as bitsets; the split stops as soon as there
    are too many.  The classes come sorted by position, so the quotient
    does not depend on the row order, and every inside row holds each
    class whole or not at all.
    """
    classes = [block]
    inside_rows = []
    for row in rows:
        if not row & block:
            continue  # a row that meets the block lies inside it
        inside_rows.append(row)
        count = len(classes)
        split = []
        for members in classes:
            inside = members & row
            if inside and inside != members:
                count += 1
                if count > _DENSE_START_MAX:
                    return None
                split += (inside, members ^ inside)
            else:
                split.append(members)
        classes = split
    classes.sort()
    return classes, inside_rows


def _twin_quotient(
    classes: list[int], rows: list[int], multiplicity: dict[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The quotient of a block of B^T B by its Y-twin classes, from
    _twin_classes, with multiplicity mapping each inside row to its count
    m_x.  Returns (G, m_y): G = Bq^T diag(m_x) Bq over one column Bq per
    class (exact integers in float64) and m_y the class sizes, so
    B^T B (P v) = P (G (m_y * v)) for the 0/1 class indicator matrix P.
    """
    reps = [(members & -members).bit_length() - 1 for members in classes]
    bq = np.array([[row >> rep & 1 for rep in reps] for row in rows], np.float64)
    counts = np.array([multiplicity[row] for row in rows], np.float64)
    sizes = np.array([members.bit_count() for members in classes], np.float64)
    return (bq.T * counts).dot(bq), sizes


def _two_class_coeffs(
    classes: list[int], rows: list[int], multiplicity: dict[int, int]
) -> tuple[int, int]:
    """Exact (c2, c0) of t^2 - c2 t + c0, the characteristic polynomial of
    G diag(m_y) for a block of one or two Y-twin classes (_twin_classes).

    With a and b the numbers of X-vertices adjacent to the first and the
    second class and d the number adjacent to both, G = [[a, d], [d, b]],
    so c2 = a s + b t and c0 = (a b - d^2) s t for class sizes s and t;
    one class is t = 0, whose c0 = 0 leaves rho^2 = a s.
    """
    first, second = (*classes, 0)[:2]
    a = b = d = 0
    for row in rows:
        m = multiplicity[row]
        if row & first:
            a += m
            if row & second:
                d += m
        if row & second:
            b += m
    s, t = first.bit_count(), second.bit_count()
    return a * s + b * t, (a * b - d * d) * s * t


def _class_quotient_coeffs(g: BipartiteGraph) -> tuple[int, int] | None:
    """Exact (c2, c0) of g's Y-twin class quotient, whose x^4 - c2 x^2 + c0
    has rho(g) as its largest root, when g's non-isolated Y-vertices form
    one block of at most two twin classes; else None.  These are the steps
    spectral_radius takes on such a block above _DENSE_START_MAX, at any n.
    """
    multiplicity = _row_counts(g.x_rows)
    blocks = _y_components(tuple(multiplicity))
    if len(blocks) != 1:
        return None
    split = _twin_classes(blocks[0], multiplicity)
    if split is None or len(split[0]) > 2:
        return None
    return _two_class_coeffs(*split, multiplicity)


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


def biquadratic_coeffs(n: int, k: int, p: int) -> tuple[int, int]:
    """Exact (c2, c0) of the characteristic polynomial x^4 - c2 x^2 + c0 of
    build_join's quotient matrix; p = k gives the extremal graph B_{n,k}:
    c2 = n(n+k-p-1) + (p-1)(p-k+1), c0 = (n+k-p-1)(p-k+1)(n-p+1)(p-1)."""
    b = n + k - p - 1
    return n * b + (p - 1) * (p - k + 1), b * (p - k + 1) * (n - p + 1) * (p - 1)


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


def _certified_root(c2: int, c0: int) -> tuple[float, float]:
    """Floats (value, upper) with value <= rho <= upper, for the largest
    root rho of x^4 - c2 x^2 + c0 (integers c2 > 0, c0 >= 0, c2^2 >= 4 c0).

    value is the float closed form sqrt((c2 + sqrt(c2^2 - 4 c0)) / 2),
    stepped down by ulps until it is at most rho; upper is value itself or
    value + 2^j ulp(value) for the least j at which rho is not above it.
    Both ends are decided by exact integer sign checks (_root_sign).
    Raises GraphError on coefficients outside that range.
    """
    disc = c2 * c2 - 4 * c0
    if c2 <= 0 or c0 < 0 or disc < 0:
        raise GraphError(f"need c2 > 0, c0 >= 0 and c2^2 >= 4 c0, got ({c2}, {c0})")
    value = math.sqrt((c2 + math.sqrt(disc)) / 2.0)
    while _root_sign(c2, c0, value) < 0:
        value = math.nextafter(value, 0.0)
    upper, step = value, 0.0
    while _root_sign(c2, c0, upper) > 0:
        step = 2 * step or math.ulp(value)
        upper = value + step
    return value, upper


def quotient_spectral_radius(params: ExtremalParams) -> SpectralReport:
    """Spectral radius of build_join(params) from its quotient matrix.

    value and value + residual are the certified ends of _certified_root
    on biquadratic_coeffs(params); residual is their difference, exact in
    float64.
    """
    value, upper = _certified_root(*biquadratic_coeffs(params.n, params.k, params.p))
    return SpectralReport(value, "quotient-closed-form", 0, upper - value)


@dataclass(frozen=True)
class SpectralMargin:
    """Comparison of a join graph against the extremal graph at the same
    (n, k), with the radii as the certified lower ends of _certified_root."""

    params: ExtremalParams
    rho_extremal: float
    rho_join: float
    margin: float  # rho_extremal minus the join's upper end, rounded down: <= the gap
    holds: bool  # rho_join < rho_extremal, decided exactly
    sign_value: int  # (P_extremal - P_join) at x = sqrt(n(n-1)), exact; expected < 0
    sign_ok: bool


def join_margin(params: ExtremalParams) -> SpectralMargin:
    """Strict-inequality check rho(join) < rho(extremal) from the two
    biquadratic closed forms, each checked exactly against its built graph,
    plus the sign of the polynomial difference at sqrt(n(n-1)).

    The verdict and the sign are exact integer arithmetic on the
    biquadratic coefficients; rho^2 = (c2 + sqrt(c2^2 - 4 c0)) / 2, so
    rho_J < rho_B exactly when sqrt(d_B) - sqrt(d_J) > c2_J - c2_B.
    Requires p >= k+1 (p = k compares the extremal graph with itself).
    Raises InconsistencyError unless the class quotient of each built graph
    (_class_quotient_coeffs, read off its rows) has exactly the
    coefficients biquadratic_coeffs gives, so a wrong formula or a wrong
    builder shows at every n.
    """
    n, k, p = params.n, params.k, params.p
    if p < k + 1:
        raise GraphError(f"margin check needs p >= k+1, got p = {p}")
    c2_b, c0_b = coeffs_b = biquadratic_coeffs(n, k, k)
    c2_j, c0_j = coeffs_j = biquadratic_coeffs(n, k, p)
    for coeffs, graph, which in (
        (coeffs_b, build_extremal(n, k), "extremal"),
        (coeffs_j, build_join(params), "join"),
    ):
        found = _class_quotient_coeffs(graph)
        if found != coeffs:
            raise InconsistencyError(
                f"{which} graph: class quotient coefficients {found} differ from "
                f"biquadratic_coeffs {coeffs}"
            )
    lo_b = _certified_root(c2_b, c0_b)[0]
    lo_j, hi_j = _certified_root(c2_j, c0_j)
    holds = _sqrt_diff_sign(c2_b * c2_b - 4 * c0_b, c2_j * c2_j - 4 * c0_j, c2_j - c2_b) > 0
    sign_value = (c2_j - c2_b) * n * (n - 1) + (c0_b - c0_j)
    return SpectralMargin(
        params=params,
        rho_extremal=lo_b,
        rho_join=lo_j,
        margin=math.nextafter(lo_b - hi_j, -math.inf),
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
