"""The integer relaxation of a rainbow k-factor, and a witness when it has no
solution.

Give each edge of each class of identical members an integer weight of any
sign, and ask for total weight k at every vertex and, over each class, its
member count.  Every rainbow k-factor is a 0/1 solution, so a family whose
relaxation has no integer solution has no factor.  That is decided exactly
by lattice membership, and by the integer Farkas lemma (Schrijver, Theory
of Linear and Integer Programming, 1986, §4) the answer "no" comes with a
short witness that can be checked without this code.

The lattice is spanned by each class's consecutive edge differences.  The
same system is solved mod 2 first, on an XOR basis of 2n-bit ints: parity
is the cheap filter, and a target outside the GF(2) span gives a witness of
halves at once.  The even cyclic Latin squares of order 2 mod 4 are the
classic case (Wanless, "Transversals in Latin squares", 2011).  An integer
echelon basis decides what parity leaves, as it must for the orders
divisible by 4, whose witnesses need denominators above 2.

``rfl.factors`` imports this module only when a search first fails a child.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import _bits

# (f, g, h): rationals on the X-vertices, the Y-vertices and the classes (or,
# in a SearchResult, the members)
Witness = tuple[tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]]


def lattice_witness(
    n: int, k: int, class_rows: list[tuple[int, ...]], need: list[int]
) -> Witness | None:
    """A proof that the integer relaxation has no solution, or None if it has.

    The relaxation takes an integer s_{c,e} for each class c and edge e of c,
    with degree k at every vertex and total need[c] over each class, and
    drops 0 <= s <= 1.  List each class's edges e_0, e_1, ... in order and
    write chi(e) = e_x + e_y for edge (x, y).  The degree vectors the classes
    can supply are r0 = sum_c need[c] chi(e_0) plus the lattice D spanned by
    the consecutive differences chi(e_i) - chi(e_i-1) within each class, so
    the system is solvable exactly when r = (k, ..., k) - r0 lies in D.  The
    consecutive differences span the same D as the differences from e_0
    and fill in less during elimination.

    Parity first: r mod 2 outside the GF(2) span of the generators already
    puts r outside D, with a witness of halves (``_parity_witness``).  Every
    generator and r sum to 0 over X and over Y, so once that span has rank
    2n - 2 it holds r mod 2 and parity is undecided.  Whatever parity leaves
    the integer pass decides: D is kept as an integer echelon basis, built by
    extended-gcd steps.  Once it has 2n - 2 unit pivots it is all of
    {sum over X = 0 = sum over Y}, which holds r because the need counts sum
    to kn, and the answer is None.

    Otherwise, when r is not in D, the result is (f, g, h): rationals in
    [0, 1) on the X-vertices, the Y-vertices and the classes with f(x) +
    g(y) + h(c) integral on every edge (x, y) of every class c, and
    k sum f + k sum g + sum_c need[c] h(c) not integral (the integer Farkas
    lemma).  Any integer solution would make that sum integral.
    """
    for c, rows in enumerate(class_rows):
        if not any(rows):  # no edge to supply: the class total alone fails
            h = tuple(Fraction(1, 2 * m) if d == c else Fraction(0) for d, m in enumerate(need))
            return (Fraction(0),) * n, (Fraction(0),) * n, h
    class_edges = [[(x, y) for x, row in enumerate(rows) for y in _bits(row)] for rows in class_rows]
    refs = [edges[0] for edges in class_edges]
    r = [k] * (2 * n)  # X-vertex x is coordinate x and Y-vertex y is n + y
    for (x0, y0), m in zip(refs, need):
        r[x0] -= m
        r[n + y0] -= m
    y = _parity_witness(n, class_edges, r)
    if y is None:
        y = _integer_witness(n, class_edges, r)
        if y is None:
            return None
    # y.generator is integral for every generator and y.r is not: f and g
    # are y's parts, and h makes each class's first edge integral
    f = tuple(y.get(x, Fraction(0)) % 1 for x in range(n))
    g = tuple(y.get(n + j, Fraction(0)) % 1 for j in range(n))
    h = tuple(-(f[x0] + g[y0]) % 1 for x0, y0 in refs)
    return f, g, h


def _parity_basis(n: int, class_edges: list[list[tuple[int, int]]]) -> dict[int, int] | None:
    """The generators mod 2 as a reduced XOR basis {pivot bit: row}, each a
    2n-bit int (bit x for X-vertex x, bit n + y for Y-vertex y) whose pivot
    is its lowest bit and appears in no other row; None once the rank
    reaches 2n - 2, where the span is every vector of even weight on both
    sides."""
    basis: dict[int, int] = {}
    pivots = 0
    for edges in class_edges:
        x, y = edges[0]
        last = 1 << x | 1 << (n + y)
        for x, y in edges[1:]:
            edge = 1 << x | 1 << (n + y)
            v = edge ^ last
            last = edge
            # the rows hold no pivot but their own, so clearing v's pivots
            # one row each leaves none
            for p in _bits(v & pivots):
                v ^= basis[1 << p]
            if v:
                low = v & -v
                for p, row in basis.items():
                    if row & low:
                        basis[p] = row ^ v
                basis[low] = v
                pivots |= low
                if len(basis) == 2 * n - 2:
                    return None
    return basis


def _parity_witness(
    n: int, class_edges: list[list[tuple[int, int]]], r: list[int]
) -> dict[int, Fraction] | None:
    """{coordinate: 1/2} on a set Y of coordinates that meets every
    generator in an even number and r in an odd number, or None if r mod 2
    lies in the generators' GF(2) span."""
    basis = _parity_basis(n, class_edges)
    if basis is None:
        return None
    t = sum(1 << q for q, a in enumerate(r) if a % 2)
    for p in _bits(t & sum(basis)):
        t ^= basis[1 << p]
    if not t:
        return None
    # t is r reduced: free of pivots, so its lowest bit q is none.  Y = {q}
    # plus the pivot of each row holding q meets every row evenly and t
    # (hence r) oddly.
    q = t & -t
    half = Fraction(1, 2)
    y = {q.bit_length() - 1: half}
    for p, row in basis.items():
        if row & q:
            y[p.bit_length() - 1] = half
    return y


def _integer_witness(
    n: int, class_edges: list[list[tuple[int, int]]], r: list[int]
) -> dict[int, Fraction] | None:
    """A rational y on the coordinates with y.generator integral for every
    generator and y.r not integral, or None if r lies in D."""
    # Vectors are sparse {coordinate: nonzero integer}.
    basis: dict[int, dict[int, int]] = {}  # pivot -> row, its first entry positive
    units = 0
    for edges in class_edges:
        for (px, py), (x, y) in zip(edges, edges[1:]):
            v = {x: 1, n + y: 1}
            _add(v, {px: 1, n + py: 1}, -1)
            units += _echelon_insert(basis, v)
            if units == 2 * n - 2:
                return None
    r = {p: a for p, a in enumerate(r) if a}
    while r:
        p = min(r)
        row = basis.get(p)
        if row is None or r[p] % row[p]:
            break
        _add(r, row, -(r[p] // row[p]))
    else:
        return None
    # r is outside D.  Write it as a rational combination alpha of the basis
    # rows plus a part u that vanishes on the pivots, then pick y with
    # y.row integral for every row and y.r not integral: y.u = 1/2 if u is
    # not zero, else y.row = 1 on one row whose alpha is not an integer.
    pivots = sorted(basis)
    u = {p: Fraction(a) for p, a in r.items()}
    alpha = {}
    for p in pivots:
        if u.get(p):
            alpha[p] = u[p] / basis[p][p]
            _add(u, basis[p], -alpha[p])
    y: dict[int, Fraction] = {}
    target = dict.fromkeys(pivots, 0)
    if u:
        outside = min(u)
        y[outside] = 1 / (2 * u[outside])
    else:
        target[next(p for p, a in alpha.items() if a.denominator != 1)] = 1
    for p in reversed(pivots):
        row = basis[p]
        rest = sum(y.get(q, 0) * a for q, a in row.items() if q != p)
        y[p] = (target[p] - rest) / Fraction(row[p])
    return y


def _echelon_insert(basis: dict[int, dict[int, int]], v: dict[int, int]) -> int:
    """Add the sparse integer vector v to the lattice of the echelon basis
    {pivot: row}, keeping it an echelon basis; returns the change in the
    number of pivots equal to 1."""
    units = 0
    while v:
        p = min(v)
        value = v[p]
        row = basis.get(p)
        if row is None:
            basis[p] = v if value > 0 else {q: -a for q, a in v.items()}
            return units + (abs(value) == 1)
        pivot = row[p]
        if value % pivot == 0:
            _add(v, row, -(value // pivot))
            continue
        # extended gcd: the new row s*row + t*v has pivot g, and
        # (pivot/g)*v - (value/g)*row is zero at p
        g, s, t = _xgcd(pivot, value)
        new_row = {q: s * a for q, a in row.items()}
        _add(new_row, v, t)
        v = {q: pivot // g * a for q, a in v.items()}
        _add(v, row, -(value // g))
        basis[p] = new_row
        units += g == 1
    return units


def _add(v: dict, w: dict, scale) -> None:
    """v += scale * w on sparse vectors, dropping the zeros."""
    for q, a in w.items():
        total = v.get(q, 0) + scale * a
        if total:
            v[q] = total
        else:
            v.pop(q, None)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s a + t b = g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)
