"""The integer relaxation of a rainbow k-factor, and a witness when it has no
solution.

Give each edge of each class of identical members an integer weight of any
sign, and ask for total weight k at every vertex and, over each class, its
member count.  Every rainbow k-factor is a 0/1 solution, so a family whose
relaxation has no integer solution has no factor.  That is decided exactly
by lattice membership, and by the integer Farkas lemma (Schrijver, Theory
of Linear and Integer Programming, 1986, §4) the answer "no" comes with a
short witness that can be checked without this code.  The even cyclic Latin
squares are the classic case: their parity proof is one such witness
(Wanless, "Transversals in Latin squares", 2011).

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
    drops 0 <= s <= 1.  Fix one reference edge (x0, y0) in each class.  The
    degree vectors the classes can supply are r0 = sum_c need[c] (e_x0 +
    e_y0) plus the lattice D spanned by e_x + e_y - e_x0 - e_y0 over every
    edge of every class, so the system is solvable exactly when
    r = (k, ..., k) - r0 lies in D.  D is kept as an integer echelon basis,
    built by extended-gcd steps.  Once it has 2n - 2 unit pivots it is all of
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
    # Vectors are sparse {coordinate: nonzero integer}; X-vertex x is
    # coordinate x and Y-vertex y is n + y.
    basis: dict[int, dict[int, int]] = {}  # pivot -> row, its first entry positive
    units = 0
    refs = []
    for rows in class_rows:
        edges = [(x, n + y) for x, row in enumerate(rows) for y in _bits(row)]
        x0, y0 = edges[0]
        refs.append((x0, y0))
        for x, y in edges[1:]:
            v = {x0: -1, y0: -1}
            _add(v, {x: 1, y: 1}, 1)
            units += _echelon_insert(basis, v)
            if units == 2 * n - 2:
                return None
    r = dict.fromkeys(range(2 * n), k)
    for (x0, y0), m in zip(refs, need):
        r[x0] -= m
        r[y0] -= m
    r = {p: a for p, a in r.items() if a}
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
    f = tuple(y.get(x, Fraction(0)) % 1 for x in range(n))
    g = tuple(y.get(n + j, Fraction(0)) % 1 for j in range(n))
    h = tuple(-(f[x0] + g[y0 - n]) % 1 for x0, y0 in refs)
    return f, g, h


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
