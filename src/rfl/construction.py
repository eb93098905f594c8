"""Constructive rainbow k-factor for families of labeled extremal copies.

Every member is the complete bipartite graph minus a near-full star at its
deficient vertex u_i: it keeps every edge away from u_i, and at u_i only
the edges to its k-1 listed neighbors L_i.  So one fixed k-regular graph H
serves the whole family.  H is a circulant: X-vertex x joins Y-vertex
n+1+((x-1+s) mod n) for each of k distinct shifts s.  Member i may take any
edge of H except those at u_i that avoid L_i, and the flow solver of
``rfl.flow`` gives every member its own edge of H, one member-to-edge
matching of kn on kn.

By Hall's theorem that matching exists once, for every set S of members,
the edges of H missing from all of S number at most kn - |S|.  An edge is
missing from member i only if it lies at u_i, so:

- if S has three or more distinct deficient vertices, no edge is missing
  from all of S;
- if it has exactly two, a and b, only the edge ab can be, which matters
  only when S is the whole family; then leave out the shift that joins a
  and b when they lie in opposite parts;
- if it has one, u, at most k edges are missing, which matters only when
  more than kn - k members sit at u ("heavy"; with n >= 2 at most one
  vertex is).  Then H gives u the distinct representatives of k members at
  u, two of them with different lists: any j < k of them list at least
  k - 1 >= j vertices and all k list at least k, so such representatives
  exist.  A set S at u that leaves out j of the k misses at most j edges
  and has at most kn - j members.  If all members at u are identical, a
  spare vertex w, no member's deficient vertex, stands in for the second
  list, so u's neighbors in H are its list L and w; S then misses at most
  (u, w) and has at most kn - 1 members, as the family is not all
  identical.  Either way every neighbor of u in H is listed at u or is w,
  so the edge ab of the two-vertex case is never missing.

The flow solver finds the representatives too, so a build makes at most
two flow calls and no search.  Ties are resolved by member order and by the
lowest shift.
"""

from __future__ import annotations

from collections import Counter

from .factors import RainbowFactor
from .flow import _exact_degree
from .graphs import GraphError, GraphFamily, extremal_signature


def construct_rainbow_factor_extremal(family: GraphFamily) -> RainbowFactor:
    """Build (not search) a rainbow k-factor of a family of labeled extremal
    copies with at least two distinct members.  The result is validated
    against all factor invariants before it is returned."""
    n, k = family.n, family.k
    if k < 2:
        raise GraphError(f"construction needs k >= 2, got {k}")
    if n < 2 * k:
        raise GraphError(f"construction needs n >= 2k, got n = {n}, k = {k}")
    signatures = []
    for idx, g in enumerate(family.members, start=1):
        sig = extremal_signature(g, k)
        if sig is None:
            raise GraphError(f"member {idx} is not a labeled extremal copy")
        signatures.append(sig)
    if len(set(signatures)) < 2:
        raise GraphError("all members are identical; no rainbow factor exists")

    shifts = _shifts(n, k, signatures)
    edges = [(x, n + 1 + (x - 1 + s) % n) for x in range(1, n + 1) for s in shifts]
    at: dict[int, list[tuple[int, int]]] = {}  # vertex -> (edge bit, other end)
    for e, (x, y) in enumerate(edges):
        at.setdefault(x, []).append((1 << e, y))
        at.setdefault(y, []).append((1 << e, x))
    full = (1 << k * n) - 1
    rows = [full - sum(bit for bit, w in at[u] if w not in nbrs) for u, nbrs in signatures]
    chosen = _exact_degree(rows, [1] * (k * n), [1] * (k * n))
    if chosen is None:
        raise GraphError("no member-to-edge matching on the circulant")
    assignment = tuple((slot, edges[row.bit_length() - 1]) for slot, row in enumerate(chosen, 1))
    factor = RainbowFactor(n, k, assignment)
    factor.validate(family)
    return factor


def _shifts(n: int, k: int, signatures: list[tuple[int, tuple[int, ...]]]) -> list[int]:
    """k distinct shifts whose circulant meets Hall's condition for every
    set of members (the module docstring gives the argument)."""

    def shift(x: int, y: int) -> int:  # the shift that joins x to y
        return (y - n - x) % n

    counts = Counter(u for u, _nbrs in signatures)
    u, size = counts.most_common(1)[0]
    if size <= k * n - k:
        ends = sorted(counts)
        banned = shift(*ends) if len(ends) == 2 and ends[0] <= n < ends[1] else None
        return [s for s in range(n) if s != banned][:k]

    lists = [nbrs for v, nbrs in signatures if v == u]
    picked = lists[:k]
    if len(set(picked)) == 1:  # a second list, or a spare vertex
        part = range(n + 1, 2 * n + 1) if u <= n else range(1, n + 1)
        spare = next(v for v in part if v not in picked[0] and v not in counts)
        picked[-1] = next((nbrs for nbrs in lists if nbrs != picked[0]), (spare,))
    # distinct representatives as an exact-degree subgraph with caps 1: the
    # picked lists against the other part, and one padding row after them
    # that takes the listed vertices left over
    offset = n if u <= n else 0
    masks = [sum(1 << (v - offset - 1) for v in nbrs) for nbrs in picked]
    pool = sum(1 << (v - offset - 1) for v in set().union(*picked))
    rows = masks + [pool] + [0] * (n - k - 1)
    caps_x = [1] * k + [pool.bit_count() - k] + [0] * (n - k - 1)
    chosen = _exact_degree(rows, caps_x, [pool >> j & 1 for j in range(n)])
    if chosen is None:
        raise GraphError(f"no distinct representatives at heavy vertex {u}")
    reps = [row.bit_length() + offset for row in chosen[:k]]
    return [shift(u, r) if u <= n else shift(r, u) for r in reps]
