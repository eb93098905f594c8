"""Constructive rainbow k-factor for families of labeled extremal copies.

Every member is the complete bipartite graph minus a near-full star at its
deficient vertex, which makes the construction concrete:

- if all members share one deficient vertex u, pick k distinct neighbors of
  u supplied by k distinct members (two of which must differ), give u its k
  edges there, and fill the rest with any degree-exact subgraph of the
  complete graph away from u;
- otherwise group members by deficient vertex, build one such anchored
  factor per group large enough to supply n edges per regularity unit,
  repair duplicate edges between the group factors by degree-preserving
  swaps, and cover the leftover members in blocks of n by perfect
  matchings, repairing again at the end.

A leftover block needs no search.  Each group leaves fewer than n members
to the blocks, so a block of n has at least two distinct deficient
vertices.  Give the block a cyclic perfect matching M; a member with
deficient vertex u may take any edge of M that avoids u, since its
star-deleted subgraph contains every such edge.  By Hall's theorem the
members of the block can take distinct edges of M unless they all forbid
the same edge, that is unless their deficient vertices all lie on one
edge of M, which rules out at most one of the n cyclic matchings.  There
are at most k <= n/2 blocks, so each gets its own shift and the block
matchings share no edge.  The flow solver of ``rfl.flow`` assigns the
members to the edges; it also picks the anchor edges, as a system of
distinct representatives.

All nondeterministic choices (anchor members, representatives, swap
candidates, block shifts) are resolved lexicographically.
"""

from __future__ import annotations

from collections import Counter

from .factors import RainbowFactor
from .flow import degree_constrained_subgraph
from .graphs import Edge, GraphError, GraphFamily, extremal_signature

Assignment = dict[int, Edge]  # 1-based family index -> its edge


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

    groups: dict[int, list[int]] = {}
    for slot, (u, _nbrs) in enumerate(signatures, start=1):
        groups.setdefault(u, []).append(slot)

    if len(groups) == 1:
        (u,) = groups
        assignment = _anchored_assignment(
            family, signatures, groups[u], u, k, need_distinct_pair=True
        )
        return _finish(family, assignment)

    # groups by size descending, ties by deficient vertex
    ordered = sorted(groups.items(), key=lambda item: (-len(item[1]), item[0]))
    merged: Assignment = {}
    chosen_slots: set[int] = set()
    for u, slots in ordered:
        units = len(slots) // n  # regularity contributed by this group
        if units == 0:
            continue
        subset = slots[: units * n]
        merged.update(
            _anchored_assignment(family, signatures, subset, u, units, need_distinct_pair=False)
        )
        chosen_slots.update(subset)
    if merged:
        merged = _repair_multiedges(merged, family)
    if len(chosen_slots) == k * n:
        return _finish(family, merged)

    rest = [s for s in range(1, k * n + 1) if s not in chosen_slots]
    blocks = [rest[i : i + n] for i in range(0, len(rest), n)]
    merged.update(_match_blocks(n, signatures, blocks))
    merged = _repair_multiedges(merged, family)
    return _finish(family, merged)


def _finish(family: GraphFamily, assignment: Assignment) -> RainbowFactor:
    factor = RainbowFactor(family.n, family.k, tuple(sorted(assignment.items())))
    factor.validate(family)
    return factor


def _anchored_assignment(
    family: GraphFamily,
    signatures: list[tuple[int, tuple[int, ...]]],
    slots: list[int],
    anchor: int,
    units: int,
    need_distinct_pair: bool,
) -> Assignment:
    """A rainbow units-regular spanning factor from slots that all share the
    deficient vertex `anchor`.

    The anchor's `units` edges come from distinct member-supplied neighbors;
    everything else is a degree-exact subgraph of the complete graph away
    from the anchor, valid in every slot.
    """
    n = family.n
    if len(slots) != units * n:
        raise GraphError(f"group must supply units*n = {units * n} slots, got {len(slots)}")
    if need_distinct_pair:
        first = slots[0]
        partner = next(
            (s for s in slots[1:] if signatures[s - 1] != signatures[first - 1]), None
        )
        if partner is None:
            raise GraphError("anchored group has no two distinct members")
        chosen = {first, partner}
        for s in slots:
            if len(chosen) >= units:
                break
            chosen.add(s)
        chosen_slots = sorted(chosen)
    else:
        chosen_slots = slots[:units]

    in_x = anchor <= n
    offset = n if in_x else 0  # the anchor's neighbors, numbered 1..n in their part
    # Distinct representatives as an exact-degree subgraph with caps 1: the
    # chosen slots on X against the candidate neighbors on Y, and one
    # padding X-vertex after the slots that takes the candidates left over.
    candidates = [
        (pos, n + v - offset)
        for pos, s in enumerate(chosen_slots, start=1)
        for v in signatures[s - 1][1]
    ]
    pool = sorted({y for _pos, y in candidates})
    padding = units + 1
    candidates += [(padding, y) for y in pool]
    caps_x = [1] * units + [len(pool) - units] + [0] * (n - padding)
    caps_y = [0] * n
    for y in pool:
        caps_y[y - n - 1] = 1
    anchor_edges = degree_constrained_subgraph(n, candidates, caps_x, caps_y)
    if anchor_edges is None:
        raise GraphError("no distinct representatives for anchor edges")

    assignment: Assignment = {}
    caps_x = [units] * n
    caps_y = [units] * n
    for pos, y in anchor_edges:
        if pos == padding:
            continue
        v = y - n + offset
        if in_x:
            assignment[chosen_slots[pos - 1]] = (anchor, v)
            caps_y[v - n - 1] -= 1
        else:
            assignment[chosen_slots[pos - 1]] = (v, anchor)
            caps_x[v - 1] -= 1
    if in_x:
        caps_x[anchor - 1] = 0
    else:
        caps_y[anchor - n - 1] = 0
    candidates = [
        (x, y)
        for x in range(1, n + 1)
        if x != anchor
        for y in range(n + 1, 2 * n + 1)
        if y != anchor
    ]
    filler = degree_constrained_subgraph(n, candidates, caps_x, caps_y)
    if filler is None:
        raise GraphError(
            f"no degree-exact completion for anchor {anchor} with units {units}"
        )
    taken = set(chosen_slots)
    rest_slots = [s for s in slots if s not in taken]
    filler.sort()
    if len(filler) != len(rest_slots):
        raise GraphError("completion size mismatch")
    for slot, edge in zip(rest_slots, filler):
        assignment[slot] = edge
    return assignment


def _match_blocks(
    n: int, signatures: list[tuple[int, tuple[int, ...]]], blocks: list[list[int]]
) -> Assignment:
    """Cover each block of n leftover slots by the cyclic perfect matching
    x -> n+1+((x-1+shift) mod n), with a different shift for each block.

    A slot may take any edge of its block's matching that avoids its
    deficient vertex.  The lowest shift is taken that no earlier block
    uses and at which the block's deficient vertices lie on two or more
    edges of the matching; Hall's condition then holds, and the flow solver
    assigns the slots (caps 1: block positions on X against the matching's
    edges on Y, each named by its X-end)."""
    out: Assignment = {}
    used: set[int] = set()
    ones = [1] * n
    for block in blocks:
        deficient = [signatures[s - 1][0] for s in block]
        for shift in range(n):
            # the X-end of the matching edge at each deficient vertex
            ends = [u if u <= n else (u - n - 1 - shift) % n + 1 for u in deficient]
            if shift not in used and len(set(ends)) > 1:
                break
        used.add(shift)
        candidates = [
            (pos, n + x)
            for pos, end in enumerate(ends, start=1)
            for x in range(1, n + 1)
            if x != end
        ]
        for pos, y in degree_constrained_subgraph(n, candidates, ones, ones):
            x = y - n
            out[block[pos - 1]] = (x, n + 1 + (x - 1 + shift) % n)
    return out


def _repair_multiedges(assignment: Assignment, family: GraphFamily) -> Assignment:
    """Remove duplicate edges from a regular multigraph union of assigned
    edges by degree-preserving swaps that respect per-slot membership.

    Preconditions: the union is d-regular as a multigraph for some d, and
    every assigned edge belongs to its slot's graph.  Each round replaces a
    duplicated edge copy via a 2-swap (two slots trade into two fresh edges)
    or, failing that, a 3-swap through an intermediate edge.  Every applied
    swap strictly decreases the number of excess duplicate copies, so the
    cap of 10 * (kn)^2 attempts only trips on instances outside the
    precondition.  Every swap keeps the degrees and takes edges of the
    slots' own graphs, so the preconditions are checked on entry only; the
    caller validates the factor it returns."""
    edges = dict(assignment)
    _check_repair_preconditions(edges, family)
    cap = 10 * len(family) ** 2
    attempts = 0
    while True:
        counts = Counter(edges.values())
        duplicated = sorted(e for e, c in counts.items() if c > 1)
        if not duplicated:
            break
        attempts += 1
        if attempts > cap:
            raise GraphError(
                f"multi-edge repair exceeded {cap} attempts; "
                f"remaining duplicates {duplicated}; assignment {sorted(edges.items())}"
            )
        target = duplicated[0]
        if not _swap_away(edges, family, target, counts):
            raise GraphError(
                f"no eligible swap for duplicate edge {target}; "
                f"assignment {sorted(edges.items())}"
            )
    return edges


def _check_repair_preconditions(edges: Assignment, family: GraphFamily) -> None:
    n = family.n
    if not edges:
        return
    if len(edges) % n != 0:
        raise GraphError(
            f"{len(edges)} assigned edges cannot form a regular union on 2n = {2 * n} vertices"
        )
    degree = len(edges) // n
    deg = Counter()
    for slot, (x, y) in edges.items():
        if not family[slot - 1].has_edge(x, y):
            raise GraphError(f"edge ({x},{y}) does not belong to graph {slot}")
        deg[x] += 1
        deg[y] += 1
    for v in range(1, 2 * n + 1):
        if deg[v] != degree:
            raise GraphError(
                f"union is not {degree}-regular: vertex {v} has multidegree {deg[v]}"
            )


def _swap_away(
    edges: Assignment, family: GraphFamily, target: Edge, counts: Counter
) -> bool:
    v, vp = target
    support = set(counts)
    holders = sorted(slot for slot, e in edges.items() if e == target)

    def fresh(x: int, y: int) -> bool:
        return (x, y) not in support

    candidates = sorted(support)
    # 2-swaps: trade the duplicate copy and one other edge for two fresh ones
    for rep in holders:
        g_rep = family[rep - 1]
        for w, wp in candidates:
            if (w, wp) == target or not (fresh(v, wp) and fresh(w, vp)):
                continue
            for t in sorted(s for s, e in edges.items() if e == (w, wp) and s != rep):
                g_t = family[t - 1]
                if g_rep.has_edge(w, vp) and g_t.has_edge(v, wp):
                    edges[rep] = (w, vp)
                    edges[t] = (v, wp)
                    return True
                if g_rep.has_edge(v, wp) and g_t.has_edge(w, vp):
                    edges[rep] = (v, wp)
                    edges[t] = (w, vp)
                    return True
    # 3-swaps: route through a second edge zz' when both direct trades are
    # blocked by the slots' missing stars
    for rep in holders:
        g_rep = family[rep - 1]
        for w, wp in candidates:
            if (w, wp) == target or not (fresh(v, wp) and fresh(w, vp)):
                continue
            t_slots = sorted(s for s, e in edges.items() if e == (w, wp) and s != rep)
            if not t_slots:
                continue
            for z, zp in candidates:
                if z == w or zp == wp or (z, zp) == target:
                    continue
                if not (fresh(v, zp) and fresh(z, vp)):
                    continue
                if not g_rep.has_edge(z, vp):
                    continue
                for t in t_slots:
                    if not family[t - 1].has_edge(v, zp):
                        continue
                    for tp in sorted(s for s, e in edges.items() if e == (z, zp)):
                        if tp in (rep, t):
                            continue
                        if family[tp - 1].has_edge(w, wp):
                            edges[rep] = (z, vp)
                            edges[tp] = (w, wp)
                            edges[t] = (v, zp)
                            return True
    return False
