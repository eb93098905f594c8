"""The three benchmark workloads.

Each workload draws a spec (plain numbers and bit rows) from its seed, turns
it into library objects, runs one round of calls into the library, and
checks the round's outputs with ``checks``.  A round always makes the same
calls on the same inputs, so a run repeats whole rounds and every round of a
run must give the same outputs.  ``run_round`` is a generator that yields
after each operation, so the runner can time the round in pieces.

An operation is one call the round makes into the library (a search, a
margin, one graph's shifts, one family's audit, ...).  The only operation
allowed to fail is a budget-capped search on the one-odd families of
``BUDGET_CASES``; every other unexpected outcome fails the run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import checks
from checks import CheckFailed
from rfl.construction import construct_rainbow_factor_extremal
from rfl.factors import (
    ABSENT,
    BUDGET_EXHAUSTED,
    FOUND,
    audit_shifted_family,
    rainbow_k_factor_search,
    rainbow_perfect_matching_search,
)
from rfl.flow import degree_constrained_subgraph, k_factor_exists
from rfl.graphs import (
    BipartiteGraph,
    ExtremalParams,
    GraphFamily,
    build_extremal,
    labeled_extremal_copy,
)
from rfl.shifting import bi_shift_fixpoint, xy_shift
from rfl.spectral import join_margin, spectral_radius


@dataclass
class Round:
    """What one round did: one output per operation, to be checked after the
    run; how many operations failed; and deterministic work counts
    ("iterations": power iterations reported by spectral_radius;
    "nodes.<status>": search nodes by outcome; "fixpoint_steps";
    "audit_members")."""

    outputs: list = field(default_factory=list)
    failed: int = 0
    counts: Counter = field(default_factory=Counter)


def _random_rows(rng: np.random.Generator, n: int, prob: float) -> tuple[int, ...]:
    picks = rng.random((n, n)) < prob
    return tuple(sum(1 << j for j in range(n) if picks[i, j]) for i in range(n))


# ------------------------------------------------------------ spectral-scale

# Extremal graphs timed through spectral_radius, and join graphs through
# join_margin (two power iterations at the same n inside).  n = 1000 alone is
# about 80% of a round: the 2n x 2n matvec and the Python adjacency build.
RADIUS_SIZES = (100, 300, 1000)
MARGIN_SIZES = (100, 300)
EIGVALSH_MAX_N = 300  # 600 x 600 dense eigvalsh; larger n rely on the closed form


class SpectralScale:
    name = "spectral-scale"
    # A probe between operations cannot sample the speed inside one 6 s call;
    # scaled by probes on either side, the round time spread more (14%
    # interquartile range over five runs) than unscaled (9%).
    probe_mix: dict = {}

    def spec(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        radius = [(n, int(rng.integers(2, 6))) for n in RADIUS_SIZES]
        margin = []
        for n in MARGIN_SIZES:
            k = int(rng.integers(2, 6))
            # near n/3 the join's iteration count moves by under 2% across the
            # window; near n/2 it jumps (657 at p = 150, 995 at p = 135, n = 300)
            p = int(rng.integers(n // 3 - n // 50, n // 3 + n // 50 + 1))
            margin.append((n, k, p))
        return {"radius": radius, "margin": margin}

    def build(self, spec: dict, tracer) -> dict:
        graphs = []
        for n, k in spec["radius"]:
            with tracer.span("graphs.build", f"B{n},{k}"):
                graphs.append(build_extremal(n, k))
        params = []
        for n, k, p in spec["margin"]:
            with tracer.span("graphs.build", f"J{n},{k},{p}"):
                params.append(ExtremalParams(n, k, p))
        return {"graphs": graphs, "params": params}

    def warm_up(self) -> None:
        spectral_radius(build_extremal(20, 2))
        join_margin(ExtremalParams(20, 2, 10))

    def run_round(self, objs: dict, tracer, r: Round):
        for g in objs["graphs"]:
            with tracer.span("spectral.radius", f"B{g.n}"):
                rep = spectral_radius(g)
            r.outputs.append((rep.value, rep.iterations))
            r.counts["iterations"] += rep.iterations
            yield
        for params in objs["params"]:
            with tracer.span("spectral.margin", f"J{params.n},{params.p}"):
                m = join_margin(params)
            r.outputs.append((m.rho_extremal, m.rho_join, m.holds, m.sign_value, m.sign_ok))
            yield

    def check(self, spec: dict, objs: dict, r: Round) -> float:
        err = 0.0
        radius_out = r.outputs[: len(spec["radius"])]
        for (n, k), g, (value, _its) in zip(spec["radius"], objs["graphs"], radius_out):
            closed = checks.biquadratic_root(*checks.extremal_coeffs(n, k))
            err = max(err, checks.check_rho(value, closed, f"B({n},{k}) closed form"))
            if n <= EIGVALSH_MAX_N:
                eig = float(checks.eig_radii(n, [g.x_rows])[0])
                checks.check_rho(value, eig, f"B({n},{k}) eigvalsh")
                checks.check_rho(closed, eig, f"B({n},{k}) graph vs closed form")
        for (n, k, p), out in zip(spec["margin"], r.outputs[len(spec["radius"]) :]):
            err = max(err, checks.check_margin(n, k, p, *out))
        return err


# --------------------------------------------------------------- shift-audit

# n cycles through 2..8 and the edge density through five strata.  The work
# per graph has a long tail: 1% of the graphs carry 8% of the power
# iterations and single calls reach 639 iterations against a typical 25.
# Drawn afresh per seed, 1200 graphs still varied by 6% (interquartile range
# over five seeds) in power iterations.  So the population is drawn once
# from POPULATION_SEED and the run's seed permutes it and swaps the parts of
# a random half of the graphs: a part swap maps every X-shift to the
# matching Y-shift and keeps every spectrum, so the work is the same for
# every seed while the inputs are not.
SHIFT_GRAPHS = 600
POPULATION_SEED = 2603
AUDIT_FAMILIES = 40  # n = 5, k = 2, ten bi-shifted members each
AUDIT_N, AUDIT_K = 5, 2
# Power iteration stops on a Rayleigh step, not an error bound: on a graph
# whose two largest component radii nearly coincide its error can reach about
# sqrt(1e-10 * (rho + 1) / 2) ~ 2e-5.  Measured worst over 32k calls: 1.4e-8.
SMALL_RHO_TOL = 1e-4


def _shift_pairs(n: int) -> list[tuple[int, int]]:
    pairs = [(x, y) for x in range(1, n) for y in range(x + 1, n + 1)]
    return pairs + [(x, y) for x in range(n + 1, 2 * n) for y in range(x + 1, 2 * n + 1)]


def _ferrers(n: int, lengths) -> tuple[int, ...]:
    return tuple((1 << d) - 1 for d in lengths)


class ShiftAudit:
    name = "shift-audit"
    probe_mix = {"small_numpy": 0.7, "python": 0.3}  # tiny power iterations; shifts

    def spec(self, seed: int) -> dict:
        population = np.random.default_rng(POPULATION_SEED)
        drawn = []
        for i in range(SHIFT_GRAPHS):
            n = 2 + i % 7
            prob = ((i // 7) % 5 + population.random()) / 5
            drawn.append((n, _random_rows(population, n, prob)))
        rng = np.random.default_rng([seed, 2])
        graphs = []
        for i in rng.permutation(SHIFT_GRAPHS):
            n, rows = drawn[i]
            graphs.append((n, tuple(checks.columns(n, rows)) if rng.random() < 0.5 else rows))
        n, k = AUDIT_N, AUDIT_K
        canonical = (n,) * (k - 1) + (n - 1,) * (n - k + 1)
        mirrored = (n,) * (n - 1) + (k - 1,)
        families = []
        for _ in range(AUDIT_FAMILIES):
            members = []
            for _ in range(k * n):
                kind = int(rng.integers(0, 4))
                if kind == 0:
                    lengths = canonical
                elif kind == 1:
                    lengths = mirrored
                elif kind == 2:  # a bi-shifted supergraph of the canonical copy
                    full = int(rng.integers(k - 1, n + 1))
                    lengths = (n,) * full + (n - 1,) * (n - full)
                else:  # any Ferrers graph, mostly below the threshold
                    lengths = sorted(rng.integers(0, n + 1, size=n).tolist(), reverse=True)
                members.append(_ferrers(n, lengths))
            families.append(members)
        return {"graphs": graphs, "families": families}

    def build(self, spec: dict, tracer) -> dict:
        graphs = []
        for i, (n, rows) in enumerate(spec["graphs"]):
            with tracer.span("graphs.build", f"g{i}"):
                graphs.append(BipartiteGraph(n, rows))
        families = []
        for f, members in enumerate(spec["families"]):
            with tracer.span("graphs.build", f"f{f}"):
                families.append(
                    GraphFamily(AUDIT_N, AUDIT_K, tuple(BipartiteGraph(AUDIT_N, m) for m in members))
                )
        threshold = checks.biquadratic_root(*checks.extremal_coeffs(AUDIT_N, AUDIT_K))
        return {"graphs": graphs, "families": families, "threshold": threshold}

    def warm_up(self) -> None:
        g = BipartiteGraph(3, (0b011, 0b110, 0b100))
        spectral_radius(xy_shift(g, 4, 6))
        bi_shift_fixpoint(g)

    def run_round(self, objs: dict, tracer, r: Round):
        for i, g in enumerate(objs["graphs"]):
            case = f"g{i}"
            with tracer.span("spectral.radius", case):
                rep = spectral_radius(g)
            r.counts["iterations"] += rep.iterations
            shifts = []
            for x, y in _shift_pairs(g.n):
                with tracer.span("shifting.xy_shift", case):
                    s = xy_shift(g, x, y)
                if s == g:
                    continue
                with tracer.span("spectral.radius", case):
                    srep = spectral_radius(s)
                r.counts["iterations"] += srep.iterations
                shifts.append((x, y, s.x_rows, srep.value))
            with tracer.span("shifting.fixpoint", case):
                fixed, trace = bi_shift_fixpoint(g)
            r.counts["fixpoint_steps"] += len(trace.steps)
            r.outputs.append(("graph", rep.value, tuple(shifts), fixed.x_rows, trace.steps))
            yield
        for f, family in enumerate(objs["families"]):
            with tracer.span("factors.audit", f"f{f}"):
                audit = audit_shifted_family(family, objs["threshold"])
            r.counts["audit_members"] += len(audit.members)
            r.outputs.append(("audit", tuple((m.rho, m.meets_threshold) for m in audit.members)))
            yield

    def check(self, spec: dict, objs: dict, r: Round) -> float:
        err = 0.0
        graph_out = r.outputs[: len(spec["graphs"])]
        for (n, rows), (_tag, rho, shifts, fixed, steps) in zip(spec["graphs"], graph_out):
            shifted_rows = [s[2] for s in shifts]
            eig = checks.eig_radii(n, [rows] + shifted_rows)
            for value, ref in zip([rho] + [s[3] for s in shifts], eig):
                err = max(err, abs(value - ref))
                if abs(value - ref) > SMALL_RHO_TOL * max(1.0, ref):
                    raise CheckFailed(f"rho {value!r} of an n = {n} graph, eigvalsh {ref!r}")
            for (x, y, srows, _v), ref in zip(shifts, eig[1:]):
                checks.check_shift(n, rows, srows, x, y)
                checks.check_monotone(eig[0], ref, f"shift ({x},{y}) of {rows}")
            checks.check_fixpoint(n, rows, fixed, steps)
        for members, (_tag, verdicts) in zip(spec["families"], r.outputs[len(spec["graphs"]) :]):
            eig = checks.eig_radii(AUDIT_N, members)
            for rows, ref, (rho, meets) in zip(members, eig, verdicts):
                err = max(err, abs(rho - ref))
                want = checks.expected_meets(AUDIT_N, AUDIT_K, rows, ref, objs["threshold"])
                if meets != want:
                    raise CheckFailed(f"audit verdict {meets} for {rows}, eigvalsh says {want}")
        return err


# ------------------------------------------------------- rainbow-adversarial

CYCLIC_ORDERS = range(6, 11)  # even orders have no transversal: ABSENT
IDENTICAL_CASES = ((4, 2), (5, 2), (6, 2), (6, 3))  # no k-factor in B_{n,k}: ABSENT
ONE_ODD_FOUND = ((4, 2),)
# kn-1 copies of B_{n,k} and one mirrored copy.  A factor exists (the
# constructor builds one in about 1 ms), but the search re-explores the
# permutations of the identical members and needs 890,634 nodes at (5, 2).
BUDGET_CASES = ((5, 2), (6, 2))
ONE_ODD_BUDGET = 100_000
VARIANT_SHAPES = ((4, 2), (5, 2), (6, 2), (6, 3))
VARIANTS_PER_SHAPE = 6
FLOW_SIZES = range(8, 13)
FLOW_PER_SIZE = 4


def _cyclic_latin(n: int) -> list[tuple[int, ...]]:
    """G_i = {(x, y) : x + y = i mod n} for i = 1..n, as bit rows."""
    return [
        tuple(sum(1 << (y - 1) for y in range(1, n + 1) if (x + y - i) % n == 0) for x in range(1, n + 1))
        for i in range(1, n + 1)
    ]


class RainbowAdversarial:
    name = "rainbow-adversarial"
    probe_mix = {"python": 1.0}  # search, flow and construction are pure Python

    def spec(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        variants = []
        for shape in VARIANT_SHAPES:
            n, k = shape
            for _ in range(VARIANTS_PER_SHAPE):
                while True:
                    entries = []
                    for _ in range(k * n):
                        u = int(rng.integers(1, 2 * n + 1))
                        pool = range(n + 1, 2 * n + 1) if u <= n else range(1, n + 1)
                        nbrs = sorted(int(v) for v in rng.choice(list(pool), size=k - 1, replace=False))
                        entries.append((u, tuple(nbrs)))
                    if len(set(entries)) >= 2:
                        break
                variants.append((n, k, entries))
        flows = []
        for n in FLOW_SIZES:
            for j in range(FLOW_PER_SIZE):
                rows = _random_rows(rng, n, 0.35 + 0.1 * j)
                if j % 2 == 0:
                    flows.append(("k-factor", n, rows, int(rng.integers(1, 4))))
                else:
                    total = int(rng.integers(n, 3 * n))
                    caps_x = np.bincount(rng.integers(0, n, size=total), minlength=n).tolist()
                    caps_y = np.bincount(rng.integers(0, n, size=total), minlength=n).tolist()
                    flows.append(("subgraph", n, rows, (caps_x, caps_y)))
        return {"variants": variants, "flows": flows}

    def build(self, spec: dict, tracer) -> dict:
        searches = []  # (case, family or members, expected, budget)
        for n in CYCLIC_ORDERS:
            with tracer.span("graphs.build", f"cyclic{n}"):
                members = tuple(BipartiteGraph(n, rows) for rows in _cyclic_latin(n))
            searches.append((f"cyclic{n}", members, ABSENT if n % 2 == 0 else FOUND, None))
        for n, k in IDENTICAL_CASES:
            with tracer.span("graphs.build", f"identical{n},{k}"):
                fam = GraphFamily(n, k, (build_extremal(n, k),) * (k * n))
            searches.append((f"identical{n},{k}", fam, ABSENT, None))
        for cases, budget in ((ONE_ODD_FOUND, None), (BUDGET_CASES, ONE_ODD_BUDGET)):
            for n, k in cases:
                with tracer.span("graphs.build", f"one-odd{n},{k}"):
                    b = build_extremal(n, k)
                    m = labeled_extremal_copy(n, k, n, tuple(range(n + 1, n + k)))
                    fam = GraphFamily(n, k, (b,) * (k * n - 1) + (m,))
                expected = BUDGET_EXHAUSTED if budget else FOUND
                searches.append((f"one-odd{n},{k}", fam, expected, budget))
        variants = []
        for v, (n, k, entries) in enumerate(spec["variants"]):
            with tracer.span("graphs.build", f"variant{v}"):
                members = tuple(labeled_extremal_copy(n, k, u, nbrs) for u, nbrs in entries)
                variants.append(GraphFamily(n, k, members))
        flows = []
        for f, (kind, n, rows, arg) in enumerate(spec["flows"]):
            with tracer.span("graphs.build", f"flow{f}"):
                flows.append((kind, BipartiteGraph(n, rows), arg))
        return {"searches": searches, "variants": variants, "flows": flows}

    def warm_up(self) -> None:
        b = build_extremal(4, 2)
        m = labeled_extremal_copy(4, 2, 4, (5,))
        fam = GraphFamily(4, 2, (b,) * 7 + (m,))
        construct_rainbow_factor_extremal(fam)
        rainbow_k_factor_search(fam)
        k_factor_exists(b, 1)

    def _search(self, r: Round, tracer, case: str, target, budget) -> None:
        kwargs = {"budget": budget} if budget else {}
        search = rainbow_k_factor_search if isinstance(target, GraphFamily) else rainbow_perfect_matching_search
        with tracer.span("factors.search", case) as rec:
            res = search(target, **kwargs)
        tag = _STATUS_TAG[res.status]
        if rec is not None:
            rec[0] = "factors.search." + tag
        r.counts["nodes." + tag] += res.nodes_visited
        r.failed += res.status == BUDGET_EXHAUSTED
        r.outputs.append(("search", case, res.status, res.assignment, res.nodes_visited))

    def run_round(self, objs: dict, tracer, r: Round):
        for case, target, _expected, budget in objs["searches"]:
            self._search(r, tracer, case, target, budget)
            yield
        for v, fam in enumerate(objs["variants"]):
            with tracer.span("construction.build", f"variant{v}"):
                factor = construct_rainbow_factor_extremal(fam)
            r.outputs.append(("construct", factor.assignment))
            yield
            self._search(r, tracer, f"variant{v}", fam, None)
            yield
        for f, (kind, g, arg) in enumerate(objs["flows"]):
            with tracer.span("flow.subgraph", f"flow{f}"):
                if kind == "k-factor":
                    out = k_factor_exists(g, arg)
                else:
                    out = degree_constrained_subgraph(g.n, list(g.edges()), *arg)
            r.outputs.append(("flow", out))
            yield

    def check(self, spec: dict, objs: dict, r: Round) -> float:
        outputs = iter(r.outputs)
        for case, target, expected, _budget in objs["searches"]:
            self._check_search(case, target, expected, next(outputs))
        for v, fam in enumerate(objs["variants"]):
            _tag, assignment = next(outputs)
            checks.check_factor(fam.n, fam.k, [g.x_rows for g in fam.members], assignment)
            self._check_search(f"variant{v}", fam, FOUND, next(outputs))
        for (kind, n, rows, arg), (_tag, out) in zip(spec["flows"], outputs):
            edges = [(i + 1, n + j + 1) for i in range(n) for j in range(n) if rows[i] >> j & 1]
            if kind == "k-factor":
                if out != checks.f_factor_exists(n, edges, [arg] * n, [arg] * n):
                    raise CheckFailed(f"k_factor_exists answered {out} on an n = {n} graph, k = {arg}")
            else:
                checks.check_degree_subgraph(n, edges, arg[0], arg[1], out)
        return 0.0

    @staticmethod
    def _check_search(case: str, target, expected: str, out) -> None:
        _tag, _case, status, assignment, _nodes = out
        if isinstance(target, GraphFamily):
            n, k, members = target.n, target.k, target.members
        else:
            n, k, members = target[0].n, 1, target
        if status == FOUND:
            if expected == ABSENT:
                raise CheckFailed(f"{case}: FOUND where no factor exists")
            checks.check_factor(n, k, [g.x_rows for g in members], assignment)
        elif status != expected:
            raise CheckFailed(f"{case}: status {status!r}, expected {expected!r}")


_STATUS_TAG = {FOUND: "found", ABSENT: "absent", BUDGET_EXHAUSTED: "budget"}

WORKLOADS = {w.name: w for w in (SpectralScale(), ShiftAudit(), RainbowAdversarial())}
