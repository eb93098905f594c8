"""Randomized instance generators and the verification campaigns.

Each campaign ties one family of claims to a runnable, seeded experiment and
returns a machine-readable report.  Reports are deterministic given
(campaign, config): cases are generated from a counter-based RNG stream and
kept in the order they are generated; only the wall-time field varies
between runs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import fileio
from .construction import construct_rainbow_factor_extremal
from .factors import ABSENT, FOUND, audit_shifted_family, rainbow_k_factor_search
from .flow import k_factor_exists
from .graphs import (
    BipartiteGraph,
    GraphError,
    GraphFamily,
    ExtremalParams,
    build_extremal,
    build_join,
    labeled_extremal_copy,
)
from .shifting import bi_shift_fixpoint, is_bi_shifted, xy_shift
from .spectral import (
    ConvergenceError,
    InconsistencyError,
    join_margin,
    quotient_spectral_radius,
    spectral_radius,
)

# the errors the library raises on a case it cannot decide; anything else is
# a programming error and propagates
_LIBRARY_ERRORS = (GraphError, ConvergenceError, InconsistencyError)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    n_range: tuple[int, int] = (4, 8)
    k_range: tuple[int, int] = (2, 4)
    trials: int = 100
    search_budget: int = 2_000_000

    def __post_init__(self):
        if self.trials < 1:
            raise GraphError(f"trials must be >= 1, got {self.trials}")


@dataclass
class CampaignReport:
    campaign: str
    config: dict[str, Any]
    cases: list[dict[str, Any]] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c["ok"])

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c["ok"])

    def to_dict(self) -> dict[str, Any]:
        return {
            "campaign": self.campaign,
            "config": self.config,
            "cases": self.cases,
            "summary": {
                "passed": self.passed,
                "failed": self.failed,
                "wall_time_s": self.wall_time_s,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator: identical streams across platforms."""
    return np.random.Generator(np.random.Philox(seed))


def generate_random_bipartite(
    n: int, edge_prob: float, seed: int | np.random.Generator
) -> BipartiteGraph:
    """Each X x Y pair independently with probability edge_prob."""
    if not (0.0 <= edge_prob <= 1.0):
        raise GraphError(f"edge probability {edge_prob} outside [0, 1]")
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    picks = rng.random((n, n)) < edge_prob
    rows = []
    for i in range(n):
        row = 0
        for j in range(n):
            if picks[i, j]:
                row |= 1 << j
        rows.append(row)
    return BipartiteGraph(n, tuple(rows))


DeficiencyEntry = tuple[int, tuple[int, ...]]


def random_deficiency_spec(n: int, k: int, rng: np.random.Generator) -> list[DeficiencyEntry]:
    """kn random (deficient vertex, neighbor set) entries; redraws the last
    entry until two entries differ."""
    def draw() -> DeficiencyEntry:
        u = int(rng.integers(1, 2 * n + 1))
        pool = range(n + 1, 2 * n + 1) if u <= n else range(1, n + 1)
        nbrs = tuple(sorted(int(v) for v in rng.choice(list(pool), size=k - 1, replace=False)))
        return (u, nbrs)

    entries = [draw() for _ in range(k * n)]
    while len(set(entries)) < 2:
        entries[-1] = draw()
    return entries


def generate_extremal_variant_family(
    n: int,
    k: int,
    deficiency_spec: list[DeficiencyEntry] | None = None,
    seed: int | np.random.Generator = 0,
) -> GraphFamily:
    """Family of kn labeled extremal copies, one per spec entry; a missing
    spec is drawn from the seeded generator."""
    if deficiency_spec is None:
        rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
        deficiency_spec = random_deficiency_spec(n, k, rng)
    if len(deficiency_spec) != k * n:
        raise GraphError(f"spec must have kn = {k * n} entries, got {len(deficiency_spec)}")
    members = tuple(labeled_extremal_copy(n, k, u, nbrs) for u, nbrs in deficiency_spec)
    return GraphFamily(n, k, members)


def run_campaign(name: str, config: ExperimentConfig) -> CampaignReport:
    """Execute one named campaign and return its report.

    Cases keep the order in which the campaign generates them.  A failed
    case also carries the seed, the config and its serialized instance, so
    that it can be replayed on its own.  A campaign that checked no case is
    an error, not a pass."""
    if name not in _RUNNERS:
        raise GraphError(f"unknown campaign {name!r}; choose from {', '.join(CAMPAIGNS)}")
    started = time.perf_counter()
    report = CampaignReport(campaign=name, config=_config_dict(config))
    for params, values, ok, instance in _RUNNERS[name](config):
        case = {"params": params, "values": values, "ok": ok}
        if not ok:
            case["seed"] = config.seed
            case["config"] = report.config
            case["instance"] = (
                fileio.format_family(instance)
                if isinstance(instance, GraphFamily)
                else fileio.format_graph(instance)
            )
        report.cases.append(case)
    if not report.cases:
        raise GraphError(f"campaign {name!r} checked no cases with config {report.config}")
    report.wall_time_s = round(time.perf_counter() - started, 3)
    return report


def _config_dict(config: ExperimentConfig) -> dict[str, Any]:
    return {
        "seed": config.seed,
        "n_range": list(config.n_range),
        "k_range": list(config.k_range),
        "trials": config.trials,
        "search_budget": config.search_budget,
    }


def _grid(config: ExperimentConfig):
    k_lo, k_hi = config.k_range
    n_lo, n_hi = config.n_range
    for k in range(max(2, k_lo), k_hi + 1):
        for n in range(max(n_lo, 2 * k), n_hi + 1):
            yield n, k


def _grid_trials(config: ExperimentConfig):
    """(trial, n, k) for each trial, taking the grid's points in turn; none
    when the grid is empty."""
    grid = list(_grid(config))
    for trial in range(config.trials if grid else 0):
        yield (trial, *grid[trial % len(grid)])


def _grow(g: BipartiteGraph, prob: float, rng: np.random.Generator) -> BipartiteGraph:
    """g plus each absent edge with probability prob, drawn in (x, y) order."""
    rows = list(g.x_rows)
    for i in range(g.n):
        for j in range(g.n):
            if not rows[i] >> j & 1 and rng.random() < prob:
                rows[i] |= 1 << j
    return BipartiteGraph(g.n, tuple(rows))


# Each campaign yields its cases as (params, values, ok, instance), where
# instance is the graph or family the case checked; run_campaign turns them
# into report cases.


def _campaign_spectral_consistency(config: ExperimentConfig):
    for n, k in _grid(config):
        g = build_extremal(n, k)
        closed = quotient_spectral_radius(ExtremalParams(n, k))
        power = spectral_radius(g)
        values = {
            "rho_closed": closed.value,
            "rho_power": power.value,
            "residual": power.residual,
            "diff": abs(closed.value - power.value),
        }
        hi_power, hi_closed = power.value + power.residual, closed.value + closed.residual
        yield {"n": n, "k": k}, values, power.value <= hi_closed and closed.value <= hi_power, g


def _campaign_margin_grid(config: ExperimentConfig):
    for n, k in _grid(config):
        for p in range(k + 1, n):
            params = ExtremalParams(n, k, p)
            try:
                margin = join_margin(params)
            except _LIBRARY_ERRORS as exc:  # a failed case, not a crash
                values, ok = {"error": str(exc)}, False
            else:
                values = {
                    "rho_join": margin.rho_join,
                    "rho_extremal": margin.rho_extremal,
                    "margin": margin.margin,
                    "sign_value": margin.sign_value,
                }
                ok = margin.holds and margin.sign_ok
            yield {"n": n, "k": k, "p": p}, values, ok, build_join(params)


def _campaign_shift_properties(config: ExperimentConfig):
    rng = make_rng(config.seed)
    n_lo, n_hi = max(2, config.n_range[0]), config.n_range[1]
    for trial in range(config.trials if n_lo <= n_hi else 0):
        n = int(rng.integers(n_lo, n_hi + 1))
        prob = float(rng.random())
        g = generate_random_bipartite(n, prob, rng)
        rho_g = spectral_radius(g).value
        violations: list[str] = []
        pairs = [(x, y) for x in range(1, n) for y in range(x + 1, n + 1)]
        pairs += [(x, y) for x in range(n + 1, 2 * n) for y in range(x + 1, 2 * n + 1)]
        for x, y in pairs:
            shifted = xy_shift(g, x, y)
            if shifted.edge_count() != g.edge_count():
                violations.append(f"edge count changed under shift ({x},{y})")
                continue
            if shifted == g:
                continue
            rho_s = spectral_radius(shifted)
            if rho_s.value + rho_s.residual < rho_g:  # the brackets are apart
                violations.append(f"rho dropped by {rho_g - rho_s.value:.3e} under shift ({x},{y})")
        fixpoint, _trace = bi_shift_fixpoint(g)
        if not is_bi_shifted(fixpoint):
            violations.append("fixpoint is not bi-shifted")
        params = {"trial": trial, "n": n, "edge_prob": round(prob, 6)}
        values = {
            "edges": g.edge_count(),
            "rho": rho_g,
            "shifts": len(pairs),
            "violations": violations,
        }
        yield params, values, not violations, g


def _campaign_extremal_absence(config: ExperimentConfig):
    for n, k in _grid(config):
        g = build_extremal(n, k)
        family = GraphFamily(n, k, (g,) * (k * n))
        result = rainbow_k_factor_search(family, budget=config.search_budget)
        has_factor = k_factor_exists(g, k)
        values = {
            "search_status": result.status,
            **result.summary(),
            "k_factor_exists": has_factor,
        }
        yield {"n": n, "k": k}, values, result.status == ABSENT and not has_factor, family


def _campaign_construction(config: ExperimentConfig):
    """Families of labeled extremal copies, taking the (n, k) points of the
    config's grid in turn, each built by the constructor; about every
    twentieth is also searched, and its case reports the search's status
    and counters."""
    rng = make_rng(config.seed)
    confirm_every = max(1, config.trials // 20)
    for trial, n, k in _grid_trials(config):
        spec = random_deficiency_spec(n, k, rng)
        family = generate_extremal_variant_family(n, k, spec)
        try:
            construct_rainbow_factor_extremal(family)  # validates what it builds
            values: dict[str, Any] = {"constructed": True}
            ok = True
            if trial % confirm_every == 0:
                search = rainbow_k_factor_search(family, budget=config.search_budget)
                values.update(search_status=search.status, **search.summary())
                ok = search.status == FOUND
        except _LIBRARY_ERRORS as exc:
            values = {"constructed": False, "error": str(exc)}
            ok = False
        yield {"trial": trial, "n": n, "k": k}, values, ok, family


def _theorem_sample_families(config: ExperimentConfig):
    """(trial, identical, family) for each trial of theorem-sample, taking
    the (n, k) points of the config's grid in turn: supergraphs of extremal
    copies, and every fifth trial the all-identical extremal family as the
    known exception."""
    rng = make_rng(config.seed)
    for trial, n, k in _grid_trials(config):
        identical = trial % 5 == 0
        if identical:
            members = tuple(build_extremal(n, k) for _ in range(k * n))
        else:
            spec = random_deficiency_spec(n, k, rng)
            base = generate_extremal_variant_family(n, k, spec)
            members = tuple(_grow(g, 0.2, rng) for g in base.members)
        yield trial, identical, GraphFamily(n, k, members)


def _campaign_theorem_sample(config: ExperimentConfig):
    """Random families meeting the spectral bound (``_theorem_sample_families``),
    each searched for a rainbow factor.  A family is certified when no
    member's radius bracket lies wholly below the extremal radius."""
    for trial, identical, family in _theorem_sample_families(config):
        n, k, members = family.n, family.k, family.members
        rho_min = quotient_spectral_radius(ExtremalParams(n, k)).value
        certified = all(r.value + r.residual >= rho_min for r in map(spectral_radius, members))
        result = rainbow_k_factor_search(family, budget=config.search_budget)
        expected = ABSENT if identical else FOUND
        values = {
            "certified": certified,
            "search_status": result.status,
            "expected": expected,
            **result.summary(),
        }
        params = {"trial": trial, "n": n, "k": k, "identical": identical}
        yield params, values, certified and result.status == expected, family


def _campaign_claims_audit(config: ExperimentConfig):
    """Families of extremal copies and bi-shifted supergraphs of them,
    taking the (n, k) points of the config's grid in turn, audited against
    the extremal radius."""
    rng = make_rng(config.seed)
    for trial, n, k in _grid_trials(config):
        threshold = quotient_spectral_radius(ExtremalParams(n, k)).value
        canonical = build_extremal(n, k)
        mirrored = labeled_extremal_copy(n, k, n, tuple(range(n + 1, n + k)))
        members = []
        for _ in range(k * n):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                members.append(canonical)
            elif kind == 1:
                members.append(mirrored)
            else:
                members.append(bi_shift_fixpoint(_grow(canonical, 0.3, rng))[0])
        family = GraphFamily(n, k, tuple(members))
        audit = audit_shifted_family(family, threshold)
        values = {
            "members_meeting_threshold": sum(1 for m in audit.members if m.meets_threshold),
            "violations": [m.index for m in audit.violations],
        }
        yield {"trial": trial, "n": n, "k": k}, values, not audit.violations, family


_RUNNERS = {
    "spectral-consistency": _campaign_spectral_consistency,
    "lemma33-grid": _campaign_margin_grid,
    "shift-properties": _campaign_shift_properties,
    "extremal-absence": _campaign_extremal_absence,
    "lemma32-construction": _campaign_construction,
    "theorem-sample": _campaign_theorem_sample,
    "claims-audit": _campaign_claims_audit,
}
CAMPAIGNS = tuple(_RUNNERS)
