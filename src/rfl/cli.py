"""Command-line interface.

Subcommands: build-extremal, rho, shift, k-factor, find-rainbow-factor,
campaign.  File formats are the text formats of the graphs module; results
print as JSON.  Each result has one path: rho prints spectral_radius, which
picks its own method from the graph, and campaign runs the harness's engine.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import fileio
from .construction import construct_rainbow_factor_extremal
from .factors import ABSENT, DEFAULT_BUDGET, FOUND, rainbow_k_factor_search
from .flow import k_factor_exists
from .graphs import ExtremalParams, GraphError, GraphFamily, build_extremal, build_join
from .harness import CAMPAIGNS, ExperimentConfig, run_campaign
from .shifting import shift_family
from .spectral import ConvergenceError, InconsistencyError, spectral_radius


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (GraphError, OSError, ConvergenceError, InconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfl",
        description="Rainbow k-factor lab for balanced bipartite graph families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-extremal", help="write the extremal or join-type graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, default=None, help="join parameter; omit for the extremal graph")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_build_extremal)

    p = sub.add_parser("rho", help="spectral radius of a graph file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_rho)

    p = sub.add_parser("shift", help="bi-shift every member of a family")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="JSON file for the applied shift steps")
    p.set_defaults(handler=_cmd_shift)

    p = sub.add_parser("k-factor", help="spanning k-regular subgraph existence")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_k_factor)

    p = sub.add_parser("find-rainbow-factor", help="search or construct a rainbow k-factor")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument(
        "--budget", type=int, default=None, help=f"search node budget (default {DEFAULT_BUDGET:,})"
    )
    p.add_argument("--construct", action="store_true", help="run the constructor, not the search")
    p.set_defaults(handler=_cmd_find_rainbow_factor)

    defaults = ExperimentConfig()
    p = sub.add_parser("campaign", help="run a verification campaign")
    p.add_argument("name", choices=list(CAMPAIGNS))
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--out", default=None, help="JSON report path; stdout when omitted")
    p.add_argument("--trials", type=int, default=defaults.trials)
    p.add_argument("--n-min", type=int, default=defaults.n_range[0])
    p.add_argument("--n-max", type=int, default=defaults.n_range[1])
    p.add_argument("--k-min", type=int, default=defaults.k_range[0])
    p.add_argument("--k-max", type=int, default=defaults.k_range[1])
    p.add_argument("--budget", type=int, default=defaults.search_budget)
    p.set_defaults(handler=_cmd_campaign)

    return parser


def _cmd_build_extremal(args) -> int:
    if args.p is None:
        g = build_extremal(args.n, args.k)
    else:
        g = build_join(ExtremalParams(args.n, args.k, args.p))
    fileio.write_graph(args.out, g)
    return 0


def _cmd_rho(args) -> int:
    report = spectral_radius(fileio.read_graph(args.infile))
    print(json.dumps(dataclasses.asdict(report), sort_keys=True))
    return 0


def _cmd_shift(args) -> int:
    family = fileio.read_family(args.infile)
    shifted, traces = shift_family(family.members)
    fileio.write_family(args.out, GraphFamily(family.n, family.k, shifted))
    if args.trace:
        payload = [
            {"index": i, "steps": [[part, x, y] for part, x, y in t.steps]}
            for i, t in enumerate(traces, start=1)
        ]
        with open(args.trace, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_k_factor(args) -> int:
    g = fileio.read_graph(args.infile)
    exists = k_factor_exists(g, args.k)
    print(json.dumps({"exists": exists, "required_flow": args.k * g.n}, sort_keys=True))
    return 0


def _cmd_find_rainbow_factor(args) -> int:
    """The exact search, or under --construct only the constructor, whose
    GraphError on a family it does not take exits 2, as does --budget with
    --construct, which runs no search."""
    if args.construct and args.budget is not None:
        print("error: --budget caps the search; --construct runs none", file=sys.stderr)
        return 2
    family = fileio.read_family(args.infile)
    out: dict = {"n": family.n, "k": family.k}
    if args.construct:
        status, assignment = FOUND, construct_rainbow_factor_extremal(family).assignment
    else:
        budget = DEFAULT_BUDGET if args.budget is None else args.budget
        result = rainbow_k_factor_search(family, budget=budget)
        status, assignment = result.status, result.assignment
        out["search"] = {"status": status, **result.summary()}
    out["status"] = status
    if assignment is not None:
        out["assignment"] = [[i, list(e)] for i, e in assignment]
        out["valid"] = True
    print(json.dumps(out, sort_keys=True))
    return 0 if status in (FOUND, ABSENT) else 1


def _cmd_campaign(args) -> int:
    config = ExperimentConfig(
        seed=args.seed,
        n_range=(args.n_min, args.n_max),
        k_range=(args.k_min, args.k_max),
        trials=args.trials,
        search_budget=args.budget,
    )
    report = run_campaign(args.name, config)
    if not args.out:
        print(report.to_json())
    else:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(
            f"{report.campaign}: {report.passed} passed, {report.failed} failed "
            f"({report.wall_time_s}s) -> {args.out}"
        )
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
