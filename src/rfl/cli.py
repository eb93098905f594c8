"""Command-line interface.

Subcommands: build-extremal, rho, shift, k-factor, find-rainbow-factor,
verify-lemma33, campaign.  File formats are the text formats of the graphs
module; results print as JSON (or CSV for the margin grid).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import fileio
from .construction import construct_rainbow_factor_extremal
from .factors import ABSENT, FOUND, rainbow_k_factor_search
from .flow import k_factor_exists
from .graphs import ExtremalParams, GraphError, GraphFamily, build_extremal, build_join
from .harness import CAMPAIGNS, ExperimentConfig, run_campaign
from .shifting import shift_family
from .spectral import (
    ConvergenceError,
    InconsistencyError,
    join_margin,
    quotient_spectral_radius,
    spectral_radius,
)


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
    p.add_argument("--method", choices=["power", "quotient"], default="power")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--k", type=int, default=None, help="required for --method quotient")
    p.add_argument("--p", type=int, default=None)
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
    p.add_argument("--budget", type=int, default=1_000_000)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--construct", action="store_true")
    mode.add_argument("--search", action="store_true")
    mode.add_argument("--both", action="store_true")
    p.set_defaults(handler=_cmd_find_rainbow_factor)

    p = sub.add_parser("verify-lemma33", help="CSV margin grid: join vs extremal radius")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out", default=None, help="CSV path; stdout when omitted")
    p.set_defaults(handler=_cmd_margin_grid)

    p = sub.add_parser("campaign", help="run a verification campaign")
    p.add_argument("name", choices=list(CAMPAIGNS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--tol", type=float, default=None)
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
    g = fileio.read_graph(args.infile)
    if args.method == "power":
        report = spectral_radius(g, tol=args.tol)
    else:
        if args.k is None:
            raise GraphError("--method quotient requires --k")
        params = ExtremalParams(g.n, args.k, args.p if args.p is not None else args.k)
        if build_join(params) != g:
            raise GraphError(
                f"graph does not match the canonical construction for (n,k,p) = "
                f"({params.n},{params.k},{params.p}); the quotient method only "
                "applies to those graphs"
            )
        report = quotient_spectral_radius(params)
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
    family = fileio.read_family(args.infile)
    do_construct = args.construct or args.both
    do_search = args.search or args.both or not (args.construct or args.both)
    out: dict = {"n": family.n, "k": family.k}
    status = None
    assignment = None
    if do_construct:
        try:
            factor = construct_rainbow_factor_extremal(family)
            out["construct"] = {"status": FOUND, "valid": True}
            status, assignment = FOUND, factor.assignment
        except GraphError as exc:
            out["construct"] = {"status": "inapplicable", "reason": str(exc)}
    if do_search:
        result = rainbow_k_factor_search(family, budget=args.budget)
        out["search"] = {
            "status": result.status,
            "nodes": result.nodes_visited,
            "orbit_skips": result.orbit_skips,
            "automorphisms": result.automorphisms,
        }
        if status is None or result.status == FOUND:
            status = result.status
            if result.assignment is not None:
                assignment = result.assignment
    out["status"] = status
    if assignment is not None:
        out["assignment"] = [[i, list(e)] for i, e in assignment]
        out["valid"] = True
    print(json.dumps(out, sort_keys=True))
    return 0 if status in (FOUND, ABSENT) else 1


def _cmd_margin_grid(args) -> int:
    lines = ["n,k,p,rho_join,rho_B,margin,holds"]
    all_hold = True
    for k in range(2, args.kmax + 1):
        for n in range(2 * k, args.nmax + 1):
            for p in range(k + 1, n):
                m = join_margin(ExtremalParams(n, k, p))
                ok = m.holds and m.sign_ok
                all_hold &= ok
                lines.append(
                    f"{n},{k},{p},{m.rho_join:.10f},{m.rho_extremal:.10f},"
                    f"{m.margin:.10f},{str(ok).lower()}"
                )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all_hold else 1


def _cmd_campaign(args) -> int:
    config = ExperimentConfig(
        seed=args.seed,
        n_range=(args.n_min, args.n_max),
        k_range=(args.k_min, args.k_max),
        trials=args.trials,
        tol=args.tol,
        search_budget=args.budget,
        output_path=args.out,
    )
    report = run_campaign(args.name, config)
    if not args.out:
        print(report.to_json())
    else:
        print(
            f"{report.campaign}: {report.passed} passed, {report.failed} failed "
            f"({report.wall_time_s}s) -> {args.out}"
        )
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
