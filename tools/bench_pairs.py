"""Paired benchmark runs of a parent commit against this checkout.

    python3 tools/bench_pairs.py --parent d37f198 --label two_class \
        --first-seed 9301 --traced-seed 9321 --what "..." [--pairs 10] [--per-call]

Run from the root of a checkout.  The parent commit's tree is exported with
``git archive`` into a temporary directory, a plain copy that registers
nothing in the repository, so a killed run leaves no worktree behind.  For
each workload of BENCHMARK.json the script runs --pairs pairs of
``python3 bench/run.py`` for the benchmark's run_seconds (one seed a pair,
counting up from --first-seed), one run in each tree, alternating which
side runs first; then one traced pair on --traced-seed; and, with
--per-call, times spectral_radius on random twin-free graphs with both
sides loaded into one process.  It writes
BENCH_<label>.json at the root of this checkout in the layout of the
committed BENCH_*.json files and changes nothing under bench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("run_s", "setup_s", "peak_rss_mb", "work_count")
PER_CALL_SIZES = (20, 100, 300, 1000)
PER_CALL_ROUNDS = 10


def export(commit: str, into: Path) -> Path:
    """The tree of commit, unpacked under into/parent."""
    tree = into / "parent"
    tree.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", commit], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def bench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One bench/run.py run in tree: correct, attempted, failed and the
    metric values."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode} in {tree}:\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed in {tree}:\n{done.stderr}")
    row = {key: result[key] for key in ("correct", "attempted", "failed")}
    row.update((name, m["value"]) for name, m in result["metrics"].items())
    return row


def pair(trees: dict, workload: str, seed: int, seconds: int, trace: int, parent_first: bool):
    order = ("parent", "change") if parent_first else ("change", "parent")
    row = {"seed": seed, "first": order[0]}
    for side in order:
        row[side] = bench(trees[side], workload, seed, seconds, trace)
    return row


def summary(pairs: list, metric: str) -> dict:
    """Quartiles of each side, wins of the change (lower is better) and the
    median difference over the parent's interquartile range."""
    out = {}
    for side in ("parent", "change"):
        values = [p[side][metric] for p in pairs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[side] = {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}
    diffs = [p["parent"][metric] - p["change"][metric] for p in pairs]
    iqr = out["parent"]["q3"] - out["parent"]["q1"]
    gain = out["parent"]["median"] - out["change"]["median"]
    out["change_wins"] = sum(d > 0 for d in diffs)
    out["ties"] = sum(d == 0 for d in diffs)
    out["pairs"] = len(pairs)
    out["median_diff_over_parent_iqr"] = gain / iqr if iqr else None
    return out


def per_call_worker(packages: str) -> dict:
    """spectral_radius per call on random twin-free graphs, both sides in
    this process as the packages rfl_parent and rfl_change found in
    packages; each round takes a timeit min of 5 on each side, alternating
    which side goes first."""
    import timeit

    import numpy as np

    sys.path.insert(0, packages)
    modules = {}
    for side in ("parent", "change"):
        modules[side] = (
            __import__(f"rfl_{side}.graphs", fromlist=["BipartiteGraph"]),
            __import__(f"rfl_{side}.spectral", fromlist=["spectral_radius"]),
        )
    cases = {}
    for n in PER_CALL_SIZES:
        rng = np.random.default_rng([n, 7])
        while True:  # no two equal rows and no two equal columns
            picks = rng.random((n, n)) < 0.5
            if len({r.tobytes() for r in picks}) == n == len({c.tobytes() for c in picks.T}):
                break
        rows = tuple(int("".join("1" if b else "0" for b in r[::-1]), 2) for r in picks)
        calls = {}
        for side, (graphs, spectral) in modules.items():
            g = graphs.BipartiteGraph(n, rows)
            calls[side] = (lambda g=g, f=spectral.spectral_radius: f(g))
        number = max(1, round(0.05 / timeit.timeit(calls["change"], number=1)))
        times = {"parent": [], "change": []}
        for i in range(PER_CALL_ROUNDS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                best = min(timeit.repeat(calls[side], number=number, repeat=5))
                times[side].append(best / number * 1e6)
        row = {"graph": f"random twin-free graph, n = {n}, edge probability 0.5 "
                        f"(numpy default_rng([{n}, 7]))", "unit": "us per call"}
        for side, values in times.items():
            row[side] = {"median": statistics.median(values), "min": min(values)}
        row["change_faster"] = sum(c < p for p, c in zip(times["parent"], times["change"]))
        row["rounds"] = PER_CALL_ROUNDS
        row["median_ratio"] = row["change"]["median"] / row["parent"]["median"]
        cases[f"rand{n}"] = row
    return cases


def machine() -> str:
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    import numpy

    return (f"{os.cpu_count()}-vCPU {model}, {platform.system()}, Python "
            f"{platform.python_version()}, numpy {numpy.__version__} "
            "(bench/run.py pins BLAS to one thread)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--what", required=True, help="what the change does")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--traced-seed", type=int, required=True)
    parser.add_argument("--per-call", action="store_true", help="add the twin-free table")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    out = {
        "what": args.what,
        "parent_commit": commit,
        "command": f"python3 bench/run.py --workload <W> --seed <S> --seconds {seconds} "
                   "--trace <0|1>, run unmodified from a checkout of each side",
        "machine": machine(),
        "protocol": (
            f"{args.pairs} pairs of runs a workload on seeds {seeds[0]}-{seeds[-1]}, one seed a "
            "pair, alternating which side runs first; the pair order is recorded per pair; a "
            "win is a lower value on the change, ties count for neither side; quartiles are "
            "statistics.quantiles(n=4, method='inclusive'); median_diff_over_parent_iqr = "
            "(parent median - change median) / (parent q3 - parent q1)."
        ),
        "workloads": {},
        "traced": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": export(commit, Path(tmp)), "change": ROOT}
        for workload in workloads:
            pairs = []
            for i, seed in enumerate(seeds):
                pairs.append(pair(trees, workload, seed, seconds, 0, i % 2 == 0))
                print(workload, json.dumps(pairs[-1]), file=sys.stderr, flush=True)
            out["workloads"][workload] = {
                "pairs": pairs,
                "summary": {metric: summary(pairs, metric) for metric in END_TO_END},
                "failed_operations": {
                    side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")
                },
            }
        for workload in workloads:
            traced = pair(trees, workload, args.traced_seed, seconds, 1, True)
            traced["note"] = "per-layer metrics, medians over rounds"
            out["traced"].append(dict(workload=workload, **traced))
        if args.per_call:
            packages = Path(tmp) / "packages"
            packages.mkdir()
            for side, tree in trees.items():
                (packages / f"rfl_{side}").symlink_to(tree / "src" / "rfl")
            code = (
                "import json, sys; sys.path.insert(0, sys.argv[1]); import bench_pairs; "
                "print(json.dumps(bench_pairs.per_call_worker(sys.argv[2])))"
            )
            worker = subprocess.run(
                [sys.executable, "-c", code, str(Path(__file__).parent), str(packages)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
                check=True, capture_output=True, text=True,
            )
            out["per_call"] = {
                "protocol": (
                    "spectral_radius on random twin-free graphs, both sides loaded into one "
                    "process under different package names, BLAS on one thread; each round "
                    "takes a timeit min of 5 repeats on each side, alternating which side "
                    "goes first; median and min over the rounds, in us per call"
                ),
                "cases": json.loads(worker.stdout),
            }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
