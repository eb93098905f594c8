"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload spectral-scale --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The run sets up the workload SETUP_REPEATS times, then repeats
whole rounds until --seconds have passed, checks the first round's outputs
apart from the library and requires every later round to match it.  With
--trace 0 it reports the end-to-end metrics, with --trace 1 the per-layer
metrics taken from spans around each library call; results and spans are
written under bench/out/.  See bench/README.md.
"""

from time import perf_counter

_STARTED = perf_counter()

import os  # noqa: E402

# BLAS and OpenMP read these once, when numpy loads: pin them first.  With
# OpenBLAS's default two threads one n = 800 spectral_radius ranged over
# 2.54-3.41 s; pinned it takes 4.18-4.32 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
PROBE_EVERY_S = 0.25
# The workloads and the metric names and units are those of BENCHMARK.json.
with open(ROOT / "BENCHMARK.json") as _fh:
    SPEC = json.load(_fh)
STATUSES = ("found", "absent", "budget")


def round_layers(spans: list, first: int, last: int, counts: Counter, scale: float) -> dict:
    """Per-layer metrics of one round from its spans spans[first:last], with
    times multiplied by the round's speed scale."""
    t: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    for s, own in zip(spans[first:last], tracing.self_times(spans[:last], first)):
        t[s[0]] += own * scale
        calls[s[0]] += 1
    search_s = sum(t["factors.search." + st] for st in STATUSES)
    nodes = sum(counts["nodes." + st] for st in STATUSES)
    radius_calls = calls["spectral.radius"]
    out = {
        "spectral.radius_s": t["spectral.radius"],
        "spectral.radius_calls": radius_calls,
        "spectral.iterations_per_call": counts["iterations"] / radius_calls if radius_calls else 0.0,
        "spectral.margin_s": t["spectral.margin"],
        "shifting.xy_shift_s": t["shifting.xy_shift"],
        "shifting.xy_shift_calls": calls["shifting.xy_shift"],
        "shifting.fixpoint_s": t["shifting.fixpoint"],
        "shifting.fixpoint_steps": counts["fixpoint_steps"],
        "factors.audit_s": t["factors.audit"],
        "factors.audit_members": counts["audit_members"],
        "factors.nodes_per_s": nodes / search_s if search_s else 0.0,
        "flow.subgraph_s": t["flow.subgraph"],
        "flow.subgraph_calls": calls["flow.subgraph"],
        "construction.build_s": t["construction.build"],
        "construction.build_calls": calls["construction.build"],
    }
    for st in STATUSES:
        out["factors.search_s." + st] = t["factors.search." + st]
        out["factors.search_nodes." + st] = counts["nodes." + st]
    return out


class Probe:
    """Fixed pieces of work that do not touch the library, timed before the
    first round and after every PROBE_EVERY_S of operations.

    The host's two vCPUs are shared: within one process the same work runs
    at speeds up to 2x apart, switching every few seconds, and CPU time
    follows wall time, so no other clock removes it.  Each stretch of time
    is therefore divided by the probe's slowness (1 at the reference speed,
    the mean of the probes on either side of the stretch).  Kinds of code
    slow down by different factors, so the probe mixes two pieces in about
    the proportions of the workload's own time:

    - "python": a dict-and-integer loop (interpreter work: search, shifts,
      adjacency builds);
    - "small_numpy": 12 x 12 power-iteration steps (numpy call overhead).

    REFERENCE_S holds each piece's time at the host's faster speed.  An
    empty mix leaves times as measured (slowness 1).
    """

    REFERENCE_S = {"python": 0.0070, "small_numpy": 0.0077}

    def __init__(self, mix: dict):
        self.mix = mix

    def _python(self) -> None:
        table: dict = {}
        for i in range(25_000):
            table[i & 1023] = table.get(i & 1023, 0) + (i ^ (i >> 3))

    def _small_numpy(self) -> None:
        import numpy as np

        for _ in range(120):
            a = np.zeros((12, 12))
            for i in range(12):
                a[i, (5 * i) % 12] = 1.0
                a[i, (7 * i + 1) % 12] = 1.0
            v = np.ones(12)
            for _ in range(10):
                w = a @ v
                v = w / np.linalg.norm(w)

    def __call__(self) -> float:
        """Slowness: the mix-weighted time of the pieces over their reference."""
        if not self.mix:
            return 1.0
        slowness = 0.0
        for piece, weight in self.mix.items():
            started = perf_counter()
            getattr(self, "_" + piece)()
            slowness += weight * (perf_counter() - started) / self.REFERENCE_S[piece]
        return slowness


def timed_round(workload, objs, tracer, probe: Probe, last_probe: float):
    """Run one round, timing its operations in stretches of at least
    PROBE_EVERY_S with the probe between stretches.  Returns the round, its
    raw time, its time at reference speed and the last probe's slowness."""
    from workloads import Round

    rnd = Round()
    operations = workload.run_round(objs, tracer, rnd)
    raw = scaled = stretch = 0.0
    done = False
    while not done:
        started = perf_counter()
        try:
            next(operations)
        except StopIteration:
            done = True
        stretch += perf_counter() - started
        if stretch >= PROBE_EVERY_S or done:
            with tracer.span("bench.probe"):
                p = probe()
            raw += stretch
            scaled += stretch * 2 / (last_probe + p)
            last_probe, stretch = p, 0.0
    return rnd, raw, scaled, last_probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "rfl" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'rfl'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from checks import CheckFailed
    from workloads import WORKLOADS

    import_s = perf_counter() - _STARTED
    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer(bool(args.trace))
    untraced = tracing.Tracer(False)

    setup_times, build_times = [], []
    for _ in range(SETUP_REPEATS):
        first = len(tracer.spans)
        started = perf_counter()
        spec = workload.spec(args.seed)
        objs = workload.build(spec, tracer)
        workload.warm_up()
        setup_times.append(perf_counter() - started)
        build_times.append(sum(s[2] - s[1] for s in tracer.spans[first:]))

    probe = Probe(workload.probe_mix)
    probe()
    last_probe = probe()
    raw_times, round_times, layers = [], [], []
    attempted = failed = 0
    reference = None
    correct = True
    try:
        window = perf_counter()
        while True:
            objs = workload.build(spec, untraced)  # fresh objects: no caches carried over
            first = len(tracer.spans)
            with tracer.span("round", f"round{len(round_times)}"):
                rnd, raw, scaled, last_probe = timed_round(workload, objs, tracer, probe, last_probe)
            raw_times.append(raw)
            round_times.append(scaled)
            attempted += len(rnd.outputs)
            failed += rnd.failed
            if tracer.enabled:
                scale = scaled / raw
                layers.append(round_layers(tracer.spans, first, len(tracer.spans), rnd.counts, scale))
            if reference is None:
                reference = rnd
            elif rnd.outputs != reference.outputs or rnd.counts != reference.counts:
                raise CheckFailed(f"round {len(round_times)} differs from round 1")
            if perf_counter() - window >= args.seconds:
                break
        max_abs_err = workload.check(spec, objs, reference)
    except Exception:  # a library error or a failed check: report, never hide
        traceback.print_exc()
        correct = False

    values, metrics = {}, []
    if correct and not args.trace:
        values = {
            "run_s": statistics.median(round_times),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "work_count": reference.counts["iterations"]
            + sum(reference.counts["nodes." + st] for st in STATUSES),
        }
        metrics = SPEC["end_to_end"]
    elif correct:
        values = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
        values["graphs.build_s"] = statistics.median(build_times)
        values["spectral.max_abs_err"] = max_abs_err
        metrics = SPEC["per_layer"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump(
            dict(
                result,
                rounds=round_times,
                raw_rounds=raw_times,
                setup=setup_times,
                import_s=import_s,
            ),
            fh,
            indent=1,
        )
        fh.write("\n")
    if tracer.enabled:
        tracer.write(OUT / f"trace-{stem}.json")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
