"""ribboncalc benchmark: one command, one workload, one seed.

    python3 bench/run.py --workload explore|cli --seed N --seconds S --trace 0|1

Runs a fixed number of rounds of the workload (fresh seeded inputs each
round): ``--seconds`` over the workload's nominal round time, at least
`MIN_ROUNDS`, so that every commit measures the same work.  It checks every
output and prints every metric by name and unit.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` rounds alternate between untraced
and traced, and the metrics are the per-layer ones from the traced rounds
(see README.md in this directory).  Spans, digests and run metadata are
written under ``.bench_out/`` at the root of the checkout.

The library is imported from ``src/`` of the checkout this script sits in;
without it the script exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

DEFAULT_SEED = 1
MIN_ROUNDS = 3
COLD_CALLS = 30  # cold CLI calls per untraced run, spread evenly over its rounds
# End-to-end times are scaled to the host speed at which a speed probe
# (workloads.Speed) costs this long: its fast level on the baseline machine.
PROBE_S = 0.0016
IMPORTTIME_CALLS = 3
SUBPROCESS_TIMEOUT = 60

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "cli_cold_ms": "ms",
}
EXTRA_LAYER = {"cli.import_ms": "ms", "trace.overhead_s": "s"}


def import_library():
    if not (SRC / "ribboncalc" / "__init__.py").is_file():
        raise SystemExit("error: no ribboncalc sources under {}".format(SRC))
    sys.path.insert(1, str(SRC))
    import ribboncalc

    if Path(ribboncalc.__file__).resolve().parent != SRC / "ribboncalc":
        raise SystemExit("error: imported ribboncalc from {}".format(ribboncalc.__file__))


def import_ms() -> float:
    """Median cumulative import time of ribboncalc and ribboncalc.cli."""
    argv = [sys.executable, "-X", "importtime", "-c", "import ribboncalc.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    totals = []
    for _ in range(IMPORTTIME_CALLS):
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=SUBPROCESS_TIMEOUT)
        us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            # top-level entries only; nested imports are indented
            if len(parts) == 3 and parts[2].rstrip() in (" ribboncalc", " ribboncalc.cli"):
                us += int(parts[1])
        totals.append(us / 1000)
    return statistics.median(totals)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Rounds:
    """What the rounds of one run measured and found."""

    def __init__(self):
        # untraced rounds: (seconds, probe cost) of each set-up and operation
        self.setups, self.timings = [], []
        self.traced_walls, self.layers, self.spans = [], [], []
        self.digests, self.failures, self.inputs = [], [], []
        self.attempted, self.count = 0, 0
        self.peak_rss = None
        self.colds = []  # (seconds, probe cost) of each cold CLI call
        self.speed = None


def run_rounds(args, workdir: Path, cold) -> Rounds:
    import tracer
    import workloads

    wl = workloads.make(args.workload, str(workdir))
    reference = []
    if args.seed == DEFAULT_SEED and DIGESTS.is_file() and not args.record_digests:
        reference = json.loads(DIGESTS.read_text()).get(args.workload, [])
    rounds = max(MIN_ROUNDS + args.trace, round(args.seconds / wl.round_seconds))
    r = Rounds()
    speed = r.speed = workloads.Speed()
    while r.count < rounds:
        i = r.count
        seed = "{}/{}/{}".format(args.seed, args.workload, i)
        tr = tracer.Tracer() if args.trace and i % 2 == 1 else None
        if tr is not None:
            tr.install()
        try:
            t0 = speed.probe()
            rnd = wl.setup(seed)
            t1 = time.perf_counter()
            wall = workloads.run_ops(rnd.ops, speed)
            setup = (t1 - t0, speed.around(t0, t1))
            probe = workloads.probe(str(workdir), seed + "/probe") if tr is not None else None
        finally:
            if tr is not None:
                tr.remove()

        wl.check(rnd)
        got = workloads.digest_by_kind(rnd.ops, wl.render)
        r.digests.append(got)
        if i < len(reference):
            for kind in sorted(set(got) | set(reference[i])):
                if got.get(kind) != reference[i].get(kind):
                    rnd.failures.append("round {}: {} output differs from the "
                                        "recorded digest".format(i, kind))
        for part in (rnd,) if probe is None else (rnd, probe):
            r.attempted += len(part.ops)
            r.failures += part.failures
        if i == 0:
            r.inputs = [{"family": s.family, "V": s.n_vertices, "H": s.n_halfedges,
                         "bytes": len(t)} for s, t, _ in rnd.graphs]
        r.count += 1
        if tr is None:
            r.setups.append(setup)
            r.timings.append([(op.seconds, speed.around(op.started, op.started + op.seconds))
                              for op in rnd.ops])
        else:
            r.traced_walls.append(wall)
            tr.replay_json_decode()
            r.layers.append(tr.layer_metrics())
            r.spans.append(dict(tr.dump(), round=i))
        if len(r.timings) == MIN_ROUNDS and r.peak_rss is None:
            r.peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while cold is not None and len(cold.times) < r.count * COLD_CALLS // rounds:
            t0 = speed.probe()
            cold.call()
            t1 = time.perf_counter()
            speed.probe()
            r.colds.append((cold.times[-1] / 1000, speed.around(t0, t1)))
    return r


def layer_metrics(r: Rounds) -> dict:
    """Times are medians over the traced rounds; counts and ratios come from
    the first traced round, whose inputs depend on the seed alone."""
    import tracer

    out = {}
    for name, (unit, _, _) in tracer.LAYER_METRICS.items():
        if unit == "s":
            out[name] = statistics.median(layer[name] for layer in r.layers)
        else:
            out[name] = r.layers[0][name]
    out["cli.import_ms"] = import_ms()
    # traced round 2k + 1 against untraced round 2k, its neighbour in time
    out["trace.overhead_s"] = statistics.median(
        t - sum(s for s, _ in u) for u, t in zip(r.timings, r.traced_walls))
    return out


def end_to_end(r: Rounds, scale) -> dict:
    """The end-to-end metrics, each time mapped by ``scale(seconds, cost of
    the speed probes around it)``."""
    walls = [sum(scale(s, c) for s, c in ops) for ops in r.timings]
    latencies = [scale(s, c) for ops in r.timings for s, c in ops]
    return {
        "setup_s": statistics.median(scale(s, c) for s, c in r.setups),
        "wall_s": statistics.fmean(walls),
        "ops_per_s": len(latencies) / sum(walls),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p95_ms": percentile(latencies, 95) * 1000,
        "peak_rss_mb": r.peak_rss,
        "cli_cold_ms": statistics.median(scale(s, c) for s, c in r.colds) * 1000,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("explore", "cli"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's per-round output digests as the "
                        "reference for the default seed")
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error("--record-digests needs the default seed")
    import_library()
    import tracer
    import workloads

    nproc = len(os.sched_getaffinity(0))
    # one CPU for the run and its child processes, so that a cold CLI call
    # runs where the speed probes around it ran
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    OUT.mkdir(exist_ok=True)
    workdir = OUT / "work-{}-{}".format(args.workload, os.getpid())
    workdir.mkdir()
    try:
        cold = None
        if not args.trace:
            cold = workloads.ColdCli(str(SRC), str(workdir), "{}/cold".format(args.seed),
                                     SUBPROCESS_TIMEOUT)
        r = run_rounds(args, workdir, cold)
        if cold is not None:
            r.attempted += len(cold.times)
            r.failures += cold.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = None
    if args.trace:
        metrics = layer_metrics(r)
        units = dict({m: v[0] for m, v in tracer.LAYER_METRICS.items()}, **EXTRA_LAYER)
    else:
        metrics = end_to_end(r, lambda s, c: s * PROBE_S / c)
        raw = end_to_end(r, lambda s, c: s)
        units = END_TO_END
    failed = min(len(r.failures), r.attempted)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "rounds": r.count,
        "round_walls_s": [round(sum(s for s, _ in ops), 4) for ops in r.timings],
        "round_setups_s": [round(s, 4) for s, _ in r.setups],
        "traced_walls_s": [round(w, 4) for w in r.traced_walls],
        "op_samples": sum(len(ops) for ops in r.timings),
        "cold_ms": [[round(t * 1000, 1), round(c * 1000, 3)] for t, c in r.colds],
        "probe_ms": {"count": len(r.speed.costs),
                     **{"p{}".format(q): round(percentile(r.speed.costs, q) * 1000, 3)
                        for q in (10, 50, 90)}},
        "raw": raw,
        "fail_ratio": failed / r.attempted,
        "inputs_per_round": r.inputs,
        "V_per_round": sum(x["V"] for x in r.inputs),
        "H_per_round": sum(x["H"] for x in r.inputs),
        "bytes_per_round": sum(x["bytes"] for x in r.inputs),
        "failures": r.failures[:20],
    }

    stem = "{}-seed{}-trace{}".format(args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "digests": r.digests}, indent=1))
    if args.trace:
        (OUT / (stem + "-spans.json")).write_text(json.dumps(r.spans))
    if args.record_digests:
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        stored[args.workload] = r.digests
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    for f in r.failures[:20]:
        print("FAILED: {}".format(f))
    for name, value in metrics.items():
        print("{:34s} {:>14.6g} {}".format(name, value, units[name]))
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": r.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
