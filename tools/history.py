"""Benchmark commits side by side under one harness and record the medians.

    python3 tools/history.py --out BENCH_<n>.json [--pairs 10] [--seconds S] REV [REV ...]

Each REV is anything ``git archive`` takes: a commit, a branch or a tree.
For each one the tool extracts its ``src/`` into a temporary tree beside a
copy of HEAD's committed ``bench/``, so every REV runs under the same
harness, digests included.  It then runs

    bench/run.py --workload W --seed 1 --trace 0 [--seconds S]

for both workloads, one run at a time, ``--pairs`` times per REV and
workload.  The REVs run in the given order in even pairs and in reverse
order in odd ones, so a drift of host speed touches each alike.  Without
``--seconds`` the harness runs for its own default.

The record written to ``--out`` holds, per REV and workload, the median
and the quartiles (inclusive method) of every end-to-end metric and of the
speed probe's p50, whether every run read ``correct`` and the most
``failed`` any run read, and the run count; and, once, the Python version,
``PYTHONDONTWRITEBYTECODE``, the seed, the pair count and the harness's
commit.  A REV is recorded as given, with the id of its ``src`` tree,
which names the sources that ran.  Runs are deterministic in their inputs
for a seed; their times are not.

Standard library only; it changes nothing in the checkout it reads.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("explore", "cli")
SEED = 1


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True
    ).stdout


def extract(rev: str, path: str, into: Path) -> None:
    """``path`` of ``rev``, written under ``into``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, path))) as tar:
        tar.extractall(into, filter="data")


def run(tree: Path, workload: str, seconds) -> dict:
    """One harness run: its result line, and the speed probe's p50 from its
    ``meta`` line."""
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--trace", "0"]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=tree, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(next(x for x in lines if x.startswith("meta "))[len("meta "):])
    result["probe_p50_ms"] = meta["probe_ms"]["p50"]
    return result


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(runs: list) -> dict:
    names = list(runs[0]["metrics"])
    return {
        "runs": len(runs),
        "correct": all(r["correct"] for r in runs),
        "failed": max(r["failed"] for r in runs),
        "metrics": {
            name: dict(spread([r["metrics"][name]["value"] for r in runs]),
                       unit=runs[0]["metrics"][name]["unit"])
            for name in names
        },
        "probe_p50_ms": spread([r["probe_p50_ms"] for r in runs]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revs", nargs="+", metavar="REV")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    runs = {(rev, w): [] for rev in args.revs for w in WORKLOADS}
    with tempfile.TemporaryDirectory(prefix="history-") as tmp:
        trees = {}
        for i, rev in enumerate(args.revs):
            tree = trees[rev] = Path(tmp) / str(i)
            extract(rev, "src", tree)
            extract("HEAD", "bench", tree)
        for pair in range(args.pairs):
            order = args.revs if pair % 2 == 0 else args.revs[::-1]
            for w in WORKLOADS:
                for rev in order:
                    result = run(trees[rev], w, args.seconds)
                    runs[rev, w].append(result)
                    print("pair {} {} {}: wall_s {:.4g} correct {}".format(
                        pair, w, rev, result["metrics"]["wall_s"]["value"],
                        result["correct"]), file=sys.stderr)
    record = {
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "seed": SEED,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "bench": git("rev-parse", "HEAD").decode().strip(),
        "revs": [
            {
                "rev": rev,
                "src_tree": git("rev-parse", rev + ":src").decode().strip(),
                "workloads": {w: summary(runs[rev, w]) for w in WORKLOADS},
            }
            for rev in args.revs
        ],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
