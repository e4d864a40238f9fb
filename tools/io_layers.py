"""Time the graph I/O layers against the JSON decoder that feeds them.

    python3 tools/io_layers.py

For one graph of each `bench/gen.py` family, at V=4000 and seed 1, it
times `json.loads`, `graph_from_jsonable`, `validate_graph`, `serialize`
and `graph_dot`, interleaved in one process over 40 repeats: each repeat
runs every stage once on every graph, so a change of host speed touches
all stages alike.  It prints, per family and stage, the best and the
median time and the best time as a ratio to the best `json.loads`.  Each
repeat decodes and builds afresh, so no stage meets a graph or string an
earlier repeat has used.

The library is imported from ``src/`` next to this directory and the
generator loaded from ``bench/gen.py`` by path; neither is changed.
Standard library only.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ribboncalc.graph import validate_graph  # noqa: E402
from ribboncalc.serialization import graph_dot, graph_from_jsonable, serialize  # noqa: E402

VERTICES, REPEATS, SEED = 4000, 40, 1
STAGES = ("json.loads", "graph_from_jsonable", "validate_graph", "serialize", "graph_dot")


def _load_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it builds `Spec`
    sys.modules[spec.name] = gen
    spec.loader.exec_module(gen)
    return gen


def _timed(times: dict, stage: str, fn, arg):
    """``fn(arg)``, its time recorded under ``stage``; the result is freed
    by the caller, after the clock has stopped."""
    start = time.perf_counter()
    result = fn(arg)
    times[stage] = time.perf_counter() - start
    return result


def measure(text: str) -> dict[str, float]:
    """One time per stage for the graph written as ``text``, each stage fed
    by the one before, as a command line call feeds them."""
    times: dict[str, float] = {}
    obj = _timed(times, "json.loads", json.loads, text)
    g = _timed(times, "graph_from_jsonable", graph_from_jsonable, obj)
    _timed(times, "validate_graph", validate_graph, g)
    _timed(times, "serialize", serialize, g)
    _timed(times, "graph_dot", graph_dot, g)
    return times


def main() -> int:
    gen = _load_gen()
    texts = {
        family: gen.to_text(gen.generate(family, VERTICES, "{}/io".format(SEED)))
        for family in gen.FAMILIES
    }
    for text in texts.values():
        if serialize(graph_from_jsonable(json.loads(text))) != text:
            raise SystemExit("serialize does not reproduce the generated text")
    times = {family: {stage: [] for stage in STAGES} for family in texts}
    for _ in range(REPEATS):
        for family, text in texts.items():
            for stage, t in measure(text).items():
                times[family][stage].append(t)

    print("V={} repeats={} seed={} python={}".format(
        VERTICES, REPEATS, SEED, sys.version.split()[0]))
    print("{:<20} {:<20} {:>9} {:>9} {:>7}".format(
        "family", "stage", "best ms", "p50 ms", "ratio"))
    for family, stages in times.items():
        base = min(stages["json.loads"])
        for stage, ts in stages.items():
            print("{:<20} {:<20} {:>9.2f} {:>9.2f} {:>7.2f}".format(
                family, stage, 1e3 * min(ts), 1e3 * statistics.median(ts), min(ts) / base))
    return 0


if __name__ == "__main__":
    sys.exit(main())
