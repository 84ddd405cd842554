"""Re-measure the single-layer baselines of ROADMAP item 1 with the span tracer.

    python3 perfbench/roadmap_baselines.py

Each case runs ``REPEAT`` times in this interpreter (with ``src`` on the
path) under the same wrappers as a traced benchmark pass; the table gives the
median wall time of the case and the median self time of the layer it is
about.  Prints one line per case and a JSON list as the last line.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import sftkit.cli  # noqa: E402,F401  (the tracer patches every layer module)
from sftkit import core, cycles, compiler, entropy, solve  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

REPEAT = 3


def _golden_count(n):
    golden = core.Sft1D.from_words("01", "11")
    return lambda: solve.count_rectangles(golden, golden, n, n)


def _tournament_pair(n, seed):
    t = workloads.random_tournament(random.Random(f"roadmap/{n}/{seed}"), n)
    graph = core.build_rauzy(core.sft_from_edges(t["alphabet"], t["edges"]))
    return lambda: cycles.find_cycle_pair(graph)


def _words(h):
    coding = core.sft_from_edges(workloads.CODING3["alphabet"], workloads.CODING3["edges"])
    pair, _ = cycles.find_cycle_pair(core.build_rauzy(coding))
    pres, _ = compiler.compile_wang(coding, core.free_tile_set(2), pair)
    return lambda: pres.words(h)


def _cycle_with_chord(n):
    verts = tuple(range(n))
    edges = {(i, (i + 1) % n) for i in range(n)} | {(0, n // 2)}
    graph = core.Digraph(verts, frozenset(edges))
    return lambda: entropy._digraph_spectral_radius(graph)


CASES = (
    ("count_rectangles golden 12x12", "solve.strip_build", lambda: _golden_count(12)),
    ("count_rectangles golden 13x13", "solve.strip_build", lambda: _golden_count(13)),
    ("count_rectangles golden 14x14", "solve.strip_build", lambda: _golden_count(14)),
    ("find_cycle_pair tournament n=10", "cycles.find_cycle_pair", lambda: _tournament_pair(10, 0)),
    ("find_cycle_pair tournament n=11", "cycles.find_cycle_pair", lambda: _tournament_pair(11, 0)),
    ("find_cycle_pair tournament n=12", "cycles.find_cycle_pair", lambda: _tournament_pair(12, 0)),
    ("words(120) coding3 N=2", "compiler.words", lambda: _words(120)),
    ("power iteration 200-cycle + chord", None, lambda: _cycle_with_chord(200)),
)


def main():
    rows = []
    for label, layer, make in CASES:
        call = make()
        walls, selfs = [], []
        for i in range(REPEAT):
            tracer = tracing.Tracer(pass_id=i)
            tracer.install()
            try:
                t0 = time.perf_counter()
                result = call()
                walls.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            if layer is not None:
                selfs.append(tracer.self_times().get(layer, (0, 0.0))[1])
        row = {"case": label, "wall_s": statistics.median(walls)}
        if layer is not None:
            row[f"{layer}.self_s"] = statistics.median(selfs)
        if label.startswith("power iteration"):
            row["iterations"] = result[2]
        rows.append(row)
        extra = "  ".join(f"{k} {v:.4g}" for k, v in row.items() if k not in ("case", "wall_s"))
        print(f"{label:36s} wall_s {row['wall_s']:.4g}  {extra}", flush=True)
    print(json.dumps(rows))


if __name__ == "__main__":
    main()
