"""Two back-to-back sets of runs of this checkout, compared the way a gate would.

    python3 perfbench/spread.py

Each set runs ``run.py --trace 0`` once per seed 1..10 and workload, one
run at a time, each lasting ``run_seconds`` from BENCHMARK.json.  Within a set the workloads are interleaved seed by seed, so
each workload's runs spread over the whole set.  For each set, workload and
end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(n=4)`` and their distance as a share of the median,
and the share of failed jobs.  It then prints how far the second set's
median moved from the first's, and flags every spread (``setup_s`` aside)
and every move that exceeds the metric's bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEEDS = range(1, 11)
SETS = 2


def run_set(names, seconds):
    results = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT).stdout
            results[name].append(json.loads(out.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: {json.dumps(results[name][-1])}", flush=True)
    return results


def main():
    names = workloads.WORKLOADS
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = [run_set(names, bench["run_seconds"]) for _ in range(SETS)]

    ok = True
    medians = {}
    for i, results in enumerate(sets, 1):
        for name in names:
            runs = results[name]
            shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
            medians[i, name, "failed share"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            print(f"set {i} {name}: correct {all(r['correct'] for r in runs)}, failed/attempted {shares}")
            for metric, bound in bounds.items():
                q1, med, q3 = statistics.quantiles([r["metrics"][metric]["value"] for r in runs], n=4)
                spread = (q3 - q1) / med
                flag = "  EXCEEDS BOUND" if metric != "setup_s" and spread > bound else ""
                ok = ok and not flag
                medians[i, name, metric] = med
                print(f"set {i} {name:20s} {metric:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.3f}{flag}")
    for name in names:
        if medians[1, name, "failed share"] != medians[2, name, "failed share"]:
            ok = False
            print(f"{name}: the share of failed jobs differs between the sets")
        for metric, bound in bounds.items():
            first, second = medians[1, name, metric], medians[2, name, metric]
            move = (second - first) / first
            flag = "  EXCEEDS BOUND" if move > bound else ""
            ok = ok and not flag
            print(f"{name:20s} {metric:12s} median {first:.5g} -> {second:.5g}  moved {move:+.3f} (bound {bound}){flag}")
    print("all spreads and moves within bounds" if ok else "some spread or move exceeds its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
