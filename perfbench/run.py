"""Benchmark runner: repeated passes of one workload, each in a fresh interpreter.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; sftkit is imported from ``src`` and needs
no install.  The seed draws the inputs, and expectations are computed from
them by ``oracles`` before the first pass.  Passes run one at a time, each in
a new interpreter with BLAS/OpenMP pinned to one thread, until ``--seconds``
are used up (at least three passes).  Every pass checks its outputs and must
produce the same output digests and count metrics as the first pass of the
run; a job that raises, fails its check or differs counts as failed, and
any failed job makes ``correct`` false.

With ``--trace 0`` the run reports the end-to-end metrics, medians over
passes.  A shared host's speed can drift by half or more over seconds to
minutes, so ``wall_s`` and ``setup_s`` are rescaled to a fixed host speed:
each pass measures them in runs of a fixed reference loop timed between its
jobs (see ``worker.py``), and the run reports the median over passes times
``REF_S``.  They read as seconds on a host where the reference loop takes
``REF_S``; the raw medians are printed alongside.  With ``--trace 1`` the
run alternates untraced and traced passes and reports the per-layer metrics
(raw seconds) and the tracing overhead, and writes every span to
``.perfbench/spans-<workload>-<seed>.json``.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
PINNED = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
MIN_PASSES = 3
REF_S = 0.03  # about the reference loop's time on a calm 2-core host of this kind
GRACE_S = 120  # a run gives up this long after its --seconds are used up

os.environ.update(PINNED)  # before anything imports numpy
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class RunError(Exception):
    """The run cannot produce a result (no sftkit, a crashed pass)."""


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _pass_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"  # same set orders, so the same work, in every pass
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # nothing one pass compiles is reused by the next
    return env


def run_pass(workload, seed, workdir, expect_path, trace, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--workdir", workdir, "--expect", expect_path]
    if trace:
        cmd.append("--trace")
    spawned = _now()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned)],
            stdout=subprocess.PIPE,
            env=_pass_env(),
            cwd=ROOT,
            timeout=timeout,
            text=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    """Run passes for ``seconds``; return (correct, attempted, failed, metrics)."""
    rundir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        spec = workloads.make_spec(workload, seed)
        expect_path = os.path.join(rundir, "expect.json")
        with open(expect_path, "w") as fh:
            json.dump(workloads.EXPECT[workload](spec), fh)

        reports = []
        start = _now()
        deadline = start + seconds + GRACE_S
        while True:
            elapsed = _now() - start
            n = len(reports)
            if n >= MIN_PASSES * (2 if trace else 1) and elapsed + elapsed / n > seconds:
                break
            traced = bool(trace) and n % 2 == 1
            workdir = os.path.join(rundir, f"pass{n}")
            rep = run_pass(workload, seed, workdir, expect_path, traced, max(1.0, deadline - _now()))
            rep["traced"] = traced
            reports.append(rep)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    correct = True
    attempted = failed = 0
    first = reports[0]
    first_traced = next((r for r in reports if r["traced"]), None)
    for rep in reports:
        bad = set(rep["errors"])
        if bad:
            correct = False
        for job, fp in rep["fingerprints"].items():
            if first["fingerprints"].get(job) != fp:
                bad.add(job)
                correct = False
        if rep["traced"] and rep["job_counts"] != first_traced["job_counts"]:
            mismatched = {j for j in rep["jobs"] if rep["job_counts"].get(j) != first_traced["job_counts"].get(j)}
            bad |= mismatched
            correct = False
        for job in sorted(bad):
            print(f"{workload}: job {job} failed: {rep['errors'].get(job, 'output or counts differ from the first pass')}", file=sys.stderr)
        attempted += len(rep["jobs"])
        failed += len(bad)

    plain = [r for r in reports if not r["traced"]]
    if not trace:
        wall = statistics.median([r["wall_s"] for r in plain])
        setup = statistics.median([r["setup_s"] for r in plain])
        ref = statistics.median([t for r in plain for t in r["ref_s"]])
        print(f"{workload:20s} raw wall_s {wall:.4f} s, raw setup_s {setup:.4f} s, reference loop {ref:.4f} s, {len(plain)} passes")
        metrics = {
            "wall_s": {"value": statistics.median([r["wall_refs"] for r in plain]) * REF_S, "unit": "s"},
            "setup_s": {"value": statistics.median([r["setup_refs"] for r in plain]) * REF_S, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median([r["peak_rss_mb"] for r in plain]), "unit": "MB"},
        }
        return correct, attempted, failed, metrics

    traced = [r for r in reports if r["traced"]]
    metrics = {}
    for name, *_ in tracing.TRACED:
        calls = [r["self_times"].get(name, (0, 0.0))[0] for r in traced]
        busy = [r["self_times"].get(name, (0, 0.0))[1] for r in traced]
        metrics[f"{name}.calls"] = {"value": calls[0], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": statistics.median(busy), "unit": "s"}
    for name in tracing.COUNT_NAMES:
        total = sum(c.get(name, 0) for c in first_traced["job_counts"].values())
        metrics[name] = {"value": total, "unit": "count" if name != "cli.output_bytes" else "bytes"}
    plain_wall = statistics.median([r["wall_s"] for r in plain])
    traced_wall = statistics.median([r["wall_s"] for r in traced])
    self_sum = statistics.median([sum(busy for _, busy in r["self_times"].values()) for r in traced])
    metrics["trace.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    metrics["trace.self_sum_s"] = {"value": self_sum, "unit": "s"}
    metrics["trace.ref_loop_s"] = {"value": statistics.median([t for r in plain for t in r["ref_s"]]), "unit": "s"}

    os.makedirs(OUT, exist_ok=True)
    spans = [span for r in traced for span in r["spans"]]
    with open(os.path.join(OUT, f"spans-{workload}-{seed}.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "pass"], "spans": spans}, fh)
    return correct, attempted, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sftkit", "__init__.py")):
        print(f"error: no sftkit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    oracles.selftest()

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            ok, att, fail, mets = run_workload(name, args.seed, args.seconds, args.trace)
        except (RunError, subprocess.TimeoutExpired) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        for key, m in mets.items():
            print(f"{name:20s} {key:40s} {m['value']:>16.6g} {m['unit']}")
        print(f"{name:20s} jobs attempted {att}, failed {fail}")
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: m for key, m in mets.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
