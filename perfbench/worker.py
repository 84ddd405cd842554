"""One pass of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR
        --expect FILE --spawned T [--trace]

``--spawned`` is the CLOCK_MONOTONIC time at which the parent started this
process; setup time runs from there until sftkit is imported and the pass's
inputs are written.  The pass then times its jobs, reads the peak RSS, and
checks every output.  With ``--trace`` the span
wrappers are installed for the jobs only.  The last stdout line is a JSON
report.

A shared host's speed can drift by half or more over seconds to minutes, so
the pass also times a fixed reference loop, outside the timed regions: once at
interpreter start (left out of the setup time), once after setup, and again
after each stretch of at least ``REF_EVERY_S`` of job time.  The setup, and
each stretch of jobs, is divided by the mean of the two reference times
around it; ``setup_refs`` and ``wall_refs`` are the pass's costs in
reference loops, which run.py turns back into seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


REF_EVERY_S = 0.1


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop():
    """Fixed interpreter work of the kind sftkit does (build small tuples,
    sort them, hash them into a set), with a working set of about 0.5 MB so
    the pass's peak RSS stays sftkit's.  It makes no reference cycles, and
    the collector is off while it runs, so its time does not depend on what
    the jobs left on the heap.  Returns its duration in seconds."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        distinct = 0
        for rep in range(4):
            rows = [tuple((i * j + rep) % 97 for j in range(6)) for i in range(5000)]
            rows.sort()
            distinct += len(set(rows))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--expect", required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    ref_start = reference_loop()

    import sftkit.classify
    import sftkit.cli
    import sftkit.compiler
    import sftkit.core
    import sftkit.cycles
    import sftkit.entropy
    import sftkit.solve

    import workloads

    sk = types.SimpleNamespace(
        core=sftkit.core,
        classify=sftkit.classify,
        cycles=sftkit.cycles,
        compiler=sftkit.compiler,
        solve=sftkit.solve,
        entropy=sftkit.entropy,
        cli=sftkit.cli,
    )
    with open(args.expect) as fh:
        expect = json.load(fh)
    spec = workloads.make_spec(args.workload, args.seed)
    os.makedirs(args.workdir, exist_ok=True)
    jobs = workloads.JOBS[args.workload](spec, args.workdir, expect, sk)
    setup_s = _now() - args.spawned - ref_start

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(pass_id=os.getpid())
        tracer.install()

    ref_s = [ref_start, reference_loop()]
    setup_refs = setup_s / ((ref_s[0] + ref_s[1]) / 2)
    results = []
    errors = {}
    wall_s = wall_refs = stretch = 0.0
    for i, job in enumerate(jobs):
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"bench.{job.name}"):
                    results.append(job.run())
            else:
                results.append(job.run())
        except Exception as e:  # a job that raises is a failed job
            results.append(None)
            errors[job.name] = f"raised {type(e).__name__}: {e}"
        stretch += time.perf_counter() - t0
        if stretch >= REF_EVERY_S or i == len(jobs) - 1:
            ref_s.append(reference_loop())
            wall_s += stretch
            wall_refs += stretch / ((ref_s[-2] + ref_s[-1]) / 2)
            stretch = 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()

    fingerprints = {}
    for job, result in zip(jobs, results):
        if job.name in errors:
            continue
        try:
            job.check(result)
            fingerprints[job.name] = job.fingerprint(result)
        except Exception as e:  # a failed check, or an unreadable output
            errors[job.name] = f"check: {type(e).__name__}: {e}"

    report = {
        "jobs": [job.name for job in jobs],
        "errors": errors,
        "fingerprints": fingerprints,
        "wall_s": wall_s,
        "wall_refs": wall_refs,
        "setup_s": setup_s,
        "setup_refs": setup_refs,
        "ref_s": ref_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        report["self_times"] = tracer.self_times()
        jobs_of = {i: span[0][len("bench.") :] for i, span in enumerate(tracer.spans) if span[3] is None}
        report["job_counts"] = {jobs_of[i]: c for i, c in tracer.counts.items()}
        report["spans"] = tracer.spans
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
