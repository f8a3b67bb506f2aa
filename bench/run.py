"""eqtwist benchmark runner.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports eqtwist from its
`src/` directory only.  One process runs one workload as a closed loop:
one client, one job at a time, no threads or worker processes.

--trace 0 times the workload untraced.  Set-up (building and validating
every input, writing the JSON inputs of cli-mix, the preflight) runs
SETUP_REPEATS times; then whole rounds of seeded jobs run until S
seconds have passed, each job timed from the call to its checked
result.  It prints the end-to-end metrics.

--trace 1 deals a fixed number of rounds from the same seed, runs them
once untraced and once with every layer wrapped by the tracer, and
prints the per-layer metrics: self times, exact counts and the tracing
overhead.  The spans go to bench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print the same
metrics for a reader.  A job that raises or whose result differs from
its oracle counts as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

START = time.perf_counter()
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 5
# a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10


def import_package():
    """Import eqtwist from this checkout's src/, or exit 2 saying why."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import eqtwist
    except ImportError as ex:
        sys.stderr.write(f"bench: cannot import eqtwist from {src}: {ex}\n")
        sys.exit(2)
    where = os.path.dirname(os.path.abspath(eqtwist.__file__))
    if os.path.commonpath([where, src]) != src:
        sys.stderr.write(f"bench: eqtwist came from {where}, not {src}\n")
        sys.exit(2)


def run_jobs(run, pool, jobs, failures: list) -> list[float]:
    """Run jobs in order through run(pool, job), which says whether the
    result matched its oracle; return each job's wall time."""
    times = []
    for job in jobs:
        t = time.perf_counter()
        try:
            ok = run(pool, job)
        except Exception:  # a failing job is counted, the run goes on
            ok = False
            if not failures:
                traceback.print_exc()
        times.append(time.perf_counter() - t)
        if not ok:
            failures.append(job)
    return times


def tail(times: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) of the highest percentile
    with TAIL_BEYOND samples beyond it; the maximum when there are too
    few samples."""
    ts = sorted(times)
    n = len(ts)
    if n <= TAIL_BEYOND:
        return 100.0, ts[-1], 0
    return 100.0 * (n - TAIL_BEYOND) / n, ts[n - TAIL_BEYOND - 1], TAIL_BEYOND


def set_up(wl, workdir: str):
    """Build and validate the workload's inputs, then check the smallest
    job of every workload against its oracle."""
    import workloads

    pool = wl.build(workdir)
    workloads.preflight(workdir)
    return pool


def timed_run(wl, seed: int, seconds: float, workdir: str):
    import_s = time.perf_counter() - START
    builds = []
    for _ in range(SETUP_REPEATS):
        # each set-up starts from a heap without the last one's inputs
        pool = None
        gc.collect()
        t = time.perf_counter()
        pool = set_up(wl, workdir)
        builds.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(builds)
    # keep the input pool out of the collector's way, as a process that
    # built one input would
    gc.collect()
    gc.freeze()
    rng = random.Random(seed)
    failures: list = []
    times: list[float] = []
    # verified jobs per second of each round; every round has the same
    # mix, so their median shrugs off a burst of load on the machine
    rates: list[float] = []
    t0 = time.perf_counter()
    while True:
        start, failed = time.perf_counter(), len(failures)
        jobs = wl.deal(rng)
        times += run_jobs(wl.run, pool, jobs, failures)
        rates.append((len(jobs) - len(failures) + failed)
                     / (time.perf_counter() - start))
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    pct, tail_s, beyond = tail(times)
    n = len(times)
    metrics = {
        "jobs_per_s": (statistics.median(rates), "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = [f"jobs: {n} in {len(rates)} rounds, {wall:.2f} s; "
             f"tail is p{pct:.2f} ({beyond} of {n} jobs beyond it)",
             f"failed_frac: {len(failures) / n:.4f} ({len(failures)} of {n})",
             f"setup: import {import_s:.4f} s, builds "
             + ", ".join(f"{b:.4f}" for b in builds) + " s"]
    return n, failures, metrics, notes


def traced_run(wl, seed: int, workdir: str):
    import families
    import tracer
    import workloads

    tr = tracer.Tracer()
    inst = tracer.Instrumentation(tr, [workloads, families])
    inst.install()
    idx = tr.begin(tracer.SETUP_SPAN)
    pool = set_up(wl, workdir)
    tr.finish(idx)
    inst.uninstall()
    gc.collect()
    gc.freeze()
    rng = random.Random(seed)
    jobs = [job for _ in range(wl.trace_rounds) for job in wl.deal(rng)]
    failures: list = []
    plain = run_jobs(wl.run, pool, jobs, failures)
    inst.install()
    try:
        traced = run_jobs(tr.jobs(wl.run), pool, jobs, failures)
    finally:
        inst.uninstall()
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{wl.name}-seed{seed}.tsv")
    tr.write(path)
    values = tracer.layer_metrics(tr)
    plain_rate = len(jobs) / sum(plain)
    traced_rate = len(jobs) / sum(traced)
    values["trace.jobs_per_s"] = traced_rate
    values["trace.untraced_jobs_per_s"] = plain_rate
    values["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
    metrics = {name: (values[name], unit_of(name))
               for name in tracer.metric_names()}
    notes = [f"traced {len(jobs)} jobs twice ({wl.trace_rounds} rounds); "
             f"spans written to {os.path.relpath(path, ROOT)}"]
    return 2 * len(jobs), failures, metrics, notes


def unit_of(name: str) -> str:
    if name.endswith("jobs_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("per_group"):
        return "ratio"
    if name.endswith("bits_max"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    workdir = os.path.join(OUT, f"inputs-{wl.name}-{os.getpid()}")
    try:
        if args.trace:
            attempted, failures, metrics, notes = traced_run(
                wl, args.seed, workdir)
        else:
            attempted, failures, metrics, notes = timed_run(
                wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
