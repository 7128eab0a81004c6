"""One workload in one fresh interpreter: set up, run the job list, check it.

Started by run.py, never by hand. The process imports ``detcomp.cli`` (which
imports every module, as the CLI does at start-up), builds the workload's
inputs, and records the monotonic clock at that point as ``ready_at``; run.py
subtracts its own spawn time to get ``setup_s``. With ``--setup-only`` it stops
there. Otherwise it runs the job list back to back in one thread (a closed
loop with one client) in passes, until ``--seconds`` have passed; the pass
under way then finishes, so a run measures at least one whole pass. The last line of standard output
is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ROTATE_EVERY_S = 0.05


def rotate_cpus() -> None:
    """Move this process to the next allowed CPU every ROTATE_EVERY_S seconds.

    On a shared host each core sees its own, slowly changing load from other
    tenants, and the scheduler keeps a busy process on one core for minutes,
    so a run's speed depended on where it landed: on a 2-vCPU VM the same
    certify pass took 5.6 to 10.6 s from run to run. Rotating spreads every
    measurement over all allowed cores; it costs a few percent in cache
    refills, paid equally by every commit measured.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return
    if len(cpus) < 2:
        return
    turn = itertools.cycle(cpus)

    def move(signum, frame):
        try:
            os.sched_setaffinity(0, {next(turn)})
        except OSError:
            pass

    signal.signal(signal.SIGALRM, move)
    signal.setitimer(signal.ITIMER_REAL, ROTATE_EVERY_S, ROTATE_EVERY_S)


def run_pass(jobs, tracer, pass_index, failures):
    """Run every job once; returns (wall_s, cpu_s, attempted, failed).

    Only the library calls are timed: checks run between the timed parts.
    """
    state: dict = {}
    wall = cpu = 0.0
    failed = 0
    for job in jobs:
        if tracer is not None:
            tracer.job = f"{pass_index}:{job.name}"
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = job.run(state)
        except Exception:  # a failed operation is counted, the run goes on
            result = None
            reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
        else:
            reason = None
        finally:
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
            if tracer is not None:
                tracer.job = None
        if reason is None:
            try:
                reason = job.check(result)
            except Exception:
                reason = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        if reason is not None:
            failed += 1
            failures.append(f"{job.name}: {reason}")
    return wall, cpu, len(jobs), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    rotate_cpus()
    try:
        return measure(args)
    finally:
        # The timer outlives the handler at interpreter exit, and SIGALRM's
        # default action would kill the process.
        signal.setitimer(signal.ITIMER_REAL, 0)


def measure(args) -> int:
    t0 = time.perf_counter()
    import detcomp
    import detcomp.cli  # noqa: F401  imports every module, like CLI start-up
    cli_import_s = time.perf_counter() - t0
    if Path(detcomp.__file__).resolve().parent != SRC / "detcomp":
        print(f"detcomp imported from {detcomp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    jobs = WORKLOADS[args.workload](args.seed)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, install, layer_metrics, median_metrics
        tracer = Tracer()
        install(tracer)

    walls, cpus, layers, failures = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        spans_before = len(tracer.spans) if tracer is not None else 0
        wall, cpu, n, bad = run_pass(jobs, tracer, len(walls), failures)
        walls.append(wall)
        cpus.append(cpu)
        attempted += n
        failed += bad
        if tracer is not None:
            layers.append(dict(layer_metrics(tracer), **{
                "bench.traced_wall_s": wall,
                "bench.spans": len(tracer.spans) - spans_before,
            }))
            tracer.reset()
        if time.perf_counter() - start >= args.seconds:
            break

    out = {
        "ready_at": ready_at,
        "cli_import_s": cli_import_s,
        "passes": len(walls),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
    }
    if tracer is not None:
        out["layers"] = dict(median_metrics(layers), **{"cli.import_s": cli_import_s})
        trace_dir = HERE / "out"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"trace-{args.workload}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed})
        out["trace_file"] = str(path.relative_to(HERE.parent))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
