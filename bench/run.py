"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` there.
With ``--trace 0`` the result carries the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, taken
from a separate traced run. Every job's result is checked; the exit code is 0
only when all of them are right. See README.md in this directory for the
workloads and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "sampling", "reverify", "determinant", "search")
SETUP_PROBES = 5        # fresh interpreters timed per run; setup_s is their median
RUN_TIMEOUT_S = 170.0   # the whole run, every child process included


class WorkerError(RuntimeError):
    pass


def spawn(worker_args, env, deadline):
    """Run worker.py once; returns its JSON line plus setup_s for that process."""
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *worker_args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker still running after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - spawned_at
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not (ROOT / "src" / "detcomp" / "__init__.py").is_file():
        print(f"error: no detcomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probe = common + ["--seconds", "0", "--setup-only"]
    # Set-up probes go half before and half after the measured process, so
    # their median spans the run rather than one moment of machine load.
    before = 0 if args.trace else SETUP_PROBES // 2
    after = 0 if args.trace else SETUP_PROBES - 1 - before
    try:
        setups = [spawn(probe, env, deadline)["setup_s"] for _ in range(before)]
        result = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                       env, deadline)
        setups.append(result["setup_s"])
        setups += [spawn(probe, env, deadline)["setup_s"] for _ in range(after)]
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        values = result["layers"]
    else:
        values = {
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, {result['passes']} pass(es), "
          f"trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        # Not a gated metric: on a shared host it includes time the
        # hypervisor gives to other tenants (see README.md).
        print(f"  {'wall_s':36s} {result['wall_s']:.6g} s (not gated)")
    print(f"  {'failed_frac':36s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")
    if "trace_file" in result:
        print(f"  spans written to {result['trace_file']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
