"""Summarise a span file written by a traced run.

    python3 bench/spans.py bench/out/trace-determinant.jsonl [--by-job]

Prints, per span name (and per job with --by-job), the number of calls, the
inclusive time and the self time, summed over all passes of the run. Self
time is what the per-layer metrics report; inclusive time answers "how long
did each Berkowitz call take".
"""

from __future__ import annotations

import argparse
import json


def summarise(path, by_job=False):
    with open(path) as f:
        header = json.loads(f.readline())
        spans = [json.loads(line) for line in f]
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    rows: dict = {}
    for (name, start, end, parent, job), covered in zip(spans, child):
        key = (job.split(":", 1)[1] if by_job else "", name)
        calls, incl, self_s = rows.get(key, (0, 0.0, 0.0))
        rows[key] = (calls + 1, incl + end - start, self_s + end - start - covered)
    return header, rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("path")
    ap.add_argument("--by-job", action="store_true")
    args = ap.parse_args(argv)
    header, rows = summarise(args.path, args.by_job)
    print(f"workload {header['workload']}, seed {header['seed']}")
    print(f"{'job':28s} {'span':34s} {'calls':>8s} {'incl_s':>10s} {'self_s':>10s}")
    for (job, name), (calls, incl, self_s) in sorted(rows.items()):
        print(f"{job:28s} {name:34s} {calls:8d} {incl:10.4f} {self_s:10.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
