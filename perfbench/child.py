"""One workload process: set-up, then one timed refinement sweep.

    python3 perfbench/child.py --workload NAME --seed N --workdir DIR --result FILE
                               [--trace] [--spans FILE] [--setup-only]

Set-up time runs from ``import dgiga`` until the geometry is built or parsed,
including its first ``match_interfaces``; nothing imports numpy before it.
The result, or the traceback of a failure, is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def run(args) -> dict:
    start = time.perf_counter()
    import dgiga  # noqa: F401  (timed: part of set-up)

    import_s = time.perf_counter() - start
    workdir = Path(args.workdir)
    inputs = workloads.prepare(args.workload, workdir)
    start = time.perf_counter()
    surface = workloads.setup(args.workload, args.seed, inputs)
    record = dict(setup_s=import_s + time.perf_counter() - start, import_s=import_s)
    if args.setup_only:
        return record

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        record.update(workloads.sweep(args.workload, surface, inputs, workdir))
    finally:
        if tracer is not None:
            tracer.uninstall()
    w = workloads.WORKLOADS[args.workload]
    record["gate"] = workloads.gate(w, record["rates_csv"])
    record["finest_dofs_per_s"] = w.finest_dofs / record["level_s"][-1]
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["absent"] = tracer.absent
        if args.spans:
            tracer.write(args.spans)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except Exception:
        record = {"error": traceback.format_exc()}
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return 0 if "error" not in record else 1


if __name__ == "__main__":
    sys.exit(main())
