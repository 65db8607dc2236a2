"""Refinement-sweep benchmark for dgiga.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (it imports ``src/dgiga``; nothing is
installed).  Each sweep runs in its own workload process (``child.py``), one
at a time, with BLAS/OpenMP pinned to one thread: a closed loop with one
caller.  Sweeps repeat until about ``--seconds`` are used (at least two), and
set-up is repeated in set-up-only processes until there are nine samples.

Every sweep passes the gate in ``workloads.gate`` and must reproduce the
first sweep's ``rates.csv`` and solution outputs byte for byte; a sweep that
fails either, or raises, counts in ``failed``.

``--trace 0`` reports the end-to-end metrics (medians over the sweeps).
``--trace 1`` adds one traced sweep and reports the per-layer metrics from
it, with ``trace.overhead_s`` = traced sweep_s - untraced median.  Spans go
to ``.perfbench_out/spans-<workload>-seed<n>.csv``, the run record to
``.perfbench_out/record-<workload>-seed<n>-trace<t>.json``.  The last line
of stdout is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_SWEEPS = 2
MIN_SETUPS = 9
HARD_LIMIT_S = 165.0  # the whole run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# per-layer metrics reported from the traced sweep, with their units
PER_LAYER = [
    ("geometry.match_interfaces.s", "s"),
    ("geometry.match_interfaces.calls", "count"),
    ("geometry.refine_surface.self_s", "s"),
    ("space.dofs", "count"),
    ("problems.data.s", "s"),
    ("problems.data.calls", "count"),
    ("problems.data.points", "count"),
    ("assembly.assemble_volume.s", "s"),
    ("assembly.assemble_interface.s", "s"),
    ("assembly.assemble_boundary.s", "s"),
    ("assembly.assemble_system.self_s", "s"),
    ("assembly.elements", "count"),
    ("assembly.edge_points", "count"),
    ("assembly.nnz", "count"),
    ("linalg.csr.s", "s"),
    ("linalg.cg_solve.s", "s"),
    ("linalg.cg.iterations", "count"),
    ("linalg.cg.matvec_flops", "count"),
    ("analysis.surface_h_max.s", "s"),
    ("analysis.measure_errors.self_s", "s"),
    ("analysis.dg_error.s", "s"),
    ("driver.sample_solution.s", "s"),
    ("driver.sample_points", "count"),
    ("driver.run_sweep.self_s", "s"),
    ("geofile.parse_geometry.s", "s"),
    ("cli.main.self_s", "s"),
]


def machine_facts(root: Path, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return dict(
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        cpu_model=cpu,
        python=platform.python_version(),
        **versions,
        commit=commit,
        seed=seed,
        threads_pinned=1,
    )


class Runner:
    """Starts workload processes one at a time and collects their records."""

    def __init__(self, root: Path, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.start = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        )
        self.env["PYTHONHASHSEED"] = "0"
        for var in THREAD_VARS:
            self.env[var] = "1"
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, *flags) -> dict:
        self.count += 1
        workdir = self.run_dir / f"p{self.count}"
        workdir.mkdir()
        result = workdir / "result.json"
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--workdir", str(workdir), "--result", str(result), *flags,
        ]
        began = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, HARD_LIMIT_S - self.elapsed()),
            )
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            return {"error": "workload process timed out", "wall_s": time.perf_counter() - began}
        wall = time.perf_counter() - began
        try:
            record = json.loads(result.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            record = {"error": f"no result (exit {proc.returncode}): {stderr[-2000:]}"}
        record["wall_s"] = wall
        return record


def judge(sweeps: list) -> None:
    """Mark each sweep failed or not: error, gate, or outputs unlike the first."""
    reference = next((s["outputs"] for s in sweeps if "outputs" in s), None)
    for s in sweeps:
        reasons = []
        if "error" in s:
            reasons.append(s["error"].strip().splitlines()[-1])
        else:
            reasons += s["gate"]
            if s["outputs"] != reference:
                diff = sorted(k for k in set(s["outputs"]) | set(reference)
                              if s["outputs"].get(k) != reference.get(k))
                reasons.append(f"outputs differ from the first sweep: {diff}")
        s["failed"] = reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dgiga" / "__init__.py").is_file():
        print(f"error: no dgiga source tree under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        return measure(args, root, out, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, root: Path, out: Path, run_dir: Path) -> int:
    runner = Runner(root, args.workload, args.seed, run_dir)
    sweeps = []
    while True:
        sweeps.append(runner.child())
        est = statistics.median(s["wall_s"] for s in sweeps)
        # leave room for the traced sweep, which runs somewhat slower
        budget = args.seconds - (1.5 * est if args.trace else 0.0)
        need = 1 if args.trace else MIN_SWEEPS
        if len(sweeps) >= need and runner.elapsed() + est > budget:
            break
    untraced = list(sweeps)
    spans_file = out / f"spans-{args.workload}-seed{args.seed}.csv"
    if args.trace:
        sweeps.append(runner.child("--trace", "--spans", str(spans_file)))
    setups = [s["setup_s"] for s in untraced if "setup_s" in s]
    extra = []
    while not args.trace and len(setups) < MIN_SETUPS and len(extra) < 2 * MIN_SETUPS:
        extra.append(runner.child("--setup-only"))
        if "setup_s" in extra[-1]:
            setups.append(extra[-1]["setup_s"])

    judge(sweeps)
    for e in extra:
        e["failed"] = [e["error"].strip().splitlines()[-1]] if "error" in e else []
    attempted = len(sweeps) + len(extra)
    failed = sum(1 for s in sweeps + extra if s["failed"])

    timed = [s for s in untraced if "sweep_s" in s]
    if not timed or not setups or (args.trace and "layers" not in sweeps[-1]):
        for s in sweeps + extra:
            for reason in s["failed"]:
                print(f"failed: {reason}", file=sys.stderr)
        print("error: no sweep completed; nothing to report", file=sys.stderr)
        return 1

    median = statistics.median
    sweep_s = median(s["sweep_s"] for s in timed)
    if args.trace:
        traced = sweeps[-1]
        layers = traced["layers"]
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER
        }
        metrics["cli.bytes_written"] = {"value": float(traced.get("bytes_written", 0)), "unit": "count"}
        metrics["trace.overhead_s"] = {"value": traced["sweep_s"] - sweep_s, "unit": "s"}
    else:
        metrics = {
            "sweep_s": {"value": sweep_s, "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median(s["peak_rss_mb"] for s in timed), "unit": "MB"},
        }

    record = dict(
        workload=args.workload,
        trace=args.trace,
        machine=machine_facts(root, args.seed),
        seconds=args.seconds,
        elapsed_s=runner.elapsed(),
        # reported, not bounded: one level per sweep is too short to be steady
        finest_dofs_per_s=median(s["finest_dofs_per_s"] for s in timed),
        sweeps=[{k: v for k, v in s.items() if k not in ("rates_csv", "layers")} for s in sweeps],
        setup_only=extra,
        rates_csv=next((s["rates_csv"] for s in sweeps if "rates_csv" in s), None),
        layers=sweeps[-1].get("layers") if args.trace else None,
        absent=sweeps[-1].get("absent") if args.trace else None,
        metrics=metrics,
    )
    record_file = out / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for s in sweeps + extra:
        for reason in s["failed"]:
            print(f"failed: {reason}")
    print(json.dumps(record["machine"]))
    print(f"{args.workload}: {len(sweeps)} sweeps, {len(setups)} set-ups, "
          f"{runner.elapsed():.1f} s; finest level {record['finest_dofs_per_s']:.1f} DOFs/s; "
          f"record in {record_file.relative_to(root)}")
    if args.trace and record["absent"]:
        print(f"absent layers: {', '.join(record['absent'])}")
    result = dict(correct=failed == 0, attempted=attempted, failed=failed, metrics=metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
