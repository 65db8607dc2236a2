"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run traced sweeps of every workload twice (about a minute on two
cores) and write only under ``.perfbench_out/tests`` at the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

TEST_DIR = ROOT / ".perfbench_out" / "tests"

# Counts that must repeat exactly between two runs of one seed.
EXACT = (
    "space.dofs",
    "assembly.nnz",
    "assembly.elements",
    "assembly.edge_points",
    "linalg.cg.iterations",
    "linalg.cg.matvec_flops",
    "problems.data.calls",
    "problems.data.points",
    "driver.sample_points",
    "geometry.match_interfaces.calls",
)


@pytest.fixture
def run_dir(request):
    path = TEST_DIR / request.node.name.replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def traced_child(workload: str, seed: int, workdir: Path) -> dict:
    workdir.mkdir()
    result = workdir / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
         "--workdir", str(workdir), "--result", str(result), "--trace"],
        env=env, check=True, timeout=170,
    )
    return json.loads(result.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_spans_cover_the_sweep(workload, run_dir):
    a = traced_child(workload, 3, run_dir / "a")
    b = traced_child(workload, 3, run_dir / "b")
    for rec in (a, b):
        assert rec["gate"] == []
        assert rec["absent"] == []
    assert a["outputs"] == b["outputs"]
    assert a.get("bytes_written") == b.get("bytes_written")
    for key in EXACT:
        assert a["layers"].get(key) == b["layers"].get(key), key
    layers = a["layers"]
    assert layers["space.dofs"] > 0 and layers["linalg.cg.iterations"] > 0
    assert layers["trace.root_s"] >= 0.98 * a["sweep_s"]
    unattributed = layers["driver.run_sweep.self_s"] + layers.get("cli.main.self_s", 0.0)
    assert unattributed <= 0.05 * a["sweep_s"]
    if workload == "cli-cylinder":
        assert layers["driver.sample_points"] == 8 * 100 * 5
        assert a["bytes_written"] > 0


def test_gate_rejects_checkerboard_jumps():
    """plane_sine is not a transmission solution when every interface jumps."""
    base = workloads.WORKLOADS["patches-jump"]
    w = dataclasses.replace(base, levels=3, finest_dofs=16 * 36)
    bad = workloads.jump_grid(0, n=4, alpha_of=workloads.checkerboard_alpha)
    good = workloads.jump_grid(0, n=4)
    bad_reasons = workloads.gate(w, workloads.api_sweep(bad, 2, 3)["rates_csv"])
    good_reasons = workloads.gate(w, workloads.api_sweep(good, 2, 3)["rates_csv"])
    assert any("rate" in r for r in bad_reasons), bad_reasons
    assert not any("rate" in r for r in good_reasons), good_reasons


def test_seeded_layout_changes_numbering_not_results():
    runs = {}
    for seed in (0, 1):
        surface = workloads.jump_grid(seed, n=4)
        runs[seed] = (surface, workloads.api_sweep(surface, 2, 3))
    (s0, r0), (s1, r1) = runs[0], runs[1]
    assert r0["flipped_interfaces"] > 0 and r1["flipped_interfaces"] > 0
    assert [p.control_points.tolist() for p in s0.patches] != [
        p.control_points.tolist() for p in s1.patches
    ]
    rows0 = [line.split(",") for line in r0["rates_csv"].splitlines()[1:]]
    rows1 = [line.split(",") for line in r1["rates_csv"].splitlines()[1:]]
    for a, b in zip(rows0, rows1):
        assert a[2] == b[2]  # dofs
        assert float(a[3]) == pytest.approx(float(b[3]), rel=1e-8)  # l2_error
    again = workloads.jump_grid(0, n=4)
    assert [p.control_points.tolist() for p in again.patches] == [
        p.control_points.tolist() for p in s0.patches
    ]


def test_self_times_and_nested_calls():
    t = tracing.Tracer()
    t.spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],  # same layer nested in itself
        ["c", 5.0, 6.0, 0, 1],
    ]
    m = t.metrics()
    assert m["a.s"] == 10.0 and m["a.self_s"] == 6.0
    assert m["b.s"] == 3.0 and m["b.calls"] == 1 and m["b.self_s"] == 3.0
    assert m["c.s"] == 1.0 and m["trace.root_self_s"] == 6.0


def test_unreadable_count_is_reported_absent():
    t = tracing.Tracer()
    f = t.wrap("x.f", lambda: 1, on_exit=lambda args, kwargs, result: result.missing)
    assert f() == 1 and f() == 1
    assert t.absent == ["x.f counts"]


def test_missing_layer_is_reported_absent(monkeypatch):
    import dgiga.driver

    original = dgiga.driver.run_sweep
    layers = tracing.LAYERS + [("dgiga.driver", "no_such_function", "driver.gone")]
    monkeypatch.setattr(tracing, "LAYERS", layers)
    t = tracing.Tracer()
    t.install()
    try:
        assert dgiga.driver.run_sweep is not original
    finally:
        t.uninstall()
    assert dgiga.driver.run_sweep is original
    assert t.absent == ["dgiga.driver.no_such_function"]


def test_refuses_to_run_without_source_tree(run_dir):
    shutil.copy(ROOT / "BENCHMARK.json", run_dir)
    shutil.copytree(HERE, run_dir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "square-deep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=run_dir, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
