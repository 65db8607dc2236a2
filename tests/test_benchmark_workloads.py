"""The benchmark's own entry points, run once per workload through dgiga.

``perfbench/workloads.py`` is loaded from its file and only called: a change
that breaks the benchmark's calls into dgiga (a renamed function or
parameter) fails here, not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["square-deep", "patches-jump", "cli-cylinder"])
def test_workload_sweep_passes_its_gate(name, workloads, tmp_path):
    inputs = workloads.prepare(name, tmp_path)
    surface = workloads.setup(name, 0, inputs)
    result = workloads.sweep(name, surface, inputs, tmp_path)
    assert workloads.gate(workloads.WORKLOADS[name], result["rates_csv"]) == []
