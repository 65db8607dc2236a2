import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dgiga
from dgiga.driver import run_sweep
from dgiga.geofile import parse_geometry
from dgiga.problems import make_problem

BUNDLED = {
    1: "square4.g",
    2: "square4_p2.g",
    3: "square4_p3.g",
}
BUNDLED_CYL = {2: "qcyl4.g", 3: "qcyl4_p3.g"}


def bundled(name):
    """Path of a geometry file bundled in the package's ``data/`` directory."""
    return Path(dgiga.__file__).parent / "data" / name


@pytest.fixture(scope="session")
def planar_sweep():
    """Cached plane_sine sweeps on the bundled 4-patch square, keyed by (p, levels)."""
    cache = {}

    def get(p: int, levels: int):
        key = (p, levels)
        if key not in cache:
            surface = parse_geometry(bundled(BUNDLED[p])).surface()

            def factory(surf, delta):
                return make_problem("plane_sine", surf, p, delta)

            cache[key] = run_sweep(surface, p, factory, levels=levels)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def cylinder_sweep():
    """Cached cylinder_sine sweeps on the bundled quarter cylinder."""
    cache = {}

    def get(p: int, levels: int):
        key = (p, levels)
        if key not in cache:
            surface = parse_geometry(bundled(BUNDLED_CYL[p])).surface()

            def factory(surf, delta):
                return make_problem("cylinder_sine", surf, p, delta)

            cache[key] = run_sweep(surface, p, factory, levels=levels)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def jump_sweep():
    """plane_sine on the 4-patch square with checkerboard coefficients 1 / 1e4."""
    from dgiga.geometries import square_grid

    surface = square_grid(2, alpha=[1.0, 1e4, 1e4, 1.0])

    def factory(surf, delta):
        return make_problem("plane_sine", surf, 2, delta)

    return run_sweep(surface, 2, factory, levels=5)


def traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak of that one call, in bytes.  A caller
    that means to leave out memoised tables warms them up first."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def symmetry_deviation(a) -> float:
    """max |A - A^T| relative to max |A| for a scipy sparse matrix."""
    num = np.abs((a - a.T).data)
    den = np.abs(a.data)
    if den.size == 0:
        return 0.0
    return float((num.max() if num.size else 0.0) / den.max())


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
