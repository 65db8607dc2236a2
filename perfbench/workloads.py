"""The benchmark's workloads: inputs, one timed refinement sweep, and the gate.

Nothing here imports numpy or dgiga at module level, because the workload
process times ``import dgiga`` as part of set-up.  Every call into dgiga goes
through a module attribute (``driver.run_sweep``, ``cli.main``, ...) looked
up at call time, so the tracer's wrappers take effect.

Why these three workloads:

- square-deep: 2x2 patches, many elements per patch.  Element loops
  (volume assembly, the L2 loop, ``dg_error``'s volume part and
  ``surface_h_max``) dominate; edge work is small.
- patches-jump: 8x8 patches with a 1:1e4 coefficient jump by quadrant.  Edge
  loops and O(sides^2) interface matching at every level dominate, and CG
  needs the most iterations.  The seed permutes patch ids and reverses the
  u-direction of a subset of patches, so interfaces with flipped orientation
  occur.
- cli-cylinder: ``dgiga solve`` on the full cylinder (8 rational p = 3
  patches, closed in the angle, Neumann rims).  It covers ``.g`` parsing,
  expression-language data, the pure-Neumann projected CG and CSV output.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

CYLINDER_PROBLEM = (
    "u=x*cos(pi*z); f=(1+pi^2)*x*cos(pi*z); gN=0*x; "
    "gx=y^2*cos(pi*z); gy=-x*y*cos(pi*z); gz=-pi*x*sin(pi*z)"
)


@dataclass(frozen=True)
class Workload:
    name: str
    degree: int
    levels: int
    finest_dofs: int
    l2_ceiling: float  # finest-level L2 error must stay below this


RATE_TOL = 0.25  # |rate - expected| allowed on the finest level


WORKLOADS = {
    w.name: w
    for w in (
        Workload("square-deep", degree=2, levels=6, finest_dofs=4624, l2_ceiling=1e-6),
        Workload("patches-jump", degree=2, levels=3, finest_dofs=2304, l2_ceiling=8e-6),
        Workload("cli-cylinder", degree=3, levels=5, finest_dofs=2888, l2_ceiling=2e-7),
    )
}


# ---------------------------------------------------------------- geometry


def quadrant_alpha(i: int, j: int, n: int) -> float:
    """1e4 on the lower-left and upper-right quadrants, 1 elsewhere.

    The jumps sit on x = 1/2 and y = 1/2 only, where plane_sine has zero
    normal derivative, so it stays a valid transmission solution.
    """
    return 1e4 if (2 * i < n) == (2 * j < n) else 1.0


def checkerboard_alpha(i: int, j: int, n: int) -> float:
    """Jump on every patch interface: plane_sine is wrong data here."""
    return 1e4 if (i + j) % 2 == 0 else 1.0


def jump_grid(seed: int, n: int = 8, alpha_of=quadrant_alpha):
    """n x n planar patch grid with seeded patch ids and u-reversed patches."""
    import numpy as np

    from dgiga import geometries, geometry, splines

    rng = np.random.default_rng(seed)
    ids = rng.permutation(n * n)
    flip = rng.random(n * n) < 0.5
    patches = [None] * (n * n)
    alpha = np.empty(n * n)
    for j in range(n):
        for i in range(n):
            cell = j * n + i
            pid = int(ids[cell])
            base = geometries.planar_rectangle_patch(
                2, origin=(i / n, j / n), size=(1.0 / n, 1.0 / n), pid=pid
            )
            if flip[cell]:
                kv = base.basis.basis_u
                rev = splines.KnotVector(kv.degree, 1.0 - kv.knots[::-1])
                basis = splines.NurbsBasis2D(
                    rev, base.basis.basis_v, base.basis.weights[::-1, :]
                )
                base = geometry.NurbsPatch(basis, base.control_points[::-1, :, :], pid)
            patches[pid] = base
            alpha[pid] = alpha_of(i, j, n)
    tags = {}
    for patch in patches:
        for side in ("west", "east", "south", "north"):
            x, y, _ = patch.side_point(side, 0.5)
            if min(x, y, 1.0 - x, 1.0 - y) < 1e-12:
                tags[(patch.id, side)] = "dirichlet"
    return geometry.match_interfaces(patches, tags, alpha)


def cylinder_file(path: Path) -> Path:
    """Write full_cylinder(3, 2) as a .g file (input preparation, untimed)."""
    from dgiga import geofile, geometries

    surface = geometries.full_cylinder(3, 2)
    tags = {e.left: e.kind for e in surface.edges if e.kind != "interior"}
    data = geofile.GeometryData(list(surface.patches), tags, surface.alpha)
    path.write_text(geofile.serialize_geometry(data), encoding="utf-8")
    return path


def prepare(name: str, workdir: Path) -> Path | None:
    """Inputs made before set-up is timed."""
    if name == "cli-cylinder":
        return cylinder_file(workdir / "full_cylinder_p3.g")
    return None


def setup(name: str, seed: int, inputs):
    """Build or parse the geometry, including its first match_interfaces."""
    from dgiga import geofile, geometries

    if name == "square-deep":
        return geometries.square_grid(2)
    if name == "patches-jump":
        return jump_grid(seed)
    if name == "cli-cylinder":
        return geofile.parse_geometry(inputs).surface()
    raise KeyError(name)


# ------------------------------------------------------------------- sweeps


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def api_sweep(surface, degree: int, levels: int) -> dict:
    """``run_sweep`` through the public API; times each level at ``collect``."""
    from dgiga import driver, problems

    def factory(surf, delta):
        return problems.make_problem("plane_sine", surf, degree, delta)

    marks = []
    start = time.perf_counter()
    table, results = driver.run_sweep(
        surface, degree, factory, levels, collect=lambda r: marks.append(time.perf_counter())
    )
    end = time.perf_counter()
    rates = table.to_csv()
    outputs = {"rates.csv": _sha(rates.encode())}
    for r in results:
        outputs[f"coefficients_L{r.level}"] = _sha(r.solution.coefficients.tobytes())
    return dict(
        sweep_s=end - start,
        level_s=_level_times(start, marks),
        rates_csv=rates,
        outputs=outputs,
        cg_iterations=[r.solve_report.iterations for r in results],
        flipped_interfaces=sum(1 for e in surface.edges if e.orientation_flip),
    )


class _LevelStamps(io.StringIO):
    """stdout stand-in that timestamps the CLI's per-level 'level k:' lines."""

    def __init__(self):
        super().__init__()
        self.marks = []

    def write(self, s):
        if s.startswith("level "):
            self.marks.append(time.perf_counter())
        return super().write(s)


def cli_sweep(geometry_file: Path, levels: int, out_dir: Path) -> dict:
    """``dgiga solve`` in-process; the sweep ends when every CSV is written."""
    from dgiga import cli

    argv = [
        "solve", str(geometry_file), "--problem", CYLINDER_PROBLEM,
        "--levels", str(levels), "--out", str(out_dir),
    ]
    stamps = _LevelStamps()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stamps):
        code = cli.main(argv)
    end = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"dgiga solve exited with {code}: {stamps.getvalue()}")
    if len(stamps.marks) != levels:
        raise RuntimeError(f"expected {levels} 'level k:' lines, got {len(stamps.marks)}")
    files = sorted(out_dir.glob("*.csv"))
    outputs = {f.name: _sha(f.read_bytes()) for f in files}
    return dict(
        sweep_s=end - start,
        level_s=_level_times(start, stamps.marks),
        rates_csv=(out_dir / "rates.csv").read_text(encoding="utf-8"),
        outputs=outputs,
        bytes_written=sum(f.stat().st_size for f in files),
    )


def _level_times(start: float, marks: list) -> list:
    """Wall time per level from the end-of-level timestamps.

    The first entry runs from the start of the call, so for the CLI it also
    holds the CLI's own parse of the geometry file.
    """
    edges = [start, *marks]
    return [b - a for a, b in zip(edges, edges[1:])]


def sweep(name: str, surface, inputs, workdir: Path) -> dict:
    w = WORKLOADS[name]
    if name == "cli-cylinder":
        return cli_sweep(inputs, w.levels, workdir / "out")
    return api_sweep(surface, w.degree, w.levels)


# --------------------------------------------------------------------- gate


def gate(w: Workload, rates_csv: str) -> list:
    """Reasons the rate table is wrong; empty when it passes.

    The finest level must show an L2 rate near p+1, an energy rate near p,
    the expected number of DOFs and an L2 error below the workload's ceiling.
    """
    rows = list(csv.DictReader(io.StringIO(rates_csv)))
    if len(rows) != w.levels:
        return [f"{len(rows)} levels in the rate table, expected {w.levels}"]
    last = rows[-1]
    reasons = []
    p = w.degree
    l2_rate = float(last["l2_rate"] or "nan")
    dg_rate = float(last["dg_rate"] or "nan")
    l2 = float(last["l2_error"])
    if not abs(l2_rate - (p + 1)) <= RATE_TOL:
        reasons.append(f"finest L2 rate {l2_rate:.3f}, expected {p + 1}")
    if not abs(dg_rate - p) <= RATE_TOL:
        reasons.append(f"finest energy rate {dg_rate:.3f}, expected {p}")
    if not (math.isfinite(l2) and l2 <= w.l2_ceiling):
        reasons.append(f"finest L2 error {l2:.3e} above ceiling {w.l2_ceiling:.1e}")
    if int(last["dofs"]) != w.finest_dofs:
        reasons.append(f"finest level has {last['dofs']} DOFs, expected {w.finest_dofs}")
    return reasons
