#!/usr/bin/env python3
"""Print sha256 digests of the solver's outputs on a few fixed cases.

    PYTHONPATH=src python3 scripts/output_digest.py
    PYTHONPATH=src python3 scripts/output_digest.py > tests/output_digest.txt

The script first prints, as ``# key value`` lines, the environment the
digests hold for: numpy, scipy, the BLAS build and the CPU model and flags.
OpenBLAS picks its kernels by CPU, so the same code can round differently
elsewhere.  ``tests/test_output_digest.py`` compares the lines with the
committed ``tests/output_digest.txt`` (the second command regenerates it, for
a change that moves outputs on purpose) and skips where the environment
differs.

Each case is a short refinement sweep.  For every case the script prints one
line per output: the ``rates.csv`` and every ``solution_L*.csv`` text that
``dgiga solve`` would write, and the ``data``, ``indices``, ``indptr`` and
``rhs`` bytes of ``assemble_system`` on the finest level.  Two trees that
print the same lines give byte-identical outputs on these cases.

The cases cover polynomial and rational patches, volume grids contracted
v first and west/east side grids contracted u first, interfaces whose edge
parameters run in opposite directions, coefficient jumps, Dirichlet data, a
pure-Neumann problem, a 6x6 grid with seeded patch ids and flips whose
36 patches of one knot vector are cut into several stacks on the finest
level (``geometry.patch_stacks``), a hand-written expression spec with
integer constants, ``^`` and unary minus, which pins the bits of the
expression evaluator (``problems.parse_expression``) beyond the built-ins,
and a p = 4 square whose finest patches of 8 x 8 elements each have a volume
X batch (640 KB) above ``geometry.STACK_BYTES``, so it is built in blocks of
element rows.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy

from dgiga.assembly import assemble_system
from dgiga.driver import run_sweep, sample_solution
from dgiga.geometries import full_cylinder, planar_rectangle_patch, quarter_cylinder_grid, square_grid
from dgiga.geometry import NurbsPatch, match_interfaces
from dgiga.problems import make_problem
from dgiga.splines import KnotVector, NurbsBasis2D


def square_patches(n: int, ids, flip, alpha):
    """The n x n unit-square grid of p = 2 patches, Dirichlet all round: cell
    (i, j) is patch ids[j n + i] with coefficient alpha[j n + i], running
    against x where flip is set, so that its interfaces with unflipped
    neighbours are flipped.  The outer sides are tagged from the cell and its
    flip: x = 0 is a patch's west side, or its east side where it is flipped."""
    patches, tags = [None] * (n * n), {}
    for cell, (pid, reverse) in enumerate(zip(ids, flip)):
        i, j = cell % n, cell // n
        patch = planar_rectangle_patch(2, (i / n, j / n), (1.0 / n, 1.0 / n), int(pid))
        west, east = ("east", "west") if reverse else ("west", "east")
        if reverse:
            kv = patch.basis.basis_u
            basis = NurbsBasis2D(KnotVector(kv.degree, 1.0 - kv.knots[::-1]),
                                 patch.basis.basis_v, patch.basis.weights[::-1])
            patch = NurbsPatch(basis, patch.control_points[::-1], patch.id)
        patches[pid] = patch
        outer = {west: i == 0, east: i == n - 1, "south": j == 0, "north": j == n - 1}
        tags.update({(patch.id, side): "dirichlet" for side, out in outer.items() if out})
    return match_interfaces(patches, tags, alpha=np.asarray(alpha)[np.argsort(ids)])


def flipped_square():
    """The 2x2 grid with quadrant coefficients 1 and 100, whose patches 1 and
    2 run against x: its two horizontal interfaces are flipped."""
    return square_patches(2, range(4), [False, True, True, False], [1.0, 100.0, 100.0, 1.0])


def seeded_patches(n: int = 6, seed: int = 3):
    """An n x n grid (n even) with seeded patch ids, about half its patches
    running against x and quadrant coefficients 1 and 100: the jumps sit on
    x = 1/2 and y = 1/2, where plane_sine's normal derivative is zero.  Its
    many patches of one knot vector are cut into several stacks."""
    rng = np.random.default_rng(seed)
    ids, flip = rng.permutation(n * n), rng.random(n * n) < 0.5
    alpha = [100.0 if (2 * (c % n) < n) == (2 * (c // n) < n) else 1.0 for c in range(n * n)]
    return square_patches(n, ids, flip, alpha)


# A manufactured solution on the unit cylinder, the same spec as
# tests/test_pinned_rates.py's CYLINDER_PROBLEM.
CYLINDER_SPEC = (
    "u=x*cos(pi*z); f=(1+pi^2)*x*cos(pi*z); gN=0*x; "
    "gx=y^2*cos(pi*z); gy=-x*y*cos(pi*z); gz=-pi*x*sin(pi*z)"
)

# name: (surface builder, degree, problem name or spec, levels)
CASES = {
    "square-p2": (lambda: square_grid(2), 2, "plane_sine", 3),
    "flipped-jumps": (flipped_square, 2, "plane_sine", 3),
    "quarter-cylinder-p3": (lambda: quarter_cylinder_grid(3), 3, "cylinder_sine", 3),
    "cylinder-neumann": (lambda: full_cylinder(3, 2), 3, "cylinder_sine", 3),
    "seeded-6x6": (seeded_patches, 2, "plane_sine", 3),
    "cylinder-spec": (lambda: full_cylinder(3, 2), 3, CYLINDER_SPEC, 2),
    "square-p4-blocks": (lambda: square_grid(4), 4, "plane_sine", 4),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(name: str) -> list[tuple[str, str]]:
    """(output name, sha256) pairs of one case."""
    build, p, problem, levels = CASES[name]
    table, results = run_sweep(build(), p, lambda surf, delta: make_problem(problem, surf, p, delta),
                               levels)
    out = [("rates.csv", sha(table.to_csv().encode()))]
    out += [(f"solution_L{r.level}.csv", sha(sample_solution(r).encode())) for r in results]
    space = results[-1].solution.space
    system = assemble_system(space, make_problem(problem, space.surface, p))
    A = system.matrix
    arrays = {"data": A.data, "indices": A.indices, "indptr": A.indptr, "rhs": system.rhs}
    return out + [(key, sha(np.ascontiguousarray(a).tobytes())) for key, a in arrays.items()]


def environment() -> dict[str, str]:
    """numpy and scipy versions, the BLAS build string, and the CPU model and flags
    (from /proc/cpuinfo; "unknown" where it cannot be read)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or blas["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    cpu: dict[str, str] = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                cpu.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "cpu": cpu.get("model name", "unknown"), "flags": cpu.get("flags", "unknown")}


def main() -> int:
    for key, value in environment().items():
        print(f"# {key} {value}")
    for name in CASES:
        for output, digest in digests(name):
            print(f"{name} {output} {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
