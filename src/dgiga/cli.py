"""Command-line driver.

    dgiga solve <geometry> --problem <name|exprs> --levels <n>
                [--delta <v>] [--tol <v>] --out <dir>
    dgiga check <geometry>

Exit codes: 0 success, 2 parse error, 3 solver failure, 4 geometry error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .driver import SolverFailure, run_sweep, sample_solution
from .geofile import ParseError, parse_geometry
from .geometry import GeometryError
from .linalg import NumericalBreakdownError
from .problems import builtin_problems, make_problem

EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_GEOMETRY = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgiga",
        description="Interior-penalty isogeometric solver for surface diffusion problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a refinement sweep at the geometry's degree")
    solve.add_argument("geometry", help="geometry file path")
    solve.add_argument(
        "--problem",
        required=True,
        help="built-in spec (%s) or 'key=expr;...' with keys f,u,gD,gN,gx,gy,gz; "
        "in f, alpha is the patch's diffusion coefficient" % ", ".join(builtin_problems()),
    )
    solve.add_argument("--levels", type=int, default=1, help="number of refinement levels")
    solve.add_argument("--delta", type=float, default=None, help="penalty override")
    solve.add_argument("--tol", type=float, default=1e-10, help="solver relative tolerance")
    solve.add_argument("--out", required=True, help="output directory")

    check = sub.add_parser("check", help="validate a geometry's topology")
    check.add_argument("geometry", help="geometry file path")
    return parser


def _cmd_check(args) -> int:
    data = parse_geometry(args.geometry)
    surface = data.surface()
    counts = {k: len(surface.edges_of_kind(k)) for k in ("interior", "dirichlet", "neumann")}
    print(f"patches: {surface.num_patches}")
    print(f"interior edges:  {counts['interior']}")
    print(f"dirichlet edges: {counts['dirichlet']}")
    print(f"neumann edges:   {counts['neumann']}")
    return 0


def _cmd_solve(args) -> int:
    data = parse_geometry(args.geometry)
    surface = data.surface()
    degree = surface.patches[0].degree[0]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def factory(surf, delta):
        return make_problem(args.problem, surf, degree, delta)

    def collect(result):
        path = out_dir / f"solution_L{result.level}.csv"
        path.write_text(sample_solution(result), encoding="utf-8")
        e = result.errors
        print(
            f"level {result.level}: dofs={e.dofs} h={e.h_max:.4e} "
            f"l2={e.l2_error:.6e} dg={e.dg_error:.6e} "
            f"cg_iters={result.solve_report.iterations}"
        )

    table, _ = run_sweep(
        surface,
        degree,
        factory,
        levels=args.levels,
        tol=args.tol,
        delta=args.delta,
        collect=collect,
    )
    (out_dir / "rates.csv").write_text(table.to_csv(), encoding="utf-8")
    print(f"wrote {out_dir / 'rates.csv'}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_solve(args)
    except ParseError as exc:
        print(f"error: {args.geometry}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SolverFailure, NumericalBreakdownError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY


if __name__ == "__main__":
    sys.exit(main())
