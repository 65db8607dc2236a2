"""The public surface: ``dgiga``'s top-level names, and what the demos reach for.

The library has one evaluation path (``splines.tabulate`` feeding
``geometry.tabulate_grid``, ``tabulate_patches`` and ``tabulate_sides``);
the pointwise evaluators the tests compare it against live in
``tests/oracles.py``.  A name added to or dropped from the top level, or a
demo that needs a private name, fails here.
"""

import ast
import types
from pathlib import Path

import pytest

import dgiga

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("[0-9][0-9]_*.py"))

PUBLIC = {
    "DgSpace", "DiscreteFunction", "ErrorReport", "GeometryData", "GeometryError",
    "InterfaceEdge", "KnotVector", "MultiPatchSurface", "NumericalBreakdownError",
    "NurbsBasis2D", "NurbsPatch", "ParseError", "ProblemData", "RateTable",
    "SingularMapError", "SolveReport", "SolverFailure", "SparseSystem", "TopologyError",
    "assemble_system", "assemble_volume", "build_space",
    "builtin_problems", "cg_solve", "default_penalty", "greville", "insert_knots",
    "make_problem", "match_interfaces", "measure_errors", "parse_expression",
    "parse_geometry", "rate_table", "refine_surface", "run_sweep", "sample_solution",
    "serialize_geometry", "solve_problem",
}


def test_top_level_names_are_pinned():
    names = {name for name, value in vars(dgiga).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demos_use_no_private_names(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            private += [node.module] if "._" in f".{node.module}" else []
            private += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.startswith("__"):
            private.append(node.attr)
    assert not private
