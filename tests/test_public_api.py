"""The public surface: ``dgiga``'s top-level names, their parameters, and what
the demos reach for.

The library has one evaluation path (``splines.tabulate`` feeding
``geometry.tabulate_grid``, ``tabulate_patches`` and ``tabulate_sides``);
the pointwise evaluators the tests compare it against live in
``tests/oracles.py``.  A name added to or dropped from the top level, a
parameter or default added to or dropped from a top-level callable, or a
demo that needs a private name, fails here, and so does a public name that
only tests and demos call.
"""

import ast
import dataclasses
import inspect
import types
from pathlib import Path

import pytest

import dgiga

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
# Where a public name must have a caller: demos and tests do not count.
CALLERS = [path for folder in ("src", "scripts", "perfbench")
           for path in sorted((ROOT / folder).rglob("*.py")) if not path.name.startswith("test_")]

PUBLIC = {
    "DgSpace", "DiscreteFunction", "ErrorReport", "GeometryData", "GeometryError",
    "InterfaceEdge", "KnotVector", "MultiPatchSurface", "NumericalBreakdownError",
    "NurbsBasis2D", "NurbsPatch", "ParseError", "ProblemData", "RateTable",
    "SingularMapError", "SolveReport", "SolverFailure", "SparseSystem", "TopologyError",
    "assemble_system", "build_space",
    "builtin_problems", "cg_solve", "default_penalty", "greville", "insert_knots",
    "make_problem", "match_interfaces", "measure_errors", "parse_expression",
    "parse_geometry", "rate_table", "refine_surface", "run_sweep", "sample_solution",
    "serialize_geometry", "solve_problem",
}

# Parameter names of every top-level callable, "=" marking one with a default;
# None for an exception class that keeps Exception's constructor.
SIGNATURES = {
    "DgSpace": ("surface", "degree", "offsets", "total_dofs"),
    "DiscreteFunction": ("space", "coefficients"),
    "ErrorReport": ("l2_error", "dg_error", "dofs", "h_max", "per_patch"),
    "GeometryData": ("patches", "tags", "alpha"),
    "GeometryError": None,
    "InterfaceEdge": ("kind", "left", "right=", "orientation_flip="),
    "KnotVector": ("degree", "knots"),
    "MultiPatchSurface": ("patches", "edges", "alpha="),
    "NumericalBreakdownError": None,
    "NurbsBasis2D": ("basis_u", "basis_v", "weights"),
    "NurbsPatch": ("basis", "control_points", "id"),
    "ParseError": ("line", "message"),
    "ProblemData": ("f=", "g_D=", "g_N=", "delta", "u_exact=", "grad_u_exact="),
    "RateTable": ("rows",),
    "SingularMapError": None,
    "SolveReport": ("iterations", "final_relative_residual", "converged"),
    "SolverFailure": ("report",),
    "SparseSystem": ("matrix", "rhs", "basis_integrals"),
    "TopologyError": None,
    "assemble_system": ("space", "data"),
    "build_space": ("surface", "p"),
    "builtin_problems": (),
    "cg_solve": ("A", "b", "tol=", "max_iter=", "mean_weights=", "x0="),
    "default_penalty": ("p",),
    "greville": ("kv",),
    "insert_knots": ("kv", "new_knots"),
    "make_problem": ("spec", "surface", "degree", "delta="),
    "match_interfaces": ("patches", "tags=", "alpha="),
    "measure_errors": ("u_h", "data"),
    "parse_expression": ("text", "params="),
    "parse_geometry": ("path",),
    "rate_table": ("reports",),
    "refine_surface": ("surface",),
    "run_sweep": ("surface", "p", "problem_factory", "levels", "tol=", "delta=", "collect="),
    "sample_solution": ("result",),
    "serialize_geometry": ("data",),
    "solve_problem": ("surface", "p", "data", "tol=", "x0="),
}


def parameters(value):
    try:
        params = inspect.signature(value).parameters.values()
    except ValueError:  # no signature of its own: Exception's constructor
        return None
    return tuple(p.name + ("=" if p.default is not p.empty else "") for p in params)


def test_top_level_names_are_pinned():
    names = {name for name, value in vars(dgiga).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


def test_top_level_parameters_are_pinned():
    assert set(SIGNATURES) == {name for name in PUBLIC if callable(getattr(dgiga, name))}
    assert {name: parameters(getattr(dgiga, name)) for name in SIGNATURES} == SIGNATURES


def test_problem_data_fields_are_keyword_only():
    """Its fields and their defaults are pinned in SIGNATURES; none is positional."""
    assert all(f.kw_only for f in dataclasses.fields(dgiga.ProblemData))


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


def public_names() -> set:
    """``dgiga``'s top-level imports and every module's ``__all__``, read from the source."""
    names = set()
    for path in sorted((ROOT / "src" / "dgiga").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                names.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                      for t in node.targets):
                names.update(ast.literal_eval(node.value))
    return names


def loaded_names(node, inside=()) -> set:
    """Names read (as a name or an attribute) in ``node``, except within a
    definition of that same name: a recursive call or a class naming itself."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = (*inside, node.name)
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        found |= loaded_names(child, inside)
    return found - set(inside)


def test_every_public_name_has_a_caller_outside_tests_and_demos():
    assert CALLERS
    called = set().union(*(loaded_names(ast.parse(path.read_text(encoding="utf-8")))
                           for path in CALLERS))
    assert sorted(public_names() - called) == []
