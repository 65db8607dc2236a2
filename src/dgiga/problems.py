"""Manufactured problems, stated as expression specs.

A spec is ``key=expr`` terms joined by ``;``, with keys f, u, gD, gN and the
gradient components gx, gy, gz (all three or none), each at most once.  The
expression language is two tables, ``_OPERATORS`` (+, -, *, /, ^, unary +
and -) and ``_FUNCTIONS`` (sin, cos and exp of one argument, atan2 of two),
over numbers, pi and x, y, z; in f also ``alpha``, the diffusion coefficient
of the patch the point lies on.  Numbers and pi are float64: an overflow
gives +-inf, a negative base to a fractional power NaN, and a value that
comes out NaN or +-inf raises ValueError naming its expression.  The
built-in cases are named specs that pair an exact solution with its source
f = alpha (-Delta u), so every solve can be checked against it.
"""

from __future__ import annotations

import ast
import math
import operator

import numpy as np

from .assembly import ProblemData, default_penalty
from .geometry import MultiPatchSurface

__all__ = ["builtin_problems", "make_problem", "parse_expression"]

_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow, ast.USub: operator.neg,
              ast.UAdd: operator.pos}
_FUNCTIONS = {"sin": (np.sin, 1), "cos": (np.cos, 1), "exp": (np.exp, 1), "atan2": (np.arctan2, 2)}


def _evaluate(node, env):
    """A built node's value: a name in ``env``, a float64 constant or (function, *operands)."""
    if isinstance(node, tuple):  # one operand or two
        a = _evaluate(node[1], env)
        return node[0](a) if len(node) == 2 else node[0](a, _evaluate(node[2], env))
    return env[node] if isinstance(node, str) else node


def parse_expression(text: str, params=()):
    """Build an arithmetic expression in x, y, z into a vectorized field.

    Each call parses anew, into a tree of ``_evaluate`` nodes.  The returned
    callable maps an (N, 3) point array to an (N,) array; each name in the
    sequence ``params`` is a scalar or (N,) array it takes by keyword, as in
    ``field(points, alpha=1.0)``.  Raises ValueError on any construct, name,
    argument count or number outside the language; the callable raises
    ValueError naming the expression where a value is NaN or +-inf.
    """
    names = ("x", "y", "z", "pi", *params)

    def build(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return np.float64(node.value)
        if isinstance(node, ast.Name) and node.id in names:
            return node.id
        if isinstance(node, ast.Name):
            if node.id == "alpha":
                raise ValueError(f"alpha, the patch coefficient, is allowed only in f, "
                                 f"not in expression {text!r}")
            raise ValueError(f"unknown name {node.id!r} in expression {text!r}")
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return _OPERATORS[type(node.op)], build(node.left), build(node.right)
        if isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
            return _OPERATORS[type(node.op)], build(node.operand)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in _FUNCTIONS:
            fn, arity = _FUNCTIONS[node.func.id]
            if node.keywords or len(node.args) != arity:
                raise ValueError(f"{node.func.id} takes {arity} positional argument(s), "
                                 f"in expression {text!r}")
            return fn, *[build(arg) for arg in node.args]
        raise ValueError(f"unsupported construct {type(node).__name__} in expression {text!r}")

    # The parser reports nesting too deep for it by an empty MemoryError, and
    # np.float64 an integer literal beyond its range by OverflowError.
    try:
        tree = build(ast.parse(text.replace("^", "**"), mode="eval").body)
    except (SyntaxError, RecursionError, MemoryError, OverflowError) as exc:
        reason = str(exc) or "nested too deeply"
        raise ValueError(f"cannot parse expression {text!r}: {reason}") from None

    def field(pts, **values):
        pts = np.asarray(pts, dtype=float)
        env = {"x": pts[:, 0], "y": pts[:, 1], "z": pts[:, 2], "pi": np.float64(math.pi), **values}
        try:
            with np.errstate(all="ignore"):  # non-finite values raise below
                out = np.full(pts.shape[0], _evaluate(tree, env), dtype=float)
        except RecursionError:  # built near the limit, evaluated deeper in the stack
            raise ValueError(f"expression {text!r} is nested too deeply") from None
        finite = np.isfinite(out)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"expression {text!r} evaluates to {out[i]} "
                             f"at point {pts[i].tolist()}")
        return out

    return field


# Built-in specs, with f = alpha (-Delta u).  cylinder_sine is u = sin(theta)
# sin(pi z) on the unit cylinder, where the Laplace-Beltrami operator is
# u_theta_theta + u_zz; plane_cosine has zero normal derivative on the unit
# square's boundary.  The parentheses fix the operation order, which the
# tests pin bit for bit against the closed forms written in numpy.
_BUILTINS = {
    "plane_sine": (
        "u=sin(pi*x)*sin(pi*y); f=2*pi^2*alpha*(sin(pi*x)*sin(pi*y));"
        "gx=pi*cos(pi*x)*sin(pi*y); gy=pi*sin(pi*x)*cos(pi*y); gz=0"
    ),
    "plane_cosine": (
        "u=cos(pi*x)*cos(pi*y); f=2*pi^2*alpha*(cos(pi*x)*cos(pi*y)); gN=0;"
        "gx=-pi*sin(pi*x)*cos(pi*y); gy=-pi*cos(pi*x)*sin(pi*y); gz=0"
    ),
    "cylinder_sine": (
        "u=sin(atan2(y,x))*sin(pi*z); f=(1+pi^2)*alpha*(sin(atan2(y,x))*sin(pi*z));"
        "gx=-sin(atan2(y,x))*(cos(atan2(y,x))*sin(pi*z));"
        "gy=cos(atan2(y,x))*(cos(atan2(y,x))*sin(pi*z)); gz=pi*sin(atan2(y,x))*cos(pi*z)"
    ),
}


def builtin_problems() -> tuple[str, ...]:
    """Names of the built-in manufactured cases."""
    return tuple(sorted(_BUILTINS))


def _expression_problem(spec: str, surface, delta: float) -> ProblemData:
    fields = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"expression problem term {part!r} is not key=expr")
        key, expr = part.split("=", 1)
        key = key.strip()
        if key not in ("f", "u", "gD", "gN", "gx", "gy", "gz"):
            raise ValueError(
                f"unknown problem field {key!r} (expected f, u, gD, gN, gx, gy, gz)"
            )
        if key in fields:
            raise ValueError(f"problem field {key!r} is given more than once")
        fields[key] = parse_expression(expr.strip(), ("alpha",) if key == "f" else ())

    u, f_field = fields.get("u"), fields.get("f")
    g = [fields.get(k) for k in ("gx", "gy", "gz")]
    missing = [k for k, gi in zip(("gx", "gy", "gz"), g) if gi is None]
    if 0 < len(missing) < 3:
        raise ValueError(f"the exact gradient needs gx, gy and gz; missing {', '.join(missing)}")
    grad = (lambda pts: np.stack([gi(pts) for gi in g], axis=1)) if not missing else None
    f = (lambda pid, pts: f_field(pts, alpha=surface.alpha[pid])) if f_field else None
    return ProblemData(f=f, g_D=fields.get("gD", u), g_N=fields.get("gN"), delta=delta,
                       u_exact=u, grad_u_exact=grad)


def make_problem(spec: str, surface: MultiPatchSurface, degree: int, delta=None) -> ProblemData:
    """Resolve a built-in name or a key=expression spec into ProblemData.

    A built-in name stands for its spec in ``_BUILTINS``; both go through the
    same parser.  Unknown names raise ValueError listing the available cases.
    """
    if delta is None:
        delta = default_penalty(degree)
    if "=" not in spec:
        try:
            spec = _BUILTINS[spec]
        except KeyError:
            raise ValueError(
                f"unknown problem {spec!r}; available: {', '.join(builtin_problems())}"
            ) from None
    return _expression_problem(spec, surface, delta)
