"""Manufactured problems, stated as expression specs.

A spec is ``key=expr`` terms joined by ``;``, with keys f, u, gD, gN and the
gradient components gx, gy, gz (all three or none), each at most once.
Expressions use a small arithmetic language: +, -, *, /, ^, sin, cos, exp,
atan2, pi and the coordinates x, y, z; in f also ``alpha``, the diffusion
coefficient of the patch the point lies on.  The built-in cases are named
specs that pair an exact solution with its source f = alpha (-Delta u), so
every solve can be checked against it.  A value that comes out NaN or +-inf
raises ValueError naming its expression.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .assembly import ProblemData, default_penalty
from .geometry import MultiPatchSurface

__all__ = ["builtin_problems", "make_problem", "parse_expression"]

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "atan2": np.arctan2}
_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Call,
    ast.Name,
    ast.Load,
    ast.Constant,
)


def parse_expression(text: str, params=()):
    """Compile an arithmetic expression in x, y, z into a vectorized field.

    Each call parses and compiles anew.  The returned callable maps an (N, 3)
    point array to an (N,) array; each name in the sequence ``params`` is a scalar
    or (N,) array it takes by keyword, as in ``field(points, alpha=1.0)``.  Raises
    ValueError on any construct outside the language, and the callable raises
    ValueError naming the expression where the arithmetic fails (an overflow of
    Python numbers or a division by an integer zero) or yields NaN or +-inf.
    """
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(
                f"unsupported construct {type(node).__name__} in expression {text!r}"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ValueError(f"unsupported function call in expression {text!r}")
            if node.keywords:
                raise ValueError("keyword arguments are not supported in expressions")
        if isinstance(node, ast.Name) and node.id not in ("x", "y", "z", "pi", *params,
                                                          *_ALLOWED_CALLS):
            if node.id == "alpha":
                raise ValueError(f"alpha, the patch coefficient, is allowed only in f, "
                                 f"not in expression {text!r}")
            raise ValueError(f"unknown name {node.id!r} in expression {text!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError(f"non-numeric constant in expression {text!r}")
    code = compile(tree, "<expression>", "eval")

    def field(pts, **values):
        pts = np.asarray(pts, dtype=float)
        env = {
            "x": pts[:, 0],
            "y": pts[:, 1],
            "z": pts[:, 2],
            "pi": math.pi,
            **_ALLOWED_CALLS,
            **values,
        }
        try:
            with np.errstate(all="ignore"):  # non-finite values raise below
                out = np.full(pts.shape[0], eval(code, {"__builtins__": {}}, env), dtype=float)
        except ArithmeticError as exc:
            raise ValueError(f"cannot evaluate expression {text!r}: {exc}") from None
        finite = np.isfinite(out)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"expression {text!r} evaluates to {out[i]} at point {pts[i].tolist()}")
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
